//! Seeded input generation. The seed drives operand values, the shape
//! order of `serve_small`, and which outputs are verified; the program
//! under test only ever sees the generated inputs.

/// SplitMix64: a 64-bit state, one multiply-xorshift round per draw.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`: distinct streams of one seed are
    /// independent, so adding an input never shifts the values of another.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)` on a grid of 2^-23: every value is exactly
    /// representable and none is denormal.
    pub fn next_f32(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32) * (1.0 / 8_388_608.0) - 1.0
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound.max(1) as u64) as usize
    }
}

/// `len` operand values of stream `stream` of `seed`.
pub fn fill(seed: u64, stream: u64, len: usize) -> Vec<f32> {
    let mut rng = Rng::new(seed, stream);
    (0..len).map(|_| rng.next_f32()).collect()
}

/// Stream identifiers, so every input has its own.
pub mod stream {
    pub const SERVE_ORDER: u64 = 1;
    pub const VERIFY: u64 = 2;
    /// Operand `which` (0 = A, 1 = B) of operand set `set`.
    pub fn operand(set: usize, which: u64) -> u64 {
        16 + 2 * set as u64 + which
    }
}

/// The `serve_small` job order: `rounds` concatenated shuffles of
/// `0..sets`, so every operand set (and so every shape) is used equally
/// often and the useful flops per job are the same for every seed.
pub fn serve_order(seed: u64, sets: usize, rounds: usize) -> Vec<u32> {
    let mut rng = Rng::new(seed, stream::SERVE_ORDER);
    let mut order = Vec::with_capacity(sets * rounds);
    for _ in 0..rounds {
        let mut round: Vec<u32> = (0..sets as u32).collect();
        for i in (1..round.len()).rev() {
            round.swap(i, rng.below(i + 1));
        }
        order.extend(round);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_one_input_two_seeds_two_inputs() {
        assert_eq!(fill(7, stream::operand(3, 0), 1000), fill(7, stream::operand(3, 0), 1000));
        assert_ne!(fill(7, stream::operand(3, 0), 1000), fill(8, stream::operand(3, 0), 1000));
        assert_ne!(fill(7, stream::operand(3, 0), 1000), fill(7, stream::operand(3, 1), 1000));
    }

    #[test]
    fn operand_values_are_in_range_and_never_denormal() {
        for v in fill(42, 5, 100_000) {
            assert!((-1.0..1.0).contains(&v));
            assert!(v == 0.0 || v.is_normal());
        }
    }

    #[test]
    fn the_serve_order_depends_on_the_seed_alone() {
        let a = serve_order(11, 64, 8);
        assert_eq!(a, serve_order(11, 64, 8));
        assert_ne!(a, serve_order(12, 64, 8));
        // Drawing operands first must not move the order: it has its own stream.
        let _ = fill(11, stream::operand(0, 0), 4096);
        assert_eq!(a, serve_order(11, 64, 8));
        // Every round is a permutation: each set appears once per round.
        for round in a.chunks(64) {
            let mut seen = round.to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..64).collect::<Vec<u32>>());
        }
    }
}
