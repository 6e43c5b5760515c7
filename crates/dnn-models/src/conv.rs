//! Convolution layer descriptors, the IM2ROW shape lowering, and the
//! executable conv-to-GEMM forward pass.

use crate::GemmShape;
use gemm_blis::{GemmError, GemmExecutor, GemmProblem, GemmStats, MatMut, MatRef};

/// A 2-D convolution layer (batch size 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvLayer {
    /// Layer name, e.g. `"conv4_1"`.
    pub name: String,
    /// Layer number in the model's execution order (the paper's numbering).
    pub layer_number: u32,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Input channels.
    pub in_channels: usize,
    /// Output channels (number of filters).
    pub out_channels: usize,
    /// Filter height.
    pub kernel_h: usize,
    /// Filter width.
    pub kernel_w: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl ConvLayer {
    /// Output height after the convolution.
    pub fn out_height(&self) -> usize {
        (self.height + 2 * self.padding - self.kernel_h) / self.stride + 1
    }

    /// Output width after the convolution.
    pub fn out_width(&self) -> usize {
        (self.width + 2 * self.padding - self.kernel_w) / self.stride + 1
    }

    /// Floating-point operations of the layer (2 per multiply-accumulate).
    pub fn flops(&self) -> u64 {
        2 * self.out_height() as u64
            * self.out_width() as u64
            * self.out_channels as u64
            * (self.kernel_h * self.kernel_w * self.in_channels) as u64
    }
}

/// Applies the IM2ROW transform (Chellapilla et al., reference \[25\] of the
/// paper): a convolution at batch size 1 becomes a GEMM with
/// `m = out_h * out_w`, `n = out_channels`, `k = kernel_h * kernel_w *
/// in_channels`.
pub fn im2row(layer: &ConvLayer) -> GemmShape {
    GemmShape::new(
        layer.out_height() * layer.out_width(),
        layer.out_channels,
        layer.kernel_h * layer.kernel_w * layer.in_channels,
        vec![layer.layer_number],
    )
}

/// Whether the layer's IM2ROW `A` operand is *already* a strided view of
/// the input tensor — true for pointwise (1x1, stride 1, no padding)
/// convolutions, where GEMM row `r` is exactly input pixel `r` and the `k`
/// axis is the channel axis.
fn im2row_is_a_view(layer: &ConvLayer) -> bool {
    layer.kernel_h == 1 && layer.kernel_w == 1 && layer.stride == 1 && layer.padding == 0
}

/// Materialises the IM2ROW matrix (`m x k`, row-major) for layers whose
/// access pattern is a genuine gather: row `oy * ow + ox`, column
/// `(ky * kw + kx) * cin + ci`, zero-filled where the receptive field falls
/// into the padding border.
fn im2row_materialise(layer: &ConvLayer, input: &[f32]) -> Vec<f32> {
    let (oh, ow) = (layer.out_height(), layer.out_width());
    let (kh, kw, cin) = (layer.kernel_h, layer.kernel_w, layer.in_channels);
    let k = kh * kw * cin;
    let mut a = vec![0.0f32; oh * ow * k];
    for oy in 0..oh {
        for ox in 0..ow {
            let row = &mut a[(oy * ow + ox) * k..(oy * ow + ox + 1) * k];
            for ky in 0..kh {
                let iy = (oy * layer.stride + ky) as isize - layer.padding as isize;
                if iy < 0 || iy >= layer.height as isize {
                    continue; // stays zero-padded
                }
                for kx in 0..kw {
                    let ix = (ox * layer.stride + kx) as isize - layer.padding as isize;
                    if ix < 0 || ix >= layer.width as isize {
                        continue;
                    }
                    let src = (iy as usize * layer.width + ix as usize) * cin;
                    let dst = (ky * kw + kx) * cin;
                    row[dst..dst + cin].copy_from_slice(&input[src..src + cin]);
                }
            }
        }
    }
    a
}

/// Runs one convolution layer's forward pass through a
/// [`gemm_blis::GemmExecutor`]: `output = im2row(input) * weights`.
///
/// * `input` — the NHWC activation tensor, `height * width * in_channels`;
/// * `weights` — a `k x out_channels` view (`k = kernel_h * kernel_w *
///   in_channels`, rows ordered `(ky, kx, ci)`) — any stride layout works,
///   including a transposed `out_channels x k` filter bank passed as
///   `.t()`;
/// * `output` — `out_h * out_w * out_channels`, row-major over
///   `(pixel, channel)`. It need **not** be initialised: the problem runs
///   with `beta = 0`, which never reads `C`.
///
/// Pointwise layers (1x1, stride 1, no padding) — a large fraction of
/// ResNet50 — are fed to the executor as a zero-copy strided view of
/// `input`; every other geometry materialises its im2row panel first.
///
/// # Errors
///
/// Returns [`GemmError::ShapeMismatch`] if a buffer or view disagrees with
/// the layer geometry, and propagates executor failures.
pub fn conv2d(
    layer: &ConvLayer,
    input: &[f32],
    weights: MatRef<'_>,
    output: &mut [f32],
    executor: &dyn GemmExecutor,
) -> Result<GemmStats, GemmError> {
    let shape = im2row(layer);
    let (m, n, k) = (shape.m, shape.n, shape.k);
    if input.len() != layer.height * layer.width * layer.in_channels {
        return Err(GemmError::ShapeMismatch {
            what: format!(
                "layer `{}` expects an input of {} elements, got {}",
                layer.name,
                layer.height * layer.width * layer.in_channels,
                input.len()
            ),
        });
    }
    if weights.rows() != k || weights.cols() != n {
        return Err(GemmError::ShapeMismatch {
            what: format!(
                "layer `{}` expects {k}x{n} weights, got {}x{}",
                layer.name,
                weights.rows(),
                weights.cols()
            ),
        });
    }
    if output.len() != m * n {
        return Err(GemmError::ShapeMismatch {
            what: format!("layer `{}` writes {} output elements, got {}", layer.name, m * n, output.len()),
        });
    }
    let c = MatMut::from_slice(output, m, n);
    if im2row_is_a_view(layer) {
        // Pointwise: GEMM row r is input pixel r, k is the channel axis —
        // a strided view, no copy.
        let a = MatRef::with_strides(input, m, k, layer.in_channels, 1);
        executor.gemm(GemmProblem::new(a, weights, c).beta(0.0))
    } else {
        let panel = im2row_materialise(layer, input);
        let a = MatRef::from_slice(&panel, m, k);
        executor.gemm(GemmProblem::new(a, weights, c).beta(0.0))
    }
}

/// Direct (non-GEMM) convolution reference: the ground truth [`conv2d`] is
/// tested against. Same tensor layouts as [`conv2d`].
pub fn conv2d_reference(layer: &ConvLayer, input: &[f32], weights: MatRef<'_>, output: &mut [f32]) {
    let (oh, ow) = (layer.out_height(), layer.out_width());
    let (kh, kw, cin, cout) = (layer.kernel_h, layer.kernel_w, layer.in_channels, layer.out_channels);
    for oy in 0..oh {
        for ox in 0..ow {
            for co in 0..cout {
                let mut acc = 0.0f32;
                for ky in 0..kh {
                    let iy = (oy * layer.stride + ky) as isize - layer.padding as isize;
                    if iy < 0 || iy >= layer.height as isize {
                        continue;
                    }
                    for kx in 0..kw {
                        let ix = (ox * layer.stride + kx) as isize - layer.padding as isize;
                        if ix < 0 || ix >= layer.width as isize {
                            continue;
                        }
                        for ci in 0..cin {
                            let x = input[(iy as usize * layer.width + ix as usize) * cin + ci];
                            acc += x * weights.get((ky * kw + kx) * cin + ci, co);
                        }
                    }
                }
                output[(oy * ow + ox) * cout + co] = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn conv(
        name: &str,
        n: u32,
        hw: usize,
        cin: usize,
        cout: usize,
        k: usize,
        s: usize,
        p: usize,
    ) -> ConvLayer {
        ConvLayer {
            name: name.into(),
            layer_number: n,
            height: hw,
            width: hw,
            in_channels: cin,
            out_channels: cout,
            kernel_h: k,
            kernel_w: k,
            stride: s,
            padding: p,
        }
    }

    #[test]
    fn resnet_first_layer_matches_table_i() {
        // 7x7, stride 2, pad 3 on a 224x224x3 input: 112*112 = 12544 rows,
        // 64 filters, 7*7*3 = 147 inner dimension — Table I, layer 1.
        let l = conv("conv1", 1, 224, 3, 64, 7, 2, 3);
        assert_eq!(l.out_height(), 112);
        let g = im2row(&l);
        assert_eq!((g.m, g.n, g.k), (12544, 64, 147));
    }

    #[test]
    fn vgg_first_layer_matches_table_ii() {
        let l = conv("conv1_1", 1, 224, 3, 64, 3, 1, 1);
        let g = im2row(&l);
        assert_eq!((g.m, g.n, g.k), (50176, 64, 27));
    }

    #[test]
    fn flops_match_gemm_flops() {
        let l = conv("conv3_2", 13, 56, 256, 256, 3, 1, 1);
        let g = im2row(&l);
        assert_eq!(l.flops(), g.flops());
    }

    #[test]
    fn strided_output_dimensions() {
        let l = conv("s2", 2, 56, 64, 128, 1, 2, 0);
        assert_eq!(l.out_height(), 28);
        assert_eq!(l.out_width(), 28);
    }

    fn run_conv_both_ways(l: &ConvLayer) {
        let shape = im2row(l);
        let input: Vec<f32> =
            (0..l.height * l.width * l.in_channels).map(|i| ((i * 7 + 3) % 13) as f32 * 0.25 - 1.0).collect();
        let weights: Vec<f32> =
            (0..shape.k * shape.n).map(|i| ((i * 5 + 1) % 11) as f32 * 0.125 - 0.5).collect();
        let w = gemm_blis::MatRef::from_slice(&weights, shape.k, shape.n);
        // Output deliberately NaN-poisoned: conv2d runs with beta = 0 and
        // must never read it.
        let mut out_gemm = vec![f32::NAN; shape.m * shape.n];
        let stats = conv2d(l, &input, w, &mut out_gemm, &gemm_blis::NaiveGemm).unwrap();
        assert_eq!((stats.m, stats.n, stats.k), (shape.m, shape.n, shape.k));
        let mut out_ref = vec![0.0f32; shape.m * shape.n];
        conv2d_reference(l, &input, w, &mut out_ref);
        for (idx, (x, y)) in out_gemm.iter().zip(&out_ref).enumerate() {
            assert!((x - y).abs() < 1e-3, "{} at {idx}: {x} vs {y}", l.name);
        }
        // And through the blocked driver — its default, the generated 8x12
        // on the native pin — which must agree too.
        let blocking = gemm_blis::BlockingParams { mc: 16, kc: 8, nc: 24, mr: 8, nr: 12 };
        let driver = gemm_blis::BlisGemm::new(blocking);
        let mut out_blis = vec![f32::NAN; shape.m * shape.n];
        conv2d(l, &input, w, &mut out_blis, &driver).unwrap();
        for (idx, (x, y)) in out_blis.iter().zip(&out_ref).enumerate() {
            assert!((x - y).abs() < 1e-3, "{} blis at {idx}: {x} vs {y}", l.name);
        }
    }

    #[test]
    fn pointwise_convolutions_run_as_zero_copy_views() {
        let l = conv("pw", 1, 6, 5, 7, 1, 1, 0);
        assert!(super::im2row_is_a_view(&l));
        run_conv_both_ways(&l);
    }

    #[test]
    fn padded_and_strided_convolutions_materialise_and_match() {
        let l = conv("k3p1", 2, 5, 3, 4, 3, 1, 1);
        assert!(!super::im2row_is_a_view(&l));
        run_conv_both_ways(&l);
        let l = conv("k3s2", 3, 7, 2, 3, 3, 2, 1);
        run_conv_both_ways(&l);
        let l = conv("k7s2p3", 4, 9, 3, 5, 7, 2, 3);
        run_conv_both_ways(&l);
    }

    #[test]
    fn transposed_filter_banks_work_as_views() {
        // Weights stored cout x k (the framework-native layout) and passed
        // transposed — no repacking of the filter bank.
        let l = conv("pw_t", 5, 4, 3, 6, 1, 1, 0);
        let shape = im2row(&l);
        let input: Vec<f32> = (0..l.height * l.width * l.in_channels).map(|i| (i % 7) as f32 * 0.5).collect();
        let wt: Vec<f32> = (0..shape.n * shape.k).map(|i| (i % 5) as f32 * 0.25 - 0.5).collect();
        let w_t = gemm_blis::MatRef::from_slice(&wt, shape.n, shape.k).t();
        let mut out_t = vec![f32::NAN; shape.m * shape.n];
        conv2d(&l, &input, w_t, &mut out_t, &gemm_blis::NaiveGemm).unwrap();
        let mut out_ref = vec![0.0f32; shape.m * shape.n];
        conv2d_reference(&l, &input, w_t, &mut out_ref);
        assert_eq!(out_t, out_ref);
    }

    #[test]
    fn geometry_mismatches_are_rejected() {
        let l = conv("bad", 6, 4, 3, 4, 1, 1, 0);
        let shape = im2row(&l);
        let input = vec![0.0f32; l.height * l.width * l.in_channels];
        let weights = vec![0.0f32; shape.k * shape.n];
        let w = gemm_blis::MatRef::from_slice(&weights, shape.k, shape.n);
        let mut out = vec![0.0f32; shape.m * shape.n];
        assert!(conv2d(&l, &input[1..], w, &mut out, &gemm_blis::NaiveGemm).is_err());
        assert!(conv2d(&l, &input, w.t(), &mut out, &gemm_blis::NaiveGemm).is_err());
        assert!(conv2d(&l, &input, w, &mut out[1..], &gemm_blis::NaiveGemm).is_err());
    }
}
