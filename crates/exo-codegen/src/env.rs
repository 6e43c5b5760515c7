//! Parse-once-or-panic environment overrides.
//!
//! Every `EXO_*` override in the workspace follows the same contract:
//!
//! * unset or empty means "no override" — the library picks its default;
//! * anything else must parse, and a typo **panics** with the variable
//!   name and the parse error rather than silently falling back (an
//!   override the user asked for but did not get would defeat its
//!   purpose);
//! * the variable is read **once** per process and the verdict cached, so
//!   every consumer sees the same decision and the hot path never touches
//!   the environment.
//!
//! [`env_once`] is that contract, written once for its call sites
//! (`EXO_ISA`, `EXO_THREADS`, `EXO_FAULT`). The caller owns the `OnceLock` cell — overrides stay
//! distinct statics at their point of use — and supplies only the parser.
//!
//! [`Countdown`] is what `EXO_FAULT` arms: the one "fire on the Nth event"
//! counter under every fault hook of the workspace (the pool's, the batch
//! executor's, the ahead-of-time engine's).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Reads environment variable `var` through `cell`, applying the
/// workspace-wide override contract (see the module docs).
///
/// The parse closure runs at most once per process (on the first call that
/// finds the variable set and non-empty); later calls return the cached
/// verdict. Parsers report problems as `Err(description)`.
///
/// # Panics
///
/// Panics with `"{var}: {description}"` when the variable is set,
/// non-empty, and fails to parse.
pub fn env_once<T: Clone>(
    cell: &OnceLock<Option<T>>,
    var: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Option<T> {
    cell.get_or_init(|| match std::env::var(var) {
        Ok(value) if !value.is_empty() => Some(parse(&value).unwrap_or_else(|e| panic!("{var}: {e}"))),
        _ => None,
    })
    .clone()
}

/// A fault-injection countdown: armed with `n`, [`Countdown::fires`]
/// answers `true` on exactly the `n`-th call from then on and `false` on
/// every other, from any number of threads. Disarmed (the initial state)
/// a call is one atomic load and no write, so hooks stay on hot paths.
#[derive(Debug, Default)]
pub struct Countdown(AtomicU64);

impl Countdown {
    /// A disarmed countdown.
    pub const fn new() -> Self {
        Countdown(AtomicU64::new(0))
    }

    /// Arms the countdown to fire on the `n`-th call from now; `0` disarms.
    pub fn arm(&self, n: u64) {
        self.0.store(n, Ordering::SeqCst);
    }

    /// Counts one event; `true` exactly once, on the call that takes an
    /// armed countdown to zero.
    pub fn fires(&self) -> bool {
        self.0.load(Ordering::SeqCst) != 0
            && self.0.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1)) == Ok(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;

    #[test]
    fn the_countdown_fires_exactly_once_on_the_nth_call() {
        let c = Countdown::new();
        assert!(!c.fires(), "disarmed until told otherwise");
        c.arm(3);
        assert!(!c.fires());
        assert!(!c.fires());
        assert!(c.fires(), "fires on the third call");
        assert!(!c.fires(), "then stays quiet at zero");
        c.arm(1);
        c.arm(0);
        assert!(!c.fires(), "arming with 0 disarms");
    }

    #[test]
    fn racing_callers_see_an_armed_countdown_fire_once() {
        let c = Countdown::new();
        c.arm(5);
        let fired: usize = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4).map(|_| s.spawn(|| (0..8).filter(|_| c.fires()).count())).collect();
            workers.into_iter().map(|w| w.join().expect("a counting thread panicked")).sum()
        });
        assert_eq!(fired, 1, "32 calls across 4 threads cross zero once");
    }

    // Each test owns a uniquely named variable: integration with the real
    // process environment is the point, and unique names keep parallel
    // test threads out of each other's way.

    #[test]
    fn unset_or_empty_means_no_override() {
        let cell = OnceLock::new();
        let got = env_once(&cell, "EXO_ENV_ONCE_TEST_UNSET", |_| Ok(1usize));
        assert_eq!(got, None);

        std::env::set_var("EXO_ENV_ONCE_TEST_EMPTY", "");
        let cell = OnceLock::new();
        let got = env_once(&cell, "EXO_ENV_ONCE_TEST_EMPTY", |_| Ok(1usize));
        assert_eq!(got, None);
    }

    #[test]
    fn the_parser_runs_once_and_the_verdict_is_cached() {
        std::env::set_var("EXO_ENV_ONCE_TEST_CACHED", "7");
        let cell = OnceLock::new();
        let first =
            env_once(&cell, "EXO_ENV_ONCE_TEST_CACHED", |v| v.parse::<usize>().map_err(|e| e.to_string()));
        assert_eq!(first, Some(7));
        // A second read must come from the cache: this parser would panic
        // the test if it ran.
        let second = env_once(&cell, "EXO_ENV_ONCE_TEST_CACHED", |_| panic!("the parser must not run twice"));
        assert_eq!(second, Some(7));
    }

    #[test]
    fn a_typo_panics_with_the_variable_name_and_the_parse_error() {
        std::env::set_var("EXO_ENV_ONCE_TEST_TYPO", "bogus");
        let cell: OnceLock<Option<usize>> = OnceLock::new();
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
            env_once(&cell, "EXO_ENV_ONCE_TEST_TYPO", |v| {
                Err(format!("`{v}` is not a thing (expected one of: a, b)"))
            })
        }))
        .expect_err("a set, non-empty, unparseable value must panic");
        let message = payload.downcast_ref::<String>().expect("panic carries the formatted message");
        assert_eq!(message, "EXO_ENV_ONCE_TEST_TYPO: `bogus` is not a thing (expected one of: a, b)");
    }
}
