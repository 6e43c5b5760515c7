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

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;

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
