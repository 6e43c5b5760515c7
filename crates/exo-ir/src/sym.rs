//! Interned-ish symbol names used for variables, buffers and procedure arguments.
//!
//! Symbols are thin wrappers around a shared, immutable [`Arc<str>`]. They
//! exist so that the rest of the IR can talk about "names" as a distinct
//! concept from arbitrary strings, and so that fresh-name generation has a
//! single home. Every scheduling step clones, validates and substitutes the
//! whole procedure, so cloning a name must not allocate: a clone is a
//! reference-count bump.

use std::fmt;
use std::sync::Arc;

/// A variable, buffer, or argument name appearing in the IR.
///
/// `Sym` is deliberately cheap to construct from string literals so that
/// builder code stays readable:
///
/// ```
/// use exo_ir::Sym;
/// let s: Sym = "itt".into();
/// assert_eq!(s.as_str(), "itt");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(Arc<str>);

impl Sym {
    /// Creates a symbol from anything string-like.
    pub fn new(name: impl Into<String>) -> Self {
        Sym(name.into().into())
    }

    /// Returns the symbol's textual name.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Returns a fresh symbol derived from `self` that does not collide with
    /// any name in `taken`.
    ///
    /// The derived name is `<base>`, `<base>_1`, `<base>_2`, ... — whichever
    /// is first not present in `taken`.
    pub fn freshen<'a, I>(&self, taken: I) -> Sym
    where
        I: IntoIterator<Item = &'a Sym>,
    {
        let taken: std::collections::HashSet<&str> = taken.into_iter().map(|s| s.as_str()).collect();
        if !taken.contains(self.as_str()) {
            return self.clone();
        }
        for i in 1.. {
            let candidate = format!("{}_{}", self.0, i);
            if !taken.contains(candidate.as_str()) {
                return Sym(candidate.into());
            }
        }
        unreachable!("freshen iterates an unbounded counter")
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Self {
        Sym(s.into())
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Self {
        Sym(s.into())
    }
}

impl From<&Sym> for Sym {
    fn from(s: &Sym) -> Self {
        s.clone()
    }
}

impl AsRef<str> for Sym {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        *self.0 == **other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_input() {
        let s = Sym::new("C_reg");
        assert_eq!(s.to_string(), "C_reg");
        assert_eq!(s.as_str(), "C_reg");
    }

    #[test]
    fn a_clone_shares_the_name() {
        let s = Sym::new("C_reg");
        assert!(Arc::ptr_eq(&s.0, &s.clone().0), "cloning a symbol must not copy its name");
    }

    #[test]
    fn equality_with_str() {
        let s: Sym = "jt".into();
        assert_eq!(s, "jt");
        assert_ne!(s, "jtt");
    }

    #[test]
    fn freshen_avoids_collisions() {
        let taken: Vec<Sym> = vec!["x".into(), "x_1".into()];
        let fresh = Sym::new("x").freshen(&taken);
        assert_eq!(fresh, "x_2");
    }

    #[test]
    fn freshen_keeps_name_when_free() {
        let taken: Vec<Sym> = vec!["y".into()];
        let fresh = Sym::new("x").freshen(&taken);
        assert_eq!(fresh, "x");
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = Sym::new("a");
        let b = Sym::new("b");
        assert!(a < b);
    }
}
