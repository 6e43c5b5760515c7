//! Textual patterns used to address statements inside a procedure, mirroring
//! the cursor/pattern strings of the paper's user code:
//!
//! * `"for itt in _: _"` — the first loop whose index variable is `itt`,
//! * `"C[_] += _"` — a reduction into buffer `C`,
//! * `"C_reg[_] = _"` — an assignment into buffer `C_reg`,
//! * `"Xc[_]"` — (expression pattern) a read of buffer `Xc`, used by
//!   `bind_expr`.

use exo_ir::stmt::{paths_where, stmt_at};
use exo_ir::{Expr, Proc, Stmt, StmtPath, Sym};

use crate::error::{Result, SchedError};

/// A parsed statement pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StmtPattern {
    /// `for <var> in _: _`
    ForNamed(Sym),
    /// `<buf>[_] += _`
    ReduceTo(Sym),
    /// `<buf>[_] = _`
    AssignTo(Sym),
    /// `<name>(_)` — a call to the named instruction.
    CallTo(String),
    /// `alloc <name>` — the allocation of the named buffer (extension used by
    /// operators like `lift_alloc`).
    AllocOf(Sym),
}

impl StmtPattern {
    /// Parses a pattern string.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::PatternNotFound`] style parse failures as
    /// [`SchedError::WrongStatementKind`] since the text itself is malformed.
    pub fn parse(text: &str) -> Result<StmtPattern> {
        let t = text.trim();
        if let Some(rest) = t.strip_prefix("for ") {
            let var =
                rest.split_whitespace().next().filter(|v| !v.is_empty()).ok_or_else(|| malformed(text))?;
            return Ok(StmtPattern::ForNamed(Sym::new(var)));
        }
        if let Some(rest) = t.strip_prefix("alloc ") {
            let name = rest.trim();
            if name.is_empty() {
                return Err(malformed(text));
            }
            return Ok(StmtPattern::AllocOf(Sym::new(name)));
        }
        if let Some(idx) = t.find("+=") {
            let lhs = &t[..idx];
            let buf = buffer_of_lhs(lhs).ok_or_else(|| malformed(text))?;
            return Ok(StmtPattern::ReduceTo(buf));
        }
        if let Some(idx) = t.find('=') {
            let lhs = &t[..idx];
            let buf = buffer_of_lhs(lhs).ok_or_else(|| malformed(text))?;
            return Ok(StmtPattern::AssignTo(buf));
        }
        if let Some(idx) = t.find('(') {
            let name = t[..idx].trim();
            if !name.is_empty() {
                return Ok(StmtPattern::CallTo(name.to_string()));
            }
        }
        Err(malformed(text))
    }

    /// Whether `stmt` matches this pattern.
    pub fn matches(&self, stmt: &Stmt) -> bool {
        match (self, stmt) {
            (StmtPattern::ForNamed(v), Stmt::For { var, .. }) => v == var,
            (StmtPattern::ReduceTo(b), Stmt::Reduce { buf, .. }) => b == buf,
            (StmtPattern::AssignTo(b), Stmt::Assign { buf, .. }) => b == buf,
            (StmtPattern::CallTo(name), Stmt::Call { instr, .. }) => instr.name == *name,
            (StmtPattern::AllocOf(n), Stmt::Alloc { name, .. }) => n == name,
            _ => false,
        }
    }
}

fn malformed(text: &str) -> SchedError {
    SchedError::WrongStatementKind {
        expected: "a pattern like `for i in _: _`, `C[_] += _`, `C[_] = _`, `alloc X`, or `f(_)`",
        found: format!("`{text}`"),
    }
}

fn buffer_of_lhs(lhs: &str) -> Option<Sym> {
    let lhs = lhs.trim();
    let bracket = lhs.find('[')?;
    let name = lhs[..bracket].trim();
    if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return None;
    }
    Some(Sym::new(name))
}

/// Finds every statement in `p` matching the pattern, in pre-order.
pub fn find_all(p: &Proc, pattern: &StmtPattern) -> Vec<StmtPath> {
    paths_where(&p.body, |stmt| pattern.matches(stmt))
}

/// Finds every statement matching the textual pattern, in pre-order.
///
/// # Errors
///
/// Returns an error if the pattern text is malformed.
pub fn find_all_text(p: &Proc, pattern: &str) -> Result<Vec<StmtPath>> {
    let parsed = StmtPattern::parse(pattern)?;
    Ok(find_all(p, &parsed))
}

/// Finds the first statement matching the textual pattern.
///
/// # Errors
///
/// Returns [`SchedError::PatternNotFound`] if nothing matches.
pub fn find_first(p: &Proc, pattern: &str) -> Result<StmtPath> {
    let matches = find_all_text(p, pattern)?;
    matches
        .into_iter()
        .next()
        .ok_or_else(|| SchedError::PatternNotFound { pattern: pattern.to_string(), proc: p.name.clone() })
}

/// Fetches the statement at `path`, reporting a scheduling error when the
/// path is stale.
pub fn stmt_at_checked<'a>(p: &'a Proc, path: &[usize]) -> Result<&'a Stmt> {
    stmt_at(&p.body, path).ok_or_else(|| SchedError::PatternNotFound {
        pattern: format!("<path {path:?}>"),
        proc: p.name.clone(),
    })
}

/// An expression pattern: currently only "read of a named buffer" (`"Xc[_]"`)
/// is needed by the scheduling recipes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExprPattern {
    /// The buffer whose read is matched.
    pub buf: Sym,
}

impl ExprPattern {
    /// Parses an expression pattern such as `"Ac[_]"`.
    ///
    /// # Errors
    ///
    /// Returns an error if the text is not of the form `name[...]`.
    pub fn parse(text: &str) -> Result<ExprPattern> {
        let buf = buffer_of_lhs(text).ok_or_else(|| SchedError::WrongStatementKind {
            expected: "an expression pattern like `Ac[_]`",
            found: format!("`{text}`"),
        })?;
        Ok(ExprPattern { buf })
    }

    /// Whether an expression matches (is a read of the named buffer).
    pub fn matches(&self, e: &Expr) -> bool {
        matches!(e, Expr::Read { buf, .. } if *buf == self.buf)
    }

    /// Finds the first read matching the pattern inside `e` (pre-order,
    /// left-to-right) and returns a clone of it.
    pub fn find_in_expr(&self, e: &Expr) -> Option<Expr> {
        if self.matches(e) {
            return Some(e.clone());
        }
        match e {
            Expr::Binop { lhs, rhs, .. } => self.find_in_expr(lhs).or_else(|| self.find_in_expr(rhs)),
            Expr::Neg(inner) => self.find_in_expr(inner),
            Expr::Read { idx, .. } => idx.iter().find_map(|i| self.find_in_expr(i)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::builder::*;
    use exo_ir::{MemSpace, ScalarType};

    fn sample() -> Proc {
        proc("uk")
            .size_arg("KC")
            .tensor_arg("Ac", ScalarType::F32, vec![var("KC"), int(8)], MemSpace::Dram)
            .tensor_arg("Bc", ScalarType::F32, vec![var("KC"), int(12)], MemSpace::Dram)
            .tensor_arg("C", ScalarType::F32, vec![int(12), int(8)], MemSpace::Dram)
            .body(vec![for_(
                "k",
                0,
                var("KC"),
                vec![for_(
                    "j",
                    0,
                    12,
                    vec![for_(
                        "i",
                        0,
                        8,
                        vec![reduce(
                            "C",
                            vec![var("j"), var("i")],
                            Expr::mul(
                                read("Ac", vec![var("k"), var("i")]),
                                read("Bc", vec![var("k"), var("j")]),
                            ),
                        )],
                    )],
                )],
            )])
            .build()
    }

    #[test]
    fn parses_for_pattern() {
        assert_eq!(StmtPattern::parse("for itt in _: _").unwrap(), StmtPattern::ForNamed("itt".into()));
        assert_eq!(StmtPattern::parse("  for i in seq(0, 4): _").unwrap(), StmtPattern::ForNamed("i".into()));
    }

    #[test]
    fn parses_assign_and_reduce_patterns() {
        assert_eq!(StmtPattern::parse("C[_] += _").unwrap(), StmtPattern::ReduceTo("C".into()));
        assert_eq!(StmtPattern::parse("C_reg[_] = _").unwrap(), StmtPattern::AssignTo("C_reg".into()));
    }

    #[test]
    fn parses_call_and_alloc_patterns() {
        assert_eq!(
            StmtPattern::parse("neon_vld_4xf32(_)").unwrap(),
            StmtPattern::CallTo("neon_vld_4xf32".into())
        );
        assert_eq!(StmtPattern::parse("alloc C_reg").unwrap(), StmtPattern::AllocOf("C_reg".into()));
    }

    #[test]
    fn rejects_malformed_patterns() {
        assert!(StmtPattern::parse("").is_err());
        assert!(StmtPattern::parse("for ").is_err());
        assert!(StmtPattern::parse("just words").is_err());
    }

    #[test]
    fn finds_loops_by_name() {
        let p = sample();
        let path = find_first(&p, "for i in _: _").unwrap();
        assert_eq!(path, vec![0, 0, 0]);
        assert!(find_first(&p, "for zz in _: _").is_err());
    }

    #[test]
    fn finds_reduce_statement() {
        let p = sample();
        let path = find_first(&p, "C[_] += _").unwrap();
        assert_eq!(path, vec![0, 0, 0, 0]);
        let all = find_all_text(&p, "C[_] += _").unwrap();
        assert_eq!(all.len(), 1);
    }

    #[test]
    fn expr_pattern_finds_reads() {
        let pat = ExprPattern::parse("Ac[_]").unwrap();
        let e = Expr::mul(read("Ac", vec![var("k"), var("i")]), read("Bc", vec![var("k"), var("j")]));
        let found = pat.find_in_expr(&e).unwrap();
        assert_eq!(found, read("Ac", vec![var("k"), var("i")]));
        let missing = ExprPattern::parse("Zc[_]").unwrap();
        assert!(missing.find_in_expr(&e).is_none());
    }

    #[test]
    fn stmt_at_checked_reports_stale_paths() {
        let p = sample();
        assert!(stmt_at_checked(&p, &[0, 0, 0, 0]).is_ok());
        assert!(stmt_at_checked(&p, &[5]).is_err());
    }
}
