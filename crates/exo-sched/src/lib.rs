//! # exo-sched
//!
//! Scheduling operators over [`exo_ir`] procedures, reproducing the operator
//! vocabulary that the paper *"Tackling the Matrix Multiplication
//! Micro-kernel Generation with Exo"* (CGO 2024) uses to turn the naive
//! triple-loop micro-kernel into vectorised, register-tiled code:
//!
//! | paper (Exo) | this crate |
//! |---|---|
//! | `rename(p, name)` | [`rename`] |
//! | `p.partial_eval(MR, NR)` | [`partial_eval`] |
//! | `divide_loop(p, 'i', 4, ['it','itt'], perfect=True)` | [`divide_loop`] |
//! | `reorder_loops(p, 'jtt it')` | [`reorder_loops`] |
//! | `stage_mem(p, 'C[_] += _', 'C[...]', 'C_reg')` | [`stage_mem`] |
//! | `bind_expr(p, 'Xc[_]', 'X_reg')` | [`bind_expr`] |
//! | `expand_dim(p, 'C_reg', 4, 'itt')` | [`expand_dim`] |
//! | `lift_alloc(p, 'C_reg', n_lifts=5)` | [`lift_alloc`] |
//! | `autofission(p, p.find(..).after(), n_lifts=5)` | [`autofission`] |
//! | `replace(p, 'for itt in _: _', neon_vld_4xf32)` | [`replace()`] |
//! | `set_memory(p, 'C_reg', Neon)` | [`set_memory`] |
//! | `set_precision(p, 'A_reg', 'f16')` | [`set_precision`] |
//! | `unroll_loop(p, 'it')` | [`unroll_loop`] |
//!
//! Every operator takes the procedure by reference and returns a new
//! procedure (or a [`SchedError`]), so user code chains them exactly like the
//! paper's Python listings. Each operator re-validates the produced IR, and
//! `replace` additionally verifies that re-inlining the produced instruction
//! call reproduces the code it replaced (the paper's "security definition").

#![warn(missing_docs)]

mod basic;
mod error;
mod fission;
mod loops;
mod memory;
mod pattern;
mod replace;

pub use basic::{partial_eval, partial_eval_named, rename, set_memory, set_precision, simplify};
pub use error::{Result, SchedError};
pub use fission::{autofission, fission_at, Anchor};
pub use loops::{divide_loop, reorder_loops, unroll_loop, unroll_loop_nth};
pub use memory::{bind_expr, expand_dim, lift_alloc, stage_mem};
pub use pattern::{find_all, find_all_text, find_first, stmt_at_checked, ExprPattern, StmtPattern};
pub use replace::{inline_call, replace, replace_all};
