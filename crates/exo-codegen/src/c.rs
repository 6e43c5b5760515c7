//! C source emission.
//!
//! Two printers live here:
//!
//! * [`emit_c`] — turns a scheduled procedure into the kind of
//!   C-with-intrinsics code that Exo itself produces and the paper feeds to
//!   `gcc-10` (Section III, step g). A faithful rendering of the IR — loops,
//!   scalar statements, register-file allocations as `float32x4_t` arrays,
//!   and instruction calls expanded through their `@instr` format strings —
//!   meant for inspection and for the artifact's code-listing outputs.
//! * [`emit_superword_c`] — lowers a *validated superword tape* to a
//!   self-contained, compilable C translation unit: the ahead-of-time
//!   source of the `exo-aot` native tier, compiled when the workspace
//!   builds and linked in as the top of the ladder.
//!
//! The two do different jobs, so neither replaces the other. Only
//! `emit_superword_c` emits C for the *executing* ISA (AVX-512 or AVX2/FMA
//! vectors through helpers its prelude defines, NEON intrinsics, or a
//! plain-C floor whose lanes call `fmaf`),
//! whatever instruction library described the kernel, and C that matches
//! the superword interpreter and the tape bit for bit. `emit_c` speaks the describing library's intrinsics: for the
//! `neon_f32` kernels served on AVX2 and on the scalar floor that is NEON
//! C, which neither host compiles. It stays as the paper's listing, read by
//! `codegen_steps`, `quickstart` and `portability`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use exo_ir::printer::expr_to_string;
use exo_ir::{ArgKind, CallArg, Expr, MemSpace, Proc, ScalarType, Stmt, Sym, WAccess};

use crate::error::{CodegenError, Result};
use crate::simd::IsaKind;
use crate::superword::{SuperwordKernel, VOp};
use crate::tape::{Addr, ParamKind, TOp, Term};

/// Per-buffer shape information collected before emission.
#[derive(Debug, Clone)]
struct BufInfo {
    dims: Vec<Expr>,
    mem: MemSpace,
}

fn vector_c_type(ty: ScalarType, mem: MemSpace) -> &'static str {
    match (mem, ty) {
        (MemSpace::Neon, _) => "float32x4_t",
        (MemSpace::Neon8f, _) => "float16x8_t",
        (MemSpace::Avx512, _) => "__m512",
        _ => ty.c_name(),
    }
}

/// Emits a C translation unit containing the procedure.
///
/// # Errors
///
/// Returns [`CodegenError`] if a referenced buffer cannot be resolved or a
/// call argument does not fit the instruction's format string.
pub fn emit_c(p: &Proc) -> Result<String> {
    let mut bufs: BTreeMap<Sym, BufInfo> = BTreeMap::new();
    let written_args = p.written_params();
    for arg in &p.args {
        if let ArgKind::Tensor { ty, dims, mem } = &arg.kind {
            let _ = ty;
            bufs.insert(arg.name.clone(), BufInfo { dims: dims.clone(), mem: *mem });
        }
    }
    for (_, stmt) in exo_ir::stmt::walk(&p.body) {
        if let Stmt::Alloc { name, ty, dims, mem } = stmt {
            let _ = ty;
            bufs.insert(name.clone(), BufInfo { dims: dims.clone(), mem: *mem });
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "// Generated by the exo-ukr micro-kernel generator.");
    let _ = writeln!(out, "#include <stdint.h>");
    let _ = writeln!(out, "#if defined(__ARM_NEON)");
    let _ = writeln!(out, "#include <arm_neon.h>");
    let _ = writeln!(out, "#elif defined(__AVX512F__)");
    let _ = writeln!(out, "#include <immintrin.h>");
    let _ = writeln!(out, "#endif");
    let _ = writeln!(out);

    // Signature.
    let mut params: Vec<String> = Vec::new();
    for arg in &p.args {
        match &arg.kind {
            ArgKind::Size => params.push(format!("int_fast32_t {}", arg.name)),
            ArgKind::Index => params.push(format!("int_fast32_t {}", arg.name)),
            ArgKind::Tensor { ty, .. } => {
                let qual = if written_args.contains(&arg.name) { "" } else { "const " };
                params.push(format!("{qual}{}* {}", ty.c_name(), arg.name));
            }
        }
    }
    let _ = writeln!(out, "void {}({}) {{", p.name, params.join(", "));
    for stmt in &p.body {
        emit_stmt(stmt, 1, &bufs, &mut out)?;
    }
    let _ = writeln!(out, "}}");
    Ok(out)
}

fn indent(level: usize) -> String {
    "    ".repeat(level)
}

fn emit_stmt(stmt: &Stmt, level: usize, bufs: &BTreeMap<Sym, BufInfo>, out: &mut String) -> Result<()> {
    let pad = indent(level);
    match stmt {
        Stmt::Comment(c) => {
            let _ = writeln!(out, "{pad}// {c}");
        }
        Stmt::Alloc { name, ty, dims, mem } => {
            if mem.is_register() {
                // The innermost dimension is held by the vector register type.
                let reg_ty = vector_c_type(*ty, *mem);
                let outer: Vec<String> = dims
                    .iter()
                    .take(dims.len().saturating_sub(1))
                    .map(|d| format!("[{}]", expr_to_string(d)))
                    .collect();
                if outer.is_empty() {
                    let _ = writeln!(out, "{pad}{reg_ty} {name};");
                } else {
                    let _ = writeln!(out, "{pad}{reg_ty} {name}{};", outer.join(""));
                }
            } else {
                let total = dims.iter().map(expr_to_string).collect::<Vec<_>>().join(" * ");
                if dims.is_empty() {
                    let _ = writeln!(out, "{pad}{} {name}[1];", ty.c_name());
                } else {
                    let _ = writeln!(out, "{pad}{} {name}[{total}];", ty.c_name());
                }
            }
        }
        Stmt::For { var, lo, hi, body } => {
            let _ = writeln!(
                out,
                "{pad}for (int_fast32_t {var} = {}; {var} < {}; {var}++) {{",
                expr_to_string(lo),
                expr_to_string(hi)
            );
            for s in body {
                emit_stmt(s, level + 1, bufs, out)?;
            }
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::Assign { buf, idx, rhs } => {
            let lhs = scalar_access(buf, idx, bufs)?;
            let _ = writeln!(out, "{pad}{lhs} = {};", emit_expr(rhs, bufs)?);
        }
        Stmt::Reduce { buf, idx, rhs } => {
            let lhs = scalar_access(buf, idx, bufs)?;
            let _ = writeln!(out, "{pad}{lhs} += {};", emit_expr(rhs, bufs)?);
        }
        Stmt::If { cond, then_body, else_body } => {
            let _ = writeln!(
                out,
                "{pad}if ({} {} {}) {{",
                expr_to_string(&cond.lhs),
                cond.op.symbol(),
                expr_to_string(&cond.rhs)
            );
            for s in then_body {
                emit_stmt(s, level + 1, bufs, out)?;
            }
            if else_body.is_empty() {
                let _ = writeln!(out, "{pad}}}");
            } else {
                let _ = writeln!(out, "{pad}}} else {{");
                for s in else_body {
                    emit_stmt(s, level + 1, bufs, out)?;
                }
                let _ = writeln!(out, "{pad}}}");
            }
        }
        Stmt::Call { instr, args } => {
            let info = instr.instr.as_ref().ok_or_else(|| CodegenError::Unsupported {
                backend: "C",
                what: format!("call to non-instruction procedure `{}`", instr.name),
            })?;
            let mut line = info.c_format.clone();
            for (formal, actual) in instr.args.iter().zip(args) {
                let placeholder_data = format!("{{{}_data}}", formal.name);
                let placeholder_plain = format!("{{{}}}", formal.name);
                let text = match actual {
                    CallArg::Expr(e) => expr_to_string(e),
                    CallArg::Window(w) => window_c_operand(&w.buf, &w.idx, bufs)?,
                };
                line = line.replace(&placeholder_data, &text).replace(&placeholder_plain, &text);
            }
            let _ = writeln!(out, "{pad}{line}");
        }
    }
    Ok(())
}

/// Renders a scalar element access, linearising DRAM buffers and splitting
/// register tiles into `tile[outer...][lane]` form.
fn scalar_access(buf: &Sym, idx: &[Expr], bufs: &BTreeMap<Sym, BufInfo>) -> Result<String> {
    let info = bufs.get(buf).ok_or_else(|| CodegenError::UnknownBuffer { buf: buf.clone() })?;
    if info.mem.is_register() {
        // Scalar access into a register tile: index the vector lanes with [..].
        let mut s = buf.to_string();
        for e in idx {
            s.push_str(&format!("[{}]", expr_to_string(e)));
        }
        Ok(s)
    } else {
        Ok(format!("{}[{}]", buf, linearise(idx, &info.dims)))
    }
}

/// Renders the C operand for a windowed call argument: the address/value of
/// the first selected element.
fn window_c_operand(buf: &Sym, idx: &[WAccess], bufs: &BTreeMap<Sym, BufInfo>) -> Result<String> {
    let info = bufs.get(buf).ok_or_else(|| CodegenError::UnknownBuffer { buf: buf.clone() })?;
    if info.mem.is_register() {
        // Drop the trailing interval (vector lane) dimension: the register
        // array already holds whole vectors.
        let mut s = buf.to_string();
        for access in idx {
            match access {
                WAccess::Point(e) => s.push_str(&format!("[{}]", expr_to_string(e))),
                WAccess::Interval(_, _) => {}
            }
        }
        Ok(s)
    } else {
        let first: Vec<Expr> = idx
            .iter()
            .map(|a| match a {
                WAccess::Point(e) => e.clone(),
                WAccess::Interval(lo, _) => lo.clone(),
            })
            .collect();
        Ok(format!("{}[{}]", buf, linearise(&first, &info.dims)))
    }
}

/// Builds a row-major linearised index expression `i0*d1*d2 + i1*d2 + i2`.
fn linearise(idx: &[Expr], dims: &[Expr]) -> String {
    if idx.is_empty() {
        return "0".to_string();
    }
    let mut terms: Vec<String> = Vec::new();
    for (d, e) in idx.iter().enumerate() {
        let strides: Vec<String> = dims[d + 1..].iter().map(expr_to_string).collect();
        let base = expr_to_string(&e.simplify());
        let needs_parens = base.contains(' ');
        let base = if needs_parens && !strides.is_empty() { format!("({base})") } else { base };
        if strides.is_empty() {
            terms.push(base);
        } else {
            terms.push(format!("{base} * {}", strides.join(" * ")));
        }
    }
    terms.join(" + ")
}

fn emit_expr(e: &Expr, bufs: &BTreeMap<Sym, BufInfo>) -> Result<String> {
    Ok(match e {
        Expr::Int(v) => v.to_string(),
        Expr::Float(v) => {
            if v.fract() == 0.0 {
                format!("{v:.1}f")
            } else {
                format!("{v}f")
            }
        }
        Expr::Var(s) => s.to_string(),
        Expr::Read { buf, idx } => scalar_access(buf, idx, bufs)?,
        Expr::Binop { op, lhs, rhs } => {
            format!("({} {} {})", emit_expr(lhs, bufs)?, op.symbol(), emit_expr(rhs, bufs)?)
        }
        Expr::Neg(inner) => format!("(-{})", emit_expr(inner, bufs)?),
    })
}

// ---------------------------------------------------------------------------
// Superword-tape lowering: the ahead-of-time C source of the native tier.
// ---------------------------------------------------------------------------

/// Software-prefetch distance (loop iterations ahead) for packed-operand
/// loads inside the dynamic `KC` loop. Prefetch never faults, so running
/// past the end of a panel is harmless.
const PREFETCH_ITERS: i64 = 4;

/// Context shared by the superword-to-C emission helpers: the ISA being
/// targeted, the C names of the kernel's parameters, the kernel's
/// accumulator groups on that ISA, and a counter for unique local
/// temporaries.
struct SwEmit {
    isa: IsaKind,
    scalar_names: Vec<String>,
    tensor_names: Vec<String>,
    /// [`SuperwordKernel::accumulator_groups`] at the ISA's widest vector,
    /// sorted by start.
    groups: Vec<(u32, u32)>,
    tmp: usize,
}

impl SwEmit {
    /// How many registers from `r` one move may cover without taking part
    /// of an accumulator group: to the end of the group `r` lies in, or up
    /// to the start of the next one.
    fn group_room(&self, r: u32) -> u32 {
        for &(start, width) in &self.groups {
            if r < start {
                return start - r;
            }
            if r < start + width {
                return start + width - r;
            }
        }
        u32::MAX
    }

    fn fresh(&mut self, prefix: &str) -> String {
        let n = self.tmp;
        self.tmp += 1;
        format!("{prefix}{n}")
    }

    /// Renders an affine address as a parenthesised `int64_t` expression.
    fn addr(&self, a: &Addr) -> String {
        let mut parts: Vec<String> = Vec::new();
        if a.base() != 0 || a.terms().next().is_none() {
            parts.push(a.base().to_string());
        }
        for (t, c) in a.terms() {
            let name = match t {
                Term::Loop(slot) => format!("t{slot}"),
                Term::Scalar(slot) => self.scalar_names[slot as usize].clone(),
            };
            match c {
                1 => parts.push(name),
                c => parts.push(format!("{c} * {name}")),
            }
        }
        format!("({})", parts.join(" + "))
    }

    /// Emits `lanes` register-file copies to/from a tensor (`load` selects
    /// the direction), each the widest vector that fits, then scalars.
    /// Copies are exact, so any chunking computes the same bits; but no
    /// move covers part of an accumulator group, so each accumulator is
    /// moved at the width it is accumulated at (a 512-bit copy across two
    /// 8-lane accumulators keeps both out of registers).
    #[allow(clippy::too_many_arguments)]
    fn copy(&mut self, out: &mut String, pad: &str, load: bool, reg: u32, buf: u16, idx: &str, lanes: u32) {
        let name = self.tensor_names[buf as usize].clone();
        let base = self.fresh("i");
        let _ = writeln!(out, "{pad}const int64_t {base} = {idx};");
        let mut o = 0u32;
        while o < lanes {
            let room = (lanes - o).min(self.group_room(reg + o));
            let line = match self.isa.row().vectors.iter().find(|v| v.lanes <= room) {
                Some(v) => {
                    let (rd, td) = (format!("&reg[{}]", reg + o), format!("&{name}[{base} + {o}]"));
                    let (to, from) = if load { (rd, td) } else { (td, rd) };
                    o += v.lanes;
                    format!("{}({to}, {}({from}));", v.store, v.load)
                }
                None => {
                    let (r, t) = (format!("reg[{}]", reg + o), format!("{name}[{base} + {o}]"));
                    let (to, from) = if load { (r, t) } else { (t, r) };
                    o += 1;
                    format!("{to} = {from};")
                }
            };
            let _ = writeln!(out, "{pad}{line}");
        }
    }

    /// Emits `reg[dst+i] = fma(reg[a+i], bval, reg[dst+i])` for
    /// `i in 0..lanes`: whole-vector FMAs widest shape first with scalar
    /// tails when the runs are disjoint (or identical), strict ascending
    /// scalar lanes when the op's lane order is semantic
    /// ([`VOp::fma_in_order`]). Every lane is a single correctly-rounded
    /// fused multiply-add, bit-equal to the superword interpreter's.
    fn fma_run(&mut self, out: &mut String, pad: &str, op: &VOp, bval: &str) {
        let (VOp::VFmaLane { dst, a, lanes, .. } | VOp::VFmaBcast { dst, a, lanes, .. }) = *op else {
            unreachable!("only the packed FMAs carry a register run")
        };
        let mut o = 0u32;
        let vectors = if op.fma_in_order() { &[] } else { self.isa.row().vectors };
        for v in vectors {
            while lanes - o >= v.lanes {
                let (d, s) = (dst + o, a + o);
                let fma = v
                    .fma
                    .replace("{a}", &format!("{}(&reg[{s}])", v.load))
                    .replace("{b}", &format!("{}({bval})", v.splat))
                    .replace("{acc}", &format!("{}(&reg[{d}])", v.load));
                let _ = writeln!(out, "{pad}{}(&reg[{d}], {fma});", v.store);
                o += v.lanes;
            }
        }
        for i in o..lanes {
            let line = fma_lane(&format!("reg[{}]", dst + i), &format!("reg[{}]", a + i), bval);
            let _ = writeln!(out, "{pad}{line}");
        }
    }
}

/// One scalar multiply-add lane `acc = a·b + acc`: a single `fmaf`, one
/// rounding on every ISA.
fn fma_lane(acc: &str, a: &str, b: &str) -> String {
    format!("{acc} = fmaf({a}, {b}, {acc});")
}

fn aot_unsupported(what: impl Into<String>) -> CodegenError {
    CodegenError::Unsupported { backend: "aot", what: what.into() }
}

/// Turns a parameter name into a safe, unique C identifier.
fn c_ident(name: &str, used: &mut Vec<String>) -> String {
    let mut s: String =
        name.chars().map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' }).collect();
    if !s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_') {
        s.insert(0, 'p');
    }
    // Avoid the emitter's own locals (`reg`, the `t<slot>` counters, the
    // `i`/`e`/`z`/`bv`-numbered temporaries) and a handful of C keywords
    // a tensor could plausibly be called after. Every rule below demands
    // a digits-only tail, so appending `_` always terminates the loop.
    let reserved = ["reg", "const", "restrict", "float", "int", "void", "for", "if", "do", "while"];
    let numbered = |s: &str, prefix: &str| {
        s.strip_prefix(prefix)
            .is_some_and(|tail| !tail.is_empty() && tail.bytes().all(|b| b.is_ascii_digit()))
    };
    let clashes = |s: &str, used: &[String]| {
        used.iter().any(|u| u == s)
            || reserved.contains(&s)
            || ["t", "i", "e", "z", "bv"].iter().any(|p| numbered(s, p))
    };
    while clashes(&s, used) {
        s.push('_');
    }
    used.push(s.clone());
    s
}

/// Lowers a validated superword tape to a self-contained C translation
/// unit exporting one `extern`-style kernel function — the emission step
/// of the `exo-aot` native tier.
///
/// The function has the packed micro-kernel signature the tape dispatch
/// uses, with `restrict`-qualified pointers (`const` for tensors the tape
/// never writes):
///
/// ```c
/// void <fn_name>(int64_t KC, const float* restrict Ac,
///                const float* restrict Bc, float* restrict C);
/// ```
///
/// Vector ops lower to the names `isa`'s row spells its vector shapes with,
/// or to plain scalar C where it has none (the scalar row). On x86
/// (AVX-512, AVX2/FMA) those are helpers the row's prelude defines the way
/// gcc's headers define the intrinsics, so the unit includes nothing but
/// `<stdint.h>` and `<math.h>` and builds ~6× faster than it did with
/// `<immintrin.h>`; on NEON they are `<arm_neon.h>`'s intrinsics.
/// Micro-iterations arrive already unrolled on the tape, and packed-panel
/// loads inside the dynamic `KC` loop get a software prefetch of the panel
/// a few iterations ahead (`PREFETCH_ITERS`).
///
/// The register file becomes a local `float` array with constant indices
/// throughout, which `-O3` promotes to machine registers on one condition:
/// every lane group a packed FMA accumulates into is accessed at one width
/// and one offset by every op that touches it. A prologue that fills an
/// 8-lane accumulator as two 4-lane halves, or with a vector straddling two
/// accumulators, leaves the array in memory, and the compiled `KC` loop
/// writes its accumulators back to the stack on every iteration. This
/// emitter never moves a group with a vector wider than the group (so the
/// 8-lane accumulators of a tile keep their 256-bit moves under the
/// 512-bit ISA); that the schedule accumulates and moves each group whole
/// is what [`SuperwordKernel::split_accumulator_groups`] counts, and
/// `admitted_tiles_keep_every_accumulator_in_whole_vectors_of_the_executing_isa`
/// (`tests/tape_exec.rs`) holds it at 0 for every tile a serving space
/// admits.
///
/// Numerical contract (the compile flags must include
/// `-ffp-contract=off` so the compiler fuses nothing the tape does not,
/// and the link line `-lm` for the scalar floor's `fmaf`, which its row's
/// prelude gives an inline FMA clone on x86_64): every FMA lane
/// is a single correctly-rounded fused multiply-add, a vector FMA
/// instruction's or `fmaf`'s, and every other op rounds once —
/// bit-identical to the superword interpreter, the tape and the reference
/// interpreter.
///
/// # Errors
///
/// Returns [`CodegenError::BadArguments`] if the kernel does not have the
/// packed `(KC, Ac, Bc, C)` signature, and [`CodegenError::Unsupported`]
/// for tapes that write a packed operand or carry an f16 rounding step
/// (the native tier declines; callers fall back to the superword
/// interpreter).
pub fn emit_superword_c(kernel: &SuperwordKernel, isa: IsaKind, fn_name: &str) -> Result<String> {
    let tape = kernel.tape();
    tape.check_packed_signature()?;
    // `Ac` and `Bc`, the two tensors the signature declares `const`.
    for idx in 0..2 {
        if tape.writes_tensor(idx) {
            return Err(aot_unsupported(format!("kernel `{}` writes packed operand {idx}", tape.name)));
        }
    }
    for op in &kernel.ops {
        if let VOp::Scalar(TOp::Round { .. }) = op {
            return Err(aot_unsupported("f16 rounding has no C lowering in the native tier"));
        }
        if let VOp::Scalar(TOp::ConstF { val, .. }) = op {
            if !val.is_finite() {
                return Err(aot_unsupported("non-finite constant"));
            }
        }
    }

    let mut used: Vec<String> = Vec::new();
    let mut scalar_names = Vec::new();
    let mut tensor_names = Vec::new();
    let mut sig_parts: Vec<String> = Vec::new();
    for (i, (name, kind)) in tape.params.iter().enumerate() {
        let c_name = c_ident(name, &mut used);
        match kind {
            ParamKind::Scalar => {
                sig_parts.push(format!("int64_t {c_name}"));
                scalar_names.push(c_name);
            }
            ParamKind::Tensor => {
                let tensor_idx = tape.params[..i].iter().filter(|(_, k)| *k == ParamKind::Tensor).count();
                let qual = if tape.writes_tensor(tensor_idx) { "" } else { "const " };
                sig_parts.push(format!("{qual}float* restrict {c_name}"));
                tensor_names.push(c_name);
            }
        }
    }

    let groups = kernel.accumulator_groups(isa.lanes() as u32);
    let mut ctx = SwEmit { isa, scalar_names, tensor_names, groups, tmp: 0 };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// Generated by exo-aot: superword tape `{}` lowered to C ({}).",
        tape.name,
        isa.name()
    );
    let _ = writeln!(out, "// Compile with -O3 -ffp-contract=off (see exo_codegen::emit_superword_c).");
    let _ = writeln!(out, "#include <stdint.h>");
    let _ = writeln!(out, "#include <math.h>");
    for line in isa.row().c_prelude {
        let _ = writeln!(out, "{line}");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "void {fn_name}({}) {{", sig_parts.join(", "));
    // The register file: a local float array with constant indices, which
    // the C compiler's scalar replacement promotes to machine registers as
    // long as each accumulator lane group is accessed at one width and one
    // offset (`SuperwordKernel::split_accumulator_groups` == 0, see above).
    // It starts zeroed, exactly like the tape's freshly allocated one.
    let n_regs = tape.n_regs;
    let _ = writeln!(out, "    float reg[{n_regs}];");
    let _ = writeln!(out, "    for (int64_t z0 = 0; z0 < {n_regs}; z0++) reg[z0] = 0.0f;");

    let mut level = 1usize;
    // One prefetch per (buffer, loop body): emitted at the first
    // loop-carried packed load of each buffer inside each dynamic loop.
    let mut prefetched: Vec<Vec<u16>> = Vec::new();
    let prefetch = |ctx: &mut SwEmit,
                    out: &mut String,
                    pad: &str,
                    prefetched: &mut Vec<Vec<u16>>,
                    buf: u16,
                    addr: &Addr| {
        let Some(scope) = prefetched.last_mut() else { return };
        if scope.contains(&buf) {
            return;
        }
        if let Addr::Loop { base, slot, coeff } = *addr {
            scope.push(buf);
            let name = &ctx.tensor_names[buf as usize];
            let ahead = ctx.addr(&Addr::Loop { base: base + coeff * PREFETCH_ITERS, slot, coeff });
            let _ = writeln!(out, "{pad}__builtin_prefetch(&{name}[{ahead}], 0, 3);");
        }
    };

    for op in &kernel.ops {
        let pad = indent(level);
        match op {
            VOp::LoopBegin { slot, lo, hi, .. } => {
                let (lo_c, hi_c) = (ctx.addr(lo), ctx.addr(hi));
                let bound = ctx.fresh("e");
                let _ = writeln!(out, "{pad}const int64_t {bound} = {hi_c};");
                let _ = writeln!(out, "{pad}for (int64_t t{slot} = {lo_c}; t{slot} < {bound}; t{slot}++) {{");
                level += 1;
                prefetched.push(Vec::new());
            }
            VOp::LoopEnd { .. } => {
                level -= 1;
                let _ = writeln!(out, "{}}}", indent(level));
                prefetched.pop();
            }
            VOp::VLoad { dst, buf, addr, lanes } => {
                prefetch(&mut ctx, &mut out, &pad, &mut prefetched, *buf, addr);
                let idx = ctx.addr(addr);
                ctx.copy(&mut out, &pad, true, *dst, *buf, &idx, *lanes);
            }
            VOp::VStore { src, buf, addr, lanes } => {
                let idx = ctx.addr(addr);
                ctx.copy(&mut out, &pad, false, *src, *buf, &idx, *lanes);
            }
            VOp::VFmaLane { b, .. } => {
                // The broadcast lane never aliases the accumulator run
                // (construction-validated), so reading it up front matches
                // the interpreter reading it once per op.
                let bv = ctx.fresh("bv");
                let _ = writeln!(out, "{pad}const float {bv} = reg[{b}];");
                ctx.fma_run(&mut out, &pad, op, &bv);
            }
            VOp::VFmaBcast { buf, addr, scratch, .. } => {
                prefetch(&mut ctx, &mut out, &pad, &mut prefetched, *buf, addr);
                let idx = ctx.addr(addr);
                let name = ctx.tensor_names[*buf as usize].clone();
                let bv = ctx.fresh("bv");
                let _ = writeln!(out, "{pad}const float {bv} = {name}[{idx}];");
                let _ = writeln!(out, "{pad}reg[{scratch}] = {bv};");
                ctx.fma_run(&mut out, &pad, op, &bv);
            }
            VOp::Scalar(s) => {
                let line = match s {
                    TOp::ConstF { dst, val } => format!("reg[{dst}] = {val:?}f;"),
                    TOp::LoadT { dst, buf, addr } => {
                        format!("reg[{dst}] = {}[{}];", ctx.tensor_names[*buf as usize], ctx.addr(addr))
                    }
                    TOp::StoreT { src, buf, addr } => {
                        format!("{}[{}] = reg[{src}];", ctx.tensor_names[*buf as usize], ctx.addr(addr))
                    }
                    TOp::Mov { dst, src } => format!("reg[{dst}] = reg[{src}];"),
                    TOp::Neg { dst, src } => format!("reg[{dst}] = -reg[{src}];"),
                    TOp::AddAssign { dst, src } => format!("reg[{dst}] += reg[{src}];"),
                    TOp::Add { dst, a, b } => format!("reg[{dst}] = reg[{a}] + reg[{b}];"),
                    TOp::Sub { dst, a, b } => format!("reg[{dst}] = reg[{a}] - reg[{b}];"),
                    TOp::Mul { dst, a, b } => format!("reg[{dst}] = reg[{a}] * reg[{b}];"),
                    TOp::Div { dst, a, b } => format!("reg[{dst}] = reg[{a}] / reg[{b}];"),
                    TOp::Fma { dst, a, b } => {
                        fma_lane(&format!("reg[{dst}]"), &format!("reg[{a}]"), &format!("reg[{b}]"))
                    }
                    TOp::CastI { dst, value } => format!("reg[{dst}] = (float)({});", ctx.addr(value)),
                    TOp::Zero { base, len } => {
                        let z = ctx.fresh("z");
                        format!("for (int64_t {z} = 0; {z} < {len}; {z}++) reg[{base} + {z}] = 0.0f;")
                    }
                    TOp::Round { .. } | TOp::LoopBegin { .. } | TOp::LoopEnd { .. } => {
                        unreachable!("rejected above / lifted to VOp level")
                    }
                };
                let _ = writeln!(out, "{pad}{line}");
            }
        }
    }
    let _ = writeln!(out, "}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use exo_ir::builder::*;
    use exo_isa::neon_f32;

    #[test]
    fn emits_signature_and_loops() {
        let p = exo_isa::ukernel_ref_simple(ScalarType::F32);
        let c = emit_c(&p).unwrap();
        assert!(c.contains("void ukernel_ref(int_fast32_t MR, int_fast32_t NR, int_fast32_t KC, const float* Ac, const float* Bc, float* C)"));
        assert!(c.contains("for (int_fast32_t k = 0; k < KC; k++) {"));
        assert!(c.contains("C[j * MR + i] += (Ac[k * MR + i] * Bc[k * NR + j]);"));
    }

    #[test]
    fn emits_register_allocations_and_intrinsic_calls() {
        let isa = neon_f32();
        let p = proc("uk")
            .size_arg("KC")
            .tensor_arg("Ac", ScalarType::F32, vec![var("KC"), int(8)], MemSpace::Dram)
            .tensor_arg("C", ScalarType::F32, vec![int(12), int(8)], MemSpace::Dram)
            .body(vec![
                alloc("C_reg", ScalarType::F32, vec![int(12), int(2), int(4)], MemSpace::Neon),
                call(
                    &isa.load,
                    vec![
                        win("C_reg", vec![pt(int(0)), pt(int(1)), interval(0, 4)]),
                        win("C", vec![pt(int(0)), interval(4, 8)]),
                    ],
                ),
            ])
            .build();
        let c = emit_c(&p).unwrap();
        assert!(c.contains("float32x4_t C_reg[12][2];"), "got:\n{c}");
        assert!(c.contains("C_reg[0][1] = vld1q_f32(&C[0 * 8 + 4]);"), "got:\n{c}");
    }

    #[test]
    fn lane_indexed_fma_substitutes_all_placeholders() {
        let isa = neon_f32();
        let fma = isa.fma_lane.clone().unwrap();
        let p = proc("fma_host")
            .body(vec![
                alloc("C_reg", ScalarType::F32, vec![int(12), int(2), int(4)], MemSpace::Neon),
                alloc("A_reg", ScalarType::F32, vec![int(2), int(4)], MemSpace::Neon),
                alloc("B_reg", ScalarType::F32, vec![int(3), int(4)], MemSpace::Neon),
                for_(
                    "jt",
                    0,
                    3,
                    vec![for_(
                        "jtt",
                        0,
                        4,
                        vec![call(
                            &fma,
                            vec![
                                win(
                                    "C_reg",
                                    vec![
                                        pt(Expr::add(Expr::mul(int(4), var("jt")), var("jtt"))),
                                        pt(int(0)),
                                        interval(0, 4),
                                    ],
                                ),
                                win("A_reg", vec![pt(int(0)), interval(0, 4)]),
                                win("B_reg", vec![pt(var("jt")), interval(0, 4)]),
                                arg_expr(var("jtt")),
                            ],
                        )],
                    )],
                ),
            ])
            .build();
        let c = emit_c(&p).unwrap();
        assert!(
            c.contains(
                "C_reg[4 * jt + jtt][0] = vfmaq_laneq_f32(C_reg[4 * jt + jtt][0], A_reg[0], B_reg[jt], jtt);"
            ),
            "got:\n{c}"
        );
        assert!(!c.contains("_data}"), "all format placeholders must be substituted:\n{c}");
    }

    #[test]
    fn unknown_buffer_is_an_error() {
        let p = proc("broken").body(vec![assign("ghost", vec![int(0)], flt(0.0))]).build();
        assert!(matches!(emit_c(&p), Err(CodegenError::UnknownBuffer { .. })));
    }

    #[test]
    fn dram_allocation_is_flattened() {
        let p = proc("scratch")
            .body(vec![alloc("Cb", ScalarType::F32, vec![int(12), int(8)], MemSpace::Dram)])
            .build();
        let c = emit_c(&p).unwrap();
        assert!(c.contains("float Cb[12 * 8];"));
    }

    /// The staged laneq-shaped micro-kernel every scheduled kernel lowers
    /// to (same staging as the superword tests): `C` tile and operand
    /// stages in registers, packed FMA runs in the `KC` loop.
    fn staged_superword(mr: i64, nr: i64) -> SuperwordKernel {
        let p = proc("ukr_staged")
            .size_arg("KC")
            .tensor_arg("Ac", ScalarType::F32, vec![var("KC"), int(mr)], MemSpace::Dram)
            .tensor_arg("Bc", ScalarType::F32, vec![var("KC"), int(nr)], MemSpace::Dram)
            .tensor_arg("C", ScalarType::F32, vec![int(nr * mr)], MemSpace::Dram)
            .body(vec![
                alloc("Ct", ScalarType::F32, vec![int(nr), int(mr)], MemSpace::Neon),
                alloc("Ra", ScalarType::F32, vec![int(mr)], MemSpace::Neon),
                alloc("Rb", ScalarType::F32, vec![int(nr)], MemSpace::Neon),
                for_(
                    "j",
                    0,
                    nr,
                    vec![for_(
                        "i",
                        0,
                        mr,
                        vec![assign(
                            "Ct",
                            vec![var("j"), var("i")],
                            read("C", vec![Expr::add(Expr::mul(var("j"), int(mr)), var("i"))]),
                        )],
                    )],
                ),
                for_(
                    "k",
                    0,
                    var("KC"),
                    vec![
                        for_(
                            "i",
                            0,
                            mr,
                            vec![assign("Ra", vec![var("i")], read("Ac", vec![var("k"), var("i")]))],
                        ),
                        for_(
                            "j",
                            0,
                            nr,
                            vec![assign("Rb", vec![var("j")], read("Bc", vec![var("k"), var("j")]))],
                        ),
                        for_(
                            "j",
                            0,
                            nr,
                            vec![for_(
                                "i",
                                0,
                                mr,
                                vec![reduce(
                                    "Ct",
                                    vec![var("j"), var("i")],
                                    Expr::mul(read("Ra", vec![var("i")]), read("Rb", vec![var("j")])),
                                )],
                            )],
                        ),
                    ],
                ),
                for_(
                    "j",
                    0,
                    nr,
                    vec![for_(
                        "i",
                        0,
                        mr,
                        vec![assign(
                            "C",
                            vec![Expr::add(Expr::mul(var("j"), int(mr)), var("i"))],
                            read("Ct", vec![var("j"), var("i")]),
                        )],
                    )],
                ),
            ])
            .build();
        Arc::new(crate::compile(&p).unwrap()).to_superword().unwrap()
    }

    /// The headers a translation unit includes.
    fn includes(c: &str) -> Vec<&str> {
        c.lines().filter(|line| line.trim_start().starts_with("#include")).collect()
    }

    #[test]
    fn superword_avx2_emission_is_a_self_contained_fused_kernel() {
        let sw = staged_superword(8, 4);
        let c = emit_superword_c(&sw, IsaKind::Avx2, "exo_aot_kernel").unwrap();
        // No intrinsics header: the prelude defines every helper it calls.
        assert_eq!(includes(&c), ["#include <stdint.h>", "#include <math.h>"], "got:\n{c}");
        assert!(c.contains("\nexo_fma8(") && c.contains("__builtin_ia32_vfmaddps256"), "got:\n{c}");
        assert!(
            c.contains("void exo_aot_kernel(int64_t KC, const float* restrict Ac, const float* restrict Bc, float* restrict C)"),
            "packed signature with restrict + const qualifiers:\n{c}"
        );
        assert!(c.contains("exo_fma8(exo_load8(&reg["), "whole-vector fused FMAs:\n{c}");
        assert!(c.contains("exo_load8(&C[") && !c.contains("exo_load4(&C["), "whole C columns:\n{c}");
        assert!(c.contains("for (int64_t t0 = (0); t0 <"), "dynamic KC loop:\n{c}");
        assert!(c.contains("__builtin_prefetch"), "packed panels are prefetched:\n{c}");
        // The register file starts zeroed, like the tape's.
        assert!(c.contains("reg[z0] = 0.0f;"), "got:\n{c}");
    }

    #[test]
    fn superword_avx512_emission_moves_each_accumulator_at_its_own_width() {
        let body = |c: &str| c[c.find("\nvoid ").unwrap()..].to_string();
        // 8-lane accumulators: no 512-bit move across two of them, so the
        // body is AVX2's under the AVX-512 guard.
        let sw = staged_superword(8, 4);
        let c = emit_superword_c(&sw, IsaKind::Avx512, "exo_aot_kernel").unwrap();
        assert!(c.contains("#error \"this kernel requires -mavx512f -mavx2 -mfma\""), "got:\n{c}");
        assert_eq!(includes(&c), ["#include <stdint.h>", "#include <math.h>"], "got:\n{c}");
        let body8 = body(&c);
        assert!(!body8.contains("exo_load16") && !body8.contains("exo_fma16"), "8-lane accumulators:\n{c}");
        assert_eq!(body8, body(&emit_superword_c(&sw, IsaKind::Avx2, "exo_aot_kernel").unwrap()));
        // 16-lane accumulators: loaded, accumulated and stored 16 lanes wide.
        let c = emit_superword_c(&staged_superword(16, 4), IsaKind::Avx512, "exo_aot_kernel").unwrap();
        assert!(c.contains("__builtin_ia32_vfmaddps512_mask(a, b, c, (unsigned short)-1, 4)"), "got:\n{c}");
        for op in ["exo_load16(&C[", "exo_store16(&C[", "exo_fma16(exo_load16(&reg["] {
            assert!(body(&c).contains(op), "{op}:\n{c}");
        }
        assert!(!body(&c).contains("exo_load8(&C[") && !body(&c).contains("exo_fma8("), "got:\n{c}");
    }

    #[test]
    fn superword_neon_emission_uses_neon_intrinsics() {
        let sw = staged_superword(8, 4);
        let c = emit_superword_c(&sw, IsaKind::Neon, "exo_aot_kernel").unwrap();
        assert!(c.contains("#include <arm_neon.h>"), "got:\n{c}");
        assert!(c.contains("vfmaq_f32"), "got:\n{c}");
        assert!(!c.contains("exo_fma"), "no x86 helpers in the NEON lowering:\n{c}");
    }

    #[test]
    fn superword_scalar_floor_is_plain_c_with_fmaf() {
        let sw = staged_superword(8, 4);
        let c = emit_superword_c(&sw, IsaKind::Scalar, "exo_aot_kernel").unwrap();
        // Bit-equality with every other tier: each multiply-add lane is one
        // `fmaf`, and no lane multiplies and adds on its own. No intrinsics.
        assert!(c.contains("= fmaf(reg[") && c.contains(", bv"), "broadcast multiply-add lanes:\n{c}");
        assert!(!c.contains("] * bv") && !c.contains("+="), "no two-rounding lane:\n{c}");
        assert!(!c.contains("exo_fma") && !c.contains("vfmaq"), "got:\n{c}");
        // Built without `-mfma`, so an x86_64 CPU with FMA gets an inline clone.
        assert!(c.contains("target_clones(\"fma\", \"default\")"), "got:\n{c}");
    }

    #[test]
    fn superword_emission_rejects_non_packed_kernels() {
        let p = proc("notpacked")
            .size_arg("N")
            .tensor_arg("x", ScalarType::F32, vec![var("N")], MemSpace::Dram)
            .body(vec![for_("i", 0, var("N"), vec![assign("x", vec![var("i")], flt(1.0))])])
            .build();
        let sw = Arc::new(crate::compile(&p).unwrap()).to_superword().unwrap();
        assert!(matches!(emit_superword_c(&sw, IsaKind::Avx2, "k"), Err(CodegenError::BadArguments { .. })));
    }

    #[test]
    fn superword_emission_declines_kernels_that_write_a_packed_operand() {
        let p = proc("writes_ac")
            .size_arg("KC")
            .tensor_arg("Ac", ScalarType::F32, vec![int(4)], MemSpace::Dram)
            .tensor_arg("Bc", ScalarType::F32, vec![int(4)], MemSpace::Dram)
            .tensor_arg("C", ScalarType::F32, vec![int(4)], MemSpace::Dram)
            .body(vec![assign("Ac", vec![int(0)], flt(1.0))])
            .build();
        let sw = Arc::new(crate::compile(&p).unwrap()).to_superword().unwrap();
        assert!(matches!(
            emit_superword_c(&sw, IsaKind::Avx2, "k"),
            Err(CodegenError::Unsupported { backend: "aot", .. })
        ));
    }

    #[test]
    fn superword_emission_declines_f16_rounding() {
        let p = proc("round16")
            .size_arg("KC")
            .tensor_arg("Ac", ScalarType::F32, vec![int(4)], MemSpace::Dram)
            .tensor_arg("Bc", ScalarType::F32, vec![int(4)], MemSpace::Dram)
            .tensor_arg("C", ScalarType::F16, vec![int(4)], MemSpace::Dram)
            .body(vec![assign("C", vec![int(0)], read("Ac", vec![int(0)]))])
            .build();
        let sw = Arc::new(crate::compile(&p).unwrap()).to_superword().unwrap();
        assert!(matches!(
            emit_superword_c(&sw, IsaKind::Avx2, "k"),
            Err(CodegenError::Unsupported { backend: "aot", .. })
        ));
    }

    #[test]
    fn superword_emission_sanitises_hostile_parameter_names() {
        // A tensor named `reg` must not capture the emitter's register
        // file, and loop-counter-shaped names must not collide with the
        // emitted `t<slot>` counters.
        let p = proc("hostile")
            .size_arg("t0")
            .tensor_arg("reg", ScalarType::F32, vec![int(4)], MemSpace::Dram)
            .tensor_arg("bv0", ScalarType::F32, vec![int(4)], MemSpace::Dram)
            .tensor_arg("C", ScalarType::F32, vec![int(4)], MemSpace::Dram)
            .body(vec![assign("C", vec![int(0)], read("reg", vec![int(0)]))])
            .build();
        let sw = Arc::new(crate::compile(&p).unwrap()).to_superword().unwrap();
        let c = emit_superword_c(&sw, IsaKind::Scalar, "k").unwrap();
        assert!(c.contains("const float* restrict reg_"), "renamed away from the register file:\n{c}");
        assert!(c.contains("int64_t t0_"), "renamed away from loop counters:\n{c}");
        assert!(c.contains("float reg["), "the register file keeps its name:\n{c}");
    }
}
