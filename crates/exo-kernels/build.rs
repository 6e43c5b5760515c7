//! Compiles the emitted C of every admitted tile into a static archive and
//! writes the table of its bodies (`$OUT_DIR/table.rs`); see the crate
//! documentation.

use std::env;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

use exo_aot::{content_hash, KERNEL_SYMBOL};
use exo_codegen::{emit_superword_c, IsaKind};
use ukernel_gen::MicroKernelGenerator;

#[path = "build/toolchain.rs"]
mod toolchain;

/// One translation unit: a tile's C for one ISA row.
struct Unit {
    /// The tile and row, for diagnostics.
    label: String,
    isa: IsaKind,
    key: u64,
    c_source: String,
}

impl Unit {
    /// The body's symbol, which is also its object file's stem.
    fn symbol(&self) -> String {
        format!("exo_k_{}_{:016x}", self.isa.name(), self.key)
    }
}

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-changed=build/toolchain.rs");
    println!("cargo:rerun-if-env-changed=EXO_CC");
    println!("cargo:rerun-if-env-changed=EXO_AR");
    let out = PathBuf::from(env::var_os("OUT_DIR").expect("cargo sets OUT_DIR"));
    let rows: &[IsaKind] = match env::var("CARGO_CFG_TARGET_ARCH").as_deref() {
        Ok("x86_64") => &[IsaKind::Avx512, IsaKind::Avx2, IsaKind::Scalar],
        Ok("aarch64") => &[IsaKind::Neon, IsaKind::Scalar],
        _ => &[IsaKind::Scalar],
    };
    let compiler = compiler();
    let (written, compiled) = match &compiler {
        Some((cc, _)) => {
            let units = units(rows);
            let written: Vec<String> = units.iter().map(Unit::symbol).collect();
            (written, compile(cc, units, &out))
        }
        None => (Vec::new(), Vec::new()),
    };
    sweep(&out, &written, &compiled);
    if !compiled.is_empty() {
        archive(&compiled, &out);
    }
    std::fs::write(out.join("table.rs"), table(compiler.as_ref(), &compiled))
        .expect("writing the table of native bodies");
}

/// The C compiler and the first line of its `--version`: `EXO_CC` when set
/// (and nothing else), else the first of `cc`, `gcc`, `clang` that answers.
/// `None`, with a warning, when none answers or a cross build names none.
fn compiler() -> Option<(String, String)> {
    let candidates = match env::var("EXO_CC") {
        Ok(value) if !value.is_empty() => {
            vec![toolchain::parse_exo_cc(&value).unwrap_or_else(|e| panic!("EXO_CC: {e}"))]
        }
        _ if env::var("TARGET") != env::var("HOST") => {
            println!("cargo:warning=a cross build without EXO_CC compiles no native kernels");
            return None;
        }
        _ => ["cc", "gcc", "clang"].map(String::from).to_vec(),
    };
    let found = candidates.iter().find_map(|cc| toolchain::probe_command(cc));
    if found.is_none() {
        println!("cargo:warning=no C compiler answered: no native kernels are compiled");
    }
    found
}

/// The C of every tile `neon_f32` admits, on every row the emitter lowers
/// it for, and of every tile `avx512_f32` admits on the avx512 row only —
/// the one ISA whose serving space holds that library — one unit per
/// distinct `(key, row)`.
fn units(rows: &[IsaKind]) -> Vec<Unit> {
    let mut units: Vec<Unit> = Vec::new();
    for (library, only_on) in [(exo_isa::neon_f32(), None), (exo_isa::avx512_f32(), Some(IsaKind::Avx512))] {
        let generator = MicroKernelGenerator::new(library);
        for tile in generator.admitted_tiles() {
            let kernel = generator
                .generate(tile.mr, tile.nr)
                .unwrap_or_else(|e| panic!("the admitted {}x{} tile generates: {e}", tile.mr, tile.nr));
            for &isa in rows.iter().filter(|&&isa| only_on.is_none_or(|only| only == isa)) {
                let Ok(c_source) = emit_superword_c(&kernel.superword, isa, KERNEL_SYMBOL) else {
                    continue;
                };
                let key = content_hash(c_source.as_bytes());
                if !units.iter().any(|u| u.key == key && u.isa == isa) {
                    let label = format!("{} {}x{} on {isa}", kernel.isa_name, tile.mr, tile.nr);
                    units.push(Unit { label, isa, key, c_source });
                }
            }
        }
    }
    units
}

/// Compiles every unit to an object in `out`, as many at a time as the
/// machine has threads, the longest C first so that no long compile is
/// left to run alone at the end. Returns the units that compiled; a unit
/// that fails is left out with a warning, and its kernel serves on the
/// superword interpreter.
fn compile(cc: &str, mut units: Vec<Unit>, out: &Path) -> Vec<Unit> {
    units.sort_by_key(|unit| std::cmp::Reverse(unit.c_source.len()));
    let next = AtomicUsize::new(0);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(units.len());
    let mut ok: Vec<usize> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut ok = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(unit) = units.get(i) else { return ok };
                        match compile_one(cc, unit, out) {
                            Ok(()) => ok.push(i),
                            // One `println!`, so no other thread's lines interleave.
                            Err(e) => println!(
                                "cargo:warning=`{cc}` failed on the {}:\ncargo:warning={}",
                                unit.label,
                                e.replace('\n', "\ncargo:warning=")
                            ),
                        }
                    }
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("a compile thread")).collect()
    });
    ok.sort_unstable();
    units.into_iter().enumerate().filter(|(i, _)| ok.binary_search(i).is_ok()).map(|(_, u)| u).collect()
}

/// One unit: `-O3 -fPIC -ffp-contract=off`, the row's flags, and the
/// kernel symbol renamed to the body's own.
fn compile_one(cc: &str, unit: &Unit, out: &Path) -> Result<(), String> {
    let symbol = unit.symbol();
    let src = out.join(format!("{symbol}.c"));
    std::fs::write(&src, &unit.c_source).map_err(|e| format!("writing {}: {e}", src.display()))?;
    let output = Command::new(cc)
        .args(["-O3", "-fPIC", "-ffp-contract=off"])
        .args(unit.isa.cc_flags())
        .arg(format!("-D{KERNEL_SYMBOL}={symbol}"))
        .arg("-c")
        .arg(&src)
        .arg("-o")
        .arg(out.join(format!("{symbol}.o")))
        .output()
        .map_err(|e| e.to_string())?;
    if output.status.success() {
        Ok(())
    } else {
        let diagnostics = toolchain::compiler_diagnostics(&output.stderr);
        Err(if diagnostics.is_empty() { format!("no diagnostics ({})", output.status) } else { diagnostics })
    }
}

/// Removes what an earlier build of this crate left in `out` and this one
/// did not make: the source of every unit not in `written` (this build's
/// list), the object of every unit not `compiled`, and the archive when
/// nothing compiled. So `out` holds one object per body of the table, and a
/// failed unit's C beside its warning.
fn sweep(out: &Path, written: &[String], compiled: &[Unit]) {
    let compiled: Vec<String> = compiled.iter().map(Unit::symbol).collect();
    let entries = std::fs::read_dir(out).unwrap_or_else(|e| panic!("listing {}: {e}", out.display()));
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = match name.strip_prefix("exo_k_").and(name.rsplit_once('.')) {
            Some((stem, "c")) => !written.iter().any(|s| s == stem),
            Some((stem, "o")) => !compiled.iter().any(|s| s == stem),
            _ => name == "libexo_kernels_native.a" && compiled.is_empty(),
        };
        if stale {
            std::fs::remove_file(entry.path()).unwrap_or_else(|e| panic!("removing {name}: {e}"));
        }
    }
}

/// Archives the objects (`EXO_AR`, else `ar`) and links the archive in.
fn archive(compiled: &[Unit], out: &Path) {
    let ar = env::var("EXO_AR").ok().filter(|v| !v.trim().is_empty()).unwrap_or_else(|| "ar".into());
    let lib = out.join("libexo_kernels_native.a");
    let _ = std::fs::remove_file(&lib);
    let status = Command::new(&ar)
        .arg("crs")
        .arg(&lib)
        .args(compiled.iter().map(|u| out.join(format!("{}.o", u.symbol()))))
        .status()
        .unwrap_or_else(|e| panic!("running `{ar}`: {e}"));
    assert!(status.success(), "`{ar}` failed to archive the native kernels: {status}");
    println!("cargo:rustc-link-search=native={}", out.display());
    println!("cargo:rustc-link-lib=static=exo_kernels_native");
    if env::var("CARGO_CFG_TARGET_FAMILY").as_deref() == Ok("unix") {
        // The scalar floor's lanes call `fmaf`.
        println!("cargo:rustc-link-lib=m");
    }
}

/// `table.rs`: the bodies' declarations, `BODIES` and `COMPILER`.
fn table(compiler: Option<&(String, String)>, compiled: &[Unit]) -> String {
    let mut rs =
        String::from("// Generated by build.rs: the native bodies this build compiled.\n\nextern \"C\" {\n");
    for unit in compiled {
        writeln!(rs, "    fn {}(kc: i64, ac: *const f32, bc: *const f32, c: *mut f32);", unit.symbol())
            .unwrap();
    }
    writeln!(
        rs,
        "}}\n\n/// Every body this build compiled.\nstatic BODIES: [NativeBody; {}] = [",
        compiled.len()
    )
    .unwrap();
    for unit in compiled {
        writeln!(
            rs,
            "    NativeBody {{ key: 0x{:016x}, isa: exo_codegen::IsaKind::{:?}, body: {} }},",
            unit.key,
            unit.isa,
            unit.symbol()
        )
        .unwrap();
    }
    let compiler = compiler.map_or("None".into(), |(cc, version)| format!("Some(({cc:?}, {version:?}))"));
    writeln!(
        rs,
        "];\n\n/// The compiler that compiled them.\nconst COMPILER: Option<(&str, &str)> = {compiler};"
    )
    .unwrap();
    rs
}
