//! Golden hashes of the figure and table binaries: each one's stdout must
//! stay byte-identical to the recorded output. Every number they print is
//! modelled on the Carmel core from kernel traces, so the bytes depend on
//! neither the host's speed nor its vector ISA (`EXO_ISA=scalar` prints the
//! same). A change that moves a figure on purpose re-records its hash here
//! and says why.

use std::process::Command;

/// `(binary, its path, exo_aot::content_hash of its stdout)`.
const GOLDEN: [(&str, &str, u64); 9] = [
    ("fig13_solo", env!("CARGO_BIN_EXE_fig13_solo"), 0x4fad_bc65_4c58_de05),
    ("fig14_square", env!("CARGO_BIN_EXE_fig14_square"), 0x922c_04bc_f8d3_b0eb),
    ("fig15_resnet_layers", env!("CARGO_BIN_EXE_fig15_resnet_layers"), 0x16c3_6f95_78b4_52c6),
    ("fig16_resnet_time", env!("CARGO_BIN_EXE_fig16_resnet_time"), 0xadcf_fbd9_3b51_714d),
    ("fig17_vgg_layers", env!("CARGO_BIN_EXE_fig17_vgg_layers"), 0x2e7e_bcba_182a_70a8),
    ("fig18_vgg_time", env!("CARGO_BIN_EXE_fig18_vgg_time"), 0xf8c5_ca43_6e41_68b4),
    ("tables_dnn", env!("CARGO_BIN_EXE_tables_dnn"), 0x8597_1ef1_fb45_18a7),
    ("ablations", env!("CARGO_BIN_EXE_ablations"), 0xcfae_d0dd_a6d7_eab6),
    ("codegen_steps", env!("CARGO_BIN_EXE_codegen_steps"), 0x5004_42fd_6066_8921),
];

#[test]
fn figure_binaries_print_their_recorded_bytes() {
    let mut drifted = Vec::new();
    for (name, exe, golden) in GOLDEN {
        let out = Command::new(exe).output().unwrap_or_else(|e| panic!("running {name}: {e}"));
        assert!(out.status.success(), "{name} failed: {}", String::from_utf8_lossy(&out.stderr));
        let hash = exo_aot::content_hash(&out.stdout);
        if hash != golden {
            drifted.push(format!("{name}: 0x{hash:016x}, recorded 0x{golden:016x}"));
        }
    }
    assert!(drifted.is_empty(), "figure output changed:\n{}", drifted.join("\n"));
}
