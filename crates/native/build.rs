//! Build script for the `aot` feature: generates tier-4 native code for
//! every shared guest program into `$OUT_DIR/aot_workloads.rs`, which the
//! library includes.
//!
//! The generated set is exactly what the parity tests, the benches and
//! the campaign binaries exercise: the seven paper workloads, the differential suite's seeded
//! random programs, the nested-loop lap kernel, and the paper-scale
//! ring-threshold campaign kernel. Generation is gated at *runtime* on
//! `CARGO_FEATURE_AOT` (build-dependencies cannot be feature-gated), so
//! plain `cargo test -q` pays nothing beyond compiling this script.

use std::env;
use std::fs;
use std::path::PathBuf;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    if env::var_os("CARGO_FEATURE_AOT").is_none() {
        return;
    }
    let mut owned: Vec<(String, certa_isa::Program)> = Vec::new();
    for w in certa_workloads::all_workloads() {
        owned.push((w.name().to_string(), w.program().clone()));
    }
    for seed in certa_aot::progs::AOT_RANDOM_SEEDS {
        owned.push((format!("random_{seed}"), certa_aot::progs::random_program(seed)));
    }
    owned.push((
        "nested-loop".to_string(),
        certa_aot::progs::nested_loop_program(),
    ));
    let (paper, _, _) = certa_aot::progs::ring_threshold_program(
        certa_aot::progs::PAPER_RING,
        certa_aot::progs::PAPER_ITERS,
    );
    owned.push(("ring-threshold-paper".to_string(), paper));

    let entries: Vec<(&str, &certa_isa::Program)> =
        owned.iter().map(|(n, p)| (n.as_str(), p)).collect();
    let src = certa_aot::generate_module(&entries);
    let out = PathBuf::from(env::var("OUT_DIR").expect("OUT_DIR is set by cargo"));
    fs::write(out.join("aot_workloads.rs"), src).expect("write generated AOT module");
}
