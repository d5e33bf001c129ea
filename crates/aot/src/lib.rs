//! # certa-aot
//!
//! Tier 4 of the execution pipeline: ahead-of-time translation of guest
//! programs into Rust source.
//!
//! [`codegen::generate_module`] walks a program's [`certa_core::Cfg`] and
//! emits one region-executor function per program — a threaded
//! `loop { match block_id }` over the basic blocks, guest integer and
//! floating-point registers lowered to locals, loads/stores through the
//! checked accessors of `certa_sim::aot::AotCtx`, and every pause,
//! watchdog, crash, halt, and uncompiled-target boundary compiled in as
//! an explicit early return carrying exact pc/icount/value-producing
//! state. A consumer (`certa-native`'s `build.rs`) writes the generated
//! source into `OUT_DIR` and compiles it into its own binary; the
//! interpreter tiers remain the bit-exact oracle and run the block that
//! holds each planned fault.
//!
//! [`progs`] holds the guest programs shared by the differential suite,
//! the benches, and the build-time generator — the seeded random-program
//! generator, the nested-loop lap kernel, and the paper-scale
//! ring-threshold kernel — so the exact instruction streams the tests
//! interpret are the ones the build script compiles to native code.

pub mod codegen;
pub mod progs;

pub use codegen::generate_module;
