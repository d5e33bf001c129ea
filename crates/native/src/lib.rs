//! # certa-native
//!
//! Tier-4 native code for every shared guest program, generated at build
//! time by `build.rs` via `certa-aot` (feature `aot` only): the seven
//! paper workloads, the differential suite's seeded random programs, the
//! nested-loop lap kernel and the paper-scale ring-threshold kernel.
//!
//! Callers find code by the program they are about to run
//! ([`for_program`]), so any session — an inline campaign, a `certa-dist`
//! worker that resolved its workload by name, a coordinator — runs
//! natively exactly when this build holds code for its program. Without
//! the feature [`ALL`] is empty and every lookup returns `None`, so no
//! caller needs a `#[cfg]`.

use certa_isa::Program;
use certa_sim::AotProgram;

#[cfg(feature = "aot")]
#[allow(
    unused_variables,
    unused_mut,
    unused_assignments,
    unused_parens,
    clippy::all,
    clippy::pedantic,
    clippy::nursery
)]
mod generated {
    include!(concat!(env!("OUT_DIR"), "/aot_workloads.rs"));
}

/// Every precompiled program in this build.
#[cfg(feature = "aot")]
pub use generated::ALL;

/// Every precompiled program in this build: none without the `aot`
/// feature.
#[cfg(not(feature = "aot"))]
pub static ALL: &[&AotProgram] = &[];

/// The native code generated from `program` — same length and same
/// [`Program::code_fingerprint`] ([`AotProgram::matches`]) — if this build
/// has any.
#[must_use]
pub fn for_program(program: &Program) -> Option<&'static AotProgram> {
    ALL.iter().copied().find(|aot| aot.matches(program))
}

/// Precompiled code by the name it was generated from (`"susan"`,
/// `"random_3"`, `"nested-loop"`, `"ring-threshold-paper"`, …).
#[must_use]
pub fn lookup(name: &str) -> Option<&'static AotProgram> {
    ALL.iter().copied().find(|aot| aot.name == name)
}
