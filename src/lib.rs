//! # certa
//!
//! Reproduction of **"Characterization of Error-Tolerant Applications when
//! Protecting Control Data"** (Thaker et al., IISWC 2006) as a Rust
//! workspace.
//!
//! This facade crate re-exports the whole stack:
//!
//! * [`isa`] — the MIPS-like instruction set with def/use metadata.
//! * [`aot`] — tier-4 ahead-of-time Rust code generation from CFGs, plus
//!   the shared guest programs the differential suite and benches compile.
//! * [`native`] — the tier-4 code generated at build time (feature `aot`
//!   of `certa-native`), found by the program it was generated from.
//! * [`asm`] — the macro-assembler (builder DSL + text dialect).
//! * [`sim`] — the functional simulator with fault-injection hooks.
//! * [`core`] — **the paper's contribution**: the backward CVar dataflow
//!   analysis that tags instructions as low-reliability vs. protected.
//! * [`fault`] — Monte-Carlo single-bit-flip campaigns.
//! * [`dist`] — the distributed campaign service: a crash-tolerant
//!   coordinator/worker split of the campaign over lease-based trial
//!   chunks on localhost TCP.
//! * [`fidelity`] — the application fidelity measures of Table 1.
//! * [`workloads`] — the seven benchmark guests with golden references.
//!
//! ## Quickstart
//!
//! ```
//! use certa::core::analyze;
//! use certa::fault::{run_campaign, CampaignConfig, Protection};
//! use certa::fault::Target;
//! use certa::workloads::{SusanWorkload, Workload};
//!
//! let susan = SusanWorkload::new();
//! let tags = analyze(susan.program());
//! let result = run_campaign(
//!     &susan,
//!     &tags,
//!     &CampaignConfig {
//!         trials: 4,
//!         errors: 10,
//!         protection: Protection::ControlOnly,
//!         ..CampaignConfig::default()
//!     },
//! );
//! assert_eq!(result.failure_rate(), 0.0); // control protection holds
//! for output in result.completed_outputs() {
//!     let fidelity = susan.evaluate(&result.golden.output, Some(output));
//!     assert!(fidelity.score > 0.0);
//! }
//! ```

pub use certa_aot as aot;
pub use certa_asm as asm;
pub use certa_core as core;
pub use certa_dist as dist;
pub use certa_fault as fault;
pub use certa_fidelity as fidelity;
pub use certa_isa as isa;
pub use certa_native as native;
pub use certa_sim as sim;
pub use certa_workloads as workloads;
