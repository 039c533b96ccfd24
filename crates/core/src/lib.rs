//! The paper's contribution: CA-matrix canonical encoding, structural
//! analysis and the conventional / ML / hybrid CA model generation flows.
//!
//! Pipeline (paper Fig. 2 / Fig. 3):
//!
//! 1. [`Activation`] — one golden simulation per stimulus: output waves,
//!    per-transistor activity waves, activity values (§III.A, §III.C).
//! 2. [`CanonicalCell`] — branch extraction, series-parallel branch
//!    equations, anonymization, deterministic transistor renaming
//!    (§III.B), structure hashes for the hybrid gate (§V.B).
//! 3. [`PreparedCell`] / [`matrix::MatrixLayout`] — the CA-matrix feature
//!    encoding of ⟨stimulus, defect⟩ rows (Table I, §IV).
//! 4. [`MlFlow`] — per-(inputs, transistors) random forests trained on
//!    existing CA models, predicting models for new cells (Fig. 2).
//! 5. [`HybridFlow`] — the structural gate routing each new cell to ML or
//!    to conventional simulation, with reinforcement feedback (Fig. 7)
//!    and the calibrated generation-time [`CostModel`] (§V.C).
//!
//! # Example: predict a CA model instead of simulating it
//!
//! ```
//! use ca_core::{MlFlow, MlFlowParams, PreparedCell};
//! use ca_defects::GenerateOptions;
//! use ca_netlist::{generate_library, LibraryConfig, Technology};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Characterize a few training cells the conventional way...
//! let lib = generate_library(&LibraryConfig::quick(Technology::Soi28));
//! let corpus: Vec<PreparedCell> = lib
//!     .cells
//!     .iter()
//!     .take(6)
//!     .map(|lc| PreparedCell::characterize(lc.cell.clone(), GenerateOptions::default()))
//!     .collect::<Result<_, _>>()?;
//! // ...train the ML flow and predict one of them.
//! let flow = MlFlow::train(&corpus, MlFlowParams::quick())?;
//! let predicted = flow.predict(&corpus[0])?;
//! assert!(corpus[0].accuracy_of(&predicted) > 0.9);
//! # Ok(())
//! # }
//! ```

// Workspace rules D5 and D6 (DESIGN.md §10): report through ca-obs, not
// ad-hoc stdout/stderr, and document every `unsafe` block. Every lint
// suppression states its reason.
#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]
#![deny(
    clippy::undocumented_unsafe_blocks,
    clippy::allow_attributes_without_reason
)]

pub mod activation;
pub mod cache;
pub mod canonical;
pub mod charlib;
pub mod cost;
pub mod error;
pub mod flow;
pub mod matrix;
pub mod robust;
pub mod service;
pub mod session;

pub use activation::{Activation, ActivityValue};
pub use ca_exec::{panic_message, BadThreadsVar, Executor};
pub use cache::{CacheStats, CharCache};
pub use canonical::{Branch, CanonicalCell, SpTree};
pub use charlib::{
    characterize_library_with, characterize_library_with_session, export_cam, export_cam_to_dir,
    export_cam_with, summarize, LibrarySummary,
};
pub use cost::{format_duration, CostModel};
pub use error::CoreError;
pub use flow::{
    conventional_flow, train_group_forest, CellOutcome, HybridFlow, HybridOptions, HybridReport,
    MlFlow, MlFlowParams, Route, StructuralMatch, StructureIndex,
};
pub use matrix::{MatrixLayout, PreparedCell};
pub use robust::{
    characterize_library_robust, FailurePhase, FaultPolicy, Quarantine, QuarantineEntry,
    RobustOutcome,
};
pub use service::{CellService, CellVerdict, StoredVerdict};
pub use session::{cell_fingerprint, take_journal_ns, Session, SessionReport};
