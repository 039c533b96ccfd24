//! Switch-level transistor simulator with defect injection.
//!
//! This crate is the workspace's stand-in for the electrical (SPICE)
//! simulator of the conventional cell-aware generation flow (paper Fig. 1).
//! It simulates CMOS standard cells at the transistor (switch) level:
//!
//! - four-valued stimuli `{0, 1, R, F}` per input pin ([`Stimulus`]),
//!   covering the full `4^n` static + dynamic pattern space;
//! - steady-state solving by fixpoint over a conduction graph, with
//!   *must/may* rail reachability, strength-aware fight resolution (shorts
//!   beat channels) and charge retention on floating nodes
//!   ([`solver::CellGraph`]);
//! - first-class defect injection ([`Injection`]): terminal opens,
//!   terminal-terminal shorts and net-net shorts;
//! - detection semantics via [`DetectionPolicy`], distinguishing driven
//!   conflicts ([`Value::Xd`]) from floating unknowns ([`Value::Xf`]) so
//!   that stuck-open defects require two-pattern tests, exactly as in
//!   cell-aware practice.
//!
//! # Example: detecting a stuck-open defect
//!
//! ```
//! use ca_netlist::{spice, Terminal};
//! use ca_sim::{detection_row, DetectionPolicy, Injection, Stimulus};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cell = spice::parse_cell(
//!     ".SUBCKT NAND2 A B Z VDD VSS\n\
//!      MP0 Z A VDD VDD pch\nMP1 Z B VDD VDD pch\n\
//!      MN0 Z A net0 VSS nch\nMN1 net0 B VSS VSS nch\n.ENDS",
//! )?;
//! let open = Injection::Open {
//!     transistor: cell.find_transistor("MN0").ok_or("missing")?,
//!     terminal: Terminal::Drain,
//! };
//! let stimuli = Stimulus::all(2); // 16 stimuli: 4 static + 12 dynamic
//! let row = detection_row(&cell, open, &stimuli, DetectionPolicy::default());
//! assert!(row.iter().any(|&detected| detected)); // dynamically detectable
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

pub mod budget;
pub mod injection;
pub mod kernel;
pub mod packed;
pub mod simulator;
pub mod solver;
pub mod values;

pub use budget::{BudgetClock, SimBudget, SimError};
pub use injection::Injection;
pub use kernel::CellKernel;
pub use packed::{BlockResult, LaneOutcome, PackedSim, PackedStimulus, PackedValue, StimulusBlock};
pub use simulator::{detection_row, detection_row_scalar, DetectionPolicy, SimResult, Simulator};
pub use solver::SolveOutcome;
pub use values::{Stimulus, Value, Wave};
