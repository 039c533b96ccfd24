//! Facade crate for the `cell-aware` workspace.
//!
//! Re-exports every sub-crate so examples and downstream users can depend
//! on a single package. See the README for the architecture overview and
//! DESIGN.md for the paper-to-module map.
//!
//! # Quickstart
//!
//! ```
//! use cell_aware::netlist::spice;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cell = spice::parse_cell(
//!     ".SUBCKT INV A Z VDD VSS\nMP0 Z A VDD VDD pch\nMN0 Z A VSS VSS nch\n.ENDS",
//! )?;
//! assert_eq!(cell.num_inputs(), 1);
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

pub use ca_core as core;
pub use ca_defects as defects;
pub use ca_ml as ml;
pub use ca_netlist as netlist;
pub use ca_obs as obs;
pub use ca_serve as serve;
pub use ca_shard as shard;
pub use ca_sim as sim;
pub use ca_store as store;
