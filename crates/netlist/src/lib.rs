//! Transistor-level netlist substrate for cell-aware model generation.
//!
//! This crate provides everything the rest of the workspace needs to talk
//! about standard cells at the transistor level:
//!
//! - a compact, validated [`Cell`]/[`Net`]/[`Transistor`] data model
//!   ([`model`]),
//! - a SPICE/CDL subcircuit parser ([`spice`]) and writer ([`writer`]),
//! - a Boolean expression type used both as the functional reference of a
//!   cell and as the input of the synthesizer ([`expr`]),
//! - a standard-cell synthesizer that builds static CMOS transistor
//!   netlists from multi-stage gate plans ([`synth`]),
//! - a synthetic standard-cell *library* generator with per-technology
//!   netlist styles ([`library`]), standing in for the proprietary C40 /
//!   28SOI / C28 libraries of the paper.
//!
//! # Example
//!
//! ```
//! use ca_netlist::spice;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = "\
//! .SUBCKT NAND2 A B Z VDD VSS
//! MP0 Z A VDD VDD pch W=300n L=30n
//! MP1 Z B VDD VDD pch W=300n L=30n
//! MN0 Z A net0 VSS nch W=200n L=30n
//! MN1 net0 B VSS VSS nch W=200n L=30n
//! .ENDS
//! ";
//! let cell = spice::parse_cell(src)?;
//! assert_eq!(cell.name(), "NAND2");
//! assert_eq!(cell.num_inputs(), 2);
//! assert_eq!(cell.transistors().len(), 4);
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

pub mod corrupt;
pub mod error;
pub mod expr;
pub mod library;
pub mod lint;
pub mod model;
pub mod spice;
pub mod synth;
pub mod writer;

pub use corrupt::{corrupt_cell, salt_library, Corruption, SaltedCell};
pub use error::NetlistError;
pub use expr::Expr;
pub use library::{generate_library, Library, LibraryCell, LibraryConfig, TechStyle, Technology};
pub use lint::{is_clean, lint, Finding, Severity};
pub use model::{
    Cell, CellBuilder, MosKind, Net, NetId, NetKind, Terminal, Transistor, TransistorId,
};
pub use synth::{DriveStyle, NetlistStyle, Sig, Stage, StageExpr, StagePlan, SynthesizedCell};
