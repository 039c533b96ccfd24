//! Cell-internal defect modelling: universe, detection tables, equivalence
//! classes and the CA model format.
//!
//! Together with [`ca_sim`] this crate implements the *conventional* CA
//! model generation flow of the paper's Fig. 1:
//!
//! 1. enumerate the defect universe of a cell ([`DefectUniverse`]),
//! 2. simulate every defect against the exhaustive stimulus set
//!    ([`DetectionTable::generate_exhaustive`]),
//! 3. merge boundary-equivalent defects ([`classes::equivalence_classes`]),
//! 4. synthesize the dictionary ([`CaModel`]).
//!
//! # Example: conventional CA model generation for a NAND2
//!
//! ```
//! use ca_defects::{CaModel, GenerateOptions};
//! use ca_netlist::spice;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cell = spice::parse_cell(
//!     ".SUBCKT NAND2 A B Z VDD VSS\n\
//!      MP0 Z A VDD VDD pch\nMP1 Z B VDD VDD pch\n\
//!      MN0 Z A net0 VSS nch\nMN1 net0 B VSS VSS nch\n.ENDS",
//! )?;
//! let model = CaModel::generate(&cell, GenerateOptions::default());
//! assert_eq!(model.universe.len(), 24); // 6 defects x 4 transistors
//! assert!(model.coverage() > 0.99);     // all of them detectable
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

pub mod classes;
pub mod diagnosis;
pub mod io;
pub mod model;
pub mod patterns;
pub mod table;
pub mod universe;

pub use classes::{Behavior, DefectClass};
pub use diagnosis::{diagnose, Candidate, Observation};
pub use io::{from_cam, to_cam, ParseCamError};
pub use model::{CaModel, GenerateOptions};
pub use patterns::{select_patterns, PatternSet};
pub use table::{single_defect_row, BitRow, BudgetedTable, DetectionTable};
pub use universe::{Defect, DefectId, DefectKind, DefectUniverse};
