//! Defect equivalence classes and static/dynamic classification.
//!
//! Defects with identical detection rows are indistinguishable at the cell
//! boundary and are merged into one class (the paper's "defect equivalence
//! classes", Fig. 1). A class is *static* when at least one static stimulus
//! detects it, *dynamic* when only two-pattern stimuli do, and
//! *undetectable* when nothing does.

use crate::table::{BitRow, DetectionTable};
use crate::universe::{DefectId, DefectUniverse};
use std::collections::BTreeMap;
use std::fmt;

/// Detection behaviour of a defect class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Behavior {
    /// Detected by at least one static (single-pattern) stimulus.
    Static,
    /// Detected only by dynamic (two-pattern) stimuli.
    Dynamic,
    /// Not detected by any stimulus.
    Undetectable,
}

impl fmt::Display for Behavior {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Behavior::Static => write!(f, "static"),
            Behavior::Dynamic => write!(f, "dynamic"),
            Behavior::Undetectable => write!(f, "undetectable"),
        }
    }
}

/// A group of boundary-equivalent defects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DefectClass {
    /// Representative defect (lowest id in the class).
    pub representative: DefectId,
    /// All member defects, ascending by id (includes the representative).
    pub members: Vec<DefectId>,
    /// Detection behaviour.
    pub behavior: Behavior,
    /// Shared detection row.
    pub row: BitRow,
}

impl DefectClass {
    /// Number of equivalent defects in the class.
    pub fn size(&self) -> usize {
        self.members.len()
    }
}

/// Partitions the universe into equivalence classes given its detection
/// table.
///
/// Classes are ordered by their representative's id, so the result is
/// deterministic and independent of hashing.
pub fn equivalence_classes(universe: &DefectUniverse, table: &DetectionTable) -> Vec<DefectClass> {
    let static_count = table.stimuli().iter().filter(|s| s.is_static()).count();
    let mut by_row: BTreeMap<&BitRow, Vec<DefectId>> = BTreeMap::new();
    for defect in universe.defects() {
        by_row
            .entry(table.row(defect.id))
            .or_default()
            .push(defect.id);
    }
    let mut classes: Vec<DefectClass> = by_row
        .into_iter()
        .map(|(row, mut members)| {
            members.sort();
            let behavior = classify_row(row, static_count, table.stimuli().len());
            DefectClass {
                representative: members[0],
                members,
                behavior,
                row: row.clone(),
            }
        })
        .collect();
    classes.sort_by_key(|c| c.representative);
    classes
}

/// Classifies a detection row. The stimulus list is assumed to start with
/// all static stimuli (the canonical [`ca_sim::Stimulus::all`] ordering).
fn classify_row(row: &BitRow, static_count: usize, total: usize) -> Behavior {
    debug_assert_eq!(row.len(), total);
    let static_hit = (0..static_count).any(|i| row.get(i));
    if static_hit {
        Behavior::Static
    } else if row.any() {
        Behavior::Dynamic
    } else {
        Behavior::Undetectable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_netlist::spice;
    use ca_sim::DetectionPolicy;

    const NAND2: &str = "\
.SUBCKT NAND2 A B Z VDD VSS
MP0 Z A VDD VDD pch
MP1 Z B VDD VDD pch
MN0 Z A net0 VSS nch
MN1 net0 B VSS VSS nch
.ENDS
";

    fn nand2_classes() -> (DefectUniverse, Vec<DefectClass>) {
        let cell = spice::parse_cell(NAND2).unwrap();
        let universe = DefectUniverse::intra_transistor(&cell);
        let table =
            DetectionTable::generate_exhaustive(&cell, &universe, DetectionPolicy::default());
        let classes = equivalence_classes(&universe, &table);
        (universe, classes)
    }

    #[test]
    fn classes_partition_the_universe() {
        let (universe, classes) = nand2_classes();
        let mut seen: Vec<DefectId> = classes.iter().flat_map(|c| c.members.clone()).collect();
        seen.sort();
        let all: Vec<DefectId> = universe.defects().iter().map(|d| d.id).collect();
        assert_eq!(seen, all);
    }

    #[test]
    fn opens_of_one_transistor_are_equivalent() {
        // D/G/S opens all leave the device stuck off, so they share a class.
        let (universe, classes) = nand2_classes();
        let cell = spice::parse_cell(NAND2).unwrap();
        let mn0 = cell.find_transistor("MN0").unwrap();
        let open_ids: Vec<DefectId> = universe
            .of_transistor(mn0)
            .iter()
            .filter(|d| d.kind == crate::universe::DefectKind::Open)
            .map(|d| d.id)
            .collect();
        let class = classes
            .iter()
            .find(|c| c.members.contains(&open_ids[0]))
            .unwrap();
        for id in &open_ids {
            assert!(class.members.contains(id));
        }
    }

    #[test]
    fn nand2_has_both_static_and_dynamic_classes() {
        let (_, classes) = nand2_classes();
        assert!(classes.iter().any(|c| c.behavior == Behavior::Static));
        assert!(classes.iter().any(|c| c.behavior == Behavior::Dynamic));
        // Opens of a NAND2 pull-down are the classic stuck-open dynamics.
        let dynamic = classes
            .iter()
            .filter(|c| c.behavior == Behavior::Dynamic)
            .count();
        assert!(dynamic >= 2, "expected stuck-open classes, got {dynamic}");
    }

    #[test]
    fn representatives_are_sorted_and_minimal() {
        let (_, classes) = nand2_classes();
        for c in &classes {
            assert_eq!(c.representative, c.members[0]);
            assert!(c.members.windows(2).all(|w| w[0] < w[1]));
        }
        assert!(classes
            .windows(2)
            .all(|w| w[0].representative < w[1].representative));
    }
}
