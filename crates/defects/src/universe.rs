//! Defect universe enumeration.
//!
//! The intra-transistor universe of the paper (§IV): for every transistor,
//! terminal opens on drain/gate/source and pairwise terminal shorts
//! (drain-source, gate-source, gate-drain) — six defects per device, each
//! simulated under every stimulus to discover its static/dynamic behaviour.
//! Inter-transistor net-net shorts are available as an extension.

use ca_netlist::{Cell, NetKind, Terminal, TransistorId};
use ca_sim::Injection;
use std::fmt;

/// Index of a defect within its [`DefectUniverse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DefectId(pub u32);

impl DefectId {
    /// Returns the id as a `usize` suitable for indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DefectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{}", self.0)
    }
}

/// Coarse defect category (the paper's "defect type" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DefectKind {
    /// Resistive/full open.
    Open,
    /// Bridge/short.
    Short,
}

impl fmt::Display for DefectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DefectKind::Open => write!(f, "open"),
            DefectKind::Short => write!(f, "short"),
        }
    }
}

/// One potential defect of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Defect {
    /// Position in the universe.
    pub id: DefectId,
    /// Category.
    pub kind: DefectKind,
    /// Simulator-level description.
    pub injection: Injection,
}

impl Defect {
    /// Human-readable label using the cell's own names.
    pub fn label(&self, cell: &Cell) -> String {
        match self.injection {
            Injection::None => "free".to_string(),
            Injection::Open {
                transistor,
                terminal,
            } => format!("{}.{} open", cell.transistor(transistor).name(), terminal),
            Injection::Short { transistor, a, b } => {
                format!("{}.{}-{} short", cell.transistor(transistor).name(), a, b)
            }
            Injection::NetShort { a, b } => {
                format!("{}-{} short", cell.net(a).name(), cell.net(b).name())
            }
        }
    }
}

/// The complete list of defects considered for one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DefectUniverse {
    defects: Vec<Defect>,
}

impl DefectUniverse {
    /// The paper's default universe: six intra-transistor defects per
    /// device (three terminal opens, three terminal-terminal shorts).
    pub fn intra_transistor(cell: &Cell) -> DefectUniverse {
        let mut defects = Vec::with_capacity(cell.num_transistors() * 6);
        let mut push = |kind, injection| {
            let id = DefectId(defects.len() as u32);
            defects.push(Defect {
                id,
                kind,
                injection,
            });
        };
        for (tid, _) in cell.transistor_ids() {
            for terminal in Terminal::CHANNEL_AND_GATE {
                push(
                    DefectKind::Open,
                    Injection::Open {
                        transistor: tid,
                        terminal,
                    },
                );
            }
            for (a, b) in [
                (Terminal::Drain, Terminal::Source),
                (Terminal::Gate, Terminal::Source),
                (Terminal::Gate, Terminal::Drain),
            ] {
                push(
                    DefectKind::Short,
                    Injection::Short {
                        transistor: tid,
                        a,
                        b,
                    },
                );
            }
        }
        DefectUniverse { defects }
    }

    /// Extends the intra-transistor universe with shorts between every pair
    /// of non-rail nets (the paper's inter-transistor defects, §IV —
    /// representable but not part of its experiments).
    pub fn with_inter_transistor(cell: &Cell) -> DefectUniverse {
        let mut universe = DefectUniverse::intra_transistor(cell);
        let candidates: Vec<_> = cell
            .nets()
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.kind().is_rail())
            .map(|(i, _)| ca_netlist::NetId(i as u32))
            .collect();
        for (i, &a) in candidates.iter().enumerate() {
            for &b in &candidates[i + 1..] {
                let id = DefectId(universe.defects.len() as u32);
                universe.defects.push(Defect {
                    id,
                    kind: DefectKind::Short,
                    injection: Injection::NetShort { a, b },
                });
            }
        }
        universe
    }

    /// Rebuilds a universe from an explicit defect list (e.g. loaded from
    /// a `.cam` document).
    ///
    /// # Errors
    ///
    /// Returns a message when ids are not dense and ascending.
    pub fn from_defects(defects: Vec<Defect>) -> Result<DefectUniverse, String> {
        for (i, d) in defects.iter().enumerate() {
            if d.id.index() != i {
                return Err(format!("defect id {} at position {i}", d.id));
            }
        }
        Ok(DefectUniverse { defects })
    }

    /// A copy keeping only the first `n` defects (ids stay dense). Used
    /// by budgeted generation, where `max_defects` truncates the
    /// universe a degraded model covers.
    pub fn truncated(&self, n: usize) -> DefectUniverse {
        DefectUniverse {
            defects: self.defects[..n.min(self.defects.len())].to_vec(),
        }
    }

    /// All defects in id order.
    pub fn defects(&self) -> &[Defect] {
        &self.defects
    }

    /// Number of defects.
    pub fn len(&self) -> usize {
        self.defects.len()
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.defects.is_empty()
    }

    /// The defect with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn defect(&self, id: DefectId) -> &Defect {
        &self.defects[id.index()]
    }

    /// Defects affecting `transistor` (intra-transistor defects only).
    pub fn of_transistor(&self, transistor: TransistorId) -> Vec<&Defect> {
        self.defects
            .iter()
            .filter(|d| match d.injection {
                Injection::Open { transistor: t, .. } | Injection::Short { transistor: t, .. } => {
                    t == transistor
                }
                _ => false,
            })
            .collect()
    }
}

/// Number of internal (non-rail, non-pin) nets — a proxy for layout
/// complexity used by reporting.
pub fn internal_net_count(cell: &Cell) -> usize {
    cell.nets()
        .iter()
        .filter(|n| n.kind() == NetKind::Internal)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_netlist::spice;

    const NAND2: &str = "\
.SUBCKT NAND2 A B Z VDD VSS
MP0 Z A VDD VDD pch
MP1 Z B VDD VDD pch
MN0 Z A net0 VSS nch
MN1 net0 B VSS VSS nch
.ENDS
";

    #[test]
    fn six_defects_per_transistor() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let universe = DefectUniverse::intra_transistor(&cell);
        assert_eq!(universe.len(), 4 * 6);
        let opens = universe
            .defects()
            .iter()
            .filter(|d| d.kind == DefectKind::Open)
            .count();
        assert_eq!(opens, 12);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let universe = DefectUniverse::intra_transistor(&cell);
        for (i, d) in universe.defects().iter().enumerate() {
            assert_eq!(d.id.index(), i);
        }
    }

    #[test]
    fn per_transistor_lookup() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let universe = DefectUniverse::intra_transistor(&cell);
        let mn0 = cell.find_transistor("MN0").unwrap();
        assert_eq!(universe.of_transistor(mn0).len(), 6);
    }

    #[test]
    fn inter_transistor_adds_net_shorts() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let universe = DefectUniverse::with_inter_transistor(&cell);
        // Non-rail nets: A, B, Z, net0 -> C(4,2) = 6 extra shorts.
        assert_eq!(universe.len(), 24 + 6);
    }

    #[test]
    fn labels_use_cell_names() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let universe = DefectUniverse::intra_transistor(&cell);
        let labels: Vec<String> = universe.defects().iter().map(|d| d.label(&cell)).collect();
        assert!(labels.contains(&"MN0.D open".to_string()));
        assert!(labels.contains(&"MP1.D-S short".to_string()));
    }
}
