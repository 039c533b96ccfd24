//! Deterministic netlist fault injection ("salting") for robustness
//! testing.
//!
//! Characterization flows must survive broken libraries: a single
//! malformed cell must land in a quarantine report instead of aborting
//! the batch. This module manufactures the damage on purpose, so the
//! robustness tests can prove every failure mode is caught with the
//! right diagnosis:
//!
//! | corruption | detected by |
//! |---|---|
//! | [`Corruption::FloatingOutput`] | lint `undriven-output` |
//! | [`Corruption::DanglingGate`] | lint `floating-gate-net` |
//! | [`Corruption::ZeroTransistor`] | lint `no-transistors` |
//! | [`Corruption::MultiOutput`] | CA-matrix single-output check |
//! | [`Corruption::OscillatorLoop`] | solver oscillation (lint-clean!) |
//!
//! All mutations are deterministic in `(cell, corruption, seed)`.

use crate::error::NetlistError;
use crate::library::Library;
use crate::model::{Cell, CellBuilder, MosKind, NetKind};
use ca_rng::SplitMix64;
use std::fmt;

/// One way of mutilating a structurally valid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Corruption {
    /// Strands the output: every channel terminal on the output net is
    /// rewired to a fresh internal net, leaving the output undriven.
    FloatingOutput,
    /// Re-gates one transistor onto a fresh internal net that nothing
    /// drives.
    DanglingGate,
    /// Removes every transistor from the cell.
    ZeroTransistor,
    /// Promotes a channel-connected internal net to a second output pin.
    MultiOutput,
    /// Adds a self-gated feedback loop that makes the defect-free cell
    /// oscillate under a rising input — structurally lint-clean, only
    /// the solver can catch it.
    OscillatorLoop,
}

impl Corruption {
    /// Every corruption, in a fixed order.
    pub const ALL: [Corruption; 5] = [
        Corruption::FloatingOutput,
        Corruption::DanglingGate,
        Corruption::ZeroTransistor,
        Corruption::MultiOutput,
        Corruption::OscillatorLoop,
    ];

    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Corruption::FloatingOutput => "floating-output",
            Corruption::DanglingGate => "dangling-gate",
            Corruption::ZeroTransistor => "zero-transistor",
            Corruption::MultiOutput => "multi-output",
            Corruption::OscillatorLoop => "oscillator-loop",
        }
    }
}

impl fmt::Display for Corruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Applies `corruption` to a copy of `cell`. The `seed` picks the victim
/// transistor/net where a choice exists; the same inputs always yield
/// the same corrupted cell.
///
/// # Errors
///
/// Returns [`NetlistError::Invalid`] when the cell cannot host the
/// corruption (e.g. [`Corruption::MultiOutput`] on a cell without a
/// channel-connected internal net).
pub fn corrupt_cell(cell: &Cell, corruption: Corruption, seed: u64) -> Result<Cell, NetlistError> {
    let mut rng = SplitMix64::new(seed ^ 0xC0_44_17);
    match corruption {
        Corruption::FloatingOutput => strand_output(cell),
        Corruption::DanglingGate => dangle_gate(cell, &mut rng),
        Corruption::ZeroTransistor => strip_transistors(cell),
        Corruption::MultiOutput => promote_internal_net(cell, &mut rng),
        Corruption::OscillatorLoop => add_oscillator(cell, &mut rng),
    }
}

/// Copies every net of `cell` into `builder`, preserving ids. An
/// optional override changes the kind of one net.
fn copy_nets(cell: &Cell, builder: &mut CellBuilder, kind_override: Option<(usize, NetKind)>) {
    for (i, net) in cell.nets().iter().enumerate() {
        let kind = match kind_override {
            Some((idx, kind)) if idx == i => kind,
            _ => net.kind(),
        };
        builder.add_net(net.name(), kind);
    }
}

/// A fresh net name not present in `cell` (numeric suffix on collision).
fn fresh_net_name(cell: &Cell, base: &str) -> String {
    if cell.find_net(base).is_none() {
        return base.to_string();
    }
    (0..)
        .map(|i| format!("{base}{i}"))
        .find(|n| cell.find_net(n).is_none())
        .expect("unbounded name space")
}

/// A fresh transistor name not present in `cell`.
fn fresh_transistor_name(cell: &Cell, base: &str) -> String {
    if cell.find_transistor(base).is_none() {
        return base.to_string();
    }
    (0..)
        .map(|i| format!("{base}{i}"))
        .find(|n| cell.find_transistor(n).is_none())
        .expect("unbounded name space")
}

fn strand_output(cell: &Cell) -> Result<Cell, NetlistError> {
    let out = cell.output();
    let mut b = CellBuilder::new(cell.name());
    copy_nets(cell, &mut b, None);
    let stranded = b.add_net(fresh_net_name(cell, "stranded"), NetKind::Internal);
    for t in cell.transistors() {
        let remap = |n| if n == out { stranded } else { n };
        b.add_transistor(
            t.name(),
            t.kind(),
            remap(t.drain()),
            t.gate(),
            remap(t.source()),
            t.bulk(),
            t.width_nm(),
            t.length_nm(),
        )?;
    }
    b.build()
}

fn dangle_gate(cell: &Cell, rng: &mut SplitMix64) -> Result<Cell, NetlistError> {
    if cell.num_transistors() == 0 {
        return Err(NetlistError::Invalid(format!(
            "cell `{}` has no transistor to re-gate",
            cell.name()
        )));
    }
    let victim = (rng.next_u64() as usize) % cell.num_transistors();
    let mut b = CellBuilder::new(cell.name());
    copy_nets(cell, &mut b, None);
    let dangle = b.add_net(fresh_net_name(cell, "dangle"), NetKind::Internal);
    for (i, t) in cell.transistors().iter().enumerate() {
        let gate = if i == victim { dangle } else { t.gate() };
        b.add_transistor(
            t.name(),
            t.kind(),
            t.drain(),
            gate,
            t.source(),
            t.bulk(),
            t.width_nm(),
            t.length_nm(),
        )?;
    }
    b.build()
}

fn strip_transistors(cell: &Cell) -> Result<Cell, NetlistError> {
    let mut b = CellBuilder::new(cell.name());
    copy_nets(cell, &mut b, None);
    b.build_raw()
}

fn promote_internal_net(cell: &Cell, rng: &mut SplitMix64) -> Result<Cell, NetlistError> {
    let candidates: Vec<usize> = cell
        .nets()
        .iter()
        .enumerate()
        .filter(|(i, n)| {
            n.kind() == NetKind::Internal
                && cell
                    .transistors()
                    .iter()
                    .any(|t| t.drain().index() == *i || t.source().index() == *i)
        })
        .map(|(i, _)| i)
        .collect();
    if candidates.is_empty() {
        return Err(NetlistError::Invalid(format!(
            "cell `{}` has no channel-connected internal net to promote",
            cell.name()
        )));
    }
    let promoted = candidates[(rng.next_u64() as usize) % candidates.len()];
    let mut b = CellBuilder::new(cell.name());
    copy_nets(cell, &mut b, Some((promoted, NetKind::Output)));
    for t in cell.transistors() {
        b.add_transistor(
            t.name(),
            t.kind(),
            t.drain(),
            t.gate(),
            t.source(),
            t.bulk(),
            t.width_nm(),
            t.length_nm(),
        )?;
    }
    b.build()
}

/// Attaches the three-device ring below to an input pin `g`:
///
/// ```text
///   VDD --[P, gate=g]-- osc --[N, gate=osc]-- foot --[N, gate=g]-- VSS
/// ```
///
/// Under static inputs the loop settles (possibly at X), but when `g`
/// rises after `osc` was charged to 1, `osc` toggles forever: the
/// self-gated pull-down discharges it, the floating net then reverts to
/// its stored charge, and the cycle repeats. Every structural lint rule
/// passes — only a solver with oscillation detection reports it.
fn add_oscillator(cell: &Cell, rng: &mut SplitMix64) -> Result<Cell, NetlistError> {
    if cell.inputs().is_empty() {
        return Err(NetlistError::Invalid(format!(
            "cell `{}` has no input to gate the loop",
            cell.name()
        )));
    }
    let g = cell.inputs()[(rng.next_u64() as usize) % cell.inputs().len()];
    let mut b = CellBuilder::new(cell.name());
    copy_nets(cell, &mut b, None);
    let osc = b.add_net(fresh_net_name(cell, "osc"), NetKind::Internal);
    let foot = b.add_net(fresh_net_name(cell, "oscfoot"), NetKind::Internal);
    for t in cell.transistors() {
        b.add_transistor(
            t.name(),
            t.kind(),
            t.drain(),
            t.gate(),
            t.source(),
            t.bulk(),
            t.width_nm(),
            t.length_nm(),
        )?;
    }
    let vdd = cell.power();
    let vss = cell.ground();
    b.add_transistor(
        fresh_transistor_name(cell, "MOSCP"),
        MosKind::Pmos,
        osc,
        g,
        vdd,
        vdd,
        100,
        30,
    )?;
    b.add_transistor(
        fresh_transistor_name(cell, "MOSCN"),
        MosKind::Nmos,
        osc,
        osc,
        foot,
        vss,
        100,
        30,
    )?;
    b.add_transistor(
        fresh_transistor_name(cell, "MOSCF"),
        MosKind::Nmos,
        foot,
        g,
        vss,
        vss,
        100,
        30,
    )?;
    b.build()
}

/// Record of one corrupted library cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaltedCell {
    /// Name of the (still in-library) corrupted cell.
    pub cell: String,
    /// The corruption applied.
    pub corruption: Corruption,
}

/// Corrupts `count` cells of `library` in place, cycling through
/// [`Corruption::ALL`], and returns what was done to whom.
///
/// Victims are chosen deterministically from `seed`, skipping cells
/// that cannot host the requested corruption; at most one corruption is
/// applied per cell. Returns fewer than `count` entries only when the
/// library runs out of compatible cells.
pub fn salt_library(library: &mut Library, count: usize, seed: u64) -> Vec<SaltedCell> {
    let mut rng = SplitMix64::new(seed);
    let mut salted: Vec<SaltedCell> = Vec::with_capacity(count);
    let mut taken = vec![false; library.cells.len()];
    for k in 0..count {
        let corruption = Corruption::ALL[k % Corruption::ALL.len()];
        let start = (rng.next_u64() as usize) % library.cells.len().max(1);
        let victim = (0..library.cells.len())
            .map(|off| (start + off) % library.cells.len())
            .find(|&i| !taken[i] && corrupt_cell(&library.cells[i].cell, corruption, seed).is_ok());
        let Some(i) = victim else { break };
        taken[i] = true;
        let corrupted = corrupt_cell(&library.cells[i].cell, corruption, seed)
            .expect("compatibility just checked");
        library.cells[i].cell = corrupted;
        salted.push(SaltedCell {
            cell: library.cells[i].cell.name().to_string(),
            corruption,
        });
    }
    salted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::{generate_library, LibraryConfig, Technology};
    use crate::lint::{is_clean, lint, Severity};
    use crate::spice;

    const NAND2: &str = "\
.SUBCKT NAND2 A B Z VDD VSS
MP0 Z A VDD VDD pch
MP1 Z B VDD VDD pch
MN0 Z A net0 VSS nch
MN1 net0 B VSS VSS nch
.ENDS
";

    fn nand2() -> Cell {
        spice::parse_cell(NAND2).unwrap()
    }

    fn first_error_rule(cell: &Cell) -> Option<&'static str> {
        lint(cell)
            .into_iter()
            .find(|f| f.severity == Severity::Error)
            .map(|f| f.rule)
    }

    #[test]
    fn floating_output_fails_undriven_output_lint() {
        let bad = corrupt_cell(&nand2(), Corruption::FloatingOutput, 1).unwrap();
        assert_eq!(first_error_rule(&bad), Some("undriven-output"));
        assert_eq!(bad.num_transistors(), 4);
    }

    #[test]
    fn dangling_gate_fails_floating_gate_lint() {
        let bad = corrupt_cell(&nand2(), Corruption::DanglingGate, 1).unwrap();
        assert_eq!(first_error_rule(&bad), Some("floating-gate-net"));
    }

    #[test]
    fn zero_transistor_fails_no_transistors_lint() {
        let bad = corrupt_cell(&nand2(), Corruption::ZeroTransistor, 1).unwrap();
        assert_eq!(bad.num_transistors(), 0);
        assert_eq!(first_error_rule(&bad), Some("no-transistors"));
    }

    #[test]
    fn multi_output_is_lint_clean_but_has_two_outputs() {
        let bad = corrupt_cell(&nand2(), Corruption::MultiOutput, 1).unwrap();
        assert_eq!(bad.outputs().len(), 2);
        assert!(
            lint(&bad).iter().all(|f| f.severity != Severity::Error),
            "{:?}",
            lint(&bad)
        );
    }

    #[test]
    fn oscillator_loop_is_lint_clean() {
        let bad = corrupt_cell(&nand2(), Corruption::OscillatorLoop, 1).unwrap();
        assert!(is_clean(&bad), "{:?}", lint(&bad));
        assert_eq!(bad.num_transistors(), 4 + 3);
        assert!(bad.find_net("osc").is_some());
    }

    #[test]
    fn corruption_is_deterministic() {
        for c in Corruption::ALL {
            let a = corrupt_cell(&nand2(), c, 42).unwrap();
            let b = corrupt_cell(&nand2(), c, 42).unwrap();
            assert_eq!(a, b, "{c}");
        }
    }

    #[test]
    fn salting_covers_all_corruptions_once() {
        let mut lib = generate_library(&LibraryConfig::quick(Technology::C28));
        lib.cells.truncate(20);
        let salted = salt_library(&mut lib, 5, 7);
        assert_eq!(salted.len(), 5);
        for kind in Corruption::ALL {
            assert!(salted.iter().any(|s| s.corruption == kind), "{salted:?}");
        }
        // Victim names are distinct and still present in the library.
        let names: std::collections::BTreeSet<_> = salted.iter().map(|s| &s.cell).collect();
        assert_eq!(names.len(), 5);
        for s in &salted {
            assert!(lib.cells.iter().any(|lc| lc.cell.name() == s.cell));
        }
    }
}
