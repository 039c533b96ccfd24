//! Core data model: nets, transistors and cells.
//!
//! A [`Cell`] is an immutable, validated transistor-level view of a standard
//! cell: a set of [`Net`]s (inputs, outputs, power, ground, internal nodes)
//! and a set of MOS [`Transistor`]s connecting them. Construction goes
//! through [`CellBuilder`], which checks structural invariants once so the
//! rest of the workspace can index freely.

use crate::error::NetlistError;
use std::fmt;

/// Index of a net within its owning [`Cell`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub u32);

impl NetId {
    /// Returns the id as a `usize` suitable for indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "net#{}", self.0)
    }
}

/// Index of a transistor within its owning [`Cell`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransistorId(pub u32);

impl TransistorId {
    /// Returns the id as a `usize` suitable for indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TransistorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mos#{}", self.0)
    }
}

/// Channel polarity of a MOS transistor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MosKind {
    /// N-channel device: conducts when its gate is at logic 1.
    Nmos,
    /// P-channel device: conducts when its gate is at logic 0.
    Pmos,
}

impl MosKind {
    /// The complementary polarity (`Nmos` ↔ `Pmos`).
    pub fn dual(self) -> MosKind {
        match self {
            MosKind::Nmos => MosKind::Pmos,
            MosKind::Pmos => MosKind::Nmos,
        }
    }

    /// Single-letter tag used in canonical names (`n` / `p`).
    pub fn letter(self) -> char {
        match self {
            MosKind::Nmos => 'n',
            MosKind::Pmos => 'p',
        }
    }
}

impl fmt::Display for MosKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MosKind::Nmos => write!(f, "NMOS"),
            MosKind::Pmos => write!(f, "PMOS"),
        }
    }
}

/// One of the four terminals of a MOS transistor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Terminal {
    /// Drain terminal.
    Drain,
    /// Gate terminal.
    Gate,
    /// Source terminal.
    Source,
    /// Bulk/body terminal.
    Bulk,
}

impl Terminal {
    /// The three terminals used by the defect universe by default.
    pub const CHANNEL_AND_GATE: [Terminal; 3] = [Terminal::Drain, Terminal::Gate, Terminal::Source];

    /// Single-letter tag used in column names (`D`, `G`, `S`, `B`).
    pub fn letter(self) -> char {
        match self {
            Terminal::Drain => 'D',
            Terminal::Gate => 'G',
            Terminal::Source => 'S',
            Terminal::Bulk => 'B',
        }
    }
}

impl fmt::Display for Terminal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.letter())
    }
}

/// Role of a net inside a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NetKind {
    /// Primary input pin.
    Input,
    /// Primary output pin.
    Output,
    /// Internal node.
    Internal,
    /// Power rail (logic 1).
    Power,
    /// Ground rail (logic 0).
    Ground,
}

impl NetKind {
    /// Whether the net is one of the two supply rails.
    pub fn is_rail(self) -> bool {
        matches!(self, NetKind::Power | NetKind::Ground)
    }
}

/// A named electrical node of a cell.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Net {
    name: String,
    kind: NetKind,
}

impl Net {
    /// Creates a net with the given name and role.
    pub fn new(name: impl Into<String>, kind: NetKind) -> Net {
        Net {
            name: name.into(),
            kind,
        }
    }

    /// The net's name as written in the netlist.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The net's role.
    pub fn kind(&self) -> NetKind {
        self.kind
    }
}

/// A MOS transistor instance.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Transistor {
    name: String,
    kind: MosKind,
    drain: NetId,
    gate: NetId,
    source: NetId,
    bulk: NetId,
    /// Drawn channel width in nanometres.
    width_nm: u32,
    /// Drawn channel length in nanometres.
    length_nm: u32,
}

impl Transistor {
    /// Creates a transistor connecting the given nets.
    #[allow(
        clippy::too_many_arguments,
        reason = "a transistor is four terminals plus name, kind and geometry"
    )]
    pub fn new(
        name: impl Into<String>,
        kind: MosKind,
        drain: NetId,
        gate: NetId,
        source: NetId,
        bulk: NetId,
        width_nm: u32,
        length_nm: u32,
    ) -> Transistor {
        Transistor {
            name: name.into(),
            kind,
            drain,
            gate,
            source,
            bulk,
            width_nm,
            length_nm,
        }
    }

    /// Instance name as written in the netlist.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Channel polarity.
    pub fn kind(&self) -> MosKind {
        self.kind
    }

    /// Drain net.
    pub fn drain(&self) -> NetId {
        self.drain
    }

    /// Gate net.
    pub fn gate(&self) -> NetId {
        self.gate
    }

    /// Source net.
    pub fn source(&self) -> NetId {
        self.source
    }

    /// Bulk net.
    pub fn bulk(&self) -> NetId {
        self.bulk
    }

    /// Drawn channel width in nanometres.
    pub fn width_nm(&self) -> u32 {
        self.width_nm
    }

    /// Drawn channel length in nanometres.
    pub fn length_nm(&self) -> u32 {
        self.length_nm
    }

    /// Net connected to `terminal`.
    pub fn terminal(&self, terminal: Terminal) -> NetId {
        match terminal {
            Terminal::Drain => self.drain,
            Terminal::Gate => self.gate,
            Terminal::Source => self.source,
            Terminal::Bulk => self.bulk,
        }
    }

    /// The channel terminal opposite to `terminal`.
    ///
    /// # Panics
    ///
    /// Panics if `terminal` is not [`Terminal::Drain`] or [`Terminal::Source`].
    pub fn other_channel_end(&self, terminal: Terminal) -> NetId {
        match terminal {
            Terminal::Drain => self.source,
            Terminal::Source => self.drain,
            _ => panic!("other_channel_end called with non-channel terminal {terminal}"),
        }
    }
}

/// A validated transistor-level standard cell.
///
/// Construct with [`CellBuilder`] or parse one with
/// [`spice::parse_cell`](crate::spice::parse_cell).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    name: String,
    nets: Vec<Net>,
    transistors: Vec<Transistor>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    power: NetId,
    ground: NetId,
}

impl Cell {
    /// Cell name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All nets, indexable by [`NetId`].
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// The net with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this cell.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// All transistors, indexable by [`TransistorId`].
    pub fn transistors(&self) -> &[Transistor] {
        &self.transistors
    }

    /// The transistor with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this cell.
    pub fn transistor(&self, id: TransistorId) -> &Transistor {
        &self.transistors[id.index()]
    }

    /// Iterator over `(TransistorId, &Transistor)` pairs.
    pub fn transistor_ids(&self) -> impl Iterator<Item = (TransistorId, &Transistor)> {
        self.transistors
            .iter()
            .enumerate()
            .map(|(i, t)| (TransistorId(i as u32), t))
    }

    /// Primary input pins in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary output pins in declaration order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// The single output pin of a single-output cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell has no output.
    pub fn output(&self) -> NetId {
        self.outputs[0]
    }

    /// Power rail net.
    pub fn power(&self) -> NetId {
        self.power
    }

    /// Ground rail net.
    pub fn ground(&self) -> NetId {
        self.ground
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of transistors.
    pub fn num_transistors(&self) -> usize {
        self.transistors.len()
    }

    /// Looks a net up by name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.nets
            .iter()
            .position(|n| n.name() == name)
            .map(|i| NetId(i as u32))
    }

    /// Looks a transistor up by instance name.
    pub fn find_transistor(&self, name: &str) -> Option<TransistorId> {
        self.transistors
            .iter()
            .position(|t| t.name() == name)
            .map(|i| TransistorId(i as u32))
    }

    /// Returns all transistors whose gate is connected to `net`.
    pub fn gate_loads(&self, net: NetId) -> Vec<TransistorId> {
        self.transistor_ids()
            .filter(|(_, t)| t.gate() == net)
            .map(|(id, _)| id)
            .collect()
    }

    /// Returns all transistors with a channel terminal (drain or source) on
    /// `net`.
    pub fn channel_neighbors(&self, net: NetId) -> Vec<TransistorId> {
        self.transistor_ids()
            .filter(|(_, t)| t.drain() == net || t.source() == net)
            .map(|(id, _)| id)
            .collect()
    }

    /// Renames the cell, keeping everything else intact.
    pub fn with_name(mut self, name: impl Into<String>) -> Cell {
        self.name = name.into();
        self
    }
}

/// Builder that assembles and validates a [`Cell`].
///
/// # Example
///
/// ```
/// use ca_netlist::{CellBuilder, MosKind, NetKind};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CellBuilder::new("INV");
/// let a = b.add_net("A", NetKind::Input);
/// let z = b.add_net("Z", NetKind::Output);
/// let vdd = b.add_net("VDD", NetKind::Power);
/// let vss = b.add_net("VSS", NetKind::Ground);
/// b.add_transistor("MP0", MosKind::Pmos, z, a, vdd, vdd, 300, 30)?;
/// b.add_transistor("MN0", MosKind::Nmos, z, a, vss, vss, 200, 30)?;
/// let cell = b.build()?;
/// assert_eq!(cell.num_transistors(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CellBuilder {
    name: String,
    nets: Vec<Net>,
    transistors: Vec<Transistor>,
}

impl CellBuilder {
    /// Starts building a cell with the given name.
    pub fn new(name: impl Into<String>) -> CellBuilder {
        CellBuilder {
            name: name.into(),
            nets: Vec::new(),
            transistors: Vec::new(),
        }
    }

    /// Adds a net, returning its id. If a net with the same name already
    /// exists its id is returned instead (the kind is left unchanged).
    pub fn add_net(&mut self, name: impl Into<String>, kind: NetKind) -> NetId {
        let name = name.into();
        if let Some(i) = self.nets.iter().position(|n| n.name() == name) {
            return NetId(i as u32);
        }
        self.nets.push(Net::new(name, kind));
        NetId((self.nets.len() - 1) as u32)
    }

    /// Number of nets added so far.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Adds a transistor.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Duplicate`] if a transistor with the same
    /// name exists, or [`NetlistError::UnknownNet`] if any terminal
    /// references an id that has not been added.
    #[allow(
        clippy::too_many_arguments,
        reason = "mirrors Transistor::new: four terminals plus name, kind and geometry"
    )]
    pub fn add_transistor(
        &mut self,
        name: impl Into<String>,
        kind: MosKind,
        drain: NetId,
        gate: NetId,
        source: NetId,
        bulk: NetId,
        width_nm: u32,
        length_nm: u32,
    ) -> Result<TransistorId, NetlistError> {
        let name = name.into();
        if self.transistors.iter().any(|t| t.name() == name) {
            return Err(NetlistError::Duplicate(name));
        }
        for id in [drain, gate, source, bulk] {
            if id.index() >= self.nets.len() {
                return Err(NetlistError::UnknownNet(format!("{id}")));
            }
        }
        self.transistors.push(Transistor::new(
            name, kind, drain, gate, source, bulk, width_nm, length_nm,
        ));
        Ok(TransistorId((self.transistors.len() - 1) as u32))
    }

    /// Test-only: pushes a transistor without the duplicate-name guard.
    ///
    /// [`CellBuilder::add_transistor`] makes a duplicate instance name
    /// unconstructible through every real route (builder, SPICE parse,
    /// corruption harness), so the `duplicate-device-name` lint rule —
    /// defense in depth against future importers that bypass the
    /// builder — needs this escape hatch to prove it fires.
    #[cfg(test)]
    #[allow(
        clippy::too_many_arguments,
        reason = "mirrors Transistor::new: four terminals plus name, kind and geometry"
    )]
    pub(crate) fn push_transistor_unchecked(
        &mut self,
        name: impl Into<String>,
        kind: MosKind,
        drain: NetId,
        gate: NetId,
        source: NetId,
        bulk: NetId,
        width_nm: u32,
        length_nm: u32,
    ) {
        self.transistors.push(Transistor::new(
            name.into(),
            kind,
            drain,
            gate,
            source,
            bulk,
            width_nm,
            length_nm,
        ));
    }

    /// Validates the structure and produces the immutable [`Cell`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Invalid`] when the cell has no input, no
    /// output, no power/ground rail, duplicate net names, or a transistor
    /// gated by a rail-free floating net.
    pub fn build(self) -> Result<Cell, NetlistError> {
        if self.transistors.is_empty() {
            return Err(NetlistError::Invalid(format!(
                "cell `{}` has no transistors",
                self.name
            )));
        }
        self.finish()
    }

    /// Like [`CellBuilder::build`] but allows a transistor-less cell.
    ///
    /// Only the fault-injection harness ([`crate::corrupt`]) uses this:
    /// real flows must never see such a cell, but robustness tests need
    /// to construct one to prove it is caught downstream (the
    /// `no-transistors` lint rule).
    pub(crate) fn build_raw(self) -> Result<Cell, NetlistError> {
        self.finish()
    }

    /// Shared tail of `build`/`build_raw`: pin/rail validation and role
    /// assignment.
    fn finish(self) -> Result<Cell, NetlistError> {
        let mut seen = std::collections::BTreeSet::new();
        for net in &self.nets {
            if !seen.insert(net.name().to_string()) {
                return Err(NetlistError::Duplicate(net.name().to_string()));
            }
        }
        let ids = |kind: NetKind| -> Vec<NetId> {
            self.nets
                .iter()
                .enumerate()
                .filter(|(_, n)| n.kind() == kind)
                .map(|(i, _)| NetId(i as u32))
                .collect()
        };
        let inputs = ids(NetKind::Input);
        let outputs = ids(NetKind::Output);
        let power = ids(NetKind::Power);
        let ground = ids(NetKind::Ground);
        if inputs.is_empty() {
            return Err(NetlistError::Invalid(format!(
                "cell `{}` has no input pin",
                self.name
            )));
        }
        if outputs.is_empty() {
            return Err(NetlistError::Invalid(format!(
                "cell `{}` has no output pin",
                self.name
            )));
        }
        if power.len() != 1 || ground.len() != 1 {
            return Err(NetlistError::Invalid(format!(
                "cell `{}` must have exactly one power and one ground rail",
                self.name
            )));
        }
        Ok(Cell {
            name: self.name,
            nets: self.nets,
            transistors: self.transistors,
            inputs,
            outputs,
            power: power[0],
            ground: ground[0],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inverter() -> Cell {
        let mut b = CellBuilder::new("INV");
        let a = b.add_net("A", NetKind::Input);
        let z = b.add_net("Z", NetKind::Output);
        let vdd = b.add_net("VDD", NetKind::Power);
        let vss = b.add_net("VSS", NetKind::Ground);
        b.add_transistor("MP0", MosKind::Pmos, z, a, vdd, vdd, 300, 30)
            .unwrap();
        b.add_transistor("MN0", MosKind::Nmos, z, a, vss, vss, 200, 30)
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_assigns_roles() {
        let cell = inverter();
        assert_eq!(cell.name(), "INV");
        assert_eq!(cell.num_inputs(), 1);
        assert_eq!(cell.outputs().len(), 1);
        assert_eq!(cell.net(cell.power()).name(), "VDD");
        assert_eq!(cell.net(cell.ground()).name(), "VSS");
    }

    #[test]
    fn add_net_deduplicates_by_name() {
        let mut b = CellBuilder::new("X");
        let a1 = b.add_net("A", NetKind::Input);
        let a2 = b.add_net("A", NetKind::Input);
        assert_eq!(a1, a2);
        assert_eq!(b.num_nets(), 1);
    }

    #[test]
    fn duplicate_transistor_name_rejected() {
        let mut b = CellBuilder::new("X");
        let a = b.add_net("A", NetKind::Input);
        let z = b.add_net("Z", NetKind::Output);
        let vdd = b.add_net("VDD", NetKind::Power);
        let vss = b.add_net("VSS", NetKind::Ground);
        b.add_transistor("M0", MosKind::Pmos, z, a, vdd, vdd, 1, 1)
            .unwrap();
        let err = b
            .add_transistor("M0", MosKind::Nmos, z, a, vss, vss, 1, 1)
            .unwrap_err();
        assert_eq!(err, NetlistError::Duplicate("M0".into()));
    }

    #[test]
    fn build_raw_allows_zero_transistors() {
        let mut b = CellBuilder::new("EMPTY");
        b.add_net("A", NetKind::Input);
        b.add_net("Z", NetKind::Output);
        b.add_net("VDD", NetKind::Power);
        b.add_net("VSS", NetKind::Ground);
        assert!(matches!(b.clone().build(), Err(NetlistError::Invalid(_))));
        let cell = b.build_raw().unwrap();
        assert_eq!(cell.num_transistors(), 0);
        assert_eq!(cell.name(), "EMPTY");
    }

    #[test]
    fn missing_rail_rejected() {
        let mut b = CellBuilder::new("X");
        let a = b.add_net("A", NetKind::Input);
        let z = b.add_net("Z", NetKind::Output);
        let vdd = b.add_net("VDD", NetKind::Power);
        b.add_transistor("M0", MosKind::Pmos, z, a, vdd, vdd, 1, 1)
            .unwrap();
        assert!(matches!(b.build(), Err(NetlistError::Invalid(_))));
    }

    #[test]
    fn terminal_accessors() {
        let cell = inverter();
        let t = cell.transistor(TransistorId(0));
        assert_eq!(t.terminal(Terminal::Gate), cell.inputs()[0]);
        assert_eq!(t.terminal(Terminal::Drain), t.drain());
        assert_eq!(
            t.other_channel_end(Terminal::Drain),
            t.terminal(Terminal::Source)
        );
    }

    #[test]
    fn gate_loads_and_channel_neighbors() {
        let cell = inverter();
        let a = cell.inputs()[0];
        let z = cell.output();
        assert_eq!(cell.gate_loads(a).len(), 2);
        assert_eq!(cell.channel_neighbors(z).len(), 2);
    }

    #[test]
    fn mos_kind_dual_and_letters() {
        assert_eq!(MosKind::Nmos.dual(), MosKind::Pmos);
        assert_eq!(MosKind::Pmos.dual(), MosKind::Nmos);
        assert_eq!(MosKind::Nmos.letter(), 'n');
        assert_eq!(Terminal::Drain.letter(), 'D');
    }

    #[test]
    fn find_by_name() {
        let cell = inverter();
        assert_eq!(cell.find_net("Z"), Some(cell.output()));
        assert!(cell.find_net("nope").is_none());
        assert_eq!(cell.find_transistor("MN0"), Some(TransistorId(1)));
        assert!(cell.find_transistor("nope").is_none());
    }
}
