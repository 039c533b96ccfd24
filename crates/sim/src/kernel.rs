//! Compiled cell kernels: the netlist graph flattened, once per cell,
//! into struct-of-arrays tables the packed solver's tight loops iterate
//! over (DESIGN.md §12).
//!
//! [`CellGraph`](crate::solver::CellGraph) re-walks `Cell`'s pointer-rich
//! transistor objects on every solve; a [`CellKernel`] pays that walk
//! once and stores only the integers the inner loops need — per
//! transistor the gate/channel net indices and polarity, plus the driver
//! nets. The compiler *declines* pathological cells (see
//! [`CellKernel::compile`]) so callers always have the interpreted
//! scalar path to fall back to; compile and decline counts are reported
//! as `ca_sim.kernel.{compiled,fallback}`.

use ca_netlist::{Cell, MosKind, Terminal};

/// Largest net count the kernel compiler accepts. Beyond this the
/// packed solver's dense per-net planes stop paying for themselves and
/// the caller falls back to the interpreted scalar path.
pub const MAX_KERNEL_NETS: usize = 512;

/// Largest transistor count the kernel compiler accepts.
pub const MAX_KERNEL_TRANSISTORS: usize = 2048;

/// One cell's channel graph compiled to flat struct-of-arrays tables.
///
/// All nets are plain `usize` indices into the cell's net list; all
/// per-transistor tables are parallel arrays indexed by transistor id.
#[derive(Debug, Clone)]
pub struct CellKernel {
    n_nets: usize,
    n_inputs: usize,
    power: usize,
    ground: usize,
    inputs: Vec<usize>,
    outputs: Vec<usize>,
    // Per-transistor SoA: gate net, channel ends, polarity, bulk (for
    // terminal resolution of injected shorts).
    t_gate: Vec<u32>,
    t_drain: Vec<u32>,
    t_source: Vec<u32>,
    t_bulk: Vec<u32>,
    t_pmos: Vec<bool>,
}

impl CellKernel {
    /// Compiles `cell` into a kernel, or declines (`None`) when the cell
    /// is outside the compiler's envelope ([`MAX_KERNEL_NETS`] /
    /// [`MAX_KERNEL_TRANSISTORS`]). Every decision bumps
    /// `ca_sim.kernel.compiled` or `ca_sim.kernel.fallback`.
    pub fn compile(cell: &Cell) -> Option<CellKernel> {
        let n_nets = cell.nets().len();
        let n_transistors = cell.num_transistors();
        if n_nets > MAX_KERNEL_NETS || n_transistors > MAX_KERNEL_TRANSISTORS {
            ca_obs::counter!("ca_sim.kernel.fallback").inc();
            return None;
        }
        let mut t_gate = Vec::with_capacity(n_transistors);
        let mut t_drain = Vec::with_capacity(n_transistors);
        let mut t_source = Vec::with_capacity(n_transistors);
        let mut t_bulk = Vec::with_capacity(n_transistors);
        let mut t_pmos = Vec::with_capacity(n_transistors);
        for (_, t) in cell.transistor_ids() {
            t_gate.push(t.gate().index() as u32);
            t_drain.push(t.drain().index() as u32);
            t_source.push(t.source().index() as u32);
            t_bulk.push(t.bulk().index() as u32);
            t_pmos.push(t.kind() == MosKind::Pmos);
        }
        ca_obs::counter!("ca_sim.kernel.compiled").inc();
        Some(CellKernel {
            n_nets,
            n_inputs: cell.num_inputs(),
            power: cell.power().index(),
            ground: cell.ground().index(),
            inputs: cell.inputs().iter().map(|n| n.index()).collect(),
            outputs: cell.outputs().iter().map(|n| n.index()).collect(),
            t_gate,
            t_drain,
            t_source,
            t_bulk,
            t_pmos,
        })
    }

    /// Number of nets.
    pub fn n_nets(&self) -> usize {
        self.n_nets
    }

    /// Number of primary inputs.
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Number of transistors.
    pub fn n_transistors(&self) -> usize {
        self.t_gate.len()
    }

    /// Power-rail net index.
    pub fn power(&self) -> usize {
        self.power
    }

    /// Ground-rail net index.
    pub fn ground(&self) -> usize {
        self.ground
    }

    /// Primary-input net indices, pin order.
    pub fn inputs(&self) -> &[usize] {
        &self.inputs
    }

    /// Primary-output net indices.
    pub fn outputs(&self) -> &[usize] {
        &self.outputs
    }

    /// Gate net of transistor `t`.
    pub fn gate(&self, t: usize) -> usize {
        self.t_gate[t] as usize
    }

    /// Drain net of transistor `t`.
    pub fn drain(&self, t: usize) -> usize {
        self.t_drain[t] as usize
    }

    /// Source net of transistor `t`.
    pub fn source(&self, t: usize) -> usize {
        self.t_source[t] as usize
    }

    /// Whether transistor `t` is a PMOS.
    pub fn is_pmos(&self, t: usize) -> bool {
        self.t_pmos[t]
    }

    /// Net index of `terminal` on transistor `t` (for resolving injected
    /// terminal-terminal shorts).
    pub fn terminal(&self, t: usize, terminal: Terminal) -> usize {
        (match terminal {
            Terminal::Drain => self.t_drain[t],
            Terminal::Gate => self.t_gate[t],
            Terminal::Source => self.t_source[t],
            Terminal::Bulk => self.t_bulk[t],
        }) as usize
    }
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
    fn compiles_small_cells() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let kernel = CellKernel::compile(&cell).expect("NAND2 compiles");
        assert_eq!(kernel.n_nets(), cell.nets().len());
        assert_eq!(kernel.n_transistors(), 4);
        assert_eq!(kernel.n_inputs(), 2);
        assert_eq!(kernel.power(), cell.power().index());
        assert_eq!(kernel.ground(), cell.ground().index());
        assert_eq!(kernel.outputs(), &[cell.output().index()]);
        let mn0 = cell.find_transistor("MN0").unwrap().index();
        assert!(!kernel.is_pmos(mn0));
        assert_eq!(
            kernel.terminal(mn0, Terminal::Gate),
            cell.transistor(cell.find_transistor("MN0").unwrap())
                .gate()
                .index()
        );
    }

    #[test]
    fn flat_tables_mirror_the_cell() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let kernel = CellKernel::compile(&cell).unwrap();
        for (id, t) in cell.transistor_ids() {
            let i = id.index();
            assert_eq!(kernel.gate(i), t.gate().index());
            assert_eq!(kernel.drain(i), t.drain().index());
            assert_eq!(kernel.source(i), t.source().index());
            assert_eq!(kernel.is_pmos(i), t.kind() == MosKind::Pmos);
        }
    }
}
