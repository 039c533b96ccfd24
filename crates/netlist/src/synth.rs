//! Static CMOS standard-cell synthesis.
//!
//! A [`StagePlan`] describes a cell as a sequence of inverting CMOS stages:
//! each [`Stage`] computes `out = NOT(expr)` where `expr` is an AND/OR tree
//! over primary inputs and earlier stage outputs. The synthesizer turns a
//! plan into a transistor [`Cell`]:
//!
//! - the NMOS pull-down network implements `expr` (series for AND, parallel
//!   for OR) between the stage output and ground;
//! - the PMOS pull-up network implements the dual of `expr` between the
//!   stage output and power.
//!
//! Drive strength is modelled by device replication in one of the two
//! configurations of the paper's Fig. 6: [`DriveStyle::SharedNets`]
//! duplicates each transistor in place (internal nodes shared), while
//! [`DriveStyle::SplitFingers`] duplicates whole series networks with
//! private internal nodes. Both compute the same function; telling them
//! apart is exactly the "equivalent structure" analysis of §V.B.

use crate::error::NetlistError;
use crate::expr::Expr;
use crate::model::{Cell, CellBuilder, MosKind, NetId, NetKind};

/// A signal referenced by a stage expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sig {
    /// Primary input pin `i`.
    Pin(u8),
    /// Output of stage `k` (must be an earlier stage).
    Stage(u8),
}

/// AND/OR tree over signals; the leaf level of a CMOS stage.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StageExpr {
    /// A single transistor gated by the signal.
    Lit(Sig),
    /// Series composition in the pull-down network.
    And(Vec<StageExpr>),
    /// Parallel composition in the pull-down network.
    Or(Vec<StageExpr>),
}

impl StageExpr {
    /// Leaf constructor for a primary input.
    pub fn pin(i: u8) -> StageExpr {
        StageExpr::Lit(Sig::Pin(i))
    }

    /// Leaf constructor for a stage output.
    pub fn stage(k: u8) -> StageExpr {
        StageExpr::Lit(Sig::Stage(k))
    }

    /// Number of literal leaves (= transistors per network at drive 1).
    pub fn num_literals(&self) -> usize {
        match self {
            StageExpr::Lit(_) => 1,
            StageExpr::And(es) | StageExpr::Or(es) => es.iter().map(StageExpr::num_literals).sum(),
        }
    }

    fn visit_sigs(&self, f: &mut impl FnMut(Sig)) {
        match self {
            StageExpr::Lit(s) => f(*s),
            StageExpr::And(es) | StageExpr::Or(es) => {
                for e in es {
                    e.visit_sigs(f);
                }
            }
        }
    }
}

/// One inverting CMOS stage: `out = NOT(expr)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Stage {
    /// The pull-down expression of the stage.
    pub expr: StageExpr,
}

impl Stage {
    /// Creates a stage from its pull-down expression.
    pub fn new(expr: StageExpr) -> Stage {
        Stage { expr }
    }
}

/// A complete multi-stage gate plan. The last stage drives the cell output.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StagePlan {
    /// Number of primary inputs.
    pub n_inputs: u8,
    /// Stages in topological order.
    pub stages: Vec<Stage>,
}

impl StagePlan {
    /// Creates a plan, validating stage references.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Invalid`] when the plan is empty, a stage
    /// references a pin `>= n_inputs`, or a stage references itself or a
    /// later stage.
    pub fn new(n_inputs: u8, stages: Vec<Stage>) -> Result<StagePlan, NetlistError> {
        if stages.is_empty() {
            return Err(NetlistError::Invalid("plan has no stages".into()));
        }
        for (k, stage) in stages.iter().enumerate() {
            let mut bad: Option<String> = None;
            stage.expr.visit_sigs(&mut |sig| match sig {
                Sig::Pin(i) if i >= n_inputs => {
                    bad = Some(format!("stage {k} references pin {i} >= {n_inputs}"));
                }
                Sig::Stage(j) if j as usize >= k => {
                    bad = Some(format!("stage {k} references stage {j} (not earlier)"));
                }
                _ => {}
            });
            if let Some(message) = bad {
                return Err(NetlistError::Invalid(message));
            }
        }
        Ok(StagePlan { n_inputs, stages })
    }

    /// A single-stage plan (e.g. NAND/NOR/AOI/OAI).
    ///
    /// # Errors
    ///
    /// See [`StagePlan::new`].
    pub fn single(n_inputs: u8, expr: StageExpr) -> Result<StagePlan, NetlistError> {
        StagePlan::new(n_inputs, vec![Stage::new(expr)])
    }

    /// Number of transistors the plan synthesizes to at drive 1.
    pub fn num_transistors(&self) -> usize {
        self.stages.iter().map(|s| 2 * s.expr.num_literals()).sum()
    }

    /// The Boolean function of the cell output as an [`Expr`] over the
    /// primary inputs.
    pub fn to_expr(&self) -> Expr {
        let mut outs: Vec<Expr> = Vec::with_capacity(self.stages.len());
        for stage in &self.stages {
            let e = expr_of(&stage.expr, &outs);
            outs.push(Expr::not(e));
        }
        outs.pop().expect("plan validated non-empty")
    }
}

fn expr_of(e: &StageExpr, outs: &[Expr]) -> Expr {
    match e {
        StageExpr::Lit(Sig::Pin(i)) => Expr::Var(*i),
        StageExpr::Lit(Sig::Stage(k)) => outs[*k as usize].clone(),
        StageExpr::And(es) => Expr::And(es.iter().map(|e| expr_of(e, outs)).collect()),
        StageExpr::Or(es) => Expr::Or(es.iter().map(|e| expr_of(e, outs)).collect()),
    }
}

/// How drive strength > 1 replicates devices (paper Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DriveStyle {
    /// Each transistor is duplicated in parallel sharing both channel nets
    /// (Fig. 6 configuration with the "red net" present).
    #[default]
    SharedNets,
    /// Whole pull networks are duplicated with private internal nodes
    /// (Fig. 6 configuration without the "red net").
    SplitFingers,
}

/// Device/net naming and sizing conventions, varied per technology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetlistStyle {
    /// Prefix for NMOS instance names (a running index is appended).
    pub nmos_prefix: String,
    /// Prefix for PMOS instance names.
    pub pmos_prefix: String,
    /// Prefix for internal net names.
    pub net_prefix: String,
    /// Input pin names, used in order (`A`, `B`, ... by default).
    pub pin_names: Vec<String>,
    /// Output pin name.
    pub out_name: String,
    /// Power rail name.
    pub vdd_name: String,
    /// Ground rail name.
    pub gnd_name: String,
    /// NMOS width in nanometres.
    pub nmos_width_nm: u32,
    /// PMOS width in nanometres.
    pub pmos_width_nm: u32,
    /// Channel length in nanometres.
    pub length_nm: u32,
    /// Optional seed; when set, the emitted transistor order is shuffled
    /// deterministically to emulate library-dependent netlist ordering.
    pub shuffle_seed: Option<u64>,
}

impl Default for NetlistStyle {
    fn default() -> NetlistStyle {
        NetlistStyle {
            nmos_prefix: "MN".into(),
            pmos_prefix: "MP".into(),
            net_prefix: "net".into(),
            pin_names: ["A", "B", "C", "D", "E", "F", "G", "H"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            out_name: "Z".into(),
            vdd_name: "VDD".into(),
            gnd_name: "VSS".into(),
            nmos_width_nm: 200,
            pmos_width_nm: 300,
            length_nm: 30,
            shuffle_seed: None,
        }
    }
}

/// A synthesized cell bundled with its functional reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthesizedCell {
    /// The transistor netlist.
    pub cell: Cell,
    /// The Boolean function the netlist implements.
    pub function: Expr,
    /// Drive factor used.
    pub drive: u8,
    /// Drive replication style used.
    pub style: DriveStyle,
}

/// Synthesizes `plan` into a transistor cell.
///
/// `drive` must be at least 1; `style` selects the Fig. 6 replication
/// configuration for `drive > 1`.
///
/// # Errors
///
/// Returns [`NetlistError::Invalid`] if the resulting netlist fails cell
/// validation (cannot normally happen for a validated plan).
///
/// # Example
///
/// ```
/// use ca_netlist::synth::{self, NetlistStyle, StagePlan, StageExpr, DriveStyle};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let nand2 = StagePlan::single(2, StageExpr::And(vec![
///     StageExpr::pin(0), StageExpr::pin(1),
/// ]))?;
/// let synth = synth::synthesize("NAND2", &nand2, 1, DriveStyle::SharedNets,
///                               &NetlistStyle::default())?;
/// assert_eq!(synth.cell.num_transistors(), 4);
/// # Ok(())
/// # }
/// ```
pub fn synthesize(
    name: &str,
    plan: &StagePlan,
    drive: u8,
    style: DriveStyle,
    netlist_style: &NetlistStyle,
) -> Result<SynthesizedCell, NetlistError> {
    assert!(drive >= 1, "drive factor must be at least 1");
    let mut emitter = Emitter::new(name, plan, netlist_style)?;
    for (k, stage) in plan.stages.iter().enumerate() {
        let out = emitter.stage_out[k];
        let pd = emitter.gnd;
        let pu = emitter.vdd;
        for _rep in 0..drive {
            let fresh = style == DriveStyle::SplitFingers;
            emitter.emit_network(&stage.expr, MosKind::Nmos, out, pd, k, fresh);
            emitter.emit_network(&dual(&stage.expr), MosKind::Pmos, out, pu, k, fresh);
        }
    }
    let cell = emitter.finish()?;
    Ok(SynthesizedCell {
        cell,
        function: plan.to_expr(),
        drive,
        style,
    })
}

/// De Morgan dual: swaps AND and OR, leaves literals alone.
fn dual(e: &StageExpr) -> StageExpr {
    match e {
        StageExpr::Lit(s) => StageExpr::Lit(*s),
        StageExpr::And(es) => StageExpr::Or(es.iter().map(dual).collect()),
        StageExpr::Or(es) => StageExpr::And(es.iter().map(dual).collect()),
    }
}

struct DeviceSpec {
    kind: MosKind,
    drain: NetId,
    gate: NetId,
    source: NetId,
}

struct Emitter<'a> {
    builder: CellBuilder,
    style: &'a NetlistStyle,
    vdd: NetId,
    gnd: NetId,
    stage_out: Vec<NetId>,
    pins: Vec<NetId>,
    devices: Vec<DeviceSpec>,
    net_counter: usize,
    /// Cache of internal nets for SharedNets replication: keyed by
    /// (stage, position-path) so repeated emissions reuse the same nodes.
    shared_nets: std::collections::BTreeMap<(usize, MosKind, Vec<u16>), NetId>,
}

impl<'a> Emitter<'a> {
    fn new(
        name: &str,
        plan: &StagePlan,
        style: &'a NetlistStyle,
    ) -> Result<Emitter<'a>, NetlistError> {
        let mut builder = CellBuilder::new(name);
        let mut pins = Vec::new();
        for i in 0..plan.n_inputs {
            let pin_name = style
                .pin_names
                .get(i as usize)
                .cloned()
                .unwrap_or_else(|| format!("I{i}"));
            pins.push(builder.add_net(pin_name, NetKind::Input));
        }
        let n_stages = plan.stages.len();
        let mut stage_out = Vec::with_capacity(n_stages);
        for k in 0..n_stages {
            if k + 1 == n_stages {
                stage_out.push(builder.add_net(&style.out_name, NetKind::Output));
            } else {
                stage_out
                    .push(builder.add_net(format!("{}s{k}", style.net_prefix), NetKind::Internal));
            }
        }
        let vdd = builder.add_net(&style.vdd_name, NetKind::Power);
        let gnd = builder.add_net(&style.gnd_name, NetKind::Ground);
        Ok(Emitter {
            builder,
            style,
            vdd,
            gnd,
            stage_out,
            pins,
            devices: Vec::new(),
            net_counter: 0,
            shared_nets: std::collections::BTreeMap::new(),
        })
    }

    fn sig_net(&self, sig: Sig) -> NetId {
        match sig {
            Sig::Pin(i) => self.pins[i as usize],
            Sig::Stage(k) => self.stage_out[k as usize],
        }
    }

    fn internal_net(&mut self, stage: usize, kind: MosKind, path: &[u16], fresh: bool) -> NetId {
        if !fresh {
            let key = (stage, kind, path.to_vec());
            if let Some(&net) = self.shared_nets.get(&key) {
                return net;
            }
            let net = self.new_net();
            self.shared_nets.insert(key, net);
            return net;
        }
        self.new_net()
    }

    fn new_net(&mut self) -> NetId {
        let name = format!("{}{}", self.style.net_prefix, self.net_counter);
        self.net_counter += 1;
        self.builder.add_net(name, NetKind::Internal)
    }

    /// Emits the two-terminal network for `expr` between `top` (stage
    /// output side) and `bottom` (rail side).
    #[allow(
        clippy::too_many_arguments,
        reason = "the recursion state of one series-parallel network"
    )]
    fn emit_network(
        &mut self,
        expr: &StageExpr,
        kind: MosKind,
        top: NetId,
        bottom: NetId,
        stage: usize,

        fresh: bool,
    ) {
        let mut path = Vec::new();
        self.emit_rec(expr, kind, top, bottom, stage, fresh, &mut path);
    }

    #[allow(
        clippy::too_many_arguments,
        reason = "the recursion state of one series-parallel network"
    )]
    fn emit_rec(
        &mut self,
        expr: &StageExpr,
        kind: MosKind,
        top: NetId,
        bottom: NetId,
        stage: usize,

        fresh: bool,
        path: &mut Vec<u16>,
    ) {
        match expr {
            StageExpr::Lit(sig) => {
                let gate = self.sig_net(*sig);
                self.devices.push(DeviceSpec {
                    kind,
                    drain: top,
                    gate,
                    source: bottom,
                });
            }
            StageExpr::And(es) => {
                // Series chain between top and bottom.
                let mut upper = top;
                for (i, e) in es.iter().enumerate() {
                    let lower = if i + 1 == es.len() {
                        bottom
                    } else {
                        path.push(i as u16);
                        let net = self.internal_net(stage, kind, path, fresh);
                        path.pop();
                        net
                    };
                    path.push(i as u16);
                    self.emit_rec(e, kind, upper, lower, stage, fresh, path);
                    path.pop();
                    upper = lower;
                }
            }
            StageExpr::Or(es) => {
                for (i, e) in es.iter().enumerate() {
                    path.push(1000 + i as u16);
                    self.emit_rec(e, kind, top, bottom, stage, fresh, path);
                    path.pop();
                }
            }
        }
    }

    fn finish(mut self) -> Result<Cell, NetlistError> {
        // Optionally shuffle device order to emulate foreign netlist styles.
        if let Some(seed) = self.style.shuffle_seed {
            shuffle(&mut self.devices, seed);
        }
        let (mut n_idx, mut p_idx) = (0usize, 0usize);
        for spec in &self.devices {
            let (prefix, idx, width) = match spec.kind {
                MosKind::Nmos => {
                    n_idx += 1;
                    (&self.style.nmos_prefix, n_idx - 1, self.style.nmos_width_nm)
                }
                MosKind::Pmos => {
                    p_idx += 1;
                    (&self.style.pmos_prefix, p_idx - 1, self.style.pmos_width_nm)
                }
            };
            let bulk = match spec.kind {
                MosKind::Nmos => self.gnd,
                MosKind::Pmos => self.vdd,
            };
            self.builder.add_transistor(
                format!("{prefix}{idx}"),
                spec.kind,
                spec.drain,
                spec.gate,
                spec.source,
                bulk,
                width,
                self.style.length_nm,
            )?;
        }
        self.builder.build()
    }
}

/// Deterministic Fisher-Yates over the shared workspace PRNG.
fn shuffle<T>(items: &mut [T], seed: u64) {
    use ca_rng::Rng as _;
    ca_rng::SplitMix64::new(seed).shuffle(items);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nand2_plan() -> StagePlan {
        StagePlan::single(
            2,
            StageExpr::And(vec![StageExpr::pin(0), StageExpr::pin(1)]),
        )
        .unwrap()
    }

    #[test]
    fn nand2_has_four_transistors() {
        let s = synthesize(
            "NAND2",
            &nand2_plan(),
            1,
            DriveStyle::SharedNets,
            &NetlistStyle::default(),
        )
        .unwrap();
        assert_eq!(s.cell.num_transistors(), 4);
        assert_eq!(s.cell.num_inputs(), 2);
        // Pull-down is a series chain: exactly one internal net.
        let internals = s
            .cell
            .nets()
            .iter()
            .filter(|n| n.kind() == NetKind::Internal)
            .count();
        assert_eq!(internals, 1);
    }

    #[test]
    fn nand2_function_is_nand() {
        let s = synthesize(
            "NAND2",
            &nand2_plan(),
            1,
            DriveStyle::SharedNets,
            &NetlistStyle::default(),
        )
        .unwrap();
        assert_eq!(s.function.truth_table(2), vec![true, true, true, false]);
    }

    #[test]
    fn drive_2_shared_duplicates_in_place() {
        let plan = nand2_plan();
        let s = synthesize(
            "NAND2X2",
            &plan,
            2,
            DriveStyle::SharedNets,
            &NetlistStyle::default(),
        )
        .unwrap();
        assert_eq!(s.cell.num_transistors(), 8);
        // SharedNets keeps one internal pull-down node (the "red net").
        let internals = s
            .cell
            .nets()
            .iter()
            .filter(|n| n.kind() == NetKind::Internal)
            .count();
        assert_eq!(internals, 1);
    }

    #[test]
    fn drive_2_split_adds_private_nodes() {
        let plan = nand2_plan();
        let s = synthesize(
            "NAND2X2S",
            &plan,
            2,
            DriveStyle::SplitFingers,
            &NetlistStyle::default(),
        )
        .unwrap();
        assert_eq!(s.cell.num_transistors(), 8);
        let internals = s
            .cell
            .nets()
            .iter()
            .filter(|n| n.kind() == NetKind::Internal)
            .count();
        assert_eq!(internals, 2);
    }

    #[test]
    fn multi_stage_and2() {
        // AND2 = NAND2 + INV.
        let plan = StagePlan::new(
            2,
            vec![
                Stage::new(StageExpr::And(vec![StageExpr::pin(0), StageExpr::pin(1)])),
                Stage::new(StageExpr::stage(0)),
            ],
        )
        .unwrap();
        let s = synthesize(
            "AND2",
            &plan,
            1,
            DriveStyle::SharedNets,
            &NetlistStyle::default(),
        )
        .unwrap();
        assert_eq!(s.cell.num_transistors(), 6);
        assert_eq!(s.function.truth_table(2), vec![false, false, false, true]);
    }

    #[test]
    fn plan_validation_rejects_forward_reference() {
        let bad = StagePlan::new(1, vec![Stage::new(StageExpr::stage(0))]);
        assert!(bad.is_err());
        let bad_pin = StagePlan::single(1, StageExpr::pin(1));
        assert!(bad_pin.is_err());
    }

    #[test]
    fn shuffle_changes_order_but_not_structure() {
        let plan = nand2_plan();
        let base = synthesize(
            "NAND2",
            &plan,
            1,
            DriveStyle::SharedNets,
            &NetlistStyle::default(),
        )
        .unwrap();
        let style = NetlistStyle {
            shuffle_seed: Some(42),
            ..NetlistStyle::default()
        };
        let shuffled = synthesize("NAND2", &plan, 1, DriveStyle::SharedNets, &style).unwrap();
        assert_eq!(base.cell.num_transistors(), shuffled.cell.num_transistors());
        // Same multiset of (kind, gate-name) pairs.
        let fingerprint = |c: &Cell| {
            let mut v: Vec<(MosKind, String)> = c
                .transistors()
                .iter()
                .map(|t| (t.kind(), c.net(t.gate()).name().to_string()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(fingerprint(&base.cell), fingerprint(&shuffled.cell));
    }

    #[test]
    fn num_transistors_matches_plan_prediction() {
        let plan = StagePlan::new(
            3,
            vec![
                Stage::new(StageExpr::Or(vec![
                    StageExpr::And(vec![StageExpr::pin(0), StageExpr::pin(1)]),
                    StageExpr::pin(2),
                ])),
                Stage::new(StageExpr::stage(0)),
            ],
        )
        .unwrap();
        assert_eq!(plan.num_transistors(), 8);
        let s = synthesize(
            "AO21",
            &plan,
            1,
            DriveStyle::SharedNets,
            &NetlistStyle::default(),
        )
        .unwrap();
        assert_eq!(s.cell.num_transistors(), 8);
    }

    #[test]
    fn round_trips_through_spice() {
        let s = synthesize(
            "NAND2",
            &nand2_plan(),
            1,
            DriveStyle::SharedNets,
            &NetlistStyle::default(),
        )
        .unwrap();
        let text = crate::writer::to_spice(&s.cell);
        let parsed = crate::spice::parse_cell(&text).unwrap();
        assert_eq!(parsed, s.cell);
    }
}
