//! Active/passive transistor identification (paper §III.A).
//!
//! One defect-free (golden) simulation of every stimulus yields, per
//! stimulus: the cell's output waveform and each transistor's *activity
//! wave* — active (1), passive (0), switching on (R) or switching off (F).
//! An NMOS is active when its gate sees logic 1, a PMOS when it sees
//! logic 0.
//!
//! The per-transistor **activity value** (§III.C, Table II) is the
//! `2^n`-bit integer collecting the device's activity over all static
//! stimuli, MSB = all-zeros input; it is the technology-independent
//! identity used to order parallel transistors.

use crate::error::CoreError;
use ca_netlist::{Cell, MosKind, TransistorId};
use ca_sim::packed::{PackedSim, PackedStimulus};
use ca_sim::{CellKernel, Injection, Simulator, Stimulus, Value, Wave};
use std::cmp::Ordering;
use std::fmt;

/// A `2^n`-bit activity bit string, MSB first (paper Table II).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ActivityValue {
    /// Bits in MSB-first order: `bits[p]` is the activity under the static
    /// stimulus whose input pattern has binary value `p`.
    bits: Vec<bool>,
}

impl ActivityValue {
    /// Builds from MSB-first bits.
    pub fn new(bits: Vec<bool>) -> ActivityValue {
        ActivityValue { bits }
    }

    /// Number of bits (`2^n`).
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether there are no bits.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Bit for static input pattern `p` (MSB = pattern 0).
    pub fn bit(&self, p: usize) -> bool {
        self.bits[p]
    }

    /// The value as `u128`, if it fits (n <= 7 inputs).
    pub fn as_u128(&self) -> Option<u128> {
        if self.bits.len() > 128 {
            return None;
        }
        let mut v = 0u128;
        for &b in &self.bits {
            v = (v << 1) | u128::from(b);
        }
        Some(v)
    }
}

impl PartialOrd for ActivityValue {
    fn partial_cmp(&self, other: &ActivityValue) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ActivityValue {
    fn cmp(&self, other: &ActivityValue) -> Ordering {
        // MSB-first lexicographic comparison = numeric comparison for
        // equal-length strings; shorter strings order first.
        self.bits
            .len()
            .cmp(&other.bits.len())
            .then_with(|| self.bits.cmp(&other.bits))
    }
}

impl fmt::Display for ActivityValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(v) = self.as_u128() {
            write!(f, "{v}")
        } else {
            for &b in &self.bits {
                write!(f, "{}", u8::from(b))?;
            }
            Ok(())
        }
    }
}

/// Golden-simulation product: output waves, transistor activity waves and
/// activity values for one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Activation {
    stimuli: Vec<Stimulus>,
    output_waves: Vec<Wave>,
    transistor_waves: Vec<Vec<Wave>>,
    activity_values: Vec<ActivityValue>,
}

impl Activation {
    /// Runs the golden simulation of `cell` over the full stimulus set and
    /// extracts all activation information.
    ///
    /// Output waves are recorded for the cell's primary output (the
    /// CA-matrix response column is single-output; multi-output cells are
    /// rejected upstream by `PreparedCell::prepare`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::GoldenNotBinary`] when the defect-free cell
    /// does not settle to binary values (invalid netlist).
    pub fn extract(cell: &Cell) -> Result<Activation, CoreError> {
        let stimuli = Stimulus::all(cell.num_inputs());
        Activation::extract_with(cell, stimuli)
    }

    /// Like [`Activation::extract`] with a caller-provided stimulus list
    /// (must start with the `2^n` static stimuli in ascending order for
    /// activity values to be meaningful).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::GoldenNotBinary`] when the defect-free cell
    /// does not settle to binary values.
    pub fn extract_with(cell: &Cell, stimuli: Vec<Stimulus>) -> Result<Activation, CoreError> {
        // The packed engine evaluates 64 stimuli per solver pass
        // (DESIGN.md §12) and produces bit-identical waves; the scalar
        // path is the fallback for cells the kernel compiler declines
        // and the differential reference.
        let (output_waves, transistor_waves) = Activation::golden_waves_packed(cell, &stimuli)
            .unwrap_or_else(|| Activation::golden_waves_scalar(cell, &stimuli))?;
        // Activity values from the leading static stimuli. The paper's
        // Table II orders rows with input A as the MSB of the pattern
        // (00, 01, 10, 11 over A,B); our static stimulus index uses input
        // 0 as the LSB, so each table row is the bit-reversed index.
        let n_transistors = cell.num_transistors();
        let n = cell.num_inputs();
        let n_static = 1usize << n;
        let row_to_stimulus = |r: usize| -> usize {
            (0..n).fold(0usize, |acc, i| acc | (((r >> (n - 1 - i)) & 1) << i))
        };
        let mut activity_values = Vec::with_capacity(n_transistors);
        #[allow(clippy::needless_range_loop, reason = "t indexes the inner dimension")]
        for t in 0..n_transistors {
            let bits: Vec<bool> = (0..n_static)
                .map(|r| transistor_waves[row_to_stimulus(r)][t] == Wave::One)
                .collect();
            activity_values.push(ActivityValue::new(bits));
        }
        Ok(Activation {
            stimuli,
            output_waves,
            transistor_waves,
            activity_values,
        })
    }

    /// Scalar golden pass: one simulator run per stimulus, collecting the
    /// output wave and every transistor's activity wave.
    #[allow(
        clippy::type_complexity,
        reason = "the output waves and the per-stimulus transistor waves"
    )]
    fn golden_waves_scalar(
        cell: &Cell,
        stimuli: &[Stimulus],
    ) -> Result<(Vec<Wave>, Vec<Vec<Wave>>), CoreError> {
        let sim = Simulator::new(cell);
        let n_transistors = cell.num_transistors();
        let mut output_waves = Vec::with_capacity(stimuli.len());
        let mut transistor_waves = Vec::with_capacity(stimuli.len());
        for (si, stimulus) in stimuli.iter().enumerate() {
            let result = sim.run(stimulus);
            let not_binary = |_: ()| CoreError::GoldenNotBinary {
                cell: cell.name().to_string(),
                stimulus: si,
            };
            let out = result.wave(cell.output()).ok_or(()).map_err(not_binary)?;
            output_waves.push(out);
            let mut per_t = Vec::with_capacity(n_transistors);
            for (_, t) in cell.transistor_ids() {
                let gate_wave = result.wave(t.gate()).ok_or(()).map_err(not_binary)?;
                per_t.push(activity_wave(t.kind(), gate_wave));
            }
            transistor_waves.push(per_t);
        }
        Ok((output_waves, transistor_waves))
    }

    /// Packed golden pass: 64 stimuli per solver pass. `None` when the
    /// kernel compiler declines the cell. Non-binary nets raise
    /// [`CoreError::GoldenNotBinary`] for the first offending stimulus,
    /// checking the output first and then the gates in transistor-id
    /// order — the exact error the scalar pass reports.
    #[allow(
        clippy::type_complexity,
        reason = "the output waves and the per-stimulus transistor waves"
    )]
    fn golden_waves_packed(
        cell: &Cell,
        stimuli: &[Stimulus],
    ) -> Option<Result<(Vec<Wave>, Vec<Vec<Wave>>), CoreError>> {
        let kernel = CellKernel::compile(cell)?;
        let packed = PackedStimulus::pack(cell.num_inputs(), stimuli);
        let sim = PackedSim::new(&kernel, Injection::None, None);
        let out_net = cell.output().index();
        let gates: Vec<(usize, MosKind)> = cell
            .transistor_ids()
            .map(|(_, t)| (t.gate().index(), t.kind()))
            .collect();
        let mut output_waves = Vec::with_capacity(stimuli.len());
        let mut transistor_waves = Vec::with_capacity(stimuli.len());
        let mut si = 0usize;
        for block in packed.blocks() {
            let result = sim.run_block(block);
            for lane in 0..block.occupancy() {
                let wave_of = |net: usize| -> Option<Wave> {
                    let level = |v: Value| match v {
                        Value::Zero => Some(false),
                        Value::One => Some(true),
                        _ => None,
                    };
                    let first = level(result.phase1[net].get(lane))?;
                    let last = level(result.final_values[net].get(lane))?;
                    Some(Wave::from_pair(first, last))
                };
                let not_binary = || CoreError::GoldenNotBinary {
                    cell: cell.name().to_string(),
                    stimulus: si,
                };
                let out = match wave_of(out_net) {
                    Some(w) => w,
                    None => return Some(Err(not_binary())),
                };
                output_waves.push(out);
                let mut per_t = Vec::with_capacity(gates.len());
                for &(gate_net, kind) in &gates {
                    let gate_wave = match wave_of(gate_net) {
                        Some(w) => w,
                        None => return Some(Err(not_binary())),
                    };
                    per_t.push(activity_wave(kind, gate_wave));
                }
                transistor_waves.push(per_t);
                si += 1;
            }
        }
        Some(Ok((output_waves, transistor_waves)))
    }

    /// The stimuli the activation was extracted against.
    pub fn stimuli(&self) -> &[Stimulus] {
        &self.stimuli
    }

    /// Output waveform per stimulus.
    pub fn output_waves(&self) -> &[Wave] {
        &self.output_waves
    }

    /// Activity wave of `transistor` under stimulus `stimulus`.
    pub fn transistor_wave(&self, stimulus: usize, transistor: TransistorId) -> Wave {
        self.transistor_waves[stimulus][transistor.index()]
    }

    /// Activity value of `transistor`.
    pub fn activity_value(&self, transistor: TransistorId) -> &ActivityValue {
        &self.activity_values[transistor.index()]
    }

    /// All activity values, indexed by transistor.
    pub fn activity_values(&self) -> &[ActivityValue] {
        &self.activity_values
    }
}

/// Maps a gate waveform to the device's activity wave: an NMOS is active
/// on gate 1, a PMOS on gate 0.
fn activity_wave(kind: MosKind, gate: Wave) -> Wave {
    match kind {
        MosKind::Nmos => gate,
        MosKind::Pmos => match gate {
            Wave::Zero => Wave::One,
            Wave::One => Wave::Zero,
            Wave::Rise => Wave::Fall,
            Wave::Fall => Wave::Rise,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_netlist::corrupt::{corrupt_cell, Corruption};
    use ca_netlist::library::{generate_library, LibraryConfig};
    use ca_netlist::synth::{synthesize, DriveStyle, NetlistStyle, Stage, StageExpr, StagePlan};
    use ca_netlist::{spice, Technology};
    use ca_rng::{Rng, SplitMix64};

    const NAND2: &str = "\
.SUBCKT NAND2 A B Z VDD VSS
MPX Z A VDD VDD pch
MPY Z B VDD VDD pch
MN10 Z A net0 VSS nch
MN11 net0 B VSS VSS nch
.ENDS
";

    #[test]
    fn table_ii_activity_values() {
        // Paper Table II: Px=12, Py=10, N10=3, N11=5.
        let cell = spice::parse_cell(NAND2).unwrap();
        let act = Activation::extract(&cell).unwrap();
        let value = |name: &str| {
            act.activity_value(cell.find_transistor(name).unwrap())
                .as_u128()
                .unwrap()
        };
        assert_eq!(value("MPX"), 12);
        assert_eq!(value("MPY"), 10);
        assert_eq!(value("MN10"), 3);
        assert_eq!(value("MN11"), 5);
    }

    #[test]
    fn output_waves_match_function() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let act = Activation::extract(&cell).unwrap();
        // Static stimuli come first: NAND truth table 1,1,1,0.
        let statics: Vec<Wave> = act.output_waves()[..4].to_vec();
        assert_eq!(statics, vec![Wave::One, Wave::One, Wave::One, Wave::Zero]);
        // Dynamic: 00 -> 11 gives a falling output.
        let idx = act
            .stimuli()
            .iter()
            .position(|s| s.initial_pattern() == 0 && s.final_pattern() == 3)
            .unwrap();
        assert_eq!(act.output_waves()[idx], Wave::Fall);
    }

    #[test]
    fn transistor_waves_respect_polarity() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let act = Activation::extract(&cell).unwrap();
        let mpx = cell.find_transistor("MPX").unwrap();
        let mn10 = cell.find_transistor("MN10").unwrap();
        // Stimulus 0 is AB=00: PMOS active, NMOS passive.
        assert_eq!(act.transistor_wave(0, mpx), Wave::One);
        assert_eq!(act.transistor_wave(0, mn10), Wave::Zero);
        // A rising A makes the NMOS switch on, the PMOS switch off.
        let idx = act
            .stimuli()
            .iter()
            .position(|s| s.initial_pattern() == 0 && s.final_pattern() == 1)
            .unwrap();
        assert_eq!(act.transistor_wave(idx, mn10), Wave::Rise);
        assert_eq!(act.transistor_wave(idx, mpx), Wave::Fall);
    }

    #[test]
    fn activity_value_ordering_is_numeric() {
        let a = ActivityValue::new(vec![true, true, false, false]); // 12
        let b = ActivityValue::new(vec![true, false, true, false]); // 10
        assert!(a > b);
        assert_eq!(a.to_string(), "12");
        assert_eq!(a.as_u128(), Some(12));
        assert_eq!(a.len(), 4);
    }

    /// A random stage expression over `n` pins, at most `depth` deep.
    fn random_expr(rng: &mut SplitMix64, n: u8, depth: usize) -> StageExpr {
        if depth == 0 || rng.gen_index(3) == 0 {
            return StageExpr::pin(rng.gen_index(n as usize) as u8);
        }
        let children = (0..2 + rng.gen_index(2))
            .map(|_| random_expr(rng, n, depth - 1))
            .collect();
        if rng.gen_bool() {
            StageExpr::And(children)
        } else {
            StageExpr::Or(children)
        }
    }

    /// The packed golden pass reproduces the scalar one — every wave,
    /// and the stimulus index of a `GoldenNotBinary` error — over random
    /// synthesized cells, every corrupted variant of them and the quick
    /// C40 catalog. `extract_with` only runs the scalar pass for cells
    /// the kernel compiler declines, so this keeps it covered.
    #[test]
    fn packed_golden_waves_match_scalar() {
        let mut rng = SplitMix64::new(51);
        let mut cells = Vec::new();
        for _ in 0..12 {
            // One inverting stage over 2–3 inputs (≤ 18 transistors),
            // buffered or not.
            let n = 2 + rng.gen_index(2) as u8;
            let mut stages = vec![Stage::new(random_expr(&mut rng, n, 2))];
            if rng.gen_bool() {
                stages.push(Stage::new(StageExpr::stage(0)));
            }
            let plan = StagePlan::new(n, stages).unwrap();
            let style = NetlistStyle::default();
            let cell = synthesize("P", &plan, 1, DriveStyle::SharedNets, &style)
                .unwrap()
                .cell;
            for corruption in Corruption::ALL {
                if let Ok(bad) = corrupt_cell(&cell, corruption, rng.next_u64()) {
                    cells.push(bad);
                }
            }
            cells.push(cell);
        }
        let c40 = generate_library(&LibraryConfig::quick(Technology::C40));
        cells.extend(c40.cells.into_iter().map(|lc| lc.cell));
        let mut not_binary = 0;
        for cell in &cells {
            let stimuli = Stimulus::all(cell.num_inputs());
            let packed = Activation::golden_waves_packed(cell, &stimuli)
                .expect("test cells are within kernel limits");
            let scalar = Activation::golden_waves_scalar(cell, &stimuli);
            assert_eq!(packed, scalar, "{}", cell.name());
            not_binary += usize::from(scalar.is_err());
        }
        assert!(not_binary > 0, "no cell exercised the error path");
    }

    #[test]
    fn broken_cell_reports_error() {
        // Pull-down only: the output floats when A=0.
        let src = ".SUBCKT BAD A Z VDD VSS\nMN0 Z A VSS VSS nch\n.ENDS";
        let cell = spice::parse_cell(src).unwrap();
        let err = Activation::extract(&cell).unwrap_err();
        assert!(matches!(err, CoreError::GoldenNotBinary { .. }));
    }
}
