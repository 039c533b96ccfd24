//! `ca-bench packed` — cold-simulation benchmark of the bit-parallel
//! packed engine against the scalar fixpoint solver.
//!
//! The workload is the profile's C40 catalog: for every cell the full
//! intra-transistor defect universe is characterized against the
//! exhaustive `4^n` stimulus set under [`SimBudget::unlimited`], once
//! through [`DetectionTable::generate_budgeted_scalar`] and once through
//! [`DetectionTable::generate_budgeted`], which runs
//! [`DetectionTable::generate_budgeted_packed`] for every cell whose
//! kernel compiles. Both passes are *cold*:
//! no structure cache is in play (detection-table generation has none)
//! and the process is warmed up on one untimed cell first so neither
//! pass pays the one-off page-in/allocator cost (the same discipline
//! `ca-bench parallel` uses for its serial baseline).
//!
//! Before any number is reported the two table sets are compared bit
//! for bit, and the `.cam` exports of the models built from them are
//! asserted byte-identical.

// Benchmark results feed BENCH_packed.json; a stray unwrap would abort
// the run instead of reporting the failure.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::corpus::Profile;
use ca_defects::classes::equivalence_classes;
use ca_defects::{to_cam, CaModel, DefectUniverse, DetectionTable};
use ca_netlist::library::generate_library;
use ca_netlist::{Cell, Technology};
use ca_obs::JsonWriter;
use ca_sim::{DetectionPolicy, PackedStimulus, SimBudget, Stimulus};
use std::time::Instant;

/// Measured numbers of one packed-vs-scalar run.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedBench {
    /// Library size in cells.
    pub cells: usize,
    /// Total defects simulated across the library.
    pub defects: usize,
    /// Total stimuli evaluated across the library.
    pub stimuli: usize,
    /// Scalar baseline over the whole library, seconds (cold).
    pub scalar_s: f64,
    /// Packed engine over the same workload, seconds (cold).
    pub packed_s: f64,
    /// Stimulus blocks the packed passes transposed.
    pub blocks: usize,
    /// Occupied lanes across those blocks (≤ `blocks * 64`).
    pub lanes_used: usize,
    /// `ca_sim.kernel.compiled` delta of the packed pass.
    pub kernels_compiled: u64,
    /// `ca_sim.kernel.fallback` delta of the packed pass.
    pub kernel_fallbacks: u64,
    /// `ca_sim.packed.lanes` delta (lanes actually solved).
    pub solver_lanes: u64,
    /// `ca_sim.packed.cone_skips` delta (faulty lanes proven golden).
    pub cone_skips: u64,
    /// `.cam` documents compared between the models built from the
    /// scalar and the packed tables.
    pub cam_files: usize,
    /// Whether every compared `.cam` document was byte-identical.
    pub cam_identical: bool,
}

impl PackedBench {
    /// Cold-path speedup of the packed engine over the scalar baseline.
    pub fn speedup(&self) -> f64 {
        if self.packed_s > 0.0 {
            self.scalar_s / self.packed_s
        } else {
            0.0
        }
    }

    /// Mean fraction of the 64 lanes a transposed block occupies.
    pub fn lane_occupancy(&self) -> f64 {
        if self.blocks > 0 {
            self.lanes_used as f64 / (self.blocks as f64 * 64.0)
        } else {
            0.0
        }
    }

    /// The `BENCH_packed.json` document.
    pub fn to_json(&self) -> String {
        JsonWriter::pretty()
            .object(|w| {
                w.key("cells").u64(self.cells as u64);
                w.key("defects").u64(self.defects as u64);
                w.key("stimuli").u64(self.stimuli as u64);
                w.key("scalar_s").f64(self.scalar_s, 3);
                w.key("packed_s").f64(self.packed_s, 3);
                w.key("speedup").f64(self.speedup(), 2);
                w.key("blocks").u64(self.blocks as u64);
                w.key("lanes_used").u64(self.lanes_used as u64);
                w.key("lane_occupancy").f64(self.lane_occupancy(), 4);
                w.key("kernels_compiled").u64(self.kernels_compiled);
                w.key("kernel_fallbacks").u64(self.kernel_fallbacks);
                w.key("solver_lanes").u64(self.solver_lanes);
                w.key("cone_skips").u64(self.cone_skips);
                w.key("cam_files").u64(self.cam_files as u64);
                w.key("cam_identical").bool(self.cam_identical);
            })
            .finish()
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        format!(
            "packed simulation engine — {} cells, {} defects, {} stimuli\n  \
             scalar baseline: {:.3} s\n  packed engine:   {:.3} s  ({:.1}x)\n  \
             lanes: {}/{} occupied ({:.1}%), {} solved by packed solver, {} cone-skipped\n  \
             kernels: {} compiled, {} fallbacks\n  \
             cam exports: {} documents, byte-identical: {}\n",
            self.cells,
            self.defects,
            self.stimuli,
            self.scalar_s,
            self.packed_s,
            self.speedup(),
            self.lanes_used,
            self.blocks * 64,
            self.lane_occupancy() * 100.0,
            self.solver_lanes,
            self.cone_skips,
            self.kernels_compiled,
            self.kernel_fallbacks,
            self.cam_files,
            self.cam_identical
        )
    }
}

/// One cell's cold workload: the full intra-transistor universe against
/// the exhaustive stimulus set.
struct Workload {
    cell: Cell,
    universe: DefectUniverse,
    stimuli: Vec<Stimulus>,
}

/// Runs the benchmark: scalar pass, packed pass, bit-identity check of
/// every detection table, then the `.cam` byte-identity check.
///
/// # Panics
///
/// Panics if a golden simulation fails, any packed table differs from
/// its scalar twin or any `.cam` export differs between the models built
/// from them — a wrong fast path must never report a speedup.
pub fn run(profile: Profile) -> PackedBench {
    let library = generate_library(&profile.library_config(Technology::C40));
    let policy = DetectionPolicy::default();
    let budget = SimBudget::unlimited();
    let workloads: Vec<Workload> = library
        .cells
        .iter()
        .map(|lc| Workload {
            cell: lc.cell.clone(),
            universe: DefectUniverse::intra_transistor(&lc.cell),
            stimuli: Stimulus::all(lc.cell.num_inputs()),
        })
        .collect();
    assert!(!workloads.is_empty(), "benchmark library is empty");
    // The packed pass runs the flow's dispatch: the packed body, or the
    // scalar one for a cell the kernel compiler declines
    // (`kernel_fallbacks` counts those).
    let table = |w: &Workload, packed: bool| {
        let (cell, universe, stimuli) = (&w.cell, &w.universe, &w.stimuli[..]);
        let result = if packed {
            DetectionTable::generate_budgeted(cell, universe, stimuli, policy, &budget)
        } else {
            DetectionTable::generate_budgeted_scalar(cell, universe, stimuli, policy, &budget)
        };
        let fail = |e| panic!("golden simulation failed for {}: {e}", cell.name());
        result.unwrap_or_else(fail).table
    };

    // Untimed warm-up: page in both code paths so the first timed pass
    // does not carry the process cold-start (satellite of the
    // `ca-bench parallel` serial-baseline fix).
    {
        let w = &workloads[0];
        let _ = table(w, false);
        let _ = table(w, true);
    }

    let scalar_start = Instant::now();
    let scalar: Vec<DetectionTable> = workloads.iter().map(|w| table(w, false)).collect();
    let scalar_s = scalar_start.elapsed().as_secs_f64();

    let before = ca_obs::global().snapshot();
    let packed_start = Instant::now();
    let packed: Vec<DetectionTable> = workloads.iter().map(|w| table(w, true)).collect();
    let packed_s = packed_start.elapsed().as_secs_f64();
    let delta = ca_obs::global().snapshot().delta(&before);
    let counter = |name: &str| delta.counters.get(name).map(|&(_, v)| v).unwrap_or(0);

    for (w, (p, s)) in workloads.iter().zip(packed.iter().zip(&scalar)) {
        assert_eq!(
            p,
            s,
            "packed detection table differs from scalar for {}",
            w.cell.name()
        );
    }

    let (mut blocks, mut lanes_used) = (0usize, 0usize);
    for w in &workloads {
        let ps = PackedStimulus::pack(w.cell.num_inputs(), &w.stimuli);
        blocks += ps.blocks().len();
        lanes_used += ps.blocks().iter().map(|b| b.occupancy()).sum::<usize>();
    }

    let (cam_files, cam_identical) = cam_byte_identity(&workloads, &scalar, &packed);

    PackedBench {
        cells: workloads.len(),
        defects: workloads.iter().map(|w| w.universe.len()).sum(),
        stimuli: workloads.iter().map(|w| w.stimuli.len()).sum(),
        scalar_s,
        packed_s,
        blocks,
        lanes_used,
        kernels_compiled: counter("ca_sim.kernel.compiled"),
        kernel_fallbacks: counter("ca_sim.kernel.fallback"),
        solver_lanes: counter("ca_sim.packed.lanes"),
        cone_skips: counter("ca_sim.packed.cone_skips"),
        cam_files,
        cam_identical,
    }
}

/// Builds each cell's model from its scalar and from its packed table,
/// as [`CaModel::generate`] builds one, and asserts their `.cam`
/// exports are byte-identical (a `.cam` depends only on the model).
///
/// # Panics
///
/// Panics on any differing document.
fn cam_byte_identity(
    workloads: &[Workload],
    scalar: &[DetectionTable],
    packed: &[DetectionTable],
) -> (usize, bool) {
    let cam = |w: &Workload, table: &DetectionTable| {
        to_cam(&CaModel {
            cell_name: w.cell.name().to_string(),
            num_inputs: w.cell.num_inputs(),
            num_transistors: w.cell.num_transistors(),
            universe: w.universe.clone(),
            rows: table.rows().to_vec(),
            classes: equivalence_classes(&w.universe, table),
            defect_simulations: table.defect_simulations(),
            degraded: false,
        })
    };
    for (w, (s, p)) in workloads.iter().zip(scalar.iter().zip(packed)) {
        assert_eq!(
            cam(w, s),
            cam(w, p),
            "cam export for {} differs between scalar and packed",
            w.cell.name()
        );
    }
    (workloads.len(), true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_obs::parse_json;

    #[test]
    fn json_document_is_well_formed_enough() {
        let bench = PackedBench {
            cells: 12,
            defects: 300,
            stimuli: 500,
            scalar_s: 10.0,
            packed_s: 0.5,
            blocks: 12,
            lanes_used: 500,
            kernels_compiled: 12,
            kernel_fallbacks: 0,
            solver_lanes: 9000,
            cone_skips: 4000,
            cam_files: 12,
            cam_identical: true,
        };
        // The document as the hand-rendered writer before `JsonWriter`
        // produced it for this input.
        let before = "{\n  \"cells\": 12,\n  \"defects\": 300,\n  \"stimuli\": 500,\n  \
                      \"scalar_s\": 10.000,\n  \"packed_s\": 0.500,\n  \"speedup\": 20.00,\n  \
                      \"blocks\": 12,\n  \"lanes_used\": 500,\n  \"lane_occupancy\": 0.6510,\n  \
                      \"kernels_compiled\": 12,\n  \"kernel_fallbacks\": 0,\n  \
                      \"solver_lanes\": 9000,\n  \"cone_skips\": 4000,\n  \"cam_files\": 12,\n  \
                      \"cam_identical\": true\n}\n";
        let json = bench.to_json();
        assert_eq!(parse_json(&json), parse_json(before), "{json}");
        assert!((bench.lane_occupancy() - 500.0 / 768.0).abs() < 1e-9);
        assert!(bench.render().contains("20.0x"));
    }

    #[test]
    fn zero_division_is_guarded() {
        let bench = PackedBench {
            cells: 0,
            defects: 0,
            stimuli: 0,
            scalar_s: 0.0,
            packed_s: 0.0,
            blocks: 0,
            lanes_used: 0,
            kernels_compiled: 0,
            kernel_fallbacks: 0,
            solver_lanes: 0,
            cone_skips: 0,
            cam_files: 0,
            cam_identical: false,
        };
        assert_eq!(bench.speedup(), 0.0);
        assert_eq!(bench.lane_occupancy(), 0.0);
    }
}
