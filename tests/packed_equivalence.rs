//! Differential fuzz: the packed bit-parallel engine vs. the scalar
//! solver (DESIGN.md §12).
//!
//! The packed path is only allowed to exist because it is bit-identical
//! to the interpreted one. These tests drive both engines over a random
//! synthesized corpus, `ca_netlist::corrupt` salted variants of it, and
//! random defect injections, asserting identical `SimResult` values per
//! lane, identical `SolveOutcome` classes, and identical detection
//! rows. Generation is seeded through `ca-rng`, so every run exercises
//! the same inputs (no flakiness).

use ca_rng::{Rng, SplitMix64};
use cell_aware::defects::{DefectUniverse, DetectionTable};
use cell_aware::netlist::synth::{
    synthesize, DriveStyle, NetlistStyle, Stage, StageExpr, StagePlan,
};
use cell_aware::netlist::{corrupt_cell, Cell, Corruption, NetId, Terminal, TransistorId};
use cell_aware::sim::packed::{PackedSim, PackedStimulus};
use cell_aware::sim::{
    detection_row, detection_row_scalar, CellKernel, DetectionPolicy, Injection, SimBudget,
    Simulator, Stimulus, Value,
};

/// Number of random plans each property is checked against.
const CASES: u64 = 12;

/// Random single-stage pull-down expression over `n_inputs` pins, with
/// bounded depth.
fn random_stage_expr(rng: &mut SplitMix64, n_inputs: u8, depth: usize) -> StageExpr {
    if depth == 0 || rng.gen_index(3) == 0 {
        return StageExpr::pin(rng.gen_index(n_inputs as usize) as u8);
    }
    let arity = 2 + rng.gen_index(2);
    let children: Vec<StageExpr> = (0..arity)
        .map(|_| random_stage_expr(rng, n_inputs, depth - 1))
        .collect();
    if rng.gen_bool() {
        StageExpr::And(children)
    } else {
        StageExpr::Or(children)
    }
}

/// A random valid plan: one inverting stage, optionally buffered, kept
/// small (≤ 20 transistors) so the exhaustive comparisons stay fast.
fn random_plan(rng: &mut SplitMix64) -> StagePlan {
    loop {
        let n = 2 + rng.gen_index(2) as u8;
        let expr = random_stage_expr(rng, n, 2);
        let mut stages = vec![Stage::new(expr)];
        if rng.gen_bool() {
            stages.push(Stage::new(StageExpr::stage(0)));
        }
        let plan = StagePlan::new(n, stages).expect("constructed plans are valid");
        if plan.num_transistors() <= 20 {
            return plan;
        }
    }
}

/// Runs `check` against `CASES` random synthesized cells from a fixed
/// seed stream.
fn for_random_cells(seed: u64, mut check: impl FnMut(Cell)) {
    let mut rng = SplitMix64::new(seed);
    for _ in 0..CASES {
        let plan = random_plan(&mut rng);
        let s = synthesize(
            "P",
            &plan,
            1,
            DriveStyle::SharedNets,
            &NetlistStyle::default(),
        )
        .expect("valid plan synthesizes");
        check(s.cell);
    }
}

/// A random injection drawn from the same shapes the defect universe
/// uses, plus arbitrary net-net shorts.
fn random_injection(rng: &mut SplitMix64, cell: &Cell) -> Injection {
    const TERMS: [Terminal; 3] = [Terminal::Drain, Terminal::Gate, Terminal::Source];
    let n_t = cell.num_transistors();
    let n_n = cell.nets().len();
    match rng.gen_index(3) {
        0 => Injection::Open {
            transistor: TransistorId(rng.gen_index(n_t) as u32),
            terminal: TERMS[rng.gen_index(3)],
        },
        1 => {
            let a = rng.gen_index(3);
            let b = (a + 1 + rng.gen_index(2)) % 3;
            Injection::Short {
                transistor: TransistorId(rng.gen_index(n_t) as u32),
                a: TERMS[a],
                b: TERMS[b],
            }
        }
        _ => {
            let a = rng.gen_index(n_n);
            let b = (a + 1 + rng.gen_index(n_n - 1)) % n_n;
            Injection::NetShort {
                a: NetId(a as u32),
                b: NetId(b as u32),
            }
        }
    }
}

/// Scalar per-phase net values, in the same shape as
/// `BlockResult::lane_phases`.
fn scalar_phases(cell: &Cell, injection: Injection, stimulus: &Stimulus) -> Vec<Vec<Value>> {
    let result = Simulator::with_injection(cell, injection).run(stimulus);
    (0..result.num_phases())
        .map(|p| {
            (0..cell.nets().len())
                .map(|i| result.value(p, NetId(i as u32)))
                .collect()
        })
        .collect()
}

/// Asserts the packed engine reproduces every scalar net value of every
/// phase, for every stimulus lane, under `injection`.
fn assert_lanes_match(cell: &Cell, injection: Injection, stimuli: &[Stimulus]) {
    let kernel = CellKernel::compile(cell).expect("corpus cells are within kernel limits");
    let packed = PackedStimulus::pack(cell.num_inputs(), stimuli);
    let sim = PackedSim::new(&kernel, injection, None);
    let mut si = 0;
    for block in packed.blocks() {
        let result = sim.run_block(block);
        for lane in 0..block.occupancy() {
            assert_eq!(
                result.lane_phases(lane),
                scalar_phases(cell, injection, &stimuli[si]),
                "cell {} injection {injection} stimulus {si}",
                cell.name()
            );
            si += 1;
        }
    }
}

/// Packed detection tables equal scalar ones over the synthesized
/// corpus (full intra-transistor universe, exhaustive stimuli).
#[test]
fn tables_match_on_synth_corpus() {
    for_random_cells(41, |cell| {
        let universe = DefectUniverse::intra_transistor(&cell);
        let stimuli = Stimulus::all(cell.num_inputs());
        let scalar =
            DetectionTable::generate_scalar(&cell, &universe, &stimuli, DetectionPolicy::default());
        let packed =
            DetectionTable::generate_packed(&cell, &universe, &stimuli, DetectionPolicy::default())
                .expect("corpus cells are within kernel limits");
        assert_eq!(packed, scalar, "cell {}", cell.name());
    });
}

/// Packed detection tables equal scalar ones on every corrupted
/// (structurally pathological) variant the corruptor can produce —
/// including oscillator loops, where both engines must force the same
/// `Xd` values at the iteration cap.
#[test]
fn tables_match_on_corrupted_variants() {
    let mut salt = SplitMix64::new(43);
    for_random_cells(42, |cell| {
        for corruption in Corruption::ALL {
            let Ok(bad) = corrupt_cell(&cell, corruption, salt.next_u64()) else {
                continue;
            };
            let universe = DefectUniverse::intra_transistor(&bad);
            let stimuli = Stimulus::all(bad.num_inputs());
            let scalar = DetectionTable::generate_scalar(
                &bad,
                &universe,
                &stimuli,
                DetectionPolicy::default(),
            );
            let packed = DetectionTable::generate_packed(
                &bad,
                &universe,
                &stimuli,
                DetectionPolicy::default(),
            )
            .expect("corrupted corpus cells are within kernel limits");
            assert_eq!(packed, scalar, "{} on {}", corruption.name(), bad.name());
        }
    });
}

/// Per-lane packed values equal scalar `SimResult` values for random
/// injections, across every phase of every stimulus.
#[test]
fn lane_values_match_under_random_injections() {
    let mut inj_rng = SplitMix64::new(45);
    for_random_cells(44, |cell| {
        let stimuli = Stimulus::all(cell.num_inputs());
        assert_lanes_match(&cell, Injection::None, &stimuli);
        for _ in 0..4 {
            assert_lanes_match(&cell, random_injection(&mut inj_rng, &cell), &stimuli);
        }
    });
}

/// The public `detection_row` dispatcher (packed when allowed) agrees
/// with the scalar reference row for random injections.
#[test]
fn detection_rows_match_per_injection() {
    let mut inj_rng = SplitMix64::new(47);
    for_random_cells(46, |cell| {
        let stimuli = Stimulus::all(cell.num_inputs());
        for _ in 0..3 {
            let injection = random_injection(&mut inj_rng, &cell);
            assert_eq!(
                detection_row(&cell, injection, &stimuli, DetectionPolicy::default()),
                detection_row_scalar(&cell, injection, &stimuli, DetectionPolicy::default()),
                "cell {} injection {injection}",
                cell.name()
            );
        }
    });
}

/// Budgeted generation — including `SolveOutcome` error classes under a
/// reduced iteration cap and truncation-degraded runs — is identical on
/// the packed and the scalar path. Both bodies are called directly, so
/// the comparison never depends on the process-wide engine switch.
#[test]
fn budgeted_outcomes_match_scalar_classes() {
    let budgets = [
        SimBudget::unlimited(),
        SimBudget {
            max_solver_iterations: Some(2),
            ..SimBudget::unlimited()
        },
        SimBudget {
            max_stimuli: Some(5),
            max_defects: Some(7),
            ..SimBudget::unlimited()
        },
    ];
    let mut salt = SplitMix64::new(49);
    for_random_cells(48, |cell| {
        // The oscillator variant exercises the golden-oscillation error
        // path; the pristine cell exercises the success paths.
        let mut cells = vec![cell.clone()];
        if let Ok(bad) = corrupt_cell(&cell, Corruption::OscillatorLoop, salt.next_u64()) {
            cells.push(bad);
        }
        for cell in &cells {
            let universe = DefectUniverse::intra_transistor(cell);
            let stimuli = Stimulus::all(cell.num_inputs());
            for budget in &budgets {
                let scalar = DetectionTable::generate_budgeted_scalar(
                    cell,
                    &universe,
                    &stimuli,
                    DetectionPolicy::default(),
                    budget,
                );
                let packed = DetectionTable::generate_budgeted_packed(
                    cell,
                    &universe,
                    &stimuli,
                    DetectionPolicy::default(),
                    budget,
                )
                .expect("corpus cells are within kernel limits");
                assert_eq!(packed, scalar, "cell {}", cell.name());
            }
        }
    });
}
