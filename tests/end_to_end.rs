//! End-to-end integration: synthesis -> simulation -> conventional CA
//! model generation, across the whole function catalog.

use cell_aware::defects::{Behavior, CaModel, GenerateOptions};
use cell_aware::netlist::library::{base_catalog, generate_library, LibraryConfig};
use cell_aware::netlist::synth::{synthesize, DriveStyle, NetlistStyle};
use cell_aware::netlist::{spice, writer, Technology};
use cell_aware::sim::{Simulator, Stimulus, Value};

/// Every catalog function's synthesized netlist computes its reference
/// Boolean function on all static patterns (golden switch-level sim).
#[test]
fn golden_simulation_matches_reference_function() {
    for template in base_catalog() {
        if template.plan.n_inputs > 4 {
            continue; // keep the exhaustive check fast
        }
        let s = synthesize(
            &template.name,
            &template.plan,
            1,
            DriveStyle::SharedNets,
            &NetlistStyle::default(),
        )
        .expect("catalog synthesizes");
        let sim = Simulator::new(&s.cell);
        let n = s.cell.num_inputs();
        let table = s.function.truth_table(n);
        for p in 0..(1u32 << n) {
            let out = sim.output(&Stimulus::static_pattern(n, p));
            assert_eq!(
                out,
                Value::from_bool(table[p as usize]),
                "{} pattern {p:0width$b}",
                template.name,
                width = n
            );
        }
    }
}

/// Dynamic (two-pattern) golden simulation is consistent with the static
/// truth table at both endpoints.
#[test]
fn dynamic_golden_simulation_consistent_with_static() {
    for template in base_catalog().into_iter().filter(|t| t.plan.n_inputs <= 3) {
        let s = synthesize(
            &template.name,
            &template.plan,
            1,
            DriveStyle::SharedNets,
            &NetlistStyle::default(),
        )
        .expect("catalog synthesizes");
        let sim = Simulator::new(&s.cell);
        let n = s.cell.num_inputs();
        let table = s.function.truth_table(n);
        for stim in Stimulus::all(n).iter().filter(|s| !s.is_static()) {
            let result = sim.run(stim);
            let expected = Value::from_bool(table[stim.final_pattern() as usize]);
            assert_eq!(
                result.final_value(s.cell.output()),
                expected,
                "{} {stim}",
                template.name
            );
        }
    }
}

/// The conventional flow produces sane models for an entire quick library:
/// high coverage, both static and dynamic classes, deterministic output.
#[test]
fn conventional_flow_on_full_quick_library() {
    let lib = generate_library(&LibraryConfig::quick(Technology::C40));
    assert!(!lib.is_empty());
    let mut dynamic_seen = false;
    for lc in &lib.cells {
        let model = CaModel::generate(&lc.cell, GenerateOptions::default());
        assert_eq!(model.universe.len(), lc.cell.num_transistors() * 6);
        // Drive-1 cells are fully observable at switch level. Higher
        // drives have logically-redundant parallel fingers whose opens
        // are only delay faults (outside a timing-free model), so their
        // coverage is structurally lower — see DESIGN.md.
        let floor = if lc.drive == 1 { 0.85 } else { 0.40 };
        assert!(
            model.coverage() > floor,
            "{} coverage {}",
            lc.cell.name(),
            model.coverage()
        );
        dynamic_seen |= model
            .classes
            .iter()
            .any(|c| c.behavior == Behavior::Dynamic);
    }
    assert!(dynamic_seen, "stuck-open style defects must appear");
}

/// SPICE write -> parse -> write is idempotent for every generated cell
/// (net ids may be renumbered by the parser, the netlist text may not).
#[test]
fn library_round_trips_through_spice() {
    let lib = generate_library(&LibraryConfig::quick(Technology::Soi28));
    for lc in &lib.cells {
        let text = writer::to_spice(&lc.cell);
        let parsed = spice::parse_cell(&text).expect("writer output parses");
        assert_eq!(
            writer::to_spice(&parsed),
            text,
            "{} not idempotent",
            lc.cell.name()
        );
        assert_eq!(parsed.num_transistors(), lc.cell.num_transistors());
        assert_eq!(parsed.num_inputs(), lc.cell.num_inputs());
    }
}

/// Models are invariant across repeated generation (determinism).
#[test]
fn conventional_flow_is_deterministic() {
    let lib = generate_library(&LibraryConfig::quick(Technology::C28));
    let cell = &lib.cells[0].cell;
    let a = CaModel::generate(cell, GenerateOptions::default());
    let b = CaModel::generate(cell, GenerateOptions::default());
    assert_eq!(a, b);
}
