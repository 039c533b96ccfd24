//! Determinism of the trace span tree (DESIGN.md §14).
//!
//! Span ids are *derived* — campaign fingerprint, role, and per-frame
//! child counters, with the executor forking contexts per item index —
//! so the same campaign must produce the same `(span, parent, name,
//! cell)` tree at every `CA_THREADS` setting, and a crash-resumed run
//! must rebuild the same structural tree it had before the crash
//! (replayed cells still traverse their spans; only durations differ).
//!
//! ONE test function only: the span events land in the global event
//! sink, so a sibling test running concurrently in this binary would
//! interleave its spans into our drained snapshots.

use ca_bench::corpus::Profile;
use ca_core::{characterize_library_robust, CharCache, Executor, FaultPolicy, Session};
use ca_defects::GenerateOptions;
use ca_netlist::library::generate_library;
use ca_netlist::Technology;
use ca_obs::trace::Placement;
use ca_obs::Span;
use ca_sim::SimBudget;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// `(span, parent, name, cell)` tuples — the structural tree, durations
/// and timestamps excluded. `cell` is the per-cell span's cell-name
/// field, empty for every other span.
type SpanTree = BTreeSet<(String, String, String, String)>;

/// The test's campaign root: a test-only name, so it is opened without
/// the declared-name macros.
const ROOT: &str = "bench_test.campaign";

fn traced_run(library: &ca_netlist::library::Library, store: &Path, threads: usize) -> SpanTree {
    // Discard whatever earlier phases buffered, then capture only this
    // run's events.
    let _ = ca_obs::drain_events();
    {
        let placement = Placement::Root {
            fingerprint: trace_fp(library),
            role: "test",
        };
        let _root = Span::open(&ca_obs::global().timer(ROOT), ROOT, placement);
        characterize_library_robust(
            library,
            GenerateOptions::default(),
            &SimBudget::unlimited(),
            FaultPolicy::SkipAndReport,
            &Executor::with_threads(threads),
            &CharCache::new(),
            Some(&Session::open(store).expect("open session")),
        )
        .expect("robust run succeeds");
    }
    let mut tree = SpanTree::new();
    for line in ca_obs::drain_events() {
        let doc = ca_obs::json::parse(&line).expect("event line parses");
        let field = |key: &str| {
            doc.get(key)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .unwrap_or_default()
        };
        if field("target") == ca_obs::trace::TARGET && field("msg") == "span" {
            tree.insert((field("span"), field("parent"), field("name"), field("cell")));
        }
    }
    tree
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ca-trace-det-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn span_tree_is_identical_across_thread_counts_and_resume() {
    ca_obs::trace::set_enabled(Some(true));
    let dir = scratch("tree");
    let mut library = generate_library(&Profile::Quick.library_config(Technology::C40));
    library.cells.truncate(8);

    let serial = traced_run(&library, &dir.join("serial.caj"), 1);
    let parallel = traced_run(&library, &dir.join("parallel.caj"), 4);
    // A resumed run replays the populated store: same campaign, same
    // derived ids, even though no cell re-simulates.
    let resumed = traced_run(&library, &dir.join("serial.caj"), 4);
    ca_obs::trace::set_enabled(None);
    let _ = std::fs::remove_dir_all(&dir);

    // The tree must actually witness the campaign: one root plus one
    // per-cell span parented under it.
    assert!(
        serial.iter().any(|(_, _, name, _)| name == ROOT),
        "root span missing: {serial:?}"
    );
    let root_id = serial
        .iter()
        .find(|(_, parent, _, _)| parent == "0000000000000000")
        .map(|(span, _, _, _)| span.clone())
        .expect("exactly one root");
    for lc in &library.cells {
        assert!(
            serial
                .iter()
                .any(|(_, parent, name, cell)| name == "ca_core.cell"
                    && cell == lc.cell.name()
                    && *parent == root_id),
            "cell {} has no span under the campaign root",
            lc.cell.name()
        );
    }

    assert_eq!(
        serial, parallel,
        "span tree must be identical at CA_THREADS=1 vs 4"
    );
    assert_eq!(
        serial, resumed,
        "a resumed campaign must rebuild the same span tree"
    );
}

/// Order-sensitive FNV fold of the cell fingerprints — the same
/// derivation the shard supervisor uses for its campaign root, so this
/// test exercises representative trace ids.
fn trace_fp(library: &ca_netlist::library::Library) -> u64 {
    library
        .cells
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |acc, lc| {
            acc.wrapping_mul(0x100_0000_01b3) ^ ca_core::cell_fingerprint(&lc.cell)
        })
}
