//! A repeat of a netlist the service has already journaled is answered
//! through the certified donor path: the first answer's `.cam` bytes, a
//! cache hit, and no second journal record.

use ca_core::{CellService, CellVerdict, StoredVerdict};
use ca_defects::GenerateOptions;
use ca_netlist::{generate_library, spice, Cell, Library, LibraryConfig, Technology};
use ca_obs::clock::Deadline;
use ca_sim::SimBudget;
use std::path::{Path, PathBuf};
use std::time::Duration;

const NAND2: &str = "\
.SUBCKT ADHOC A B Z VDD VSS
MP0 Z A VDD VDD pch
MP1 Z B VDD VDD pch
MN0 Z A net0 VSS nch
MN1 net0 B VSS VSS nch
.ENDS
";

const NOR2: &str = "\
.SUBCKT ADHOC A B Z VDD VSS
MP0 net0 A VDD VDD pch
MP1 Z B net0 VDD pch
MN0 Z A VSS VSS nch
MN1 Z B VSS VSS nch
.ENDS
";

fn library() -> Library {
    let mut lib = generate_library(&LibraryConfig::quick(Technology::C40));
    lib.cells.truncate(4);
    lib
}

/// A test's journal path, in a scratch directory of its own that is
/// removed when the test ends — also when it panics.
struct TmpStore(PathBuf);

impl std::ops::Deref for TmpStore {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TmpStore {
    fn drop(&mut self) {
        if let Some(dir) = self.0.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn store(tag: &str) -> TmpStore {
    let dir = std::env::temp_dir().join(format!("ca-service-repeats-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    TmpStore(dir.join(format!("{tag}.caj")))
}

fn open(path: &Path, lib: &Library) -> CellService {
    CellService::open(
        path,
        lib,
        GenerateOptions::default(),
        SimBudget::unlimited(),
    )
    .expect("open service")
}

fn cam(service: &CellService, cell: &Cell) -> String {
    match service.characterize_cell(cell, Deadline::never()) {
        CellVerdict::Model(p) => ca_defects::to_cam(p.model.as_ref().expect("model")),
        other => panic!("{}: {other:?}", cell.name()),
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).expect("store file").len()
}

#[test]
fn repeats_reuse_the_first_answer_without_journaling() {
    let lib = library();
    let path = store("repeats");
    let service = open(&path, &lib);
    let library_cell = &lib.cells[0].cell;
    let inline = spice::parse_cell(NAND2).expect("inline netlist");
    assert!(
        lib.cells.iter().all(|lc| lc.cell.name() != inline.name()),
        "the inline cell is not a library cell"
    );

    let mut firsts = Vec::new();
    for (k, cell) in [library_cell, &inline].into_iter().enumerate() {
        let len = file_len(&path);
        let first = cam(&service, cell);
        assert_eq!(
            service.report().journaled,
            k + 1,
            "the first request journals"
        );
        assert!(file_len(&path) > len, "the first request appends");
        let (journaled, len) = (service.report().journaled, file_len(&path));
        for _ in 0..3 {
            let hits = service.cache_stats().hits;
            assert_eq!(cam(&service, cell), first, "{}", cell.name());
            assert_eq!(service.cache_stats().hits, hits + 1, "a repeat is a hit");
            assert_eq!(service.report().journaled, journaled, "a repeat appended");
            assert_eq!(file_len(&path), len, "the journal grew on a repeat");
        }
        firsts.push((cell.clone(), first));
    }

    // A restart serves the same bytes.
    drop(service);
    let service = open(&path, &lib);
    for (cell, first) in &firsts {
        assert_eq!(&cam(&service, cell), first, "{} after reopen", cell.name());
    }
}

#[test]
fn alternating_netlists_under_one_name_keep_the_store_current() {
    let lib = library();
    let path = store("alternating");
    let service = open(&path, &lib);
    let a = spice::parse_cell(NAND2).expect("netlist A");
    let b = spice::parse_cell(NOR2).expect("netlist B");
    assert_eq!(a.name(), b.name());
    let cam_a = cam(&service, &a);
    let cam_b = cam(&service, &b);
    assert_ne!(cam_a, cam_b);
    // A is no longer the live record once B lands, so it journals again.
    assert_eq!(cam(&service, &a), cam_a);
    assert_eq!(service.report().journaled, 3, "A, B and A again");
    assert_eq!(
        service.lookup(a.name()),
        Some(StoredVerdict::Complete(cam_a.clone()))
    );
    // And now A is current: a further repeat appends nothing.
    assert_eq!(cam(&service, &a), cam_a);
    assert_eq!(service.report().journaled, 3);
}

#[test]
fn a_deadline_does_not_stop_journaling() {
    let lib = library();
    let path = store("deadline");
    let service = open(&path, &lib);
    let cell = &lib.cells[0].cell;
    let deadline = || Deadline::after(Duration::from_secs(600));
    let answer = |service: &CellService| match service.characterize_cell(cell, deadline()) {
        CellVerdict::Model(p) => ca_defects::to_cam(p.model.as_ref().expect("model")),
        other => panic!("{}: {other:?}", cell.name()),
    };
    let first = answer(&service);
    assert_eq!(service.report().journaled, 1, "the first request journals");
    assert_eq!(
        service.lookup(cell.name()),
        Some(StoredVerdict::Complete(first.clone()))
    );
    let len = file_len(&path);
    assert_eq!(answer(&service), first);
    assert_eq!(service.report().journaled, 1, "a repeat appended");
    assert_eq!(file_len(&path), len, "the journal grew on a repeat");
}

#[test]
fn inline_netlists_journaled_before_a_restart_are_not_journaled_again() {
    let lib = library();
    let path = store("inline-restart");
    let inline = spice::parse_cell(NAND2).expect("inline netlist");
    let service = open(&path, &lib);
    let first = cam(&service, &inline);
    assert_eq!(service.report().journaled, 1, "the first request journals");
    drop(service);

    let service = open(&path, &lib);
    let len = file_len(&path);
    for _ in 0..2 {
        assert_eq!(cam(&service, &inline), first, "the answer after reopen");
        assert_eq!(
            service.report().journaled,
            0,
            "a repeat after reopen appended"
        );
        assert_eq!(file_len(&path), len, "the journal grew after reopen");
    }
    assert_eq!(service.cache_stats().hits, 2, "{:?}", service.cache_stats());
}
