//! End-to-end robustness matrix for the ca-serve daemon.
//!
//! In-process tests drive a [`Server`] over real sockets for the
//! admission/deadline/protocol behavior; the process tests spawn the
//! actual `ca-serve` binary on a Unix-domain socket and exercise the
//! crash matrix: SIGTERM drains cleanly (in-flight work journaled, exit
//! 0, `CA-SERVE-DRAINED` emitted), SIGKILL mid-campaign loses nothing a
//! restart cannot recover, and the served models stay byte-identical to
//! a batch golden run throughout.

use ca_core::{
    characterize_library_robust, export_cam_with, CellService, CharCache, Executor, FaultPolicy,
};
use ca_defects::GenerateOptions;
use ca_netlist::library::{generate_library, Library, LibraryConfig};
use ca_netlist::Technology;
use ca_serve::admission::AdmissionConfig;
use ca_serve::protocol::{ErrorKind, ModelSource, Response};
use ca_serve::server::{Endpoint, ServeConfig, Server};
use ca_serve::ServeClient;
use ca_sim::SimBudget;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ca-serve-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn tiny_library(cells: usize) -> Library {
    let mut lib = generate_library(&LibraryConfig::quick(Technology::C40));
    lib.cells.truncate(cells);
    lib
}

fn config(store: &Path, cells: usize) -> ServeConfig {
    ServeConfig::new(store, tiny_library(cells))
}

fn connect(server: &Server) -> ServeClient {
    let addr = server.tcp_addr().expect("tcp endpoint");
    ServeClient::connect_tcp(addr).expect("connect")
}

// ---------------------------------------------------------------------
// In-process: protocol, admission, deadlines
// ---------------------------------------------------------------------

#[test]
fn request_response_lookup_and_stats_over_tcp() {
    let dir = scratch("basic");
    let server = Server::start(
        config(&dir.join("s.caj"), 3),
        &[Endpoint::Tcp("127.0.0.1:0".into())],
    )
    .expect("start");
    let lib = tiny_library(3);
    let mut client = connect(&server);
    assert!(client.ping(7).expect("ping"));
    // Characterize every library cell by name; collect served bytes.
    for lc in &lib.cells {
        match client
            .characterize("it-basic", lc.cell.name(), 0)
            .expect("characterize")
        {
            Response::Model { cell, cam, .. } => {
                assert_eq!(cell, lc.cell.name());
                assert!(!cam.is_empty());
            }
            other => panic!("{}: {other:?}", lc.cell.name()),
        }
    }
    // Snapshot lookups serve the journaled bytes without simulation.
    match client.lookup(lib.cells[0].cell.name()).expect("lookup") {
        Response::Model { source, .. } => assert_eq!(source, ModelSource::Store),
        other => panic!("{other:?}"),
    }
    match client.lookup("NO_SUCH_CELL").expect("lookup") {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::UnknownCell),
        other => panic!("{other:?}"),
    }
    // Unknown characterize target and empty client are structured.
    match client
        .characterize("it-basic", "NO_SUCH_CELL", 0)
        .expect("c")
    {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::UnknownCell),
        other => panic!("{other:?}"),
    }
    match client
        .characterize("", lib.cells[0].cell.name(), 0)
        .expect("c")
    {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::BadRequest),
        other => panic!("{other:?}"),
    }
    match client.stats().expect("stats") {
        Response::Stats { body } => {
            assert!(body.contains("ca_serve.admitted"), "{body}");
            assert!(body.contains("session.journaled"), "{body}");
        }
        other => panic!("{other:?}"),
    }
    server.shutdown();
}

/// The `session.journaled` line of the daemon's `Stats` frame.
fn journaled(client: &mut ServeClient) -> usize {
    match client.stats().expect("stats") {
        Response::Stats { body } => body
            .lines()
            .find_map(|line| line.strip_prefix("session.journaled "))
            .and_then(|n| n.trim().parse().ok())
            .unwrap_or_else(|| panic!("no session.journaled line in {body}")),
        other => panic!("{other:?}"),
    }
}

#[test]
fn repeated_rounds_journal_each_cell_once() {
    let dir = scratch("repeats");
    let cells = 3;
    let server = Server::start(
        config(&dir.join("s.caj"), cells),
        &[Endpoint::Tcp("127.0.0.1:0".into())],
    )
    .expect("start");
    let lib = tiny_library(cells);
    let mut client = connect(&server);
    let mut first: BTreeMap<String, String> = BTreeMap::new();
    for round in 0..2 {
        for lc in &lib.cells {
            match client
                .characterize("it-repeats", lc.cell.name(), 0)
                .expect("characterize")
            {
                Response::Model { cell, cam, .. } => {
                    assert_eq!(
                        first.entry(cell.clone()).or_insert(cam.clone()),
                        &cam,
                        "{cell}"
                    );
                }
                other => panic!("{}: {other:?}", lc.cell.name()),
            }
        }
        assert_eq!(
            journaled(&mut client),
            cells,
            "round {round}: a repeat of a journaled cell appended"
        );
    }
    server.shutdown();
}

#[test]
fn malformed_and_hostile_frames_get_structured_errors() {
    let dir = scratch("hostile");
    let server = Server::start(
        config(&dir.join("s.caj"), 1),
        &[Endpoint::Tcp("127.0.0.1:0".into())],
    )
    .expect("start");
    let addr = server.tcp_addr().expect("tcp");
    // A well-framed frame whose payload is garbage: BadRequest, then
    // the server closes (a desynced stream is not guessed at).
    {
        let mut raw = std::net::TcpStream::connect(addr).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        raw.write_all(&ca_store::frame::encode(b"not a message"))
            .expect("write");
        let response = ca_serve::protocol::read_response(&mut raw)
            .expect("decode")
            .expect("response before close");
        match response {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::BadRequest),
            other => panic!("{other:?}"),
        }
    }
    // A hostile length prefix (2 GiB): rejected before allocation,
    // answered, closed — the server survives both.
    {
        let mut raw = std::net::TcpStream::connect(addr).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        raw.write_all(&(u32::MAX / 2).to_le_bytes()).expect("write");
        raw.write_all(&[0u8; 12]).expect("write");
        let response = ca_serve::protocol::read_response(&mut raw)
            .expect("decode")
            .expect("response before close");
        assert!(matches!(response, Response::Error { .. }), "{response:?}");
    }
    // The server still serves normal traffic afterwards.
    let mut client = connect(&server);
    assert!(client.ping(1).expect("ping"));
    server.shutdown();
}

#[test]
fn overload_sheds_with_structured_frames_and_no_panics() {
    let dir = scratch("overload");
    let mut cfg = config(&dir.join("s.caj"), 2);
    cfg.admission = AdmissionConfig {
        slots: 1,
        queue: 1,
        per_client: 8,
        client_budget: None,
    };
    cfg.service_delay = Duration::from_millis(250);
    let server = Server::start(cfg, &[Endpoint::Tcp("127.0.0.1:0".into())]).expect("start");
    let addr = server.tcp_addr().expect("tcp");
    let lib = tiny_library(2);
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let name = lib.cells[i % 2].cell.name().to_string();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect_tcp(addr).expect("connect");
                client
                    .characterize(&format!("load-{i}"), &name, 0)
                    .expect("every request gets an answer")
            })
        })
        .collect();
    let mut models = 0;
    let mut shed = 0;
    for handle in handles {
        match handle.join().expect("no client thread panics") {
            Response::Model { .. } => models += 1,
            Response::Error { kind, .. } => {
                assert_eq!(kind, ErrorKind::Overloaded, "only overload sheds here");
                shed += 1;
            }
            other => panic!("{other:?}"),
        }
    }
    assert!(models >= 1, "someone must be served");
    assert!(shed >= 1, "slots=1/queue=1 under 6 clients must shed");
    server.shutdown();
}

#[test]
fn per_client_lifetime_budget_is_enforced() {
    let dir = scratch("quota");
    let mut cfg = config(&dir.join("s.caj"), 1);
    cfg.admission.client_budget = Some(1);
    let server = Server::start(cfg, &[Endpoint::Tcp("127.0.0.1:0".into())]).expect("start");
    let lib = tiny_library(1);
    let name = lib.cells[0].cell.name();
    let mut client = connect(&server);
    assert!(matches!(
        client.characterize("quota-a", name, 0).expect("first"),
        Response::Model { .. }
    ));
    match client.characterize("quota-a", name, 0).expect("second") {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::QuotaExceeded),
        other => panic!("{other:?}"),
    }
    // A different client identity still gets served.
    assert!(matches!(
        client.characterize("quota-b", name, 0).expect("third"),
        Response::Model { .. }
    ));
    server.shutdown();
}

#[test]
fn queue_deadline_sheds_instead_of_serving_late() {
    let dir = scratch("queue-deadline");
    let mut cfg = config(&dir.join("s.caj"), 2);
    cfg.admission.slots = 1;
    cfg.service_delay = Duration::from_millis(400);
    let server = Server::start(cfg, &[Endpoint::Tcp("127.0.0.1:0".into())]).expect("start");
    let addr = server.tcp_addr().expect("tcp");
    let lib = tiny_library(2);
    let slow = lib.cells[0].cell.name().to_string();
    let blocked = lib.cells[1].cell.name().to_string();
    let leader = std::thread::spawn(move || {
        let mut client = ServeClient::connect_tcp(addr).expect("connect");
        client.characterize("dl-leader", &slow, 0).expect("leader")
    });
    std::thread::sleep(Duration::from_millis(100));
    // The single slot is busy; a 20ms deadline cannot be met in queue.
    let mut client = connect(&server);
    match client
        .characterize("dl-waiter", &blocked, 20)
        .expect("waiter")
    {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::DeadlineExceeded),
        other => panic!("{other:?}"),
    }
    assert!(matches!(
        leader.join().expect("leader thread"),
        Response::Model { .. }
    ));
    // Nothing the deadline touched was journaled: only the leader's cell.
    assert_eq!(server.service().report().journaled, 1);
    server.shutdown();
}

#[test]
fn drain_request_stops_admissions_and_finishes_in_flight() {
    let dir = scratch("drain-req");
    let store = dir.join("s.caj");
    let server =
        Server::start(config(&store, 2), &[Endpoint::Tcp("127.0.0.1:0".into())]).expect("start");
    let lib = tiny_library(2);
    let mut client = connect(&server);
    assert!(matches!(
        client
            .characterize("drain", lib.cells[0].cell.name(), 0)
            .expect("pre-drain"),
        Response::Model { .. }
    ));
    assert!(matches!(client.drain().expect("drain"), Response::Draining));
    // New work on a fresh connection is refused with a typed frame
    // while the listener is still up, or the connection is refused once
    // it is gone — both are clean drain behaviors.
    if let Ok(mut late) = ServeClient::connect_tcp(server.tcp_addr().expect("tcp")) {
        match late.characterize("late", lib.cells[1].cell.name(), 0) {
            Ok(Response::Error { kind, .. }) => assert_eq!(kind, ErrorKind::Draining),
            Ok(other) => panic!("{other:?}"),
            Err(_) => {} // closed mid-handshake by the drain
        }
    }
    server.shutdown();
    // The drained store resumes: the pre-drain model is reused.
    let service = CellService::open(
        &store,
        &tiny_library(2),
        GenerateOptions::default(),
        SimBudget::unlimited(),
        2,
    )
    .expect("reopen");
    assert_eq!(service.report().reused_complete, 1);
}

// ---------------------------------------------------------------------
// Process level: SIGTERM drain, SIGKILL + restart byte-identity
// ---------------------------------------------------------------------

struct Daemon {
    child: Child,
    reader: BufReader<std::process::ChildStdout>,
}

fn spawn_daemon(store: &Path, uds: &Path, cells: usize, extra: &[&str]) -> Daemon {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ca-serve"));
    cmd.args([
        "--uds",
        &uds.display().to_string(),
        "--store",
        &store.display().to_string(),
        "--cells",
        &cells.to_string(),
        "--slots",
        "2",
    ])
    .args(extra)
    .stdout(Stdio::piped())
    .stderr(Stdio::null());
    let mut child = cmd.spawn().expect("spawn ca-serve");
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    // Wait for the ready marker with a coarse watchdog.
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("daemon stdout");
        assert!(n > 0, "daemon exited before CA-SERVE-READY");
        if line.contains("CA-SERVE-READY") {
            break;
        }
    }
    Daemon { child, reader }
}

impl Daemon {
    fn connect(&self, uds: &Path) -> ServeClient {
        for _ in 0..100 {
            if let Ok(client) = ServeClient::connect_uds(uds) {
                return client;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("daemon never accepted on {}", uds.display());
    }

    fn sigterm(&self) {
        let status = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("kill -TERM");
        assert!(status.success());
    }

    /// Waits for exit and returns (exit success, remaining stdout).
    fn wait(mut self) -> (bool, String) {
        let mut rest = String::new();
        let (tx, rx) = std::sync::mpsc::channel();
        let mut reader = self.reader;
        std::thread::spawn(move || {
            let mut buffered = String::new();
            let _ = std::io::Read::read_to_string(&mut reader, &mut buffered);
            let _ = tx.send(buffered);
        });
        if let Ok(buffered) = rx.recv_timeout(Duration::from_secs(120)) {
            rest.push_str(&buffered);
        }
        let status = self.child.wait().expect("wait");
        (status.success(), rest)
    }
}

/// The batch golden: cell name → `.cam` bytes, straight through the
/// robust driver with no store and no deadlines.
fn golden_cams(cells: usize) -> BTreeMap<String, String> {
    let outcome = characterize_library_robust(
        &tiny_library(cells),
        GenerateOptions::default(),
        &SimBudget::unlimited(),
        FaultPolicy::SkipAndReport,
        &Executor::from_env(),
        &CharCache::new(),
        None,
    )
    .expect("golden run");
    export_cam_with(&outcome.prepared, true)
        .into_iter()
        .map(|(file, body)| (file.trim_end_matches(".cam").to_string(), body))
        .collect()
}

#[test]
fn daemon_sigterm_drains_cleanly_and_store_resumes() {
    let dir = scratch("sigterm");
    let store = dir.join("served.caj");
    let uds = dir.join("ca.sock");
    let cells = 3;
    let daemon = spawn_daemon(&store, &uds, cells, &[]);
    let mut client = daemon.connect(&uds);
    let golden = golden_cams(cells);
    let lib = tiny_library(cells);
    for lc in &lib.cells {
        match client
            .characterize("sigterm-it", lc.cell.name(), 0)
            .expect("serve")
        {
            Response::Model { cell, cam, .. } => {
                assert_eq!(golden.get(&cell).expect("golden has cell"), &cam);
            }
            other => panic!("{other:?}"),
        }
    }
    daemon.sigterm();
    let (clean, stdout) = daemon.wait();
    assert!(clean, "SIGTERM must exit 0");
    assert!(stdout.contains("CA-SERVE-DRAINED"), "{stdout}");
    assert!(!uds.exists(), "drain removes the socket file");
    // Everything served before the drain was journaled.
    let service = CellService::open(
        &store,
        &lib,
        GenerateOptions::default(),
        SimBudget::unlimited(),
        2,
    )
    .expect("reopen");
    assert_eq!(service.report().reused_complete, cells);
}

#[test]
fn daemon_sigkill_mid_campaign_resumes_byte_identical() {
    let dir = scratch("sigkill");
    let store = dir.join("served.caj");
    let uds = dir.join("ca.sock");
    let cells = 5;
    let golden = golden_cams(cells);
    let lib = tiny_library(cells);

    // Phase 1: serve part of the library, then SIGKILL — no drain, no
    // destructors; whatever the journal holds is what survives.
    let mut daemon = spawn_daemon(&store, &uds, cells, &["--service-delay-ms", "25"]);
    let mut client = daemon.connect(&uds);
    for lc in lib.cells.iter().take(2) {
        match client
            .characterize("kill-it", lc.cell.name(), 0)
            .expect("serve")
        {
            Response::Model { cell, cam, .. } => {
                assert_eq!(golden.get(&cell).expect("golden"), &cam);
            }
            other => panic!("{other:?}"),
        }
    }
    daemon.child.kill().expect("SIGKILL");
    let _ = daemon.child.wait();

    // Phase 2: a fresh daemon over the same store recovers the journal
    // (torn tail included) and serves the whole library byte-identical
    // to the batch golden — reusing what phase 1 journaled.
    let daemon = spawn_daemon(&store, &uds, cells, &[]);
    let mut client = daemon.connect(&uds);
    for lc in &lib.cells {
        match client
            .characterize("kill-it-2", lc.cell.name(), 0)
            .expect("serve")
        {
            Response::Model { cell, cam, .. } => {
                assert_eq!(
                    golden.get(&cell).expect("golden"),
                    &cam,
                    "{cell} diverged after SIGKILL+restart"
                );
            }
            other => panic!("{other:?}"),
        }
    }
    // Drain over the wire: the daemon acks, finishes, exits 0.
    assert!(matches!(client.drain().expect("drain"), Response::Draining));
    drop(client);
    let (clean, stdout) = daemon.wait();
    assert!(clean, "wire drain must exit 0");
    assert!(stdout.contains("CA-SERVE-DRAINED"), "{stdout}");

    // The journal now reuses everything on a third open.
    let service = CellService::open(
        &store,
        &lib,
        GenerateOptions::default(),
        SimBudget::unlimited(),
        2,
    )
    .expect("reopen");
    assert_eq!(service.report().reused_complete, cells);
}
