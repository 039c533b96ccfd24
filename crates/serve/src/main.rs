//! The `ca-serve` daemon binary.
//!
//! ```text
//! ca-serve --uds /tmp/ca.sock --store /data/lib.caj [--tech c40] \
//!          [--profile quick|full] [--cells N] [--tcp 127.0.0.1:7543] \
//!          [--slots N] [--queue N] [--per-client N] [--client-budget N] \
//!          [--default-deadline-ms N] [--service-delay-ms N]
//! ```
//!
//! Prints `CA-SERVE-READY <endpoints>` once listening and
//! `CA-SERVE-DRAINED` after a graceful drain — fixed protocol markers
//! for harnesses driving the daemon as a child process. `SIGTERM` and
//! `SIGINT` trigger the drain; `SIGKILL` is the crash path the journal
//! recovers from on the next start.

// Workspace rules D5 and D6 (DESIGN.md §10): report through ca-obs, not
// ad-hoc stdout/stderr, and document every `unsafe` block. Every lint
// suppression states its reason.
#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]
#![deny(
    clippy::undocumented_unsafe_blocks,
    clippy::allow_attributes_without_reason
)]
// Workspace rule D9, as in the library: the daemon runs unattended.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use ca_netlist::library::{generate_library, LibraryConfig, Technology};
use ca_obs::protocol_marker;
use ca_serve::server::{Endpoint, ServeConfig, Server};
use ca_serve::signal;
use std::time::Duration;

fn die(detail: &str) -> ! {
    ca_obs::warn("ca_serve.main", "fatal", &[("detail", detail)]);
    let _ = ca_obs::flush();
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    match value.map(|v| v.parse::<T>()) {
        Some(Ok(parsed)) => parsed,
        _ => die(&format!("{flag} needs a valid value")),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut endpoints = Vec::new();
    let mut store = None;
    let mut tech = Technology::C40;
    let mut full_profile = false;
    let mut cells = None;
    let mut config_slots = None;
    let mut queue = None;
    let mut per_client = None;
    let mut client_budget = None;
    let mut default_deadline_ms = None;
    let mut service_delay_ms = 0u64;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--uds" => endpoints.push(Endpoint::Uds(parse("--uds", args.next()))),
            "--tcp" => endpoints.push(Endpoint::Tcp(parse("--tcp", args.next()))),
            "--store" => store = Some(parse::<std::path::PathBuf>("--store", args.next())),
            "--tech" => {
                tech = match args.next().as_deref() {
                    Some("c40") => Technology::C40,
                    Some("soi28") => Technology::Soi28,
                    Some("c28") => Technology::C28,
                    other => die(&format!("--tech must be c40|soi28|c28, got {other:?}")),
                }
            }
            "--profile" => {
                full_profile = match args.next().as_deref() {
                    Some("quick") => false,
                    Some("full") => true,
                    other => die(&format!("--profile must be quick|full, got {other:?}")),
                }
            }
            "--cells" => cells = Some(parse::<usize>("--cells", args.next())),
            "--slots" => config_slots = Some(parse::<usize>("--slots", args.next())),
            "--queue" => queue = Some(parse::<usize>("--queue", args.next())),
            "--per-client" => per_client = Some(parse::<usize>("--per-client", args.next())),
            "--client-budget" => client_budget = Some(parse::<u64>("--client-budget", args.next())),
            "--default-deadline-ms" => {
                default_deadline_ms = Some(parse::<u64>("--default-deadline-ms", args.next()))
            }
            "--service-delay-ms" => {
                service_delay_ms = parse::<u64>("--service-delay-ms", args.next())
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    let Some(store) = store else {
        die("--store is required");
    };
    if endpoints.is_empty() {
        die("at least one --uds or --tcp endpoint is required");
    }
    let lib_config = if full_profile {
        LibraryConfig::full(tech)
    } else {
        LibraryConfig::quick(tech)
    };
    let mut library = generate_library(&lib_config);
    if let Some(n) = cells {
        library.cells.truncate(n);
    }
    let mut config = ServeConfig::new(store, library);
    if let Some(slots) = config_slots {
        config.admission.slots = slots.max(1);
    } else {
        config.admission.slots = ca_core::Executor::from_env().threads().max(1);
    }
    if let Some(queue) = queue {
        config.admission.queue = queue;
    }
    if let Some(per_client) = per_client {
        config.admission.per_client = per_client.max(1);
    }
    config.admission.client_budget = client_budget;
    config.default_deadline = default_deadline_ms.map(Duration::from_millis);
    config.service_delay = Duration::from_millis(service_delay_ms);

    signal::install();
    let server = match Server::start(config, &endpoints) {
        Ok(server) => server,
        Err(e) => die(&e.to_string()),
    };
    let mut ready = String::from("CA-SERVE-READY");
    if let Some(path) = server.uds_path() {
        ready.push_str(&format!(" uds={}", path.display()));
    }
    if let Some(addr) = server.tcp_addr() {
        ready.push_str(&format!(" tcp={addr}"));
    }
    protocol_marker(&ready);

    while !signal::termination_requested() && !server.draining() {
        std::thread::sleep(Duration::from_millis(25));
    }
    server.shutdown();
    protocol_marker("CA-SERVE-DRAINED");
    // Trace spans and structured events buffered in the sink survive
    // only if flushed before exit (CA_OBS_PATH picks the file).
    let _ = ca_obs::flush();
}
