//! `ca-bench` — regenerates the paper's tables and figures.
//!
//! ```text
//! ca-bench <command> [--profile quick|full] [--train TECH] [--eval TECH]
//!
//! commands:
//!   fig1 fig4 fig5 fig6 table1 table2 table3   static paper examples
//!   table4a          same-technology accuracy grid (leave-one-out, 28SOI)
//!   table4b          cross-technology grid (train 28SOI -> eval C28)
//!   table4c          cross-size grid (train 28SOI -> eval C40)
//!   histogram        §V.B accuracy distribution + structural correlation
//!   algos            §II.B classifier comparison
//!   hybrid           §V.C hybrid flow experiment
//!   ablation         accuracy with canonical renaming disabled
//!   importance       random-forest feature importance per CA-matrix column
//!   library          per-technology characterization summaries
//!   parallel         parallel engine + cache benchmark -> BENCH_parallel.json
//!   all              everything above
//!   packed           packed vs. scalar cold-simulation bench -> BENCH_packed.json
//!                    (not part of `all`; asserts detection tables and
//!                    `.cam` exports byte-identical before reporting)
//!   profile          end-to-end flow profile -> BENCH_profile.json
//!                    (not part of `all`; `--quick` = `--profile quick`)
//!   profile-check    validate BENCH_profile.json (or an explicit path)
//!                    against schema ca-obs-profile/1; exits 2 on failure
//!   shard            sharded campaign vs unsharded run -> BENCH_shard.json
//!                    (not part of `all`; `--shards N` sets the shard count;
//!                    fails hard unless exports are byte-identical)
//!   serve            daemon load-gen (closed + open loop) -> BENCH_serve.json
//!                    (not part of `all`; fails hard unless served models
//!                    are byte-identical to the batch golden)
//!   trace            traced sharded campaign + serve round-trip, stitched
//!                    into Chrome/Perfetto JSON -> TRACE_campaign.json
//!                    (not part of `all`; `--stitch DIR` merges existing
//!                    JSONL trace files instead, `--out FILE` renames the
//!                    output; fails hard on any dangling parent link)
//! ```
//!
//! The binary doubles as the campaign's worker executable: spawned with
//! `CA_SHARD_SPEC` naming a worker spec (`ca-bench shard-worker`), it
//! runs one shard and exits before any command parsing.
//!
//! `parallel`, `profile` and `shard` honour `CA_THREADS` for the worker
//! count.
//! With `CA_OBS_PATH` set, buffered observability events are flushed
//! there as JSONL on exit.

// Workspace rule D6 (DESIGN.md §10): document every `unsafe` block.
// Every lint suppression states its reason.
#![deny(
    clippy::undocumented_unsafe_blocks,
    clippy::allow_attributes_without_reason
)]

use ca_bench::corpus::Profile;
use ca_bench::tables;
use ca_netlist::Technology;
use std::time::Instant;

fn parse_tech(s: &str) -> Option<Technology> {
    match s.to_ascii_uppercase().as_str() {
        "C40" => Some(Technology::C40),
        "28SOI" | "SOI28" => Some(Technology::Soi28),
        "C28" => Some(Technology::C28),
        _ => None,
    }
}

fn main() {
    // Worker dispatch first: when the supervisor spawned this process
    // with `CA_SHARD_SPEC` set, it is a shard worker and nothing else.
    // Inert (None) in every normal invocation.
    if let Some(code) = ca_shard::worker::run_from_env() {
        std::process::exit(code);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = String::from("all");
    let mut profile = Profile::Quick;
    let mut shards = 4usize;
    let mut train = Technology::Soi28;
    let mut eval_b = Technology::C28;
    let mut eval_c = Technology::C40;
    let mut check_path = String::from("BENCH_profile.json");
    let mut stitch: Option<String> = None;
    let mut trace_out = String::from("TRACE_campaign.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => profile = Profile::Quick,
            "--profile" => {
                i += 1;
                profile = args
                    .get(i)
                    .and_then(|s| Profile::parse(s))
                    .unwrap_or_else(|| die("--profile expects quick|full"));
            }
            "--shards" => {
                i += 1;
                shards = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| die("--shards expects a positive integer"));
            }
            "--stitch" => {
                i += 1;
                stitch = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--stitch expects a directory")),
                );
            }
            "--out" => {
                i += 1;
                trace_out = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| die("--out expects a file path"));
            }
            "--train" => {
                i += 1;
                train = args
                    .get(i)
                    .and_then(|s| parse_tech(s))
                    .unwrap_or_else(|| die("--train expects C40|28SOI|C28"));
            }
            "--eval" => {
                i += 1;
                let t = args
                    .get(i)
                    .and_then(|s| parse_tech(s))
                    .unwrap_or_else(|| die("--eval expects C40|28SOI|C28"));
                eval_b = t;
                eval_c = t;
            }
            flag if flag.starts_with('-') => die(&format!("unknown flag {flag}")),
            cmd => {
                if command == "profile-check" {
                    // `profile-check [path]`: the word after the command
                    // is the document to validate.
                    check_path = cmd.to_string();
                } else {
                    command = cmd.to_string();
                }
            }
        }
        i += 1;
    }

    let run = |name: &str| command == "all" || command == name;
    let start = Instant::now();
    let mut matched = false;
    if run("fig1") {
        matched = true;
        println!("{}", tables::fig1());
    }
    if run("fig4") {
        matched = true;
        println!("{}", tables::fig4());
    }
    if run("fig5") {
        matched = true;
        println!("{}", tables::fig5());
    }
    if run("fig6") {
        matched = true;
        println!("{}", tables::fig6());
    }
    if run("table1") {
        matched = true;
        println!("{}", tables::table1());
    }
    if run("table2") {
        matched = true;
        println!("{}", tables::table2());
    }
    if run("table3") {
        matched = true;
        println!("{}", tables::table3());
    }
    if run("table4a") {
        matched = true;
        let grid = tables::table_iv_a(profile);
        println!(
            "{}",
            grid.render(&format!(
                "Table IV.a — same technology ({}, leave-one-out, profile {profile:?})",
                train.name()
            ))
        );
    }
    if run("table4b") {
        matched = true;
        let grid = tables::table_iv_cross(train, eval_b, profile);
        println!(
            "{}",
            grid.render(&format!(
                "Table IV.b — train {} -> evaluate {} (profile {profile:?})",
                train.name(),
                eval_b.name()
            ))
        );
    }
    if run("table4c") {
        matched = true;
        let grid = tables::table_iv_cross(train, eval_c, profile);
        println!(
            "{}",
            grid.render(&format!(
                "Table IV.c — train {} -> evaluate {} (profile {profile:?})",
                train.name(),
                eval_c.name()
            ))
        );
    }
    if run("histogram") {
        matched = true;
        println!("{}", tables::accuracy_histogram(train, eval_b, profile));
    }
    if run("algos") {
        matched = true;
        println!("{}", tables::algo_comparison(profile));
    }
    if run("hybrid") {
        matched = true;
        println!("{}", tables::hybrid_experiment(profile));
    }
    if run("ablation") {
        matched = true;
        println!("{}", tables::ablation(profile));
    }
    if run("importance") {
        matched = true;
        println!("{}", tables::feature_importance(profile));
    }
    if run("library") {
        matched = true;
        for tech in Technology::ALL {
            println!("{}", tables::library_report(tech, profile));
        }
    }
    if run("parallel") {
        matched = true;
        let bench = ca_bench::perf::run(profile);
        print!("{}", bench.render());
        write_document("BENCH_parallel.json", &bench.to_json());
    }
    // `packed`, `profile` and `profile-check` are deliberately not part
    // of `all`: they measure the flow (or gate on its artifact) rather
    // than regenerate a paper table.
    if command == "packed" {
        matched = true;
        let bench = ca_bench::packed_bench::run(profile);
        print!("{}", bench.render());
        write_document("BENCH_packed.json", &bench.to_json());
    }
    if command == "profile" {
        matched = true;
        match ca_bench::profiling::run(profile) {
            Ok(fp) => {
                print!("{}", fp.render());
                write_document("BENCH_profile.json", &fp.to_json());
            }
            Err(e) => die(&format!("profile run failed: {e}")),
        }
    }
    if command == "shard" {
        matched = true;
        let bench = ca_bench::shard_bench::run(profile, shards);
        print!("{}", bench.render());
        write_document("BENCH_shard.json", &bench.to_json());
    }
    if command == "serve" {
        matched = true;
        let bench = ca_bench::serve_bench::run(profile);
        print!("{}", bench.render());
        write_document("BENCH_serve.json", &bench.to_json());
    }
    if command == "trace" {
        matched = true;
        let out = std::path::Path::new(&trace_out);
        let result = match &stitch {
            Some(dir) => ca_bench::trace_cmd::stitch_dir(std::path::Path::new(dir), out),
            None => ca_bench::trace_cmd::demo(profile, out),
        };
        match result {
            Ok(summary) => print!("{}", summary.render()),
            Err(e) => die(&format!("trace round-trip failed: {e}")),
        }
    }
    if command == "profile-check" {
        matched = true;
        match std::fs::read_to_string(&check_path) {
            Ok(text) => match ca_obs::validate_profile_json(&text) {
                Ok(()) => ca_obs::info_status(
                    "ca_bench",
                    &format!(
                        "{check_path} is valid ({} required prefixes)",
                        ca_obs::instrumented_prefixes().len()
                    ),
                    &[],
                ),
                Err(e) => die(&format!("{check_path} invalid: {e}")),
            },
            Err(e) => die(&format!("cannot read {check_path}: {e}")),
        }
    }
    if !matched {
        die(&format!(
            "unknown command `{command}` (see the doc comment for the list)"
        ));
    }
    ca_obs::info_status(
        "ca_bench",
        &format!("done in {:.1} s", start.elapsed().as_secs_f64()),
        &[],
    );
    flush_events();
}

/// Writes a bench document atomically (tmp + fsync + rename): a crash
/// mid-bench must never leave a torn JSON for the trend tooling.
fn write_document(path: &str, contents: &str) {
    match ca_store::write_atomic(path, contents) {
        Ok(()) => ca_obs::info_status("ca_bench", &format!("wrote {path}"), &[]),
        Err(e) => die(&format!("cannot write {path}: {e}")),
    }
}

/// Flushes buffered observability events to `CA_OBS_PATH` (if set).
fn flush_events() {
    match ca_obs::flush() {
        Ok(Some(path)) => eprintln!("[ca-bench] events -> {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("[ca-bench] event flush failed: {e}"),
    }
}

fn die(msg: &str) -> ! {
    ca_obs::event(
        ca_obs::Level::Error,
        "ca_bench",
        msg,
        &[],
        ca_obs::Mirror::Never,
    );
    // Plain stderr (not a mirrored event): fatal usage errors must stay
    // visible even under `CA_OBS=off`.
    eprintln!("ca-bench: {msg}");
    flush_events();
    std::process::exit(2);
}
