//! `ca-bench trace` — campaign-wide trace round-trip and the
//! Chrome/Perfetto stitcher.
//!
//! Two modes:
//!
//! - **Demo / CI gate** (no `--stitch`): runs a quick *sharded*
//!   campaign (supervisor + real worker processes) plus one `ca-serve`
//!   request with tracing forced on, flushes every process's JSONL
//!   event file, stitches them into a single Chrome `trace_event` JSON
//!   (`TRACE_campaign.json`, loadable in `ui.perfetto.dev` or
//!   `chrome://tracing`), and validates the result: every span's
//!   parent must exist, worker spans must nest under supervisor
//!   shard-attempt spans, and the serve request must carry its
//!   queue/service sub-spans. Any violation is a hard failure.
//! - **Stitch** (`--stitch DIR [--out FILE]`): merges the `*.jsonl`
//!   trace files already in `DIR` — e.g. a real campaign's work
//!   directory — into one Chrome trace, validating parent-link
//!   closure only.
//!
//! Clock alignment: every traced process emits one `anchor` event
//! pairing its monotonic trace clock (`mono_us`) with the sink's
//! unix-epoch timestamp (`ts_us`). The stitcher shifts each process's
//! span timestamps by `ts_us - mono_us`, placing all processes on one
//! epoch timeline (DESIGN.md §14).

// The stitcher feeds a CI gate; a stray unwrap would abort the run
// instead of reporting the failure.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::corpus::Profile;
use ca_netlist::library::generate_library;
use ca_netlist::Technology;
use ca_obs::json::{parse, JsonValue, JsonWriter};
use ca_obs::trace::SPAN_EVENT_KEYS;
use ca_shard::supervisor::{run_campaign, CampaignConfig, Spawner};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// One span parsed out of a per-process JSONL file, with its start
/// already shifted onto the shared epoch timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Trace id, 16 hex digits.
    pub trace: String,
    /// Span id, 16 hex digits.
    pub span: String,
    /// Parent span id, 16 hex digits; all zeros for a root.
    pub parent: String,
    /// Span name (`campaign`, `shard_attempt`, `worker`, `request`...).
    pub name: String,
    /// Epoch-aligned start, microseconds.
    pub ts_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Emitting process id (from that process's anchor event).
    pub pid: u64,
    /// The span's own fields (a per-cell span's `cell`), carried into
    /// the Chrome event's `args`.
    pub fields: Vec<(String, String)>,
}

/// What a stitch run found and wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// JSONL files read.
    pub files: usize,
    /// Distinct emitting processes (anchor events seen).
    pub processes: usize,
    /// Spans stitched.
    pub spans: usize,
    /// Root spans (all-zero parent).
    pub roots: usize,
    /// Where the Chrome trace was written.
    pub out: PathBuf,
}

impl TraceSummary {
    /// Human-readable summary.
    pub fn render(&self) -> String {
        format!(
            "trace stitch — {} file(s), {} process(es), {} span(s), {} root(s)\n  \
             wrote {} (open in ui.perfetto.dev or chrome://tracing)\n",
            self.files,
            self.processes,
            self.spans,
            self.roots,
            self.out.display()
        )
    }
}

const ZERO_ID: &str = "0000000000000000";

fn str_field<'a>(line: &'a JsonValue, key: &str) -> Option<&'a str> {
    line.get(key).and_then(|v| v.as_str())
}

fn num_field(line: &JsonValue, key: &str) -> Option<u64> {
    // Span/anchor payload fields are flat strings; the sink's own
    // `ts_us` is a JSON number. Accept both.
    line.get(key)
        .and_then(|v| v.as_u64().or_else(|| v.as_str()?.trim().parse().ok()))
}

/// Parses one process's JSONL trace file into epoch-aligned spans.
/// Returns the spans and the process id, or `None` spans when the file
/// holds no trace events at all (a plain event log is not an error).
fn parse_file(path: &Path, text: &str) -> Result<(Vec<SpanRec>, Option<u64>), String> {
    let name = path.display();
    // Pass 1: the anchor pairs this process's mono clock with epoch time.
    let mut offset: Option<(i64, u64)> = None; // (ts_us - mono_us, pid)
    let mut raw_spans = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = parse(line).map_err(|e| format!("{name}:{}: {e}", lineno + 1))?;
        if str_field(&doc, "target") != Some(ca_obs::trace::TARGET) {
            continue;
        }
        match str_field(&doc, "msg") {
            Some("anchor") => {
                let ts = num_field(&doc, "ts_us")
                    .ok_or_else(|| format!("{name}:{}: anchor without ts_us", lineno + 1))?;
                let mono = num_field(&doc, "mono_us")
                    .ok_or_else(|| format!("{name}:{}: anchor without mono_us", lineno + 1))?;
                let pid = num_field(&doc, "pid")
                    .ok_or_else(|| format!("{name}:{}: anchor without pid", lineno + 1))?;
                offset = Some((ts as i64 - mono as i64, pid));
            }
            Some("span") => {
                let field = |key: &str| {
                    str_field(&doc, key)
                        .map(str::to_string)
                        .ok_or_else(|| format!("{name}:{}: span without {key}", lineno + 1))
                };
                raw_spans.push((
                    field("trace")?,
                    field("span")?,
                    field("parent")?,
                    field("name")?,
                    num_field(&doc, "t0_us")
                        .ok_or_else(|| format!("{name}:{}: span without t0_us", lineno + 1))?,
                    num_field(&doc, "dur_us")
                        .ok_or_else(|| format!("{name}:{}: span without dur_us", lineno + 1))?,
                    doc.as_object()
                        .into_iter()
                        .flatten()
                        .filter(|(key, _)| !SPAN_EVENT_KEYS.contains(&key.as_str()))
                        .filter_map(|(key, value)| Some((key.clone(), value.as_str()?.to_string())))
                        .collect(),
                ));
            }
            _ => {}
        }
    }
    if raw_spans.is_empty() {
        return Ok((Vec::new(), offset.map(|(_, pid)| pid)));
    }
    let Some((shift, pid)) = offset else {
        return Err(format!("{name}: has spans but no clock anchor"));
    };
    let spans = raw_spans
        .into_iter()
        .map(
            |(trace, span, parent, name, t0_us, dur_us, fields)| SpanRec {
                trace,
                span,
                parent,
                name,
                ts_us: (t0_us as i64 + shift).max(0) as u64,
                dur_us,
                pid,
                fields,
            },
        )
        .collect();
    Ok((spans, Some(pid)))
}

/// Reads every `*.jsonl` file under `dir` (sorted by name, so output
/// is deterministic for a fixed input set).
///
/// # Errors
///
/// I/O failures, unparseable lines, or a span file with no anchor.
pub fn collect_dir(dir: &Path) -> Result<(Vec<SpanRec>, usize, usize), String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "jsonl"))
        .collect();
    paths.sort();
    let mut spans = Vec::new();
    let mut pids = BTreeSet::new();
    let files = paths.len();
    for path in &paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let (file_spans, pid) = parse_file(path, &text)?;
        spans.extend(file_spans);
        if let Some(pid) = pid {
            pids.insert(pid);
        }
    }
    Ok((spans, files, pids.len()))
}

/// Parent-link closure: every non-root parent id must name a span that
/// was actually emitted. A dangling parent means a propagation edge is
/// broken (or a process's file is missing from the stitch set).
///
/// # Errors
///
/// Names the first dangling edge.
pub fn validate_closure(spans: &[SpanRec]) -> Result<(), String> {
    let ids: BTreeSet<&str> = spans.iter().map(|s| s.span.as_str()).collect();
    for span in spans {
        if span.parent != ZERO_ID && !ids.contains(span.parent.as_str()) {
            return Err(format!(
                "span {} ({}) has dangling parent {}",
                span.span, span.name, span.parent
            ));
        }
    }
    Ok(())
}

/// Requires at least one `child`-named span whose parent is a
/// `parent`-named span — the structural edges the demo campaign must
/// produce (worker under shard_attempt, queue/service under request).
fn require_edge(spans: &[SpanRec], child: &str, parent: &str) -> Result<(), String> {
    let parents: BTreeSet<&str> = spans
        .iter()
        .filter(|s| s.name == parent)
        .map(|s| s.span.as_str())
        .collect();
    let found = spans
        .iter()
        .any(|s| s.name == child && parents.contains(s.parent.as_str()));
    if found {
        Ok(())
    } else {
        Err(format!("no `{child}` span nests under a `{parent}` span"))
    }
}

/// Renders the Chrome `trace_event` JSON (object form, `X` complete
/// events plus one `process_name` metadata record per process).
pub fn chrome_json(spans: &[SpanRec]) -> String {
    let pids: BTreeSet<u64> = spans.iter().map(|s| s.pid).collect();
    JsonWriter::compact()
        .object(|w| {
            w.key("traceEvents").array(|w| {
                for pid in pids {
                    w.object(|w| {
                        w.key("name").string("process_name").key("ph").string("M");
                        w.key("pid").u64(pid).key("tid").u64(pid);
                        w.key("args").object(|w| {
                            w.key("name").string(&format!("pid {pid}"));
                        });
                    });
                }
                for span in spans {
                    w.object(|w| {
                        w.key("name").string(&span.name).key("ph").string("X");
                        w.key("ts").u64(span.ts_us).key("dur").u64(span.dur_us);
                        w.key("pid").u64(span.pid).key("tid").u64(span.pid);
                        w.key("args").object(|w| {
                            w.key("trace").string(&span.trace);
                            w.key("span").string(&span.span);
                            w.key("parent").string(&span.parent);
                            for (key, value) in &span.fields {
                                w.key(key).string(value);
                            }
                        });
                    });
                }
            });
        })
        .finish()
}

/// Stitches `dir`'s JSONL trace files into a Chrome trace at `out`.
///
/// # Errors
///
/// Collection failures, an empty span set, a dangling parent link, or
/// failure to write `out`.
pub fn stitch_dir(dir: &Path, out: &Path) -> Result<TraceSummary, String> {
    let (mut spans, files, processes) = collect_dir(dir)?;
    if spans.is_empty() {
        return Err(format!(
            "no trace spans found in {} (was the campaign run with CA_TRACE=1?)",
            dir.display()
        ));
    }
    spans.sort_by(|a, b| (a.ts_us, &a.span).cmp(&(b.ts_us, &b.span)));
    validate_closure(&spans)?;
    ca_store::write_atomic(out, chrome_json(&spans))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    Ok(TraceSummary {
        files,
        processes,
        spans: spans.len(),
        roots: spans.iter().filter(|s| s.parent == ZERO_ID).count(),
        out: out.to_path_buf(),
    })
}

/// The demo / CI-gate mode: quick sharded campaign + one served
/// request, traced end to end, stitched, and structurally validated.
///
/// # Errors
///
/// Campaign, serve, stitch or validation failures — each rendered.
pub fn demo(profile: Profile, out: &Path) -> Result<TraceSummary, String> {
    // Forcing tracing on (rather than requiring CA_TRACE in our own
    // env) keeps the gate self-contained; the supervisor still injects
    // CA_TRACE=1 into workers because `enabled()` honours the override.
    ca_obs::trace::set_enabled(Some(true));
    let result = demo_inner(profile, out);
    ca_obs::trace::set_enabled(None);
    result
}

fn demo_inner(profile: Profile, out: &Path) -> Result<TraceSummary, String> {
    let work_dir = std::env::temp_dir().join(format!("ca-bench-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work_dir);
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("cannot create {}: {e}", work_dir.display()))?;

    // A small sharded campaign with real worker processes: ≥2 shards so
    // cross-process propagation is actually exercised.
    let mut library = generate_library(&profile.library_config(Technology::C40));
    library.cells.truncate(match profile {
        Profile::Quick => 6,
        Profile::Full => 24,
    });
    let mut config = CampaignConfig::new(2);
    config.heartbeat_timeout = Duration::from_secs(30);
    let spawner = Spawner::current_exe(vec!["shard-worker".into()])
        .map_err(|e| format!("cannot locate own executable: {e}"))?;
    run_campaign(&library, &config, &spawner, &work_dir.join("campaign"))
        .map_err(|e| format!("traced campaign failed: {e}"))?;

    // One served request through a live in-process daemon, so the wire
    // propagation edge (client rpc span -> server request span) is in
    // the same stitched trace.
    serve_once(&library, &work_dir)?;

    // The supervisor + serve spans live in this process's sink; worker
    // processes already flushed their own files into the campaign dir.
    ca_obs::flush_to(&work_dir.join("campaign").join("supervisor.trace.jsonl"))
        .map_err(|e| format!("cannot flush supervisor events: {e}"))?;

    let summary = stitch_dir(&work_dir.join("campaign"), out)?;
    let (spans, _, _) = collect_dir(&work_dir.join("campaign"))?;
    // The acceptance edges: cross-process nesting and the serve
    // request's server-side breakdown.
    require_edge(&spans, "shard", "campaign")?;
    require_edge(&spans, "shard_attempt", "shard")?;
    require_edge(&spans, "worker", "shard_attempt")?;
    require_edge(&spans, "request", "rpc")?;
    require_edge(&spans, "queue", "request")?;
    require_edge(&spans, "service", "request")?;
    let _ = std::fs::remove_dir_all(&work_dir);
    Ok(summary)
}

/// Starts an in-process daemon, characterizes one cell with a traced
/// client, drains. The client span parents under a demo root so the
/// whole exchange lands in one trace tree.
fn serve_once(library: &ca_netlist::library::Library, work_dir: &Path) -> Result<(), String> {
    let mut config = ca_serve::ServeConfig::new(work_dir.join("serve.caj"), library.clone());
    config.admission.slots = 1;
    let uds = work_dir.join("serve.sock");
    let server = ca_serve::Server::start(config, &[ca_serve::Endpoint::Uds(uds.clone())])
        .map_err(|e| format!("serve demo daemon failed to start: {e}"))?;
    let root = ca_obs::root!("serve_demo", library.len() as u64, "client");
    let mut client = ca_serve::ServeClient::connect_uds(&uds)
        .map_err(|e| format!("serve demo connect failed: {e}"))?;
    let name = library
        .cells
        .first()
        .map(|lc| lc.cell.name().to_string())
        .ok_or_else(|| "serve demo needs a non-empty library".to_string())?;
    match client
        .characterize("trace-demo", &name, 0)
        .map_err(|e| format!("serve demo request failed: {e}"))?
    {
        ca_serve::Response::Model { .. } => {}
        other => return Err(format!("serve demo got {other:?}")),
    }
    drop(client);
    drop(root);
    server.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: &str, parent: &str, name: &str, ts: u64, pid: u64) -> SpanRec {
        SpanRec {
            trace: "00000000000000aa".into(),
            span: id.into(),
            parent: parent.into(),
            name: name.into(),
            ts_us: ts,
            dur_us: 10,
            pid,
            fields: Vec::new(),
        }
    }

    #[test]
    fn closure_accepts_roots_and_rejects_dangling_parents() {
        let ok = vec![
            span("0000000000000001", ZERO_ID, "campaign", 0, 1),
            span("0000000000000002", "0000000000000001", "shard", 1, 1),
        ];
        validate_closure(&ok).expect("closed tree validates");
        let bad = vec![span("0000000000000002", "00000000000000ff", "shard", 1, 1)];
        let err = validate_closure(&bad).unwrap_err();
        assert!(err.contains("dangling parent"), "{err}");
    }

    #[test]
    fn edges_are_checked_by_name_pairing() {
        let spans = vec![
            span("0000000000000001", ZERO_ID, "shard_attempt", 0, 1),
            span("0000000000000002", "0000000000000001", "worker", 1, 2),
        ];
        require_edge(&spans, "worker", "shard_attempt").expect("edge present");
        let err = require_edge(&spans, "request", "rpc").unwrap_err();
        assert!(err.contains("request"), "{err}");
    }

    #[test]
    fn chrome_json_is_parseable_and_carries_span_args() {
        let mut cell = span("0000000000000003", "0000000000000001", "cell", 7, 2);
        cell.fields = vec![("cell".into(), "INV \"q\"".into())];
        let spans = vec![
            span("0000000000000001", ZERO_ID, "campaign", 5, 1),
            span("0000000000000002", "0000000000000001", "shard \"q\"", 6, 2),
            cell,
        ];
        let json = chrome_json(&spans);
        let doc = parse(&json).expect("chrome trace parses");
        // The trace as the hand-rendered stitcher before `JsonWriter`
        // wrote it for these spans.
        let before = concat!(
            r#"{"traceEvents":[{"name":"process_name","ph":"M","pid":1,"tid":1,"args":{"name":"pid 1"}},"#,
            r#"{"name":"process_name","ph":"M","pid":2,"tid":2,"args":{"name":"pid 2"}},"#,
            r#"{"name":"campaign","ph":"X","ts":5,"dur":10,"pid":1,"tid":1,"args":{"trace":"00000000000000aa","#,
            r#""span":"0000000000000001","parent":"0000000000000000"}},"#,
            r#"{"name":"shard \"q\"","ph":"X","ts":6,"dur":10,"pid":2,"tid":2,"args":{"trace":"00000000000000aa","#,
            r#""span":"0000000000000002","parent":"0000000000000001"}},"#,
            r#"{"name":"cell","ph":"X","ts":7,"dur":10,"pid":2,"tid":2,"args":{"trace":"00000000000000aa","#,
            r#""span":"0000000000000003","parent":"0000000000000001","cell":"INV \"q\""}}]}"#
        );
        assert_eq!(Ok(doc.clone()), parse(before), "{json}");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        // 2 process_name metadata records + 3 span events.
        assert_eq!(events.len(), 5);
        let x: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("X"))
            .collect();
        assert_eq!(x.len(), 3);
        let arg = |at: usize, key: &str| {
            x[at]
                .get("args")
                .and_then(|a| a.get(key))
                .and_then(|v| v.as_str())
        };
        assert_eq!(
            x[1].get("name").and_then(|v| v.as_str()),
            Some("shard \"q\"")
        );
        assert_eq!(arg(1, "parent"), Some("0000000000000001"));
        assert_eq!(arg(2, "parent"), Some("0000000000000001"));
        assert_eq!(arg(2, "cell"), Some("INV \"q\""));
    }

    #[test]
    fn files_align_clocks_through_their_anchor() {
        // A minimal per-process file: anchor at epoch ts 1000 with
        // mono 100 (offset +900), one span starting at mono 150.
        let text = concat!(
            "{\"seq\":0,\"ts_us\":1000,\"level\":\"info\",\"target\":\"ca_trace\",",
            "\"msg\":\"anchor\",\"mono_us\":\"100\",\"pid\":\"7\"}\n",
            "{\"seq\":1,\"ts_us\":1060,\"level\":\"info\",\"target\":\"ca_trace\",",
            "\"msg\":\"span\",\"trace\":\"00000000000000aa\",\"span\":\"0000000000000001\",",
            "\"parent\":\"0000000000000000\",\"name\":\"campaign\",\"t0_us\":\"150\",",
            "\"dur_us\":\"40\",\"cell\":\"INV\"}\n",
        );
        let (spans, pid) = parse_file(Path::new("x.jsonl"), text).expect("parses");
        assert_eq!(pid, Some(7));
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].ts_us, 1050, "150 + (1000 - 100)");
        assert_eq!(spans[0].dur_us, 40);
        assert_eq!(spans[0].pid, 7);
        assert_eq!(
            spans[0].fields,
            vec![("cell".to_string(), "INV".to_string())]
        );

        // Spans without an anchor cannot be placed on the timeline.
        let torn = text.lines().nth(1).map(|l| format!("{l}\n")).expect("line");
        let err = parse_file(Path::new("x.jsonl"), &torn).unwrap_err();
        assert!(err.contains("no clock anchor"), "{err}");
    }
}
