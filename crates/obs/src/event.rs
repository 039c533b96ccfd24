//! Structured JSONL event sink.
//!
//! Events replace ad-hoc `eprintln!`s: each is one JSON object with a
//! level, target (the emitting crate/module), message and flat string
//! fields. Events buffer in memory and [`flush`] writes them as a JSON
//! Lines file via `ca_store::write_atomic`, so a flushed event log is
//! always a whole, parseable file — never a torn tail.
//!
//! Env control:
//! - `CA_OBS` — minimum captured level: `off`, `error`, `warn`,
//!   `info` (default) or `debug`.
//! - `CA_OBS_PATH` — where [`flush`] writes the JSONL file; unset
//!   means flush is a no-op.
//!
//! Warn and error events also mirror to stderr (unless captured off),
//! so converting an `eprintln!` warning into [`warn`] changes nothing
//! for a default invocation — the structured record is additive.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::json::JsonWriter;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Severity of an event, lowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Debug,
    Info,
    Warn,
    Error,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// Parsed value of the `CA_OBS` env var: `None` is `off`.
fn parse_level(raw: &str) -> Result<Option<Level>, String> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "off" | "0" | "none" => Ok(None),
        "error" => Ok(Some(Level::Error)),
        "warn" | "warning" => Ok(Some(Level::Warn)),
        "" | "info" | "1" | "on" => Ok(Some(Level::Info)),
        "debug" | "all" => Ok(Some(Level::Debug)),
        other => Err(format!(
            "CA_OBS must be off|error|warn|info|debug, got {other:?}"
        )),
    }
}

/// Whether an event also echoes to stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mirror {
    /// Echo iff the level is warn or error — the default, preserving
    /// the visibility of the `eprintln!` paths events replace.
    Auto,
    /// Always echo (status lines a CLI user expects to see).
    Always,
    /// Never echo (high-volume diagnostics).
    Never,
}

/// Buffered events are capped so a pathological run cannot grow the
/// sink without bound; overflow is counted and reported at flush.
const EVENT_CAP: usize = 65_536;

#[derive(Default)]
struct SinkState {
    lines: Vec<String>,
    seq: u64,
    dropped: u64,
}

struct Sink {
    level: Option<Level>,
    state: Mutex<SinkState>,
}

fn lock_recover(m: &Mutex<SinkState>) -> MutexGuard<'_, SinkState> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Sink {
    fn new(level: Option<Level>) -> Self {
        Sink {
            level,
            state: Mutex::new(SinkState::default()),
        }
    }

    fn emit(&self, level: Level, target: &str, msg: &str, fields: &[(&str, &str)], mirror: Mirror) {
        let Some(min) = self.level else { return };
        let echo = match mirror {
            Mirror::Auto => level >= Level::Warn,
            Mirror::Always => true,
            Mirror::Never => false,
        };
        if echo {
            eprintln!("[{target}] {msg}");
        }
        if level < min {
            return;
        }
        let ts_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
        let mut state = lock_recover(&self.state);
        if state.lines.len() >= EVENT_CAP {
            state.dropped += 1;
            return;
        }
        state.seq += 1;
        let line = event_line(state.seq, Some(ts_us), level, target, msg, fields);
        state.lines.push(line);
    }

    /// Renders the buffer as one JSONL document (with a final overflow
    /// marker if events were dropped) without clearing it.
    fn render(&self) -> String {
        let state = lock_recover(&self.state);
        let mut out = String::new();
        for line in &state.lines {
            out.push_str(line);
            out.push('\n');
        }
        if state.dropped > 0 {
            let dropped = state.dropped.to_string();
            let fields = [("dropped", dropped.as_str())];
            let msg = "event buffer overflow";
            out.push_str(&event_line(
                state.seq + 1,
                None,
                Level::Warn,
                "ca_obs",
                msg,
                &fields,
            ));
            out.push('\n');
        }
        out
    }

    fn len(&self) -> usize {
        lock_recover(&self.state).lines.len()
    }

    /// Takes the buffered lines out, resetting the overflow counter
    /// but keeping `seq` monotone across drains.
    fn drain(&self) -> Vec<String> {
        let mut state = lock_recover(&self.state);
        state.dropped = 0;
        std::mem::take(&mut state.lines)
    }
}

/// One JSONL event: `seq`, `ts_us` (absent from the overflow marker),
/// `level`, `target`, `msg`, then the fields as string members.
fn event_line(
    seq: u64,
    ts_us: Option<u64>,
    level: Level,
    target: &str,
    msg: &str,
    fields: &[(&str, &str)],
) -> String {
    JsonWriter::compact()
        .object(|w| {
            w.key("seq").u64(seq);
            if let Some(ts_us) = ts_us {
                w.key("ts_us").u64(ts_us);
            }
            w.key("level").string(level.as_str());
            w.key("target").string(target);
            w.key("msg").string(msg);
            for (k, v) in fields {
                w.key(k).string(v);
            }
        })
        .finish()
}

fn global_sink() -> &'static Sink {
    static SINK: OnceLock<Sink> = OnceLock::new();
    SINK.get_or_init(|| {
        #[expect(
            clippy::disallowed_methods,
            reason = "D12: CA_OBS sets the captured event level"
        )]
        let level = match std::env::var("CA_OBS") {
            Ok(raw) => match parse_level(&raw) {
                Ok(level) => level,
                Err(err) => {
                    eprintln!("[ca_obs] warning: {err}; defaulting to info");
                    Some(Level::Info)
                }
            },
            Err(_) => Some(Level::Info),
        };
        Sink::new(level)
    })
}

/// Records a structured event in the global sink.
pub fn event(level: Level, target: &str, msg: &str, fields: &[(&str, &str)], mirror: Mirror) {
    global_sink().emit(level, target, msg, fields, mirror);
}

/// Warn-level event; mirrors to stderr like the `eprintln!` it
/// replaces.
pub fn warn(target: &str, msg: &str, fields: &[(&str, &str)]) {
    event(Level::Warn, target, msg, fields, Mirror::Auto);
}

/// Info-level event that still echoes to stderr — for CLI status lines
/// the user expects to see regardless of capture level.
pub fn info_status(target: &str, msg: &str, fields: &[(&str, &str)]) {
    event(Level::Info, target, msg, fields, Mirror::Always);
}

/// Writes a machine-readable protocol marker line to stdout and flushes
/// it.
///
/// Parents read their children's stdout for fixed markers: the
/// crash-recovery SIGKILL harness waits for `CA-SESSION-HALT`, callers
/// of the `ca-serve` daemon for `CA-SERVE-READY`, and the shard
/// supervisor takes each `CA-SHARD-BEAT` as a worker's proof of life.
/// Those are inter-process protocol, not logging, so they bypass the
/// event sink — but they still live here so library crates stay free of
/// raw stdout writes (invariant D5, DESIGN.md §10). The line goes to
/// the locked `io::stdout()` handle, not through `println!`, which a
/// test harness's output capture swallows on the test's threads and
/// the threads they spawn. Write errors are ignored: a parent that
/// closed the pipe has stopped listening.
pub fn protocol_marker(msg: &str) {
    use std::io::Write as _;
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{msg}");
    let _ = out.flush();
}

/// Info-level event with no stderr echo.
pub fn info(target: &str, msg: &str, fields: &[(&str, &str)]) {
    event(Level::Info, target, msg, fields, Mirror::Never);
}

/// Number of events currently buffered (diagnostic).
pub fn buffered_events() -> usize {
    global_sink().len()
}

/// Takes the buffered event lines out of the sink, emptying it. For
/// harnesses that compare event streams across phases of one process
/// (`tests/trace_determinism.rs`); ordinary flows use [`flush`], which
/// keeps the buffer. `seq` stays monotone across drains.
pub fn drain_events() -> Vec<String> {
    global_sink().drain()
}

/// Writes the buffered events as JSONL to `CA_OBS_PATH` (atomic tmp +
/// fsync + rename). Returns the path written, or `None` when
/// `CA_OBS_PATH` is unset or capture is off. The buffer is kept, so
/// repeated flushes rewrite a superset — crash-safe checkpointing, not
/// log rotation.
pub fn flush() -> std::io::Result<Option<PathBuf>> {
    #[expect(
        clippy::disallowed_methods,
        reason = "D12: CA_OBS_PATH names the event log file"
    )]
    let Ok(path) = std::env::var("CA_OBS_PATH") else {
        return Ok(None);
    };
    if path.trim().is_empty() {
        return Ok(None);
    }
    let path = PathBuf::from(path);
    flush_to(&path)?;
    Ok(Some(path))
}

/// Writes the buffered events as JSONL to an explicit path.
pub fn flush_to(path: &std::path::Path) -> std::io::Result<()> {
    ca_store::write_atomic(path, global_sink().render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parse_accepts_documented_values() {
        assert_eq!(parse_level("off"), Ok(None));
        assert_eq!(parse_level("ERROR"), Ok(Some(Level::Error)));
        assert_eq!(parse_level("warn"), Ok(Some(Level::Warn)));
        assert_eq!(parse_level(""), Ok(Some(Level::Info)));
        assert_eq!(parse_level("debug"), Ok(Some(Level::Debug)));
        assert!(parse_level("loud").is_err());
    }

    #[test]
    fn sink_filters_below_min_level_and_renders_jsonl() {
        let sink = Sink::new(Some(Level::Warn));
        sink.emit(Level::Info, "t", "dropped", &[], Mirror::Never);
        sink.emit(
            Level::Warn,
            "ca_exec",
            "bad CA_THREADS",
            &[("raw", "-3")],
            Mirror::Never,
        );
        let out = sink.render();
        assert_eq!(out.lines().count(), 1);
        assert!(out.contains("\"level\":\"warn\""));
        assert!(out.contains("\"target\":\"ca_exec\""));
        assert!(out.contains("\"raw\":\"-3\""));
        assert!(out.ends_with('\n'));
    }

    #[test]
    fn off_sink_captures_nothing() {
        let sink = Sink::new(None);
        sink.emit(Level::Error, "t", "x", &[], Mirror::Always);
        assert_eq!(sink.render(), "");
    }

    #[test]
    fn escaped_payloads_stay_parseable() {
        let sink = Sink::new(Some(Level::Debug));
        sink.emit(
            Level::Info,
            "t",
            "quote \" and \\ back\nnewline",
            &[("k\"ey", "v\tal")],
            Mirror::Never,
        );
        let out = sink.render();
        let parsed = crate::json::parse(out.trim()).expect("escaped event parses");
        assert_eq!(
            parsed.get("msg").and_then(|v| v.as_str()),
            Some("quote \" and \\ back\nnewline")
        );
        assert_eq!(parsed.get("k\"ey").and_then(|v| v.as_str()), Some("v\tal"));
        // The line as the hand-rendered sink before `JsonWriter` wrote
        // it for this event.
        let before = r#"{"seq":1,"ts_us":1792411436473831,"level":"info","target":"t","msg":"quote \" and \\ back\nnewline","k\"ey":"v\tal"}"#;
        let line = event_line(
            1,
            Some(1_792_411_436_473_831),
            Level::Info,
            "t",
            "quote \" and \\ back\nnewline",
            &[("k\"ey", "v\tal")],
        );
        assert_eq!(
            crate::json::parse(&line),
            crate::json::parse(before),
            "{line}"
        );
        assert!(!line.contains('\n'), "{line}");
    }

    #[test]
    fn overflow_is_counted_not_grown() {
        let sink = Sink::new(Some(Level::Debug));
        for i in 0..(EVENT_CAP + 5) {
            sink.emit(Level::Info, "t", &i.to_string(), &[], Mirror::Never);
        }
        assert_eq!(sink.len(), EVENT_CAP);
        let out = sink.render();
        let before = r#"{"seq":65537,"level":"warn","target":"ca_obs","msg":"event buffer overflow","dropped":"5"}"#;
        let marker = out.lines().last().expect("overflow marker");
        assert_eq!(
            crate::json::parse(marker),
            crate::json::parse(before),
            "{marker}"
        );
    }
}
