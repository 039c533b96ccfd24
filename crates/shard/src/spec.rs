//! The supervisor→worker contract: one text document per shard attempt.
//!
//! Before each attempt the supervisor atomically rewrites
//! `shard-{i}.spec` and starts the worker with the single environment
//! variable [`ENV_SPEC`] naming it, so any host binary whose entry
//! point calls [`crate::worker::run_from_env`] can be a worker. The
//! document carries everything the attempt needs: where to journal,
//! how often to beat, the campaign's options, budget and policy, the
//! attempt's trace context and test hooks, and the shard's cells.
//!
//! The cells travel as the netlist model itself, not as SPICE: the
//! SPICE parser *infers* pin roles from channel connectivity, which a
//! deliberately broken cell (floating output, dangling gate) does not
//! preserve, and lists internal nets after the pins, while the session
//! fingerprint hashes net order. Here net kinds are explicit and
//! net/transistor order is exact, so a parsed cell equals the original
//! for everything [`ca_netlist::CellBuilder`] accepts
//! ([`round_trips`]). Library-cell metadata (function, template,
//! drive) is *not* carried: the robust driver and the journal records
//! depend only on the netlist, so workers run with placeholder metadata
//! and the supervisor keeps the real metadata for the final pass.
//!
//! Grammar (one record per line; blank lines are skipped; header
//! fields come in any order, `trace` is optional and `hook` repeats):
//!
//! ```text
//! calib/3
//! store <path>
//! heartbeat_ms <n>
//! options <bits>           driven_x | floating_x << 1 | inter_transistor << 2
//! budget <iters>,<stimuli>,<defects>,<wall_ns>      `-` for unlimited
//! policy skip | retry:<n>
//! shard <index>
//! attempt <n>
//! trace <trace_id> <span_id> <child_seed>           16 hex digits each
//! hook halt <appends> | hook hang | hook fail <code>
//! tech <name>
//! cells <count>
//! cell <name> <num_nets> <num_transistors>
//! net <name> <input|output|internal|power|ground>
//! mos <name> <n|p> <drain> <gate> <source> <bulk> <w_nm> <l_nm>
//! endcell
//! end
//! ```
//!
//! The store path takes the rest of its line after one space, so work
//! directories containing spaces survive. Net references are indices
//! into the cell's net list, preserving ids exactly. Names containing
//! whitespace cannot be framed; such cells fail [`round_trips`] and stay
//! on the supervisor's in-process path.

use ca_core::FaultPolicy;
use ca_defects::GenerateOptions;
use ca_netlist::library::{Library, LibraryCell, Technology};
use ca_netlist::{Cell, CellBuilder, Expr, MosKind, NetId, NetKind};
use ca_obs::trace::TraceContext;
use ca_sim::{DetectionPolicy, SimBudget};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

/// The one environment variable of the worker protocol: the path of
/// the worker's spec document.
pub const ENV_SPEC: &str = "CA_SHARD_SPEC";

/// Format tag of the first line; bump on any grammar change.
const MAGIC: &str = "calib/3";

/// A fault a supervision test injects into one shard's workers.
///
/// When several hooks apply to one attempt, the worker acts only on
/// the least in this order, not on the first listed: a `Fail` (the
/// smallest code), else a `Hang`, else the smallest `Halt` count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HookAction {
    /// Exit with this code before doing any work.
    Fail(i32),
    /// Sleep forever without a beat, so the supervisor must diagnose a
    /// hang and kill the worker.
    Hang,
    /// Abort the worker after this many journal appends (a real
    /// SIGABRT: fsynced records survive, nothing else does).
    Halt(usize),
}

/// A test hook of a campaign: `action` fires in shard `shard` on every
/// attempt up to `max_attempt`, so a retried shard can be made to fail
/// exactly N times and then succeed. The supervisor writes the hooks
/// that apply to an attempt into its spec; campaigns without hooks are
/// unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TestHook {
    /// Shard the hook fires in.
    pub shard: usize,
    /// Last attempt (1-based, inclusive) the hook still fires on.
    pub max_attempt: u32,
    /// What the worker does.
    pub action: HookAction,
}

impl TestHook {
    /// Whether the hook fires for this worker invocation.
    pub fn applies(&self, shard: usize, attempt: u32) -> bool {
        self.shard == shard && attempt <= self.max_attempt
    }
}

/// Everything one worker attempt needs to run its shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSpec {
    /// Path of the worker's private `.caj` journal.
    pub store_path: PathBuf,
    /// How often a spawned worker writes a beat line to its stdout.
    pub heartbeat_interval: Duration,
    /// Model-generation options (must match the campaign's).
    pub options: GenerateOptions,
    /// Simulation budget (must match the campaign's — records are
    /// tagged with it and re-verified at merge time).
    pub budget: SimBudget,
    /// Per-cell fault policy for this attempt.
    pub policy: FaultPolicy,
    /// This worker's shard index.
    pub shard_index: usize,
    /// 1-based supervisor attempt number.
    pub attempt: u32,
    /// Trace context of the supervisor's shard-attempt span, so worker
    /// spans parent under it across the process boundary. `None` when
    /// the campaign is untraced.
    pub trace: Option<TraceContext>,
    /// Test hooks the supervisor scoped to this attempt; empty in
    /// production campaigns.
    pub hooks: Vec<HookAction>,
    /// Technology of the shard's cells.
    pub technology: Technology,
    /// The shard's netlists, in library order.
    pub cells: Vec<Cell>,
}

/// A malformed document (or one this version cannot read).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl WorkerSpec {
    /// The spec as a document (see the module docs for the grammar).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{MAGIC}");
        let _ = writeln!(out, "store {}", self.store_path.display());
        let _ = writeln!(out, "heartbeat_ms {}", self.heartbeat_interval.as_millis());
        let _ = writeln!(out, "options {}", encode_options(self.options));
        let _ = writeln!(out, "budget {}", encode_budget(&self.budget));
        let _ = writeln!(out, "policy {}", encode_policy(self.policy));
        let _ = writeln!(out, "shard {}", self.shard_index);
        let _ = writeln!(out, "attempt {}", self.attempt);
        if let Some(ctx) = &self.trace {
            let _ = writeln!(
                out,
                "trace {:016x} {:016x} {:016x}",
                ctx.trace_id, ctx.span_id, ctx.child_seed
            );
        }
        for hook in &self.hooks {
            let _ = match hook {
                HookAction::Halt(appends) => writeln!(out, "hook halt {appends}"),
                HookAction::Hang => writeln!(out, "hook hang"),
                HookAction::Fail(code) => writeln!(out, "hook fail {code}"),
            };
        }
        encode_body(&mut out, self.technology, &self.cells);
        out
    }

    /// Parses a [`WorkerSpec::render`] document.
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the missing, repeated or malformed header
    /// field, or the line of any framing, reference or validation
    /// failure in the cells — including cells the [`CellBuilder`]
    /// rejects (e.g. transistor-less cells, which only the corruption
    /// harness can construct).
    pub fn parse(text: &str) -> Result<WorkerSpec, SpecError> {
        let mut lines = numbered_lines(text).peekable();
        match lines.next() {
            Some((_, magic)) if magic.trim() == MAGIC => {}
            other => {
                return Err(SpecError(format!(
                    "bad magic {:?}, want `{MAGIC}`",
                    other.map(|(_, l)| l)
                )))
            }
        }

        let mut fields: BTreeMap<&str, &str> = BTreeMap::new();
        let mut hooks = Vec::new();
        while let Some(&(no, line)) = lines.peek() {
            let (key, value) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "tech" => break,
                "hook" => hooks.push(parse_hook(value)?),
                "store" | "heartbeat_ms" | "options" | "budget" | "policy" | "shard"
                | "attempt" | "trace" => {
                    if fields.insert(key, value).is_some() {
                        return Err(SpecError(format!(
                            "line {no}: header field `{key}` is repeated"
                        )));
                    }
                }
                other => {
                    return Err(SpecError(format!(
                        "line {no}: unknown header field `{other}`"
                    )))
                }
            }
            lines.next();
        }
        let field = |name: &str| {
            fields
                .get(name)
                .copied()
                .ok_or_else(|| SpecError(format!("header field `{name}` is missing")))
        };
        let (technology, cells) = decode_body(&mut lines)?;
        Ok(WorkerSpec {
            store_path: PathBuf::from(field("store")?),
            heartbeat_interval: Duration::from_millis(number(
                "heartbeat_ms",
                field("heartbeat_ms")?,
            )?),
            options: decode_options(field("options")?)?,
            budget: decode_budget(field("budget")?)?,
            policy: decode_policy(field("policy")?)?,
            shard_index: number("shard", field("shard")?)?,
            attempt: number("attempt", field("attempt")?)?,
            trace: fields.get("trace").copied().map(decode_trace).transpose()?,
            hooks,
            technology,
            cells,
        })
    }

    /// The shard as a library for the robust driver, with placeholder
    /// metadata (see the module docs).
    pub(crate) fn library(&self) -> Library {
        Library {
            technology: self.technology,
            cells: self
                .cells
                .iter()
                .map(|cell| LibraryCell {
                    cell: cell.clone(),
                    function: Expr::var(0),
                    template: String::new(),
                    drive: 1,
                    style: Default::default(),
                })
                .collect(),
        }
    }
}

/// Whether `cell` survives the process boundary bit-for-bit. Cells
/// that do not (names with whitespace, builder-rejected structures)
/// are characterized in-process by the supervisor instead of being
/// shipped to a worker.
pub fn round_trips(cell: &Cell) -> bool {
    let mut doc = String::new();
    encode_body(&mut doc, Technology::C40, std::slice::from_ref(cell));
    let decoded = decode_body(&mut numbered_lines(&doc));
    matches!(decoded, Ok((_, cells)) if matches!(cells.as_slice(), [only] if only == cell))
}

fn malformed(name: &str, value: &str) -> SpecError {
    SpecError(format!("header field `{name}` is malformed: `{value}`"))
}

/// The numeric header field `name`, whose text is `value`.
fn number<T: FromStr>(name: &str, value: &str) -> Result<T, SpecError> {
    value.parse().map_err(|_| malformed(name, value))
}

/// Three bits, bit-packed like `ca_core`'s options tag: trivially
/// collision-free and stable.
fn encode_options(options: GenerateOptions) -> u8 {
    u8::from(options.policy.driven_x_detects)
        | u8::from(options.policy.floating_x_detects) << 1
        | u8::from(options.inter_transistor) << 2
}

fn decode_options(s: &str) -> Result<GenerateOptions, SpecError> {
    let bits: u8 = number("options", s)?;
    if bits > 0b111 {
        return Err(malformed("options", s));
    }
    Ok(GenerateOptions {
        policy: DetectionPolicy {
            driven_x_detects: bits & 1 != 0,
            floating_x_detects: bits & 2 != 0,
        },
        inter_transistor: bits & 4 != 0,
    })
}

/// `iters,stimuli,defects,wall_ns` with `-` for "unlimited".
fn encode_budget(budget: &SimBudget) -> String {
    let field = |v: Option<u128>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
    format!(
        "{},{},{},{}",
        field(budget.max_solver_iterations.map(|v| v as u128)),
        field(budget.max_stimuli.map(|v| v as u128)),
        field(budget.max_defects.map(|v| v as u128)),
        field(budget.wall_clock.map(|d| d.as_nanos())),
    )
}

fn decode_budget(s: &str) -> Result<SimBudget, SpecError> {
    let fields: Vec<&str> = s.split(',').collect();
    let [iters, stimuli, defects, wall] = fields[..] else {
        return Err(malformed("budget", s));
    };
    let opt = |f: &str| -> Result<Option<u64>, SpecError> {
        if f == "-" {
            Ok(None)
        } else {
            f.parse().map(Some).map_err(|_| malformed("budget", s))
        }
    };
    Ok(SimBudget {
        max_solver_iterations: opt(iters)?.map(|v| v as usize),
        max_stimuli: opt(stimuli)?.map(|v| v as usize),
        max_defects: opt(defects)?.map(|v| v as usize),
        wall_clock: opt(wall)?.map(Duration::from_nanos),
    })
}

fn encode_policy(policy: FaultPolicy) -> String {
    match policy {
        // FailFast cannot run a campaign (the supervisor rejects it),
        // so the document only carries the quarantining policies.
        FaultPolicy::FailFast | FaultPolicy::SkipAndReport => "skip".to_string(),
        FaultPolicy::RetryWithReducedBudget(n) => format!("retry:{n}"),
    }
}

fn decode_policy(s: &str) -> Result<FaultPolicy, SpecError> {
    if s == "skip" {
        return Ok(FaultPolicy::SkipAndReport);
    }
    s.strip_prefix("retry:")
        .and_then(|n| n.parse().ok())
        .map(FaultPolicy::RetryWithReducedBudget)
        .ok_or_else(|| malformed("policy", s))
}

fn decode_trace(s: &str) -> Result<TraceContext, SpecError> {
    let ids: Vec<u64> = s
        .split_whitespace()
        .map(|id| u64::from_str_radix(id, 16))
        .collect::<Result<_, _>>()
        .map_err(|_| malformed("trace", s))?;
    let [trace_id, span_id, child_seed] = ids[..] else {
        return Err(malformed("trace", s));
    };
    Ok(TraceContext {
        trace_id,
        span_id,
        child_seed,
    })
}

fn parse_hook(s: &str) -> Result<HookAction, SpecError> {
    let hook = match s.split_whitespace().collect::<Vec<_>>()[..] {
        ["halt", n] => n.parse().ok().map(HookAction::Halt),
        ["hang"] => Some(HookAction::Hang),
        ["fail", code] => code.parse().ok().map(HookAction::Fail),
        _ => None,
    };
    hook.ok_or_else(|| malformed("hook", s))
}

// --- the cells: netlists with explicit net kinds and exact order ----

fn kind_token(kind: NetKind) -> &'static str {
    match kind {
        NetKind::Input => "input",
        NetKind::Output => "output",
        NetKind::Internal => "internal",
        NetKind::Power => "power",
        NetKind::Ground => "ground",
    }
}

fn parse_kind(token: &str) -> Result<NetKind, SpecError> {
    match token {
        "input" => Ok(NetKind::Input),
        "output" => Ok(NetKind::Output),
        "internal" => Ok(NetKind::Internal),
        "power" => Ok(NetKind::Power),
        "ground" => Ok(NetKind::Ground),
        other => Err(SpecError(format!("unknown net kind `{other}`"))),
    }
}

fn parse_tech(token: &str) -> Result<Technology, SpecError> {
    Technology::ALL
        .into_iter()
        .find(|t| t.name() == token)
        .ok_or_else(|| SpecError(format!("unknown technology `{token}`")))
}

/// The document's non-blank lines with their 1-based line numbers.
fn numbered_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(i, line)| (i + 1, line))
        .filter(|(_, line)| !line.trim().is_empty())
}

/// Appends the `tech` … `end` body for `cells`.
fn encode_body(out: &mut String, technology: Technology, cells: &[Cell]) {
    let _ = writeln!(out, "tech {}", technology.name());
    let _ = writeln!(out, "cells {}", cells.len());
    for cell in cells {
        let _ = writeln!(
            out,
            "cell {} {} {}",
            cell.name(),
            cell.nets().len(),
            cell.num_transistors()
        );
        for net in cell.nets() {
            let _ = writeln!(out, "net {} {}", net.name(), kind_token(net.kind()));
        }
        for t in cell.transistors() {
            let _ = writeln!(
                out,
                "mos {} {} {} {} {} {} {} {}",
                t.name(),
                t.kind().letter(),
                t.drain().index(),
                t.gate().index(),
                t.source().index(),
                t.bulk().index(),
                t.width_nm(),
                t.length_nm()
            );
        }
        out.push_str("endcell\n");
    }
    out.push_str("end\n");
}

/// Reads the `tech` … `end` body.
fn decode_body<'a>(
    lines: &mut impl Iterator<Item = (usize, &'a str)>,
) -> Result<(Technology, Vec<Cell>), SpecError> {
    let mut next = |want: &str| -> Result<(usize, Vec<&'a str>), SpecError> {
        lines
            .next()
            .map(|(no, line)| (no, line.split_whitespace().collect()))
            .ok_or_else(|| SpecError(format!("unexpected end of document ({want})")))
    };

    let (no, tech) = next("tech")?;
    let ["tech", name] = tech[..] else {
        return Err(SpecError(format!("line {no}: expected `tech <name>`")));
    };
    let technology = parse_tech(name)?;
    let (no, count) = next("cells")?;
    let ["cells", n] = count[..] else {
        return Err(SpecError(format!("line {no}: expected `cells <count>`")));
    };
    let count: usize = n
        .parse()
        .map_err(|_| SpecError(format!("line {no}: bad cell count `{n}`")))?;

    let mut cells = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let (no, header) = next("cell header")?;
        let ["cell", name, nets, mos] = header[..] else {
            return Err(SpecError(format!("line {no}: malformed cell header")));
        };
        let num_nets: usize = nets
            .parse()
            .map_err(|_| SpecError(format!("line {no}: bad net count")))?;
        let num_mos: usize = mos
            .parse()
            .map_err(|_| SpecError(format!("line {no}: bad transistor count")))?;
        let mut builder = CellBuilder::new(name);
        for _ in 0..num_nets {
            let (no, line) = next("net")?;
            let ["net", name, kind] = line[..] else {
                return Err(SpecError(format!("line {no}: malformed net line")));
            };
            let before = builder.num_nets();
            builder.add_net(name, parse_kind(kind)?);
            if builder.num_nets() == before {
                return Err(SpecError(format!("line {no}: duplicate net `{name}`")));
            }
        }
        let net_id = |token: &str, no: usize| -> Result<NetId, SpecError> {
            let idx: u32 = token
                .parse()
                .map_err(|_| SpecError(format!("line {no}: bad net index `{token}`")))?;
            if (idx as usize) >= num_nets {
                return Err(SpecError(format!(
                    "line {no}: net index {idx} out of range"
                )));
            }
            Ok(NetId(idx))
        };
        for _ in 0..num_mos {
            let (no, line) = next("mos")?;
            let ["mos", name, kind, d, g, s, b, w, l] = line[..] else {
                return Err(SpecError(format!("line {no}: malformed mos line")));
            };
            let kind = match kind {
                "n" => MosKind::Nmos,
                "p" => MosKind::Pmos,
                other => return Err(SpecError(format!("line {no}: bad mos kind `{other}`"))),
            };
            let w: u32 = w
                .parse()
                .map_err(|_| SpecError(format!("line {no}: bad width")))?;
            let l: u32 = l
                .parse()
                .map_err(|_| SpecError(format!("line {no}: bad length")))?;
            builder
                .add_transistor(
                    name,
                    kind,
                    net_id(d, no)?,
                    net_id(g, no)?,
                    net_id(s, no)?,
                    net_id(b, no)?,
                    w,
                    l,
                )
                .map_err(|e| SpecError(format!("line {no}: {e}")))?;
        }
        let (no, end) = next("endcell")?;
        if end != ["endcell"] {
            return Err(SpecError(format!("line {no}: expected `endcell`")));
        }
        cells.push(
            builder
                .build()
                .map_err(|e| SpecError(format!("cell rejected: {e}")))?,
        );
    }
    let (no, end) = next("end")?;
    if end != ["end"] {
        return Err(SpecError(format!("line {no}: expected `end`")));
    }
    Ok((technology, cells))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_netlist::corrupt::{corrupt_cell, Corruption};
    use ca_netlist::library::{generate_library, LibraryConfig};

    fn cells_of(lib: &Library) -> Vec<Cell> {
        lib.cells.iter().map(|lc| lc.cell.clone()).collect()
    }

    fn sample_spec() -> WorkerSpec {
        let mut lib = generate_library(&LibraryConfig::quick(Technology::C28));
        lib.cells.truncate(3);
        WorkerSpec {
            store_path: PathBuf::from("/tmp/shard-2.caj"),
            heartbeat_interval: Duration::from_millis(50),
            options: GenerateOptions {
                policy: DetectionPolicy {
                    driven_x_detects: true,
                    floating_x_detects: false,
                },
                inter_transistor: true,
            },
            budget: SimBudget {
                max_solver_iterations: None,
                max_stimuli: Some(64),
                max_defects: None,
                wall_clock: Some(Duration::from_millis(1500)),
            },
            policy: FaultPolicy::RetryWithReducedBudget(2),
            shard_index: 2,
            attempt: 3,
            trace: Some(TraceContext {
                trace_id: 0xdead_beef_0000_0001,
                span_id: 0x0123_4567_89ab_cdef,
                child_seed: u64::MAX,
            }),
            hooks: Vec::new(),
            technology: lib.technology,
            cells: cells_of(&lib),
        }
    }

    fn round_trip(spec: &WorkerSpec) {
        let doc = spec.render();
        assert_eq!(WorkerSpec::parse(&doc).as_ref(), Ok(spec), "{doc}");
    }

    #[test]
    fn specs_round_trip_through_the_document() {
        let spec = sample_spec();
        round_trip(&spec);

        let untraced = WorkerSpec {
            trace: None,
            ..spec.clone()
        };
        assert!(!untraced.render().contains("trace"));
        round_trip(&untraced);

        for policy in [
            FaultPolicy::SkipAndReport,
            FaultPolicy::RetryWithReducedBudget(0),
        ] {
            round_trip(&WorkerSpec {
                policy,
                ..spec.clone()
            });
        }
        for hooks in [
            vec![HookAction::Halt(2)],
            vec![HookAction::Hang],
            vec![HookAction::Fail(7)],
            vec![HookAction::Fail(-1), HookAction::Halt(0), HookAction::Hang],
        ] {
            round_trip(&WorkerSpec {
                hooks,
                ..spec.clone()
            });
        }
        round_trip(&WorkerSpec {
            budget: SimBudget::unlimited(),
            options: GenerateOptions::default(),
            ..spec.clone()
        });
        // The store path takes the rest of its line, spaces included.
        round_trip(&WorkerSpec {
            store_path: PathBuf::from("/tmp/my campaign/ shard 2.caj "),
            ..spec.clone()
        });
        round_trip(&WorkerSpec {
            cells: Vec::new(),
            ..spec
        });
    }

    #[test]
    fn missing_and_malformed_fields_are_named() {
        let doc = sample_spec().render();
        let edit = |field: &str, line: Option<&str>| -> String {
            let err = WorkerSpec::parse(
                &doc.lines()
                    .filter_map(|l| match l.split_once(' ') {
                        Some((key, _)) if key == field => line,
                        _ => Some(l),
                    })
                    .map(|l| format!("{l}\n"))
                    .collect::<String>(),
            )
            .unwrap_err();
            err.to_string()
        };
        for field in [
            "store",
            "heartbeat_ms",
            "options",
            "budget",
            "policy",
            "shard",
            "attempt",
        ] {
            let err = edit(field, None);
            assert!(err.contains(&format!("`{field}` is missing")), "{err}");
        }
        for (field, bad) in [
            ("heartbeat_ms", "heartbeat_ms soon"),
            ("options", "options 99"),
            ("budget", "budget 1,2,3"),
            ("budget", "budget 1,x,3,4"),
            ("policy", "policy explode"),
            ("policy", "policy retry:many"),
            ("shard", "shard -1"),
            ("attempt", "attempt 99999999999"),
            ("trace", "trace 01 02"),
            ("trace", "trace 01 02 zz"),
        ] {
            let err = edit(field, Some(bad));
            assert!(err.contains(&format!("`{field}` is malformed")), "{err}");
        }
        for bad in ["hook explode", "hook halt", "hook fail x", "hook hang 3"] {
            let err =
                WorkerSpec::parse(&doc.replacen("shard 2\n", &format!("shard 2\n{bad}\n"), 1))
                    .unwrap_err()
                    .to_string();
            assert!(err.contains("`hook` is malformed"), "{err}");
        }
        let repeated = doc.replacen("shard 2\n", "shard 2\nshard 3\n", 1);
        let err = WorkerSpec::parse(&repeated).unwrap_err().to_string();
        assert!(err.contains("`shard` is repeated"), "{err}");
        // Neither a stray field nor the `heartbeat <path>` line of the
        // `calib/2` grammar is accepted.
        for (line, key) in [
            ("library x", "library"),
            ("heartbeat /tmp/h.hb", "heartbeat"),
        ] {
            let unknown = doc.replacen("shard 2\n", &format!("shard 2\n{line}\n"), 1);
            let err = WorkerSpec::parse(&unknown).unwrap_err().to_string();
            assert!(
                err.contains(&format!("unknown header field `{key}`")),
                "{err}"
            );
        }
    }

    #[test]
    fn malformed_documents_error_cleanly() {
        let header = "calib/3\nstore s\nheartbeat_ms 5\noptions 0\n\
                      budget -,-,-,-\npolicy skip\nshard 0\nattempt 1\n";
        let doc = format!("{header}tech C40\ncells 0\nend\n");
        assert!(WorkerSpec::parse(&doc).is_ok());
        // A document of the previous grammar fails on its magic.
        let old = doc.replacen("calib/3", "calib/2", 1);
        let err = WorkerSpec::parse(&old).unwrap_err().to_string();
        assert!(err.contains("bad magic"), "{err}");
        for doc in [
            String::new(),
            "calib/1\ntech C40\ncells 0\nend\n".to_string(),
            header.to_string(),
            format!("{header}tech Q99\ncells 0\nend\n"),
            format!("{header}tech C40\ncells 1\nend\n"),
            format!("{header}tech C40\ncells 1\ncell X 1 0\nnet a input\nendcell\nend\n"),
            format!("{header}tech C40\ncells 0\n"),
        ] {
            assert!(WorkerSpec::parse(&doc).is_err(), "{doc:?}");
        }
    }

    #[test]
    fn generated_libraries_round_trip_exactly() {
        for tech in Technology::ALL {
            let lib = generate_library(&LibraryConfig::quick(tech));
            let spec = WorkerSpec {
                technology: tech,
                cells: cells_of(&lib),
                ..sample_spec()
            };
            round_trip(&spec);
            assert_eq!(spec.library().cells.len(), lib.cells.len());
            for lc in &lib.cells {
                assert!(round_trips(&lc.cell), "{}", lc.cell.name());
            }
        }
    }

    #[test]
    fn corrupted_cells_round_trip_too() {
        // The whole point of the format: damage that SPICE role
        // inference would mangle survives the process boundary.
        let lib = generate_library(&LibraryConfig::quick(Technology::C40));
        for corruption in [
            Corruption::FloatingOutput,
            Corruption::DanglingGate,
            Corruption::OscillatorLoop,
        ] {
            let bad = corrupt_cell(&lib.cells[1].cell, corruption, 7).expect("corrupt");
            assert!(round_trips(&bad), "{corruption:?}");
        }
    }

    #[test]
    fn transistor_less_cells_are_rejected_not_mangled() {
        let lib = generate_library(&LibraryConfig::quick(Technology::C40));
        let bad = corrupt_cell(&lib.cells[0].cell, Corruption::ZeroTransistor, 5).expect("corrupt");
        assert!(!round_trips(&bad));
    }

    #[test]
    fn rendering_is_deterministic() {
        let lib = generate_library(&LibraryConfig::quick(Technology::Soi28));
        let spec = WorkerSpec {
            technology: lib.technology,
            cells: cells_of(&lib),
            ..sample_spec()
        };
        assert_eq!(spec.render(), spec.render());
    }

    #[test]
    fn test_hooks_scope_by_shard_and_attempt() {
        let hook = TestHook {
            shard: 2,
            max_attempt: 3,
            action: HookAction::Hang,
        };
        assert!(hook.applies(2, 1));
        assert!(hook.applies(2, 3));
        assert!(!hook.applies(2, 4));
        assert!(!hook.applies(1, 1));
    }
}
