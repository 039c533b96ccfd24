//! `ca-audit` — the workspace's invariant auditor (DESIGN.md §10, §15).
//!
//! The reproduction's core guarantees — canonical CA-matrix bytes and
//! `.cam` exports identical at any thread count and across crash-resume
//! — rest on conventions: no hash-ordered iteration feeding canonical
//! output, no ambient clocks or randomness, no raw durable writes, no
//! ad-hoc stdout/stderr in library crates. Clippy enforces the rules it
//! can express (D1–D6, D9 and D13, through `clippy.toml` and crate-root
//! lint attributes), and a round-trip test replaces D10. This crate keeps
//! the four rules clippy cannot express ([`checks::RULES`]): partial
//! float comparisons (D7), lock order (D8), the metric inventory (D11)
//! and the env-var table (D12).
//!
//! The analyzer is dependency-free: a real Rust lexer ([`lexer`]) feeds
//! an item-level workspace model ([`model`]) — functions with impl
//! context and body spans, lock fields and statics, metric-macro and
//! `CA_*` env sites, `#[cfg(test)]` lines — that the checks
//! ([`checks`]) reason over.
//!
//! Suppressions are explicit and audited themselves:
//!
//! ```text
//! // ca-audit: allow(D11, recorded here on behalf of obs-free ca-store)
//! crate::counter!("ca_store.recovery.reported", Ops).inc();
//! ```
//!
//! A pragma covers its own line and the next line, must name a rule of
//! this crate, must carry a non-empty reason, and must actually suppress
//! something — malformed or unused pragmas are findings in their own
//! right (A0, A1), and an unused pragma points at its own
//! `file:line:col`.

// Workspace rule D6 (DESIGN.md §10): document every `unsafe` block.
// Every lint suppression states its reason.
#![deny(
    clippy::undocumented_unsafe_blocks,
    clippy::allow_attributes_without_reason
)]

pub mod checks;
pub mod lexer;
pub mod model;

use model::FileModel;
use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// An invariant violation; fails CI under `--deny warn`.
    Warning,
    /// A structural violation or broken suppression; always fails CI.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warn"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One audit finding, pointing at a `file:line:col`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the audited root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (byte offset within the line).
    pub col: usize,
    /// Rule id (`D7`, `D8`, `D11`, `D12`, or `A0`/`A1` for pragma
    /// hygiene).
    pub rule: &'static str,
    /// Severity.
    pub severity: Severity,
    /// What was found.
    pub message: String,
    /// One-line fix hint.
    pub hint: &'static str,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}:{}:{}: {} (fix: {})",
            self.severity, self.rule, self.file, self.line, self.col, self.message, self.hint
        )
    }
}

/// One source file handed to the auditor.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Package name (`ca-core`, …, or `cell-aware` for the facade).
    pub crate_name: String,
    /// Root-relative path label used in findings.
    pub label: String,
    /// File contents.
    pub content: String,
}

/// A full audit input: sources plus the optional README (for D12).
#[derive(Debug, Clone, Default)]
pub struct SourceSet {
    /// The `.rs` sources.
    pub files: Vec<SourceFile>,
    /// README `(label, content)`; absent disables D12.
    pub readme: Option<(String, String)>,
}

/// Audits a source set with every rule. This is the one entry point both
/// [`audit_workspace`] and the fixture self-tests drive; findings come
/// back sorted by `(file, line, col, rule)`.
pub fn audit_sources(set: &SourceSet) -> Vec<Finding> {
    let models: Vec<FileModel> = set
        .files
        .iter()
        .map(|f| FileModel::build(&f.crate_name, &f.label, &f.content))
        .collect();
    let mut ctx = checks::Ctx {
        files: &models,
        readme: set
            .readme
            .as_ref()
            .map(|(label, content)| (label.as_str(), content.as_str())),
        findings: Vec::new(),
        used: BTreeSet::new(),
    };
    checks::run_all(&mut ctx);
    let (mut findings, used) = (ctx.findings, ctx.used);

    // Pragma hygiene last, against the global ledger: malformed
    // pragmas and unknown rules are errors; a pragma that suppressed
    // nothing anywhere is a warning pointing at the pragma itself.
    for m in &models {
        for bad in &m.malformed_pragmas {
            findings.push(Finding {
                file: m.label.clone(),
                line: bad.line,
                col: bad.col,
                rule: "A0",
                severity: Severity::Error,
                message: format!("malformed ca-audit pragma: {}", bad.problem),
                hint: "write `// ca-audit: allow(<rule-id>, <reason>)` with a non-empty reason",
            });
        }
        for allow in &m.pragmas {
            if !checks::RULES.iter().any(|r| r.id == allow.rule) {
                findings.push(Finding {
                    file: m.label.clone(),
                    line: allow.line,
                    col: allow.col,
                    rule: "A0",
                    severity: Severity::Error,
                    message: format!("pragma names unknown rule `{}`", allow.rule),
                    hint: "use a rule id from `ca-audit --list-rules`; clippy rules take `#[expect(lint, reason = \"…\")]`",
                });
            } else if !used.contains(&(m.label.clone(), allow.line)) {
                findings.push(Finding {
                    file: m.label.clone(),
                    line: allow.line,
                    col: allow.col,
                    rule: "A1",
                    severity: Severity::Warning,
                    message: format!("unused suppression for rule `{}`", allow.rule),
                    hint: "delete the pragma; it no longer suppresses anything",
                });
            }
        }
    }

    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    findings
}

/// One source file of the workspace, with its owning crate.
#[derive(Debug, Clone)]
pub struct WorkspaceFile {
    /// Package name (`ca-core`, …, or `cell-aware` for the facade).
    pub crate_name: String,
    /// Absolute path.
    pub path: PathBuf,
    /// Path relative to the workspace root (label for findings).
    pub label: String,
}

/// Lists the library sources the audit covers: `crates/*/src/**/*.rs`
/// plus the facade's `src/**/*.rs`. Tests, examples and benches outside
/// `src/` are not library code and are out of scope (DESIGN.md §10);
/// clippy's `--all-targets` run covers them for the clippy rules.
///
/// # Errors
///
/// I/O errors walking the tree.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<WorkspaceFile>> {
    let mut files = Vec::new();
    let facade = root.join("src");
    if facade.is_dir() {
        collect_rs(&facade, &mut files, "cell-aware", root)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut dirs: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            let src = dir.join("src");
            if !src.is_dir() {
                continue;
            }
            let name = format!(
                "ca-{}",
                dir.file_name().and_then(|n| n.to_str()).unwrap_or("?")
            );
            collect_rs(&src, &mut files, &name, root)?;
        }
    }
    files.sort_by(|a, b| a.label.cmp(&b.label));
    Ok(files)
}

fn collect_rs(
    dir: &Path,
    out: &mut Vec<WorkspaceFile>,
    crate_name: &str,
    root: &Path,
) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out, crate_name, root)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let label = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(WorkspaceFile {
                crate_name: crate_name.to_string(),
                path,
                label,
            });
        }
    }
    Ok(())
}

/// Loads the workspace under `root` into a [`SourceSet`], including
/// `README.md` when present (enables D12).
///
/// # Errors
///
/// I/O errors reading the tree.
pub fn load_workspace(root: &Path) -> std::io::Result<SourceSet> {
    let mut set = SourceSet::default();
    for file in workspace_files(root)? {
        let content = std::fs::read_to_string(&file.path)?;
        set.files.push(SourceFile {
            crate_name: file.crate_name,
            label: file.label,
            content,
        });
    }
    let readme = root.join("README.md");
    if readme.is_file() {
        set.readme = Some(("README.md".to_string(), std::fs::read_to_string(readme)?));
    }
    Ok(set)
}

/// Audits every library source under `root` with every rule, returning
/// findings sorted by `(file, line, col, rule)`.
///
/// # Errors
///
/// I/O errors reading the tree.
pub fn audit_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    Ok(audit_sources(&load_workspace(root)?))
}

/// One record of the statically-extracted metric inventory.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricRecord {
    /// Metric name (`ca_sim.patterns.simulated`).
    pub name: String,
    /// Macro flavour label (`counter`/`histogram`/`timer`).
    pub kind: &'static str,
    /// Class ident, or `-` for timers (class is implicit).
    pub class: String,
}

/// Extracts the live metric inventory (non-test, literal-named macro
/// sites) from a source set, deduplicated and sorted.
pub fn metric_inventory_of(set: &SourceSet) -> Vec<MetricRecord> {
    let mut records: BTreeSet<MetricRecord> = BTreeSet::new();
    for f in &set.files {
        let m = FileModel::build(&f.crate_name, &f.label, &f.content);
        for s in &m.metric_sites {
            if s.is_test {
                continue;
            }
            let Some(name) = &s.name else { continue };
            records.insert(MetricRecord {
                name: name.clone(),
                kind: s.kind.label(),
                class: s.class.clone().unwrap_or_else(|| "-".to_string()),
            });
        }
    }
    records.into_iter().collect()
}

/// Extracts the metric inventory from the workspace under `root`.
///
/// # Errors
///
/// I/O errors reading the tree.
pub fn metric_inventory(root: &Path) -> std::io::Result<Vec<MetricRecord>> {
    Ok(metric_inventory_of(&load_workspace(root)?))
}

/// Renders the inventory one `name kind class` per line — the byte
/// format `ca-bench profile-check` consumes.
pub fn render_metric_inventory(records: &[MetricRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&format!("{} {} {}\n", r.name, r.kind, r.class));
    }
    out
}

/// Distinct taxonomy prefixes (`ca_x.`) of an inventory, sorted.
pub fn inventory_prefixes(records: &[MetricRecord]) -> Vec<String> {
    let set: BTreeSet<String> = records.iter().map(|r| checks::prefix_of(&r.name)).collect();
    set.into_iter().collect()
}

/// Renders findings as a JSON report (`{"schema":"ca-audit/2",...}`).
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\"schema\":\"ca-audit/2\",\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":\"{}\",\"line\":{},\"col\":{},\"rule\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\",\"hint\":\"{}\"}}",
            escape_json(&f.file),
            f.line,
            f.col,
            f.rule,
            f.severity,
            escape_json(&f.message),
            escape_json(f.hint),
        ));
    }
    let errors = findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .count();
    out.push_str(&format!(
        "],\"total\":{},\"errors\":{},\"warnings\":{}}}",
        findings.len(),
        errors,
        findings.len() - errors
    ));
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn findings_display_as_file_line_col() {
        let f = Finding {
            file: "crates/x/src/lib.rs".into(),
            line: 7,
            col: 4,
            rule: "D7",
            severity: Severity::Warning,
            message: "m".into(),
            hint: "h",
        };
        assert_eq!(
            f.to_string(),
            "warn[D7] crates/x/src/lib.rs:7:4: m (fix: h)"
        );
    }

    #[test]
    fn json_report_escapes_and_counts() {
        let f = Finding {
            file: "a\"b.rs".into(),
            line: 1,
            col: 2,
            rule: "A0",
            severity: Severity::Error,
            message: "x".into(),
            hint: "h",
        };
        let json = render_json(&[f]);
        assert!(json.contains("\\\"b.rs"));
        assert!(json.contains("\"errors\":1"));
        assert!(json.contains("\"col\":2"));
        assert!(json.contains("\"schema\":\"ca-audit/2\""));
    }

    #[test]
    fn rule_ids_are_unique_and_ordered() {
        let ids: Vec<&str> = checks::RULES.iter().map(|r| r.id).collect();
        assert_eq!(ids, ["D7", "D8", "D11", "D12"]);
        for rule in checks::RULES {
            assert!(!rule.summary.is_empty(), "{}", rule.id);
            assert!(!rule.hint.is_empty(), "{}", rule.id);
        }
    }

    #[test]
    fn inventory_renders_and_prefixes() {
        let set = SourceSet {
            files: vec![SourceFile {
                crate_name: "ca-sim".into(),
                label: "crates/sim/src/lib.rs".into(),
                content: "fn f() {\n    counter!(\"ca_sim.patterns\", Work).inc();\n    timer!(\"ca_sim.wall\").record(d);\n}\n"
                    .into(),
            }],
            readme: None,
        };
        let inv = metric_inventory_of(&set);
        assert_eq!(
            render_metric_inventory(&inv),
            "ca_sim.patterns counter Work\nca_sim.wall timer -\n"
        );
        assert_eq!(inventory_prefixes(&inv), vec!["ca_sim.".to_string()]);
    }
}
