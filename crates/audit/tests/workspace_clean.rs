//! The live gate: the actual workspace must audit clean, every
//! suppression of a determinism, durability, environment or panic-path
//! rule must sit at a documented site (DESIGN.md §10), and the README's
//! env-var table must name exactly the variables the programs read.
//! `scripts/ci.sh` runs the same audit via `ca-audit --deny warn`.

use ca_audit::model::FileModel;
use ca_audit::workspace_files;
use std::path::{Path, PathBuf};

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn workspace_audits_clean() {
    let findings = ca_audit::audit_workspace(workspace_root()).expect("audit I/O");
    assert!(
        findings.is_empty(),
        "workspace has audit findings:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn audit_covers_every_workspace_crate() {
    let files = workspace_files(workspace_root()).expect("walk");
    let mut crates: Vec<String> = files.iter().map(|f| f.crate_name.clone()).collect();
    crates.sort();
    crates.dedup();
    for expected in [
        "ca-audit",
        "ca-bench",
        "ca-core",
        "ca-defects",
        "ca-exec",
        "ca-ml",
        "ca-netlist",
        "ca-obs",
        "ca-rng",
        "ca-serve",
        "ca-shard",
        "ca-sim",
        "ca-store",
        "cell-aware",
    ] {
        assert!(
            crates.iter().any(|c| c == expected),
            "audit walk missed crate {expected}: {crates:?}"
        );
    }
}

/// Every `.rs` file clippy's `--all-targets` run lints: the workspace
/// minus build output and the deliberately failing `lint-fixtures/`.
fn linted_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !(name.starts_with('.') || name == "target" || name == "lint-fixtures") {
                linted_sources(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// The sanctioned reads of the process environment (rule D12): every
/// `#[expect(clippy::disallowed_methods, reason = "D12: CA_…")]`, by
/// file and variable. The non-test ones are the README's env-var table.
const D12_SITES: &[(&str, &str)] = &[
    ("crates/exec/src/lib.rs", "CA_THREADS"),
    ("crates/obs/src/event.rs", "CA_OBS"),
    ("crates/obs/src/event.rs", "CA_OBS_PATH"),
    ("crates/obs/src/trace.rs", "CA_TRACE"),
    ("crates/shard/src/worker.rs", "CA_SHARD_SPEC"),
    ("tests/crash_recovery.rs", "CA_CRASH_HALT"),
    ("tests/crash_recovery.rs", "CA_CRASH_STORE"),
    ("tests/crash_recovery.rs", "CA_PROFILE_STORE"),
    ("tests/crash_recovery.rs", "CA_THREADS"),
];

/// The README marker that opens the env-var table.
const ENV_TABLE: &str = "<!-- ca-audit:env-table -->";

#[test]
fn suppressions_only_in_documented_sites() {
    // (path prefix, lint) pairs documented in DESIGN.md §10: ca-store's
    // durability primitives and corruption harnesses, the forest
    // trainer's never-iterated dedup map, indexing in the supervised
    // crates, and the crash-recovery suite's raw journal copy. D12's
    // env reads share D4's lint and are told apart by the rule id that
    // opens their reason; they are pinned one by one in `D12_SITES`.
    const SANCTIONED: &[(&str, &str)] = &[
        ("crates/store/", "disallowed_types"),
        ("crates/store/", "disallowed_methods"),
        ("crates/ml/src/view.rs", "disallowed_types"),
        ("crates/serve/", "indexing_slicing"),
        ("crates/shard/", "indexing_slicing"),
        ("crates/exec/", "indexing_slicing"),
        ("tests/crash_recovery.rs", "disallowed_methods"),
    ];
    const PINNED: [&str; 3] = ["disallowed_types", "disallowed_methods", "indexing_slicing"];

    let root = workspace_root();
    let mut files = Vec::new();
    linted_sources(root, &mut files);
    assert!(files.len() > 100, "walk found only {} files", files.len());
    let mut seen = 0;
    let mut d12_sites = Vec::new();
    for path in files {
        let label = path
            .strip_prefix(root)
            .expect("under root")
            .to_string_lossy()
            .replace('\\', "/");
        let content = std::fs::read_to_string(&path).expect("read");
        let m = FileModel::build("", &label, &content);
        let t = &m.toks;
        for i in 0..t.len().saturating_sub(3) {
            if !(t[i].is_ident("clippy") && m.is_path_sep(i + 1)) {
                continue;
            }
            let lint = t[i + 3].text.as_str();
            if !PINNED.contains(&lint) {
                continue;
            }
            // The level is the ident before the innermost `(` around
            // the path: `deny(…)` sets a rule, `expect(…)` suppresses it.
            let open = (1..i)
                .rev()
                .find(|&k| t[k].is_punct('(') && m.partner(k) > i);
            let level = open.map_or("", |k| t[k - 1].text.as_str());
            if level == "deny" {
                continue;
            }
            seen += 1;
            let site = format!("{label}:{}", t[i].line);
            assert_eq!(
                level, "expect",
                "{site}: suppress clippy::{lint} with #[expect(.., reason = ..)]"
            );
            let reason = open
                .and_then(|k| (i + 3..m.partner(k)).find(|&r| t[r].is_ident("reason")))
                .and_then(|r| t.get(r + 2))
                .map_or("", |r| r.text.as_str());
            if let Some(rest) = reason.strip_prefix("D12: ") {
                assert_eq!(lint, "disallowed_methods", "{site}");
                let var = rest.split_whitespace().next().unwrap_or_default();
                d12_sites.push((label.clone(), var.to_string()));
                continue;
            }
            assert!(
                SANCTIONED
                    .iter()
                    .any(|&(prefix, l)| label.starts_with(prefix) && l == lint),
                "unsanctioned suppression of clippy::{lint} at {site}"
            );
        }
        // D8's audited nesting keeps the pragma grammar, but no site of
        // the workspace needs one.
        assert!(
            m.pragmas.is_empty(),
            "ca-audit pragma in {label}: {:?}",
            m.pragmas
        );
    }
    assert!(seen > 0, "no suppressions found: the scan is broken");

    d12_sites.sort();
    let mut pinned: Vec<(String, String)> = D12_SITES
        .iter()
        .map(|&(file, var)| (file.to_string(), var.to_string()))
        .collect();
    pinned.sort();
    assert_eq!(d12_sites, pinned, "the D12 sites moved");

    // The README documents exactly the variables the programs read.
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README");
    let documented: Vec<&str> = readme
        .lines()
        .skip_while(|line| !line.contains(ENV_TABLE))
        .skip(1)
        .skip_while(|line| line.trim().is_empty())
        .take_while(|line| line.trim_start().starts_with('|'))
        .filter_map(|row| row.split('`').nth(1))
        .filter(|name| name.starts_with("CA_"))
        .collect();
    let mut read: Vec<&str> = D12_SITES
        .iter()
        .filter(|(file, _)| file.contains("src/"))
        .map(|&(_, var)| var)
        .collect();
    read.sort();
    read.dedup();
    let mut table = documented.clone();
    table.sort();
    assert_eq!(table.len(), documented.len(), "duplicate env-table rows");
    assert_eq!(table, read, "README env-var table vs the D12 sites");
}
