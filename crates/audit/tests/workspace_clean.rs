//! The live gate: the actual workspace must audit clean, and every
//! suppression of a determinism, durability or panic-path rule must sit
//! at a documented site (DESIGN.md §10). `scripts/ci.sh` runs the same
//! audit via `ca-audit --deny warn`.

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

/// D11's input, the metric inventory, renders byte-identically on every
/// read and is not implausibly small (a scanner that stopped seeing
/// macro sites would otherwise pass D11 vacuously).
#[test]
fn metric_inventory_is_deterministic_and_complete() {
    let inv = ca_audit::metric_inventory(workspace_root()).expect("inventory I/O");
    let a = ca_audit::render_metric_inventory(&inv);
    let b = ca_audit::render_metric_inventory(
        &ca_audit::metric_inventory(workspace_root()).expect("re-read"),
    );
    assert_eq!(a, b);
    assert!(a.lines().count() >= 50, "inventory implausibly small:\n{a}");
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

#[test]
fn suppressions_only_in_documented_sites() {
    // (path prefix, lint) pairs documented in DESIGN.md §10: ca-store's
    // durability primitives and corruption harnesses, the forest
    // trainer's never-iterated dedup map, indexing in the supervised
    // crates, and the crash-recovery suite's raw journal copy.
    const SANCTIONED: &[(&str, &str)] = &[
        ("crates/store/", "disallowed_types"),
        ("crates/store/", "disallowed_methods"),
        ("crates/ml/src/view.rs", "disallowed_types"),
        ("crates/serve/", "indexing_slicing"),
        ("crates/shard/", "indexing_slicing"),
        ("crates/exec/", "indexing_slicing"),
        ("tests/crash_recovery.rs", "disallowed_methods"),
    ];
    // The one remaining ca-audit pragma: ca-obs records ca-store's
    // recovery counter (D11).
    const SANCTIONED_PRAGMAS: &[(&str, &str)] = &[("crates/obs/", "D11")];
    const PINNED: [&str; 3] = ["disallowed_types", "disallowed_methods", "indexing_slicing"];

    let root = workspace_root();
    let mut files = Vec::new();
    linted_sources(root, &mut files);
    assert!(files.len() > 100, "walk found only {} files", files.len());
    let mut seen = 0;
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
            let level = (1..i)
                .rev()
                .find(|&k| t[k].is_punct('(') && m.partner(k) > i)
                .map_or("", |k| t[k - 1].text.as_str());
            if level == "deny" {
                continue;
            }
            seen += 1;
            let site = format!("{label}:{}", t[i].line);
            assert_eq!(
                level, "expect",
                "{site}: suppress clippy::{lint} with #[expect(.., reason = ..)]"
            );
            assert!(
                SANCTIONED
                    .iter()
                    .any(|&(prefix, l)| label.starts_with(prefix) && l == lint),
                "unsanctioned suppression of clippy::{lint} at {site}"
            );
        }
        for pragma in &m.pragmas {
            assert!(
                SANCTIONED_PRAGMAS
                    .iter()
                    .any(|&(prefix, rule)| label.starts_with(prefix) && rule == pragma.rule),
                "unsanctioned ca-audit pragma in {label}: {pragma:?}"
            );
        }
    }
    assert!(seen > 0, "no suppressions found: the scan is broken");
}
