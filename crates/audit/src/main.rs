//! `ca-audit` CLI — audits the workspace sources against DESIGN.md §10/§15.
//!
//! ```text
//! ca-audit [--root DIR] [--json] [--deny warn] [--list-rules]
//! ```
//!
//! Exit codes: 0 clean, 1 findings that fail the selected policy
//! (errors always fail; warnings fail under `--deny warn`), 2 usage or
//! I/O error.

// Workspace rule D6 (DESIGN.md §10): document every `unsafe` block.
// Every lint suppression states its reason.
#![deny(
    clippy::undocumented_unsafe_blocks,
    clippy::allow_attributes_without_reason
)]

use ca_audit::{audit_workspace, checks::RULES, render_json, Severity};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut deny_warn = false;
    let mut list_rules = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage("--root needs a directory"),
            },
            "--json" => json = true,
            "--deny" => match args.next().as_deref() {
                Some("warn") => deny_warn = true,
                _ => return usage("--deny takes the literal `warn`"),
            },
            "--list-rules" => list_rules = true,
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    if list_rules {
        for rule in RULES {
            println!("{:4} {}", rule.id, rule.summary);
            println!("     fix: {}", rule.hint);
        }
        return ExitCode::SUCCESS;
    }

    // Accept being launched from the workspace root or from the crate
    // directory (cargo run sets cwd to the invocation dir).
    if !root.join("crates").is_dir() && root.join("../../crates").is_dir() {
        root = root.join("../..");
    }

    let findings = match audit_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("ca-audit: cannot audit {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    let errors = findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .count();
    if json {
        println!("{}", render_json(&findings));
    } else if findings.is_empty() {
        println!("ca-audit: workspace clean ({} rules)", RULES.len());
    } else {
        for finding in &findings {
            println!("{finding}");
        }
        println!(
            "ca-audit: {} finding(s) ({} error(s), {} warning(s))",
            findings.len(),
            errors,
            findings.len() - errors,
        );
    }

    if errors > 0 || (deny_warn && !findings.is_empty()) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("ca-audit: {msg}");
    print_help();
    ExitCode::from(2)
}

fn print_help() {
    println!(
        "ca-audit — workspace invariant auditor (DESIGN.md \u{a7}10, \u{a7}15)\n\n\
         USAGE: ca-audit [--root DIR] [--json] [--deny warn] [--list-rules]\n\n\
         OPTIONS:\n\
           --root DIR            workspace root to audit (default: .)\n\
           --json                emit a ca-audit/2 JSON report instead of text\n\
           --deny warn           exit non-zero on warnings, not just errors\n\
           --list-rules          print the rule table and exit"
    );
}
