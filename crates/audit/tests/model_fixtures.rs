//! Fire/quiet fixture self-tests for the rules (D7, D8) and pragma
//! hygiene (A0, A1). Each fire fixture seeds exactly one
//! violation and pins the finding's span; each quiet fixture shows the
//! audited way to write the same code. Fixture code lives in string
//! literals, which the lexer never reads as code, so these snippets
//! cannot leak findings into a real workspace audit.

use ca_audit::{audit_sources, Severity, SourceFile};

fn set(files: &[(&str, &str, &str)]) -> Vec<SourceFile> {
    files
        .iter()
        .map(|(c, l, s)| SourceFile {
            crate_name: c.to_string(),
            label: l.to_string(),
            content: s.to_string(),
        })
        .collect()
}

fn rule<'a>(findings: &'a [ca_audit::Finding], id: &str) -> Vec<&'a ca_audit::Finding> {
    findings.iter().filter(|f| f.rule == id).collect()
}

/// Audits `src` as `crates/<dir>/src/fix.rs` of `crate_name`.
fn audit_one(crate_name: &str, src: &str) -> Vec<ca_audit::Finding> {
    let dir = crate_name.trim_start_matches("ca-");
    let label = format!("crates/{dir}/src/fix.rs");
    audit_sources(&set(&[(crate_name, &label, src)]))
}

// --------------------------------------------------------------- D7

const D7_SORT: &str =
    "fn f(v: &mut Vec<f64>) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";

#[test]
fn d7_fires_on_partial_cmp_in_canonical_crates() {
    let findings = audit_one("ca-core", D7_SORT);
    let d7 = rule(&findings, "D7");
    assert_eq!(d7.len(), 1, "{findings:?}");
    assert_eq!((d7[0].line, d7[0].col), (2, 24), "{}", d7[0]);
    assert_eq!(d7[0].severity, Severity::Warning);
    // The path form is the same comparison.
    let path = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| f64::partial_cmp(a, b).unwrap()); }\n";
    assert_eq!(rule(&audit_one("ca-ml", path), "D7").len(), 1);
}

#[test]
fn d7_quiet_on_total_cmp_definitions_tests_and_other_crates() {
    let total = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.total_cmp(b)); }\n";
    // Defining `fn partial_cmp` in a PartialOrd impl is not a call.
    let impl_def = "impl PartialOrd for X {\n    fn partial_cmp(&self, o: &X) -> Option<Ordering> { Some(self.cmp(o)) }\n}\n";
    let in_test = "#[cfg(test)]\nmod tests {\n    fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n}\n";
    let mention =
        "// a.partial_cmp(b) would break this\nfn f() { let s = \"x.partial_cmp(y)\"; }\n";
    for src in [total, impl_def, in_test, mention] {
        let findings = audit_one("ca-core", src);
        assert!(rule(&findings, "D7").is_empty(), "{src}: {findings:?}");
    }
    // The bench binary ranks display tables however it likes.
    assert!(rule(&audit_one("ca-bench", D7_SORT), "D7").is_empty());
}

// --------------------------------------------------------------- D8

/// Seeded lock-order inversion: two functions nest the same pair of
/// mutexes in opposite orders. Both nesting sites carry an audited
/// pragma, so the only surviving finding is the (non-suppressible)
/// cycle error — exactly one, at the first inverted acquisition.
const D8_INVERSION: &str = r#"
use std::sync::Mutex;

pub struct Admission { pub q: Mutex<u32> }
pub struct Engine { pub jobs: Mutex<u32> }

pub struct Server { pub adm: Admission, pub eng: Engine }

impl Server {
    pub fn submit(&self) {
        let q = self.adm.q.lock().unwrap();
        // ca-audit: allow(D8, fixture: audited admission-then-engine nesting)
        let j = self.eng.jobs.lock().unwrap();
        drop(j);
        drop(q);
    }
    pub fn drain(&self) {
        let j = self.eng.jobs.lock().unwrap();
        // ca-audit: allow(D8, fixture: audited engine-then-admission nesting)
        let q = self.adm.q.lock().unwrap();
        drop(q);
        drop(j);
    }
}
"#;

#[test]
fn d8_fires_on_seeded_lock_inversion() {
    let findings = audit_sources(&set(&[(
        "ca-serve",
        "crates/serve/src/fix.rs",
        D8_INVERSION,
    )]));
    let d8 = rule(&findings, "D8");
    assert_eq!(d8.len(), 1, "want exactly the cycle error: {findings:?}");
    let f = d8[0];
    assert_eq!(f.severity, Severity::Error);
    assert!(f.message.contains("lock-order cycle"), "{f}");
    assert!(
        f.message.contains("ca-serve/Admission.q") && f.message.contains("ca-serve/Engine.jobs"),
        "{f}"
    );
    // Span-accurate: the first inverted acquisition is the `jobs`
    // receiver on line 13 of the fixture.
    assert_eq!(
        (f.file.as_str(), f.line),
        ("crates/serve/src/fix.rs", 13),
        "{f}"
    );
    assert!(f.col > 1, "column must be real, got {f}");
    // The two nesting pragmas suppressed real findings, so no A1.
    assert!(rule(&findings, "A1").is_empty(), "{findings:?}");
}

#[test]
fn d8_fires_on_unaudited_cross_class_nesting() {
    let src = r#"
use std::sync::Mutex;
pub struct A { pub first: Mutex<u32> }
pub struct B { pub second: Mutex<u32> }
pub struct S { pub a: A, pub b: B }
impl S {
    pub fn nested(&self) {
        let g = self.a.first.lock().unwrap();
        let h = self.b.second.lock().unwrap();
        drop(h);
        drop(g);
    }
}
"#;
    let findings = audit_sources(&set(&[("ca-core", "crates/core/src/fix.rs", src)]));
    let d8 = rule(&findings, "D8");
    assert_eq!(d8.len(), 1, "{findings:?}");
    assert!(d8[0].message.contains("acquired while"), "{}", d8[0]);
}

#[test]
fn d8_quiet_on_consistent_order_and_dropped_guards() {
    let src = r#"
use std::sync::Mutex;
pub struct A { pub first: Mutex<u32> }
pub struct B { pub second: Mutex<u32> }
pub struct S { pub a: A, pub b: B }
impl S {
    pub fn forward(&self) {
        let g = self.a.first.lock().unwrap();
        // ca-audit: allow(D8, documented a-before-b order)
        let h = self.b.second.lock().unwrap();
        drop(h);
        drop(g);
    }
    pub fn sequential(&self) {
        let g = self.a.first.lock().unwrap();
        drop(g);
        let h = self.b.second.lock().unwrap();
        drop(h);
    }
}
"#;
    let findings = audit_sources(&set(&[("ca-core", "crates/core/src/fix.rs", src)]));
    assert!(rule(&findings, "D8").is_empty(), "{findings:?}");
}

/// The inversion must also be seen when the two acquisitions live in
/// different functions connected by a call while a lock is held.
#[test]
fn d8_fires_across_call_graph() {
    let src = r#"
use std::sync::Mutex;
pub struct A { pub first: Mutex<u32> }
pub struct B { pub second: Mutex<u32> }
pub struct S { pub a: A, pub b: B }
impl S {
    fn inner_second(&self) {
        let h = self.b.second.lock().unwrap();
        drop(h);
    }
    fn inner_first(&self) {
        let g = self.a.first.lock().unwrap();
        drop(g);
    }
    pub fn ab(&self) {
        let g = self.a.first.lock().unwrap();
        self.inner_second();
        drop(g);
    }
    pub fn ba(&self) {
        let h = self.b.second.lock().unwrap();
        self.inner_first();
        drop(h);
    }
}
"#;
    let findings = audit_sources(&set(&[("ca-exec", "crates/exec/src/fix.rs", src)]));
    let d8 = rule(&findings, "D8");
    assert_eq!(d8.len(), 1, "{findings:?}");
    assert!(d8[0].message.contains("lock-order cycle"), "{}", d8[0]);
}

// ---------------------------------------------------------- A0 / A1

/// Regression: an unused pragma is reported at the pragma's own
/// file:line:col, not at whatever site the rule last visited — also
/// across files, where the ledger is global.
#[test]
fn a1_points_at_the_pragma_itself() {
    let used = r#"
pub fn f(v: &mut Vec<f64>) {
    // ca-audit: allow(D7, fixture: suppresses the comparison below)
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
}
"#;
    let unused = r#"
pub fn quiet() -> u32 {
    // ca-audit: allow(D7, fixture: nothing here can fire)
    7
}
"#;
    let findings = audit_sources(&set(&[
        ("ca-core", "crates/core/src/used.rs", used),
        ("ca-core", "crates/core/src/unused.rs", unused),
    ]));
    assert!(rule(&findings, "D7").is_empty(), "{findings:?}");
    let a1 = rule(&findings, "A1");
    assert_eq!(a1.len(), 1, "{findings:?}");
    let f = a1[0];
    assert_eq!(
        (f.file.as_str(), f.line, f.col),
        ("crates/core/src/unused.rs", 3, 5),
        "A1 must carry the pragma's own span: {f}"
    );
}

#[test]
fn pragma_covers_its_own_line_and_the_next_only() {
    let trailing = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()) } // ca-audit: allow(D7, trailing form)\n";
    assert!(audit_one("ca-core", trailing).is_empty());
    // Two lines above the violation is out of range: it still fires,
    // and the pragma is reported unused.
    let far = format!("// ca-audit: allow(D7, too far away)\nfn pad() {{}}\n{D7_SORT}");
    let findings = audit_one("ca-core", &far);
    assert_eq!(rule(&findings, "D7").len(), 1, "{findings:?}");
    assert_eq!(rule(&findings, "A1").len(), 1, "{findings:?}");
}

#[test]
fn malformed_unknown_and_retired_pragmas_are_errors() {
    for pragma in [
        "// ca-audit: allow(D7)",
        "// ca-audit: allow(D99, because)",
        // Clippy enforces D4 now: suppress it with #[expect] instead.
        "// ca-audit: allow(D4, deliberate corruption harness)",
    ] {
        let findings = audit_one("ca-core", &format!("{pragma}\nfn f() {{}}\n"));
        let a0 = rule(&findings, "A0");
        assert_eq!(a0.len(), 1, "{pragma}: {findings:?}");
        assert_eq!(a0[0].severity, Severity::Error);
    }
}
