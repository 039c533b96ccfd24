//! The rules clippy cannot express: D7 and D8 (DESIGN.md §10, §15).
//!
//! Each check walks the [`crate::model::FileModel`]s of the audited
//! source set and emits findings through [`Ctx`], which routes them
//! past the suppression pragmas and records which pragmas fired.

use crate::lexer::TokKind;
use crate::model::{adjacent, FileModel, LockKind};
use crate::{Finding, Severity};
use std::collections::{BTreeMap, BTreeSet};

/// One rule: its id, what it forbids, and a one-line fix hint.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable id (`D7`, `D8`).
    pub id: &'static str,
    /// What the rule forbids.
    pub summary: &'static str,
    /// One-line fix hint.
    pub hint: &'static str,
}

/// The rules `ca-audit` enforces, in id order. D1–D6, D9, D12 and D13
/// are clippy lints, D10 is a round-trip test and D11 is a compile-time
/// lookup in `ca_obs::inventory` (DESIGN.md §10).
pub const RULES: [Rule; 2] = [
    Rule {
        id: "D7",
        summary: "partial float comparison feeding canonical ordering",
        hint: "use f32/f64 `total_cmp` so NaN cannot poison a canonical sort",
    },
    Rule {
        id: "D8",
        summary: "lock-order hazard: nested acquisition or a cycle in the static order graph",
        hint: "acquire locks in one global order; audit a deliberate nesting with `// ca-audit: allow(D8, <why>)`",
    },
];

fn hint_of(rule: &str) -> &'static str {
    RULES.iter().find(|r| r.id == rule).map_or("", |r| r.hint)
}

/// Shared check context: the parsed files, the findings so far and the
/// pragma-usage ledger.
pub struct Ctx<'a> {
    /// Parsed source files.
    pub files: &'a [FileModel],
    /// Findings accumulated by the checks.
    pub findings: Vec<Finding>,
    /// `(file label, pragma line)` pairs that suppressed something.
    pub used: BTreeSet<(String, usize)>,
}

impl<'a> Ctx<'a> {
    /// Emits a finding unless an `allow(rule, ..)` pragma covers it.
    fn emit(
        &mut self,
        fi: usize,
        line: usize,
        col: usize,
        rule: &'static str,
        severity: Severity,
        message: String,
    ) {
        let file = &self.files[fi];
        if let Some(pline) = file.pragma_covering(line, rule) {
            self.used.insert((file.label.clone(), pline));
            return;
        }
        let label = file.label.clone();
        self.emit_raw(&label, line, col, rule, severity, message);
    }

    /// Emits at a raw label (cycle summaries) with no pragma routing.
    fn emit_raw(
        &mut self,
        label: &str,
        line: usize,
        col: usize,
        rule: &'static str,
        severity: Severity,
        message: String,
    ) {
        self.findings.push(Finding {
            file: label.to_string(),
            line,
            col,
            rule,
            severity,
            message,
            hint: hint_of(rule),
        });
    }
}

/// Runs every rule.
pub fn run_all(ctx: &mut Ctx<'_>) {
    check_partial_cmp(ctx);
    check_lock_order(ctx);
}

// ---------------------------------------------------------------- D7

/// Crates whose float orderings feed canonical bytes or model labels.
const D7_CRATES: &[&str] = &[
    "ca-core",
    "ca-netlist",
    "ca-defects",
    "ca-store",
    "ca-shard",
    "ca-serve",
    "ca-sim",
    "ca-ml",
];

/// D7: a `partial_cmp` call — `.partial_cmp(..)` or a `::partial_cmp`
/// path — outside test code, one finding per line. Defining
/// `fn partial_cmp` is not a call. Clippy cannot express this rule: a
/// `disallowed-methods` entry for `PartialOrd::partial_cmp` fires on
/// every `#[derive(PartialOrd)]`, and `f64::partial_cmp` does not
/// resolve.
fn check_partial_cmp(ctx: &mut Ctx<'_>) {
    let mut sites = Vec::new();
    for (fi, file) in ctx.files.iter().enumerate() {
        if !D7_CRATES.contains(&file.crate_name.as_str()) {
            continue;
        }
        let mut last_line = 0;
        for (i, t) in file.toks.iter().enumerate().skip(1) {
            let called = file.toks[i - 1].is_punct('.') || file.toks[i - 1].is_punct(':');
            if t.is_ident("partial_cmp")
                && called
                && t.line != last_line
                && !file.is_test_line(t.line)
            {
                last_line = t.line;
                sites.push((fi, t.line, t.col));
            }
        }
    }
    for (fi, line, col) in sites {
        ctx.emit(
            fi,
            line,
            col,
            "D7",
            Severity::Warning,
            "`partial_cmp`: partial float comparison feeding canonical ordering".to_string(),
        );
    }
}

// ---------------------------------------------------------------- D8

/// Crates whose locking is supervised by D8.
const D8_CRATES: &[&str] = &["ca-exec", "ca-serve", "ca-obs", "ca-core"];

#[derive(Clone)]
struct Site {
    fi: usize,
    line: usize,
    col: usize,
}

struct Edge {
    from: String,
    to: String,
    site: Site,
    direct: bool,
}

/// Per-crate lock landscape: lock fields/statics and the fn tables.
struct CrateLocks {
    fields: BTreeMap<String, Vec<(String, LockKind)>>,
    statics: BTreeMap<String, LockKind>,
    helpers: BTreeSet<String>,
    fn_names: BTreeSet<String>,
}

impl CrateLocks {
    fn build(files: &[FileModel], crate_name: &str) -> CrateLocks {
        let mut out = CrateLocks {
            fields: BTreeMap::new(),
            statics: BTreeMap::new(),
            helpers: BTreeSet::new(),
            fn_names: BTreeSet::new(),
        };
        for f in files.iter().filter(|f| f.crate_name == crate_name) {
            for lf in &f.lock_fields {
                out.fields
                    .entry(lf.field.clone())
                    .or_default()
                    .push((lf.owner.clone(), lf.kind));
            }
            for ls in &f.lock_statics {
                out.statics.insert(ls.name.clone(), ls.kind);
            }
            for func in &f.fns {
                out.fn_names.insert(func.name.clone());
                if func.mutex_param {
                    out.helpers.insert(func.name.clone());
                }
            }
        }
        out
    }

    /// Resolves an identifier to a lock class (`crate/Owner.field` or
    /// `crate/STATIC`). Condvars resolve to `None` — waiting adds no
    /// lock class.
    fn resolve(&self, crate_name: &str, name: &str, impl_type: Option<&str>) -> Option<String> {
        if let Some(kind) = self.statics.get(name) {
            return match kind {
                LockKind::Condvar => None,
                _ => Some(format!("{crate_name}/{name}")),
            };
        }
        let cands = self.fields.get(name)?;
        let (owner, kind) = cands
            .iter()
            .find(|(o, _)| impl_type == Some(o.as_str()))
            .or_else(|| cands.first())?;
        match kind {
            LockKind::Condvar => None,
            _ => Some(format!("{crate_name}/{owner}.{name}")),
        }
    }
}

struct Guard {
    class: String,
    name: Option<String>,
    depth: usize,
    transient: bool,
}

fn check_lock_order(ctx: &mut Ctx<'_>) {
    let crates: BTreeSet<&str> = ctx
        .files
        .iter()
        .map(|f| f.crate_name.as_str())
        .filter(|c| D8_CRATES.contains(c))
        .collect();
    let mut edges: Vec<Edge> = Vec::new();
    let mut fn_locks: BTreeMap<(String, String), BTreeSet<String>> = BTreeMap::new();
    let mut fn_callees: BTreeMap<(String, String), BTreeSet<String>> = BTreeMap::new();
    let mut held_calls: Vec<(String, Vec<String>, String, Site)> = Vec::new();

    for crate_name in &crates {
        let locks = CrateLocks::build(ctx.files, crate_name);
        for fi in 0..ctx.files.len() {
            if ctx.files[fi].crate_name != *crate_name {
                continue;
            }
            for fx in 0..ctx.files[fi].fns.len() {
                let f = &ctx.files[fi].fns[fx];
                if f.is_test || f.mutex_param || f.body.is_none() {
                    continue;
                }
                analyze_fn_locks(
                    ctx,
                    fi,
                    fx,
                    &locks,
                    &mut edges,
                    &mut fn_locks,
                    &mut fn_callees,
                    &mut held_calls,
                );
            }
        }
    }

    // Transitive lock sets over the same-crate, name-matched call
    // graph, then call-derived order edges (cycle evidence only — a
    // call that transitively takes a lock is not a local nesting).
    let mut trans = fn_locks.clone();
    loop {
        let mut changed = false;
        for (key, callees) in &fn_callees {
            for callee in callees {
                let add: Vec<String> = trans
                    .get(&(key.0.clone(), callee.clone()))
                    .map(|s| s.iter().cloned().collect())
                    .unwrap_or_default();
                let entry = trans.entry(key.clone()).or_default();
                for c in add {
                    changed |= entry.insert(c);
                }
            }
        }
        if !changed {
            break;
        }
    }
    for (crate_name, held, callee, site) in &held_calls {
        let Some(callee_locks) = trans.get(&(crate_name.clone(), callee.clone())) else {
            continue;
        };
        for to in callee_locks {
            for from in held {
                if from != to {
                    edges.push(Edge {
                        from: from.clone(),
                        to: to.clone(),
                        site: site.clone(),
                        direct: false,
                    });
                }
            }
        }
    }

    report_lock_cycles(ctx, &edges);
}

/// Walks one fn body, tracking held guards and emitting D8 nesting
/// findings; records order edges and call-graph facts.
#[expect(
    clippy::too_many_arguments,
    reason = "threads the crate's lock tables and the graph accumulators"
)]
fn analyze_fn_locks(
    ctx: &mut Ctx<'_>,
    fi: usize,
    fx: usize,
    locks: &CrateLocks,
    edges: &mut Vec<Edge>,
    fn_locks: &mut BTreeMap<(String, String), BTreeSet<String>>,
    fn_callees: &mut BTreeMap<(String, String), BTreeSet<String>>,
    held_calls: &mut Vec<(String, Vec<String>, String, Site)>,
) {
    let file = &ctx.files[fi];
    let f = &file.fns[fx];
    let crate_name = file.crate_name.clone();
    let fn_key = (crate_name.clone(), f.name.clone());
    let impl_type = f.impl_type.clone();
    let (bo, bc) = f.body.unwrap_or((0, 0));
    let toks = &file.toks;

    let mut held: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    // Deferred emissions (can't borrow ctx mutably mid-walk).
    let mut nestings: Vec<(Site, String, String, bool)> = Vec::new();
    let mut acquired: BTreeSet<String> = BTreeSet::new();
    let mut callees: BTreeSet<String> = BTreeSet::new();
    let mut while_held: Vec<(Vec<String>, String, Site)> = Vec::new();

    let mut i = bo;
    while i <= bc && i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            held.retain(|g| g.depth < depth);
            depth = depth.saturating_sub(1);
            i += 1;
            continue;
        }
        if t.is_punct(';') {
            held.retain(|g| !g.transient);
            i += 1;
            continue;
        }
        // `drop(guard)` releases a named guard early.
        if t.is_ident("drop")
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Ident)
            && toks.get(i + 3).is_some_and(|n| n.is_punct(')'))
        {
            let name = toks[i + 2].text.clone();
            held.retain(|g| g.name.as_deref() != Some(name.as_str()));
            i += 4;
            continue;
        }
        // Method acquisition: `recv.lock()` / `recv.read()` / `.write()`.
        if t.is_punct('.') && i > bo {
            let is_acq = toks
                .get(i + 1)
                .is_some_and(|m| m.is_ident("lock") || m.is_ident("read") || m.is_ident("write"))
                && toks.get(i + 2).is_some_and(|n| n.is_punct('('));
            if is_acq && toks[i - 1].kind == TokKind::Ident {
                let recv = &toks[i - 1].text;
                if let Some(class) = locks.resolve(&crate_name, recv, impl_type.as_deref()) {
                    let site_tok = &toks[i + 1];
                    let site = Site {
                        fi,
                        line: site_tok.line,
                        col: site_tok.col,
                    };
                    let call_end = file.partner(i + 2);
                    record_acquisition(
                        file,
                        i,
                        call_end,
                        bo,
                        depth,
                        &class,
                        &site,
                        &mut held,
                        &mut nestings,
                    );
                    acquired.insert(class);
                    i = call_end + 1;
                    continue;
                }
            }
        }
        // Free-fn call: helper acquisition or call-graph edge.
        if t.kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && !(i > 0 && (toks[i - 1].is_punct('.') || toks[i - 1].is_ident("fn")))
        {
            let name = t.text.clone();
            if locks.helpers.contains(&name) {
                let close = file.partner(i + 1);
                if let Some(arg) = first_arg_ident(file, i + 1, close) {
                    if let Some(class) = locks.resolve(&crate_name, &arg, impl_type.as_deref()) {
                        let site = Site {
                            fi,
                            line: t.line,
                            col: t.col,
                        };
                        record_acquisition(
                            file,
                            i,
                            close,
                            bo,
                            depth,
                            &class,
                            &site,
                            &mut held,
                            &mut nestings,
                        );
                        acquired.insert(class);
                    }
                }
            } else if locks.fn_names.contains(&name) && name != f.name {
                callees.insert(name.clone());
                if !held.is_empty() {
                    while_held.push((
                        held.iter().map(|g| g.class.clone()).collect(),
                        name,
                        Site {
                            fi,
                            line: t.line,
                            col: t.col,
                        },
                    ));
                }
            }
        } else if t.kind == TokKind::Ident
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && locks.fn_names.contains(&t.text)
        {
            // Same-crate method call (name-matched).
            callees.insert(t.text.clone());
            if !held.is_empty() {
                while_held.push((
                    held.iter().map(|g| g.class.clone()).collect(),
                    t.text.clone(),
                    Site {
                        fi,
                        line: t.line,
                        col: t.col,
                    },
                ));
            }
        }
        i += 1;
    }

    for (site, held_class, new_class, reentrant) in nestings {
        let msg = if reentrant {
            format!("re-entrant acquisition: `{new_class}` is already held")
        } else {
            format!("`{new_class}` acquired while `{held_class}` is held")
        };
        ctx.emit(site.fi, site.line, site.col, "D8", Severity::Error, msg);
        // Pragma'd nestings still feed the order graph.
        if !reentrant {
            edges.push(Edge {
                from: held_class,
                to: new_class,
                site,
                direct: true,
            });
        }
    }
    fn_locks.entry(fn_key.clone()).or_default().extend(acquired);
    fn_callees.entry(fn_key).or_default().extend(callees);
    for (h, c, s) in while_held {
        held_calls.push((crate_name.clone(), h, c, s));
    }
}

/// Registers one acquisition: nesting records against held guards,
/// then the new guard with its binding lifetime.
#[expect(
    clippy::too_many_arguments,
    reason = "one acquisition's site, span and the walk's guard state"
)]
fn record_acquisition(
    file: &FileModel,
    acq_idx: usize,
    call_end: usize,
    body_open: usize,
    depth: usize,
    class: &str,
    site: &Site,
    held: &mut Vec<Guard>,
    nestings: &mut Vec<(Site, String, String, bool)>,
) {
    for g in held.iter() {
        nestings.push((
            site.clone(),
            g.class.clone(),
            class.to_string(),
            g.class == class,
        ));
    }
    let (name, until_block) = binding_of(file, acq_idx, call_end, body_open);
    held.push(Guard {
        class: class.to_string(),
        name,
        depth,
        transient: !until_block,
    });
}

/// Determines how long the guard produced at `acq_idx` lives: a plain
/// `let g = <acquire>(.unwrap()/…)?;` binds to end of block; anything
/// else (chained access, expression position) is a temporary that dies
/// at the statement's `;`.
fn binding_of(
    file: &FileModel,
    acq_idx: usize,
    call_end: usize,
    body_open: usize,
) -> (Option<String>, bool) {
    let toks = &file.toks;
    // Statement start: walk back to the previous `;`, `{`, `}` or `=>`.
    let mut s = acq_idx;
    while s > body_open {
        let t = &toks[s - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        if t.is_punct('>') && s >= 2 && toks[s - 2].is_punct('=') && adjacent(&toks[s - 2], t) {
            break;
        }
        s -= 1;
    }
    if !toks.get(s).is_some_and(|t| t.is_ident("let")) {
        return (None, false);
    }
    let mut j = s + 1;
    if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    let name = toks
        .get(j)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone());
    // Tail after the acquiring call: only error-handling chains and
    // `?` may follow before the `;` for the guard to be block-lived.
    let mut k = call_end + 1;
    loop {
        let Some(t) = toks.get(k) else {
            return (name, false);
        };
        if t.is_punct(';') {
            return (name, true);
        }
        if t.is_punct('?') {
            k += 1;
            continue;
        }
        if t.is_punct('.')
            && toks.get(k + 1).is_some_and(|m| {
                matches!(
                    m.text.as_str(),
                    "unwrap" | "expect" | "unwrap_or_else" | "unwrap_or" | "map_err"
                )
            })
            && toks.get(k + 2).is_some_and(|n| n.is_punct('('))
        {
            k = file.partner(k + 2) + 1;
            continue;
        }
        return (name, false);
    }
}

/// Last identifier of the first argument inside `(open..close)`.
fn first_arg_ident(file: &FileModel, open: usize, close: usize) -> Option<String> {
    let toks = &file.toks;
    let mut last = None;
    let mut k = open + 1;
    while k < close {
        let t = &toks[k];
        if t.is_punct(',') {
            break;
        }
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            k = file.partner(k) + 1;
            continue;
        }
        if t.kind == TokKind::Ident {
            last = Some(t.text.clone());
        }
        k += 1;
    }
    last
}

/// SCC detection over the order graph; one error per non-trivial SCC.
fn report_lock_cycles(ctx: &mut Ctx<'_>, edges: &[Edge]) {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for e in edges {
        adj.entry(&e.from).or_default().insert(&e.to);
        nodes.insert(&e.from);
        nodes.insert(&e.to);
    }
    // Kosaraju: order by completion, then assign on the transpose.
    let mut order: Vec<&str> = Vec::new();
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for &n in &nodes {
        if seen.contains(n) {
            continue;
        }
        // Iterative DFS with an explicit done-marker frame.
        let mut stack: Vec<(&str, bool)> = vec![(n, false)];
        while let Some((v, done)) = stack.pop() {
            if done {
                order.push(v);
                continue;
            }
            if !seen.insert(v) {
                continue;
            }
            stack.push((v, true));
            if let Some(next) = adj.get(v) {
                for &w in next {
                    if !seen.contains(w) {
                        stack.push((w, false));
                    }
                }
            }
        }
    }
    let mut radj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        radj.entry(&e.to).or_default().insert(&e.from);
    }
    let mut comp: BTreeMap<&str, usize> = BTreeMap::new();
    let mut n_comp = 0usize;
    for &n in order.iter().rev() {
        if comp.contains_key(n) {
            continue;
        }
        let mut stack = vec![n];
        while let Some(v) = stack.pop() {
            if comp.contains_key(v) {
                continue;
            }
            comp.insert(v, n_comp);
            if let Some(prev) = radj.get(v) {
                for &w in prev {
                    if !comp.contains_key(w) {
                        stack.push(w);
                    }
                }
            }
        }
        n_comp += 1;
    }
    for c in 0..n_comp {
        let members: Vec<&str> = comp
            .iter()
            .filter(|(_, &cc)| cc == c)
            .map(|(&n, _)| n)
            .collect();
        if members.len() < 2 {
            continue;
        }
        // Representative site: the first direct edge inside the SCC
        // (fall back to a derived one), by (file, line, col).
        let mut in_scc: Vec<&Edge> = edges
            .iter()
            .filter(|e| members.contains(&e.from.as_str()) && members.contains(&e.to.as_str()))
            .collect();
        in_scc.sort_by_key(|e| {
            (
                !e.direct,
                ctx.files[e.site.fi].label.clone(),
                e.site.line,
                e.site.col,
            )
        });
        let Some(rep) = in_scc.first() else { continue };
        let label = ctx.files[rep.site.fi].label.clone();
        let (line, col) = (rep.site.line, rep.site.col);
        ctx.emit_raw(
            &label,
            line,
            col,
            "D8",
            Severity::Error,
            format!("lock-order cycle between {}", members.join(" <-> ")),
        );
    }
}
