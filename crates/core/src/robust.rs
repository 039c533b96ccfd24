//! Fault-tolerant library characterization: per-cell isolation, solver
//! budgets, and quarantine reports.
//!
//! Real libraries contain damage — hand-edited netlists, extraction
//! artifacts, unintended feedback loops — and a nightly characterization
//! run must degrade per cell, not per library. Every cell that
//! [`characterize_library_robust`], the plain drivers built on it
//! ([`characterize_library_with`](crate::characterize_library_with)) and
//! the [`CellService`](crate::CellService) simulate runs through one
//! guarded pipeline:
//!
//! 1. **Lint** — structural pre-flight ([`ca_netlist::lint()`]); any
//!    error-level finding quarantines the cell before a single
//!    simulation is spent.
//! 2. **Prepare + characterize** — canonicalization and budgeted model
//!    generation through the [`CharCache`], wrapped in
//!    [`std::panic::catch_unwind`] so even a panicking cell only loses
//!    itself. Generation checks the defect-free (golden) solve of every
//!    stimulus it simulates: oscillation becomes
//!    [`CoreError::SolverDiverged`] instead of silent X-forcing.
//!
//! A failure's [`FailurePhase`] is read off its error. Failures are
//! collected into a [`Quarantine`] report; the [`FaultPolicy`] decides
//! whether to abort, skip, or retry with a reduced budget (halved defect
//! universe, static-only stimuli) so a partially characterized —
//! *degraded* — model still exports.

// This module exists to keep broken cells from taking down a batch;
// it must not itself abort on a stray unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::cache::CharCache;
use crate::error::CoreError;
use crate::matrix::PreparedCell;
use crate::session::{Reuse, Session};
use ca_defects::GenerateOptions;
use ca_exec::Executor;
use ca_netlist::library::Library;
use ca_netlist::lint::{lint, Finding, Severity};
use ca_netlist::Cell;
use ca_obs::clock::Deadline;
use ca_obs::Stopwatch;
use ca_sim::SimBudget;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// What to do when a cell fails characterization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPolicy {
    /// Abort the batch on the first failure (the plain drivers'
    /// behaviour).
    FailFast,
    /// Quarantine the cell and continue with the rest of the library.
    SkipAndReport,
    /// Like `SkipAndReport`, but budget-exhausted cells are retried up
    /// to `n` times with a progressively reduced budget: the defect
    /// universe is halved per attempt, stimuli are truncated to the
    /// statics, and the wall-clock/iteration limits are lifted. A retry
    /// that succeeds yields a [degraded](ca_defects::CaModel::degraded)
    /// model.
    RetryWithReducedBudget(u32),
}

/// Pipeline stage at which a quarantined cell failed. The discriminant
/// is persisted in the session journal (see `session::encode_phase`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailurePhase {
    /// Structural lint pre-flight (journal wire v1 tag 0).
    Lint,
    /// Defect-free (golden) simulation: it oscillated or exhausted the
    /// solver-iteration cap (journal wire v1 tag 1).
    Golden,
    /// Activation extraction / canonicalization, or any failure no
    /// other phase names (journal wire v1 tag 2).
    Prepare,
    /// Budgeted model generation ran out of wall clock (journal wire v1
    /// tag 3).
    Characterize,
}

impl FailurePhase {
    /// The phase of a prepare-and-characterize failure, read off its
    /// error. Only golden solves are checked (faulty solves X-force), so
    /// an exhausted iteration cap is golden, like an oscillation.
    pub(crate) fn of(err: &CoreError) -> FailurePhase {
        match err {
            CoreError::SolverDiverged { .. } => FailurePhase::Golden,
            CoreError::BudgetExceeded { resource, .. } if resource == "solver iterations" => {
                FailurePhase::Golden
            }
            CoreError::BudgetExceeded { resource, .. } if resource == "wall clock" => {
                FailurePhase::Characterize
            }
            _ => FailurePhase::Prepare,
        }
    }
}

impl fmt::Display for FailurePhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailurePhase::Lint => write!(f, "lint"),
            FailurePhase::Golden => write!(f, "golden"),
            FailurePhase::Prepare => write!(f, "prepare"),
            FailurePhase::Characterize => write!(f, "characterize"),
        }
    }
}

/// One quarantined cell.
#[derive(Debug, Clone)]
pub struct QuarantineEntry {
    /// Cell name.
    pub cell: String,
    /// Stage that failed (after any retries).
    pub phase: FailurePhase,
    /// Human-readable failure reason.
    pub reason: String,
    /// Wall-clock time spent on the cell, retries included.
    pub elapsed: Duration,
    /// Number of reduced-budget retries that were attempted.
    pub retries: u32,
}

/// Report of every cell a robust run could not characterize.
#[derive(Debug, Clone, Default)]
pub struct Quarantine {
    /// Entries in library order.
    pub entries: Vec<QuarantineEntry>,
}

impl Quarantine {
    /// Number of quarantined cells.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether every cell characterized cleanly.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry for `cell`, if it was quarantined.
    pub fn entry(&self, cell: &str) -> Option<&QuarantineEntry> {
        self.entries.iter().find(|e| e.cell == cell)
    }

    /// Renders a compact text report, one line per cell.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "quarantine: {} cell(s)", self.len());
        for e in &self.entries {
            let _ = writeln!(
                out,
                "  {} [{}] {} ({} ms, {} retries)",
                e.cell,
                e.phase,
                e.reason,
                e.elapsed.as_millis(),
                e.retries
            );
        }
        out
    }
}

/// Result of [`characterize_library_robust`].
#[derive(Debug)]
pub struct RobustOutcome {
    /// Successfully characterized cells (possibly with degraded models).
    pub prepared: Vec<PreparedCell>,
    /// Cells that failed, with per-cell diagnosis.
    pub quarantine: Quarantine,
}

impl RobustOutcome {
    /// Cells whose model was produced under a reduced budget.
    pub fn degraded_count(&self) -> usize {
        self.prepared
            .iter()
            .filter(|p| p.model.as_ref().is_some_and(|m| m.degraded))
            .count()
    }
}

/// Characterizes every cell of `library` under `budget` on `executor`,
/// through the structure-keyed `cache`, isolating per-cell failures
/// according to `policy`.
///
/// The invariant callers rely on: `prepared.len() + quarantine.len() ==
/// library.len()` (under [`FaultPolicy::SkipAndReport`] and
/// [`FaultPolicy::RetryWithReducedBudget`]). The outcome is
/// deterministic in everything but per-entry `elapsed` times: `prepared`
/// and `quarantine.entries` are in library order, and under
/// [`FaultPolicy::FailFast`] the error of the *first* failing cell in
/// library order is returned — identical at every thread count.
///
/// With a durable [`Session`], previously journaled cells (complete,
/// degraded *and* — except under [`FaultPolicy::FailFast`] —
/// quarantined) are verified against the incoming library and reused
/// instead of re-simulated, and every fresh outcome is journaled as it
/// lands. A run killed at any point can be re-invoked with the same
/// arguments and converges to the uninterrupted run's models and
/// quarantine verdicts (per-entry `elapsed` aside).
///
/// # Errors
///
/// Only [`FaultPolicy::FailFast`] returns an error — the first per-cell
/// failure in library order.
pub fn characterize_library_robust(
    library: &Library,
    options: GenerateOptions,
    budget: &SimBudget,
    policy: FaultPolicy,
    executor: &Executor,
    cache: &CharCache,
    session: Option<&Session>,
) -> Result<RobustOutcome, CoreError> {
    // Quarantine verdicts are replayed as their stored reason string; a
    // fail-fast run must surface the original `CoreError` value, which a
    // string cannot reconstruct, so it re-diagnoses instead.
    let plan = session
        .map(|s| {
            s.plan(
                library,
                options,
                budget,
                cache,
                policy != FaultPolicy::FailFast,
            )
        })
        .unwrap_or_default();
    let max_retries = match policy {
        FaultPolicy::RetryWithReducedBudget(n) => n,
        FaultPolicy::FailFast | FaultPolicy::SkipAndReport => 0,
    };
    // Each item runs the full guarded pipeline, retries included; the
    // fold below never simulates, so the merge stays in library order.
    let results = executor.map(&library.cells, |_, lc| {
        // One trace span per session cell, named after the cell. The
        // executor adopted a per-item fork of the caller's context, so
        // the id is a pure function of campaign + item — identical at
        // any CA_THREADS and across a crash-resume (DESIGN.md §14).
        let _cell_span = ca_obs::trace::span(lc.cell.name());
        let started = Stopwatch::start();
        match plan.reuse(lc.cell.name()) {
            // Store-verified degraded model: served back to this exact
            // cell (never through the cache — never-a-donor rule).
            Some(Reuse::Degraded(p)) => Item::Done(p.clone()),
            // Store-verified complete model: the session pre-seeded the
            // cache, so this resolves through the certified donor path
            // without lint/golden/simulation.
            Some(Reuse::Complete) => {
                let name = lc.cell.name().to_string();
                match isolated(&name, || cache.characterize(lc.cell.clone(), options)) {
                    Ok(p) => Item::Done(Box::new(p)),
                    Err(err) => Item::Fail(FailurePhase::Prepare, err, started.elapsed(), 0),
                }
            }
            Some(Reuse::Quarantined {
                phase,
                retries,
                reason,
            }) => Item::Replay(*phase, reason.clone(), *retries),
            None => {
                // No deadline: the outcome always lands.
                let Guarded {
                    outcome, retries, ..
                } = characterize_with_retries(
                    &lc.cell,
                    options,
                    budget,
                    max_retries,
                    Deadline::never(),
                    cache,
                );
                match outcome {
                    Ok(p) => {
                        // Journal under the *configured* budget (not the
                        // reduced retry budget): a resumed run under the
                        // same arguments must find the record.
                        if let Some(s) = session {
                            s.journal_model(&p, options, budget);
                        }
                        Item::Done(Box::new(p))
                    }
                    Err((phase, err)) => {
                        if policy != FaultPolicy::FailFast {
                            if let Some(s) = session {
                                s.journal_quarantine(
                                    &lc.cell,
                                    phase,
                                    &err.to_string(),
                                    retries,
                                    options,
                                    budget,
                                );
                            }
                        }
                        Item::Fail(phase, err, started.elapsed(), retries)
                    }
                }
            }
        }
    });
    let mut prepared = Vec::with_capacity(library.len());
    let mut quarantine = Quarantine::default();
    // The merge runs on one thread in library order, so these totals are
    // `Outcome` class: they describe the converged result of the run and
    // hold across thread counts *and* crash-resume (a replayed verdict
    // counts exactly like the fresh diagnosis it replaces).
    ca_obs::counter!("ca_core.flow.cells", Outcome).add(library.len() as u64);
    for (lc, item) in library.cells.iter().zip(results) {
        match item {
            Item::Done(p) => {
                if p.model.as_ref().is_some_and(|m| m.degraded) {
                    ca_obs::counter!("ca_core.flow.models_degraded", Outcome).inc();
                } else {
                    ca_obs::counter!("ca_core.flow.models_complete", Outcome).inc();
                }
                prepared.push(*p);
            }
            Item::Fail(phase, err, elapsed, retries) => {
                if policy == FaultPolicy::FailFast {
                    return Err(err);
                }
                ca_obs::counter!("ca_core.flow.quarantined", Outcome).inc();
                ca_obs::counter!("ca_core.flow.retries", Work).add(u64::from(retries));
                quarantine.entries.push(QuarantineEntry {
                    cell: lc.cell.name().to_string(),
                    phase,
                    reason: err.to_string(),
                    elapsed,
                    retries,
                });
            }
            Item::Replay(phase, reason, retries) => {
                ca_obs::counter!("ca_core.flow.quarantined", Outcome).inc();
                quarantine.entries.push(QuarantineEntry {
                    cell: lc.cell.name().to_string(),
                    phase,
                    reason,
                    elapsed: Duration::ZERO,
                    retries,
                });
            }
        }
    }
    if let Some(s) = session {
        s.maybe_compact();
    }
    Ok(RobustOutcome {
        prepared,
        quarantine,
    })
}

/// Per-cell scheduling outcome of the library driver.
enum Item {
    /// A model landed (fresh, cache-served or store-served).
    Done(Box<PreparedCell>),
    /// The guarded pipeline failed this run.
    Fail(FailurePhase, CoreError, Duration, u32),
    /// A journaled quarantine verdict replayed from the session store.
    Replay(FailurePhase, String, u32),
}

/// What [`characterize_with_retries`] made of one cell.
pub(crate) struct Guarded {
    /// The final attempt: a model, or the failure tagged with its phase.
    pub(crate) outcome: Result<PreparedCell, (FailurePhase, CoreError)>,
    /// Reduced-budget retries spent.
    pub(crate) retries: u32,
    /// The deadline, not the cell, ended the work: `outcome` is a budget
    /// failure that a run under the configured budget would not share.
    pub(crate) deadline_ended: bool,
}

/// Runs `cell` through the guarded pipeline under `budget`, retrying a
/// [`CoreError::BudgetExceeded`] failure up to `max_retries` times under
/// [`reduced_budget`]. Every attempt's wall clock is clamped to
/// `deadline`, and [`Guarded::deadline_ended`] reports when the deadline
/// rather than the cell ended the work. Any other outcome is what a run
/// under `budget` alone produces: a wall clock only ever fails a run,
/// it never truncates one.
pub(crate) fn characterize_with_retries(
    cell: &Cell,
    options: GenerateOptions,
    budget: &SimBudget,
    max_retries: u32,
    deadline: Deadline,
    cache: &CharCache,
) -> Guarded {
    let mut retries = 0;
    let mut attempt = *budget;
    loop {
        let (clamped, tightened) = clamp_to_deadline(&attempt, deadline);
        let outcome = characterize_cell_guarded(cell, options, &clamped, cache);
        let wall_clock = match &outcome {
            Err((_, CoreError::BudgetExceeded { resource, .. })) => resource == "wall clock",
            _ => {
                return Guarded {
                    outcome,
                    retries,
                    deadline_ended: false,
                }
            }
        };
        // The clock that fired was the deadline's, or a retry is due and
        // no time is left for it.
        let deadline_ended =
            (tightened && wall_clock) || (retries < max_retries && deadline.expired());
        if deadline_ended || retries == max_retries {
            return Guarded {
                outcome,
                retries,
                deadline_ended,
            };
        }
        retries += 1;
        attempt = reduced_budget(budget, cell, retries);
    }
}

/// The budget of retry `attempt` (1-based): truncate the defect universe
/// by half per attempt, keep only the static stimuli, and lift the
/// wall-clock/iteration limits so the reduced work can finish.
fn reduced_budget(budget: &SimBudget, cell: &Cell, attempt: u32) -> SimBudget {
    let full_universe = cell.num_transistors() * 6;
    let ceiling = budget
        .max_defects
        .map_or(full_universe, |d| d.min(full_universe));
    SimBudget {
        max_solver_iterations: None,
        max_stimuli: Some(1usize << cell.num_inputs()),
        max_defects: Some((ceiling >> attempt).max(1)),
        wall_clock: None,
    }
}

/// `budget` with its wall clock clamped to the time `deadline` leaves,
/// plus whether the deadline is the *binding* wall constraint (strictly
/// tighter than the budget's own wall clock).
fn clamp_to_deadline(budget: &SimBudget, deadline: Deadline) -> (SimBudget, bool) {
    match deadline.remaining() {
        None => (*budget, false),
        Some(rem) => {
            let wall = match budget.wall_clock {
                Some(configured) if configured <= rem => Some(configured),
                _ => Some(rem),
            };
            let tightened = wall != budget.wall_clock;
            (
                SimBudget {
                    wall_clock: wall,
                    ..*budget
                },
                tightened,
            )
        }
    }
}

/// The guard: runs one cell through lint, then prepare/characterize
/// through `cache`, tagging any failure with its phase.
fn characterize_cell_guarded(
    cell: &Cell,
    options: GenerateOptions,
    budget: &SimBudget,
    cache: &CharCache,
) -> Result<PreparedCell, (FailurePhase, CoreError)> {
    // Quarantine broken netlists before any simulation effort is spent
    // on them.
    if let Some(finding) = lint_error(cell) {
        ca_obs::counter!("ca_core.flow.lint_rejects", Work).inc();
        return Err((
            FailurePhase::Lint,
            CoreError::PrepareFailed {
                cell: cell.name().to_string(),
                source: finding.to_string(),
            },
        ));
    }
    // Panic-isolated: a defective cell must only lose itself, never the
    // batch.
    isolated(cell.name(), || {
        cache.characterize_budgeted(cell.clone(), options, budget)
    })
    .map_err(|err| (FailurePhase::of(&err), err))
}

/// The guard's lint gate: the first error-level finding of `cell`.
pub(crate) fn lint_error(cell: &Cell) -> Option<Finding> {
    lint(cell)
        .into_iter()
        .find(|f| f.severity == Severity::Error)
}

/// Runs `f` under [`catch_unwind`], converting a panic into
/// [`CoreError::PrepareFailed`] with the panic message preserved.
pub(crate) fn isolated<T>(
    cell_name: &str,
    f: impl FnOnce() -> Result<T, CoreError>,
) -> Result<T, CoreError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(CoreError::PrepareFailed {
            cell: cell_name.to_string(),
            source: format!("panic: {}", ca_exec::panic_message(&*payload)),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_netlist::corrupt::{corrupt_cell, Corruption};
    use ca_netlist::library::{generate_library, LibraryConfig};
    use ca_netlist::{spice, Technology};

    const NAND2: &str = "\
.SUBCKT NAND2 A B Z VDD VSS
MP0 Z A VDD VDD pch
MP1 Z B VDD VDD pch
MN0 Z A net0 VSS nch
MN1 net0 B VSS VSS nch
.ENDS
";

    fn tiny_library() -> Library {
        let mut lib = generate_library(&LibraryConfig::quick(Technology::C40));
        lib.cells.truncate(5);
        lib
    }

    fn run(
        lib: &Library,
        budget: &SimBudget,
        policy: FaultPolicy,
    ) -> Result<RobustOutcome, CoreError> {
        characterize_library_robust(
            lib,
            GenerateOptions::default(),
            budget,
            policy,
            &Executor::from_env(),
            &CharCache::new(),
            None,
        )
    }

    #[test]
    fn clean_library_has_empty_quarantine() {
        let lib = tiny_library();
        let outcome = run(&lib, &SimBudget::unlimited(), FaultPolicy::SkipAndReport).unwrap();
        assert_eq!(outcome.prepared.len(), lib.len());
        assert!(outcome.quarantine.is_empty());
        assert_eq!(outcome.degraded_count(), 0);
    }

    #[test]
    fn lint_failure_is_quarantined_without_simulation() {
        let mut lib = tiny_library();
        lib.cells[1].cell =
            corrupt_cell(&lib.cells[1].cell, Corruption::FloatingOutput, 3).unwrap();
        let outcome = run(&lib, &SimBudget::unlimited(), FaultPolicy::SkipAndReport).unwrap();
        assert_eq!(outcome.prepared.len(), lib.len() - 1);
        assert_eq!(outcome.quarantine.len(), 1);
        let entry = &outcome.quarantine.entries[0];
        assert_eq!(entry.phase, FailurePhase::Lint);
        assert!(entry.reason.contains("undriven-output"), "{}", entry.reason);
    }

    #[test]
    fn oscillator_is_diagnosed_by_the_golden_phase() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let bad = corrupt_cell(&cell, Corruption::OscillatorLoop, 5).unwrap();
        let err = characterize_cell_guarded(
            &bad,
            GenerateOptions::default(),
            &SimBudget::unlimited(),
            &CharCache::new(),
        )
        .unwrap_err();
        assert_eq!(err.0, FailurePhase::Golden);
        assert!(
            matches!(err.1, CoreError::SolverDiverged { .. }),
            "{:?}",
            err.1
        );
    }

    #[test]
    fn iteration_cap_failures_are_golden() {
        let mut lib = generate_library(&LibraryConfig::quick(Technology::C40));
        lib.cells.truncate(12);
        let capped = SimBudget {
            max_solver_iterations: Some(2),
            ..SimBudget::unlimited()
        };
        let outcome = run(&lib, &capped, FaultPolicy::SkipAndReport).unwrap();
        assert_eq!(outcome.prepared.len(), 9, "{}", outcome.quarantine.render());
        assert_eq!(outcome.quarantine.len(), 3);
        for e in &outcome.quarantine.entries {
            assert_eq!(e.phase, FailurePhase::Golden, "{}", e.reason);
            assert!(e.reason.contains("solver iterations"), "{}", e.reason);
        }
    }

    #[test]
    fn fail_fast_propagates_the_first_error() {
        let mut lib = tiny_library();
        lib.cells[0].cell = corrupt_cell(&lib.cells[0].cell, Corruption::DanglingGate, 9).unwrap();
        let err = run(&lib, &SimBudget::unlimited(), FaultPolicy::FailFast).unwrap_err();
        assert!(matches!(err, CoreError::PrepareFailed { .. }), "{err:?}");
    }

    #[test]
    fn retry_recovers_wall_clock_exhaustion_with_a_degraded_model() {
        let lib = tiny_library();
        // A zero wall clock fails every cell up front; one retry lifts
        // the clock and truncates the work, so every cell comes back
        // degraded instead of quarantined.
        let strangled = SimBudget {
            wall_clock: Some(Duration::ZERO),
            ..SimBudget::unlimited()
        };
        let skip = run(&lib, &strangled, FaultPolicy::SkipAndReport).unwrap();
        assert_eq!(skip.quarantine.len(), lib.len());
        assert!(skip
            .quarantine
            .entries
            .iter()
            .all(|e| e.phase == FailurePhase::Characterize && e.reason.contains("wall clock")));
        let retried = run(&lib, &strangled, FaultPolicy::RetryWithReducedBudget(1)).unwrap();
        assert!(
            retried.quarantine.is_empty(),
            "{}",
            retried.quarantine.render()
        );
        assert_eq!(retried.prepared.len(), lib.len());
        assert_eq!(retried.degraded_count(), lib.len());
        for p in &retried.prepared {
            let model = p.model.as_ref().unwrap();
            assert!(model.degraded);
            // Static-only retry: no dynamic detection classes.
            assert!(model
                .classes
                .iter()
                .all(|c| c.behavior != ca_defects::Behavior::Dynamic));
        }
    }

    #[test]
    fn retries_do_not_help_structural_failures() {
        let mut lib = tiny_library();
        lib.cells[2].cell =
            corrupt_cell(&lib.cells[2].cell, Corruption::ZeroTransistor, 11).unwrap();
        let outcome = run(
            &lib,
            &SimBudget::unlimited(),
            FaultPolicy::RetryWithReducedBudget(3),
        )
        .unwrap();
        assert_eq!(outcome.quarantine.len(), 1);
        let entry = &outcome.quarantine.entries[0];
        assert_eq!(entry.retries, 0);
        assert!(entry.reason.contains("no-transistors"), "{}", entry.reason);
    }

    #[test]
    fn a_clock_the_deadline_set_ends_the_work_without_retries() {
        let guarded = characterize_with_retries(
            &tiny_library().cells[0].cell,
            GenerateOptions::default(),
            &SimBudget::unlimited(),
            2,
            Deadline::after(Duration::ZERO),
            &CharCache::new(),
        );
        assert!(guarded.deadline_ended);
        assert_eq!(guarded.retries, 0);
        let (phase, err) = guarded.outcome.unwrap_err();
        assert_eq!(phase, FailurePhase::Characterize, "{err:?}");
    }

    #[test]
    fn clamp_to_deadline_tracks_the_binding_constraint() {
        let unlimited = SimBudget::unlimited();
        let (eff, tightened) = clamp_to_deadline(&unlimited, Deadline::never());
        assert_eq!(eff.wall_clock, None);
        assert!(!tightened);
        // Deadline binds an unlimited budget.
        let (eff, tightened) =
            clamp_to_deadline(&unlimited, Deadline::after(Duration::from_secs(5)));
        assert!(tightened);
        assert!(eff.wall_clock.unwrap() <= Duration::from_secs(5));
        // A tighter configured wall clock keeps binding.
        let capped = SimBudget {
            wall_clock: Some(Duration::from_millis(1)),
            ..SimBudget::unlimited()
        };
        let (eff, tightened) =
            clamp_to_deadline(&capped, Deadline::after(Duration::from_secs(3600)));
        assert_eq!(eff.wall_clock, Some(Duration::from_millis(1)));
        assert!(!tightened);
    }

    #[test]
    fn panics_are_converted_to_prepare_failed() {
        let err = isolated::<()>("X", || panic!("boom")).unwrap_err();
        match err {
            CoreError::PrepareFailed { cell, source } => {
                assert_eq!(cell, "X");
                assert!(source.contains("boom"), "{source}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn quarantine_report_renders() {
        let q = Quarantine {
            entries: vec![QuarantineEntry {
                cell: "BAD".into(),
                phase: FailurePhase::Lint,
                reason: "error: no-transistors: cell `BAD` contains no transistors".into(),
                elapsed: Duration::from_millis(2),
                retries: 1,
            }],
        };
        let text = q.render();
        assert!(text.contains("quarantine: 1 cell(s)"));
        assert!(text.contains("BAD [lint]"));
        assert_eq!(q.entry("BAD").unwrap().retries, 1);
        assert!(q.entry("GOOD").is_none());
    }
}
