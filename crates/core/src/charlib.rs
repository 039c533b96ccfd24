//! Library-level characterization: the plain drivers, summaries and
//! `.cam` export.
//!
//! Wraps the per-cell flows into the batch operation an EDA user actually
//! runs: characterize a whole standard-cell library, collect summary
//! statistics, and export the models as `.cam` documents. The plain
//! drivers are the guarded pipeline of
//! [`characterize_library_robust`] under [`FaultPolicy::FailFast`] and an
//! unlimited budget, so every cell is linted and golden-checked exactly
//! as in a robust run.

// Library-batch code runs unattended for hours; a stray unwrap here
// aborts a whole characterization run.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::cache::CharCache;
use crate::cost::CostModel;
use crate::error::CoreError;
use crate::matrix::PreparedCell;
use crate::robust::{characterize_library_robust, FaultPolicy};
use crate::session::Session;
use ca_defects::{to_cam, Behavior, GenerateOptions};
use ca_exec::Executor;
use ca_netlist::library::Library;
use ca_sim::SimBudget;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Summary of a characterized library.
#[derive(Debug, Clone, PartialEq)]
pub struct LibrarySummary {
    /// Library technology name.
    pub technology: String,
    /// Number of cells characterized.
    pub num_cells: usize,
    /// Total defects across all cells.
    pub total_defects: usize,
    /// Total defect simulations run.
    pub total_simulations: usize,
    /// Classes by behaviour: `(static, dynamic, undetectable)`.
    pub behavior_totals: (usize, usize, usize),
    /// Mean defect coverage over the cells that carry a model (cells
    /// without one — e.g. prepare-only corpora — do not dilute the mean).
    pub mean_coverage: f64,
    /// Cells whose model was produced under a reduced budget.
    pub degraded: usize,
    /// Cells a robust run quarantined (0 for plain characterization).
    pub quarantined: usize,
    /// Estimated single-license SPICE time for the same work, seconds
    /// (from the calibrated cost model).
    pub estimated_spice_s: f64,
    /// Cells per (inputs, transistors) group.
    pub group_sizes: BTreeMap<(usize, usize), usize>,
}

impl LibrarySummary {
    /// Renders a compact text report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "library {} — {} cells",
            self.technology, self.num_cells
        );
        let _ = writeln!(
            out,
            "  defects {}   simulations {}   mean coverage {:.1}%",
            self.total_defects,
            self.total_simulations,
            self.mean_coverage * 100.0
        );
        let (s, d, u) = self.behavior_totals;
        let _ = writeln!(out, "  classes: {s} static, {d} dynamic, {u} undetectable");
        if self.degraded > 0 || self.quarantined > 0 {
            let _ = writeln!(
                out,
                "  robustness: {} degraded, {} quarantined",
                self.degraded, self.quarantined
            );
        }
        let _ = writeln!(
            out,
            "  estimated SPICE effort: {}",
            crate::cost::format_duration(self.estimated_spice_s)
        );
        let _ = writeln!(out, "  groups (inputs, transistors) -> cells:");
        for (key, n) in &self.group_sizes {
            let _ = writeln!(out, "    {key:?} -> {n}");
        }
        out
    }
}

/// Characterizes every cell of `library` with the conventional flow on
/// `executor`, through the structure-keyed `cache` (reuse one across
/// batches to share donors), and summarizes the result.
///
/// Results are in library order regardless of scheduling; on failure the
/// error of the *first* failing cell in library order is returned, so the
/// outcome is identical at every thread count.
///
/// # Errors
///
/// The first (in library order) cell failure: a lint finding, a golden
/// oscillation or an invalid netlist.
pub fn characterize_library_with(
    library: &Library,
    options: GenerateOptions,
    executor: &Executor,
    cache: &CharCache,
) -> Result<(Vec<PreparedCell>, LibrarySummary), CoreError> {
    fail_fast(library, options, executor, cache, None)
}

/// [`characterize_library_with`] bound to a durable [`Session`]: cells
/// journaled by a previous (possibly killed) run are verified against the
/// incoming library and served from the on-disk store instead of being
/// re-simulated, and every freshly characterized cell is journaled as it
/// lands. A run interrupted at any point can be re-invoked with the same
/// arguments and converges to byte-identical models.
///
/// # Errors
///
/// The first (in library order) cell failure, as for
/// [`characterize_library_with`].
pub fn characterize_library_with_session(
    library: &Library,
    options: GenerateOptions,
    executor: &Executor,
    cache: &CharCache,
    session: &Session,
) -> Result<(Vec<PreparedCell>, LibrarySummary), CoreError> {
    fail_fast(library, options, executor, cache, Some(session))
}

fn fail_fast(
    library: &Library,
    options: GenerateOptions,
    executor: &Executor,
    cache: &CharCache,
    session: Option<&Session>,
) -> Result<(Vec<PreparedCell>, LibrarySummary), CoreError> {
    let outcome = characterize_library_robust(
        library,
        options,
        &SimBudget::unlimited(),
        FaultPolicy::FailFast,
        executor,
        cache,
        session,
    )?;
    let summary = summarize(library.technology.name(), &outcome.prepared);
    Ok((outcome.prepared, summary))
}

/// Builds the summary over already-characterized cells.
pub fn summarize(technology: &str, prepared: &[PreparedCell]) -> LibrarySummary {
    let cost = CostModel::paper_calibrated();
    let mut total_defects = 0;
    let mut total_simulations = 0;
    let mut behavior_totals = (0, 0, 0);
    let mut coverage_sum = 0.0;
    let mut cells_with_model = 0usize;
    let mut degraded = 0usize;
    let mut estimated_spice_s = 0.0;
    let mut group_sizes: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for p in prepared {
        *group_sizes.entry(p.group_key()).or_default() += 1;
        estimated_spice_s += cost.simulation_time_s(&p.cell);
        if let Some(model) = &p.model {
            total_defects += model.universe.len();
            total_simulations += model.defect_simulations;
            coverage_sum += model.coverage();
            cells_with_model += 1;
            degraded += usize::from(model.degraded);
            for class in &model.classes {
                match class.behavior {
                    Behavior::Static => behavior_totals.0 += 1,
                    Behavior::Dynamic => behavior_totals.1 += 1,
                    Behavior::Undetectable => behavior_totals.2 += 1,
                }
            }
        }
    }
    LibrarySummary {
        technology: technology.to_string(),
        num_cells: prepared.len(),
        total_defects,
        total_simulations,
        behavior_totals,
        // Average over the cells that actually have a model: dividing by
        // the full cell count silently under-reports coverage as soon as
        // any cell is prepare-only or quarantined.
        mean_coverage: if cells_with_model == 0 {
            0.0
        } else {
            coverage_sum / cells_with_model as f64
        },
        degraded,
        quarantined: 0,
        estimated_spice_s,
        group_sizes,
    }
}

/// Exports every characterized cell as a `.cam` document, returning
/// `(file name, contents)` pairs (the caller decides where to write).
///
/// Models produced under a reduced budget
/// ([degraded](ca_defects::CaModel::degraded)) are skipped: an ATPG
/// consumer cannot tell an incomplete dictionary from a complete one.
/// Use [`export_cam_with`] to opt them in.
pub fn export_cam(prepared: &[PreparedCell]) -> Vec<(String, String)> {
    export_cam_with(prepared, false)
}

/// Like [`export_cam`], optionally including degraded models (they are
/// still marked with the `degraded` directive inside the document).
pub fn export_cam_with(prepared: &[PreparedCell], include_degraded: bool) -> Vec<(String, String)> {
    prepared
        .iter()
        .filter_map(|p| {
            p.model
                .as_ref()
                .filter(|m| include_degraded || !m.degraded)
                .map(|m| (format!("{}.cam", p.cell.name()), to_cam(m)))
        })
        .collect()
}

/// Writes every `.cam` document of [`export_cam_with`] into `dir`
/// (created if missing), returning the written paths in library order.
///
/// Each file lands via [`ca_store::write_atomic`] — tmp file, fsync,
/// rename — so a crash mid-export leaves either the previous version or
/// the complete new one, never a torn `.cam`.
///
/// # Errors
///
/// [`CoreError::Storage`] naming the file that failed.
pub fn export_cam_to_dir(
    prepared: &[PreparedCell],
    dir: impl AsRef<Path>,
    include_degraded: bool,
) -> Result<Vec<PathBuf>, CoreError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir).map_err(|e| CoreError::Storage {
        path: dir.display().to_string(),
        source: e.to_string(),
    })?;
    let mut paths = Vec::new();
    for (name, text) in export_cam_with(prepared, include_degraded) {
        let path = dir.join(name);
        ca_store::write_atomic(&path, text.as_bytes()).map_err(|e| CoreError::Storage {
            path: path.display().to_string(),
            source: e.to_string(),
        })?;
        paths.push(path);
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_defects::from_cam;
    use ca_netlist::library::{generate_library, LibraryConfig};
    use ca_netlist::Technology;

    fn tiny_library() -> Library {
        let mut lib = generate_library(&LibraryConfig::quick(Technology::C40));
        lib.cells.truncate(6);
        lib
    }

    fn characterize(lib: &Library) -> (Vec<PreparedCell>, LibrarySummary) {
        characterize_library_with(
            lib,
            GenerateOptions::default(),
            &Executor::from_env(),
            &CharCache::new(),
        )
        .unwrap()
    }

    #[test]
    fn characterize_and_summarize() {
        let lib = tiny_library();
        let (prepared, summary) = characterize(&lib);
        assert_eq!(prepared.len(), 6);
        assert_eq!(summary.num_cells, 6);
        assert!(summary.total_defects > 0);
        assert!(summary.total_simulations > 0);
        assert!(summary.mean_coverage > 0.4);
        assert!(summary.estimated_spice_s > 0.0);
        assert!(!summary.group_sizes.is_empty());
        let text = summary.render();
        assert!(text.contains("C40"));
        assert!(text.contains("classes:"));
    }

    #[test]
    fn mean_coverage_ignores_model_less_cells() {
        let lib = tiny_library();
        let (mut prepared, full) = characterize(&lib);
        // Strip the models of half the cells: the mean over the rest
        // must not change (the old code divided by the total count).
        for p in prepared.iter_mut().skip(3) {
            p.model = None;
        }
        let partial = summarize("C40", &prepared);
        let expected = prepared
            .iter()
            .filter_map(|p| p.model.as_ref())
            .map(|m| m.coverage())
            .sum::<f64>()
            / 3.0;
        assert!((partial.mean_coverage - expected).abs() < 1e-12);
        assert!(partial.mean_coverage > 0.0);
        // Sanity: the full summary used every cell.
        assert!(full.mean_coverage > 0.4);
    }

    #[test]
    fn export_skips_degraded_models_unless_opted_in() {
        let lib = tiny_library();
        let (mut prepared, _) = characterize(&lib);
        // Re-characterize one cell under a truncating budget.
        let budget = SimBudget {
            max_defects: Some(4),
            ..SimBudget::unlimited()
        };
        prepared[0] = crate::matrix::PreparedCell::characterize_budgeted(
            lib.cells[0].cell.clone(),
            GenerateOptions::default(),
            &budget,
        )
        .unwrap();
        assert!(prepared[0].model.as_ref().unwrap().degraded);
        let summary = summarize("C40", &prepared);
        assert_eq!(summary.degraded, 1);
        assert_eq!(export_cam(&prepared).len(), prepared.len() - 1);
        let full = export_cam_with(&prepared, true);
        assert_eq!(full.len(), prepared.len());
        assert!(full.iter().any(|(name, text)| name
            == &format!("{}.cam", lib.cells[0].cell.name())
            && text.contains("degraded")));
    }

    #[test]
    fn parallel_and_cached_runs_match_the_serial_cold_run() {
        let lib = tiny_library();
        let options = GenerateOptions::default();
        let cold: Vec<PreparedCell> = lib
            .cells
            .iter()
            .map(|lc| PreparedCell::characterize(lc.cell.clone(), options).unwrap())
            .collect();
        for threads in [1, 4] {
            let cache = CharCache::new();
            let (prepared, summary) =
                characterize_library_with(&lib, options, &Executor::with_threads(threads), &cache)
                    .unwrap();
            assert_eq!(prepared.len(), cold.len());
            for (p, c) in prepared.iter().zip(&cold) {
                assert_eq!(p.cell.name(), c.cell.name(), "order must be library order");
                assert_eq!(p.model, c.model, "{}: cached model differs", p.cell.name());
            }
            assert_eq!(summary, summarize(lib.technology.name(), &cold));
            let stats = cache.stats();
            assert_eq!(stats.hits + stats.misses, lib.len(), "{stats:?}");
        }
    }

    #[test]
    fn cam_export_round_trips() {
        let lib = tiny_library();
        let (prepared, _) = characterize(&lib);
        let exported = export_cam(&prepared);
        assert_eq!(exported.len(), 6);
        for (p, (name, text)) in prepared.iter().zip(&exported) {
            assert!(name.ends_with(".cam"));
            let parsed = from_cam(text, &p.cell).unwrap();
            assert_eq!(&parsed, p.model.as_ref().unwrap());
        }
    }
}
