//! Corpus construction: synthetic libraries characterized end-to-end.

// A corpus build fans out over worker threads and runs for minutes; a
// stray unwrap must not be able to abort the whole experiment run.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use ca_core::{characterize_library_robust, CharCache, FaultPolicy, MlFlowParams, PreparedCell};
use ca_defects::GenerateOptions;
use ca_exec::Executor;
use ca_ml::ForestParams;
use ca_netlist::library::{generate_library, Library, LibraryConfig};
use ca_netlist::Technology;
use ca_sim::SimBudget;
use std::collections::BTreeMap;
use std::ops::Deref;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Profile {
    /// Small: up to 3 inputs / 16 transistors; minutes on a laptop.
    Quick,
    /// Paper-scale shape: up to 5 inputs / 32 transistors. Slower.
    Full,
}

impl Profile {
    /// Parses `quick` / `full`.
    pub fn parse(s: &str) -> Option<Profile> {
        match s {
            "quick" => Some(Profile::Quick),
            "full" => Some(Profile::Full),
            _ => None,
        }
    }

    /// Library generation config for `tech` at this scale.
    ///
    /// Technologies deliberately differ: each keeps a different ~3/4 of
    /// the shared catalog, and drive-strength menus vary, so
    /// cross-technology experiments see identical, equivalent *and* new
    /// structures (the §V.C route mix).
    pub fn library_config(self, tech: Technology) -> LibraryConfig {
        let (shared_drives, split_drives) = match tech {
            Technology::Soi28 => (vec![1, 2], vec![2]),
            Technology::C28 => (vec![1, 2], vec![2]),
            // C40 differs from the training technology by device sizing
            // (see TechStyle) and by offering an X4 drive the training
            // corpus lacks: X4 cells only match after the Fig. 6
            // reduction — the paper's "equivalent structure" route.
            Technology::C40 => (vec![1, 2, 4], vec![2]),
        };
        // The training technology keeps a smaller catalog slice than the
        // evaluated ones, so a realistic share of evaluated cells has no
        // known structure (the paper's ~50% simulated fraction in §V.C).
        let keep = if tech == Technology::Soi28 {
            0.65
        } else {
            0.90
        };
        match self {
            Profile::Quick => LibraryConfig {
                max_inputs: 3,
                max_transistors: 16,
                shared_drives,
                split_drives,
                skew_variants: true,
                vt_variants: Vec::new(),
                include_exclusive: true,
                template_keep_fraction: keep,
                tech,
            },
            Profile::Full => LibraryConfig {
                max_inputs: 5,
                max_transistors: 32,
                shared_drives: match tech {
                    Technology::C40 => vec![1, 3, 4],
                    _ => vec![1, 2, 4],
                },
                split_drives,
                skew_variants: true,
                vt_variants: Vec::new(),
                include_exclusive: true,
                template_keep_fraction: keep,
                tech,
            },
        }
    }

    /// ML flow parameters at this scale.
    pub fn ml_params(self) -> MlFlowParams {
        match self {
            Profile::Quick => MlFlowParams {
                forest: ForestParams {
                    num_trees: 40,
                    max_depth: 20,
                    ..ForestParams::default()
                },
                max_rows_per_cell: Some(20_000),
                retain_training_data: false,
            },
            Profile::Full => MlFlowParams {
                forest: ForestParams::default(),
                max_rows_per_cell: Some(60_000),
                retain_training_data: false,
            },
        }
    }

    /// Cap on leave-one-out evaluations per group (keeps Table IV.a
    /// affordable); `None` evaluates every cell like the paper.
    pub fn max_eval_per_group(self) -> Option<usize> {
        match self {
            Profile::Quick => Some(4),
            Profile::Full => Some(8),
        }
    }
}

/// A characterized cell with its source template, for reporting.
#[derive(Debug, Clone)]
pub struct CorpusCell {
    /// Prepared + characterized cell.
    pub prepared: PreparedCell,
    /// Catalog template name.
    pub template: String,
}

/// A library cell the corpus build could not characterize.
#[derive(Debug, Clone)]
pub struct SkippedCell {
    /// Cell name.
    pub name: String,
    /// Catalog template name.
    pub template: String,
    /// Why the cell was skipped (error message or panic text).
    pub reason: String,
}

/// Result of a corpus build: the characterized cells plus whatever had
/// to be skipped. Derefs to the cell slice, so experiment code that
/// only needs the healthy cells can iterate/index it directly.
#[derive(Debug, Default)]
pub struct CorpusBuild {
    /// Successfully characterized cells.
    pub cells: Vec<CorpusCell>,
    /// Cells that failed characterization, with reasons.
    pub skipped: Vec<SkippedCell>,
}

impl Deref for CorpusBuild {
    type Target = [CorpusCell];

    fn deref(&self) -> &[CorpusCell] {
        &self.cells
    }
}

impl CorpusBuild {
    /// One warning line per skipped cell (empty when nothing skipped).
    pub fn skip_report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for s in &self.skipped {
            let _ = writeln!(out, "skipped {} ({}): {}", s.name, s.template, s.reason);
        }
        out
    }
}

/// Characterizes `library` through the library driver
/// ([`characterize_library_robust`] under
/// [`FaultPolicy::SkipAndReport`]) on the
/// [`CA_THREADS`](Executor::from_env)-sized executor with a shared
/// structure-keyed cache: a cell that fails lint or characterization,
/// or panics, is skipped with its reason instead of aborting the batch.
pub fn characterize_cells(library: &Library) -> CorpusBuild {
    let outcome = characterize_library_robust(
        library,
        GenerateOptions::default(),
        &SimBudget::unlimited(),
        FaultPolicy::SkipAndReport,
        &Executor::from_env(),
        &CharCache::new(),
        None,
    )
    .unwrap_or_else(|e| unreachable!("only a fail-fast run returns an error: {e}"));
    let templates: BTreeMap<&str, &str> = library
        .cells
        .iter()
        .map(|lc| (lc.cell.name(), lc.template.as_str()))
        .collect();
    let template = |name: &str| {
        templates
            .get(name)
            .map_or_else(String::new, |t| t.to_string())
    };
    CorpusBuild {
        skipped: outcome
            .quarantine
            .entries
            .into_iter()
            .map(|e| SkippedCell {
                template: template(&e.cell),
                name: e.cell,
                reason: e.reason,
            })
            .collect(),
        cells: outcome
            .prepared
            .into_iter()
            .map(|prepared| CorpusCell {
                template: template(prepared.cell.name()),
                prepared,
            })
            .collect(),
    }
}

/// Generates and characterizes the full synthetic library of `tech`.
///
/// Every cell is run through the conventional flow (ground truth), so the
/// corpus can both train and evaluate. Results are memoized per
/// (technology, profile) so `ca-bench all` characterizes each library
/// once. Cells that fail (or panic) are collected in
/// [`CorpusBuild::skipped`] rather than aborting the build.
pub fn build_corpus(tech: Technology, profile: Profile) -> std::sync::Arc<CorpusBuild> {
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex, OnceLock};
    type Cache = Mutex<HashMap<(Technology, Profile), Arc<CorpusBuild>>>;
    static CACHE: OnceLock<Cache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    // A worker that panicked while holding the lock poisons it; the map
    // itself is still consistent (entries are inserted atomically), so
    // recover the guard instead of propagating the poison forever.
    if let Some(hit) = cache
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .get(&(tech, profile))
    {
        return Arc::clone(hit);
    }
    let lib = generate_library(&profile.library_config(tech));
    // Characterization is embarrassingly parallel: the executor pulls
    // cells one at a time (each cell's conventional flow is independent),
    // and the shared cache deduplicates structurally identical variants.
    let corpus = Arc::new(characterize_cells(&lib));
    cache
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .insert((tech, profile), Arc::clone(&corpus));
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_netlist::corrupt::salt_library;

    #[test]
    fn profile_parsing() {
        assert_eq!(Profile::parse("quick"), Some(Profile::Quick));
        assert_eq!(Profile::parse("full"), Some(Profile::Full));
        assert_eq!(Profile::parse("huge"), None);
    }

    #[test]
    fn corpus_cache_returns_same_instance() {
        let a = build_corpus(Technology::C28, Profile::Quick);
        let b = build_corpus(Technology::C28, Profile::Quick);
        assert!(std::sync::Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn quick_corpus_builds_and_has_groups() {
        let corpus = build_corpus(Technology::Soi28, Profile::Quick);
        assert!(corpus.len() >= 30, "got {}", corpus.len());
        assert!(corpus.iter().all(|c| c.prepared.model.is_some()));
        // Synthesized libraries are well-formed: nothing is skipped.
        assert!(corpus.skipped.is_empty(), "{}", corpus.skip_report());
        // More than one group key exists.
        let keys: std::collections::HashSet<_> =
            corpus.iter().map(|c| c.prepared.group_key()).collect();
        assert!(keys.len() > 3);
    }

    #[test]
    fn corrupted_cells_are_skipped_not_fatal() {
        let mut lib = generate_library(&LibraryConfig::quick(Technology::C28));
        lib.cells.truncate(12);
        let salted = salt_library(&mut lib, 4, 99);
        assert_eq!(salted.len(), 4);
        let build = characterize_cells(&lib);
        assert_eq!(build.cells.len() + build.skipped.len(), 12);
        assert_eq!(build.skipped.len(), salted.len(), "{}", build.skip_report());
        for s in &salted {
            assert!(
                build.skipped.iter().any(|k| k.name == s.cell),
                "{} not skipped",
                s.cell
            );
        }
        assert!(build.skip_report().lines().count() == 4);
    }
}
