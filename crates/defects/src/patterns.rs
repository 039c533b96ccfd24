//! Cell-aware test pattern selection.
//!
//! A CA model's downstream consumer is ATPG: it needs a small set of cell
//! input stimuli that still detects every detectable defect class. This
//! module implements greedy set-cover selection with static-first
//! preference (static patterns are cheaper to apply than two-pattern
//! dynamic tests) plus coverage accounting — the "detection conditions"
//! product the paper's Fig. 1 synthesizes into the CA model.

use crate::classes::Behavior;
use crate::model::CaModel;
use ca_sim::Stimulus;

/// A selected pattern set with its bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternSet {
    /// Indices into the canonical stimulus order of the model.
    pub selected: Vec<usize>,
    /// For each defect class (model order), the index within `selected`
    /// of the pattern chosen to detect it, or `None` if undetectable.
    pub class_pattern: Vec<Option<usize>>,
    /// Number of detectable classes.
    pub detectable: usize,
}

impl PatternSet {
    /// Fraction of detectable classes covered by the selection (1.0 for a
    /// complete greedy run).
    pub fn class_coverage(&self) -> f64 {
        if self.detectable == 0 {
            return 1.0;
        }
        let covered = self.class_pattern.iter().filter(|p| p.is_some()).count();
        covered as f64 / self.detectable as f64
    }

    /// The selected stimuli, resolved against the model's stimulus order.
    pub fn stimuli(&self, model: &CaModel) -> Vec<Stimulus> {
        let all = model.stimuli();
        self.selected.iter().map(|&i| all[i].clone()).collect()
    }
}

/// Greedy set cover: repeatedly picks the stimulus detecting the most
/// still-uncovered classes; ties prefer static stimuli, then lower index.
pub fn select_patterns(model: &CaModel) -> PatternSet {
    let stimuli = model.stimuli();
    let n_stimuli = stimuli.len();
    let classes = &model.classes;
    let mut uncovered: Vec<usize> = classes
        .iter()
        .enumerate()
        .filter(|(_, c)| c.behavior != Behavior::Undetectable)
        .map(|(i, _)| i)
        .collect();
    let detectable = uncovered.len();
    let mut selected: Vec<usize> = Vec::new();
    let mut class_pattern: Vec<Option<usize>> = vec![None; classes.len()];
    while !uncovered.is_empty() {
        let mut best: Option<(usize, usize, bool)> = None; // (count, stim, is_static)
        #[allow(
            clippy::needless_range_loop,
            reason = "s is a stimulus id, not a position"
        )]
        for s in 0..n_stimuli {
            let count = uncovered.iter().filter(|&&c| classes[c].row.get(s)).count();
            if count == 0 {
                continue;
            }
            let is_static = stimuli[s].is_static();
            let better = match best {
                None => true,
                Some((bc, _, bs)) => count > bc || (count == bc && is_static && !bs),
            };
            if better {
                best = Some((count, s, is_static));
            }
        }
        let Some((_, stim, _)) = best else {
            break; // nothing detects the rest (cannot happen for valid models)
        };
        let sel_idx = selected.len();
        selected.push(stim);
        uncovered.retain(|&c| {
            if classes[c].row.get(stim) {
                class_pattern[c] = Some(sel_idx);
                false
            } else {
                true
            }
        });
    }
    PatternSet {
        selected,
        class_pattern,
        detectable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GenerateOptions;
    use ca_netlist::spice;

    const NAND2: &str = "\
.SUBCKT NAND2 A B Z VDD VSS
MP0 Z A VDD VDD pch
MP1 Z B VDD VDD pch
MN0 Z A net0 VSS nch
MN1 net0 B VSS VSS nch
.ENDS
";

    fn nand2_model() -> (ca_netlist::Cell, CaModel) {
        let cell = spice::parse_cell(NAND2).unwrap();
        let model = CaModel::generate(&cell, GenerateOptions::default());
        (cell, model)
    }

    #[test]
    fn covers_every_detectable_class() {
        let (_, model) = nand2_model();
        let set = select_patterns(&model);
        assert!((set.class_coverage() - 1.0).abs() < 1e-12);
        assert!(set.detectable > 0);
    }

    #[test]
    fn selection_is_much_smaller_than_exhaustive() {
        let (_, model) = nand2_model();
        let set = select_patterns(&model);
        assert!(
            set.selected.len() <= 8,
            "selected {} of 16",
            set.selected.len()
        );
    }

    #[test]
    fn chosen_patterns_really_detect_their_classes() {
        let (_, model) = nand2_model();
        let set = select_patterns(&model);
        for (c, slot) in set.class_pattern.iter().enumerate() {
            if let Some(sel_idx) = slot {
                let stim = set.selected[*sel_idx];
                assert!(model.classes[c].row.get(stim));
            } else {
                assert_eq!(model.classes[c].behavior, Behavior::Undetectable);
            }
        }
    }

    #[test]
    fn dynamic_classes_require_dynamic_patterns() {
        let (_, model) = nand2_model();
        let set = select_patterns(&model);
        let stimuli = model.stimuli();
        let mut needed_dynamic = false;
        for (c, slot) in set.class_pattern.iter().enumerate() {
            if model.classes[c].behavior == Behavior::Dynamic {
                let stim = set.selected[slot.expect("dynamic classes are detectable")];
                assert!(!stimuli[stim].is_static());
                needed_dynamic = true;
            }
        }
        assert!(needed_dynamic, "NAND2 has stuck-open classes");
    }

    #[test]
    fn stimuli_accessor_resolves() {
        let (_, model) = nand2_model();
        let set = select_patterns(&model);
        assert_eq!(set.stimuli(&model).len(), set.selected.len());
    }
}
