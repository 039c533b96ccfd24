//! Resource budgets for simulation and characterization.
//!
//! A [`SimBudget`] caps the work a characterization run may spend on one
//! cell: solver fixpoint iterations, stimuli simulated, defects injected,
//! and (optionally) wall-clock time. Budgets exist so that a single
//! pathological cell — an oscillator, a huge pattern space, a defect
//! universe that explodes combinatorially — cannot stall a whole library
//! run: exhaustion is reported as a first-class outcome instead of
//! looping forever or silently forcing `X`.
//!
//! The default budget is unlimited, which preserves the historical
//! behaviour of every existing entry point.

use ca_obs::Deadline;
use std::time::Duration;

/// Resource limits for simulating and characterizing one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimBudget {
    /// Cap on solver fixpoint iterations per phase. `None` uses the
    /// natural bound (`2 * nets + 8`), which is large enough that
    /// non-convergence implies true oscillation.
    pub max_solver_iterations: Option<usize>,
    /// Cap on the number of stimuli simulated per defect. Exceeding it
    /// truncates the stimulus set and marks the result degraded.
    pub max_stimuli: Option<usize>,
    /// Cap on the number of defects characterized per cell. Exceeding it
    /// truncates the defect universe and marks the result degraded.
    pub max_defects: Option<usize>,
    /// Wall-clock deadline for the whole per-cell run. Checked *between*
    /// stimuli, never mid-solve, so results stay deterministic in shape:
    /// a run either finishes or reports `BudgetExceeded`.
    pub wall_clock: Option<Duration>,
}

impl Default for SimBudget {
    fn default() -> SimBudget {
        SimBudget::unlimited()
    }
}

impl SimBudget {
    /// No limits: the historical behaviour of the flow.
    pub const fn unlimited() -> SimBudget {
        SimBudget {
            max_solver_iterations: None,
            max_stimuli: None,
            max_defects: None,
            wall_clock: None,
        }
    }

    /// Starts the wall clock for one per-cell run.
    pub fn start(&self) -> BudgetClock {
        BudgetClock {
            deadline: self.wall_clock.map_or(Deadline::never(), Deadline::after),
        }
    }

    /// Applies `max_stimuli` to a count, returning the number to keep.
    /// An actual truncation — the budget spend that marks a result
    /// degraded — is counted in the metric registry.
    pub fn clamp_stimuli(&self, n: usize) -> usize {
        let kept = self.max_stimuli.map_or(n, |cap| n.min(cap));
        if kept < n {
            ca_obs::counter!("ca_sim.budget.stimuli_clamped").inc();
            ca_obs::counter!("ca_sim.budget.stimuli_dropped").add((n - kept) as u64);
        }
        kept
    }

    /// Applies `max_defects` to a count, returning the number to keep.
    /// Truncations are counted like [`SimBudget::clamp_stimuli`].
    pub fn clamp_defects(&self, n: usize) -> usize {
        let kept = self.max_defects.map_or(n, |cap| n.min(cap));
        if kept < n {
            ca_obs::counter!("ca_sim.budget.defects_clamped").inc();
            ca_obs::counter!("ca_sim.budget.defects_dropped").add((n - kept) as u64);
        }
        kept
    }
}

/// A running wall-clock deadline created by [`SimBudget::start`].
#[derive(Debug, Clone, Copy)]
pub struct BudgetClock {
    deadline: Deadline,
}

impl BudgetClock {
    /// Whether the deadline has passed. Always `false` for unlimited
    /// budgets. Expiries are wall-clock events, so their counter is
    /// `ops`-class: no determinism promise.
    pub fn expired(&self) -> bool {
        let expired = self.deadline.expired();
        if expired {
            ca_obs::counter!("ca_sim.budget.wall_clock_expired").inc();
        }
        expired
    }
}

/// Error from a budgeted or checked simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The solver failed to reach a fixpoint within the natural iteration
    /// bound: the cell genuinely oscillates on this stimulus.
    Oscillated {
        /// Names of the nets that were still changing.
        nets: Vec<String>,
    },
    /// A resource budget was exhausted before the run finished.
    BudgetExceeded {
        /// Which budget ran out (`"solver iterations"`, `"wall clock"`, …).
        resource: &'static str,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Oscillated { nets } => {
                write!(f, "solver oscillated on nets [{}]", nets.join(", "))
            }
            SimError::BudgetExceeded { resource } => {
                write!(f, "simulation budget exceeded: {resource}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_expires() {
        let clock = SimBudget::unlimited().start();
        assert!(!clock.expired());
    }

    #[test]
    fn zero_wall_clock_expires_immediately() {
        let budget = SimBudget {
            wall_clock: Some(Duration::ZERO),
            ..SimBudget::unlimited()
        };
        assert!(budget.start().expired());
    }

    #[test]
    fn clamps_apply_only_when_set() {
        let mut budget = SimBudget::unlimited();
        assert_eq!(budget.clamp_stimuli(100), 100);
        assert_eq!(budget.clamp_defects(100), 100);
        budget.max_stimuli = Some(8);
        budget.max_defects = Some(3);
        assert_eq!(budget.clamp_stimuli(100), 8);
        assert_eq!(budget.clamp_stimuli(5), 5);
        assert_eq!(budget.clamp_defects(100), 3);
    }

    #[test]
    fn errors_display() {
        let e = SimError::Oscillated {
            nets: vec!["Z".into(), "net0".into()],
        };
        assert_eq!(e.to_string(), "solver oscillated on nets [Z, net0]");
        let e = SimError::BudgetExceeded {
            resource: "wall clock",
        };
        assert_eq!(e.to_string(), "simulation budget exceeded: wall clock");
    }
}
