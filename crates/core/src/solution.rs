use std::fmt;

use hycim_anneal::AnnealTrace;
use hycim_cop::CopProblem;
use hycim_qubo::Assignment;

/// Result of one engine run on any [`CopProblem`]: the raw
/// configuration, the typed domain solution it decodes to, and the
/// domain objective (minimization convention — maximization problems
/// such as QKP report the negated value).
#[derive(Debug, Clone)]
pub struct Solution<P: CopProblem> {
    /// Best configuration found, in the problem's own variable space
    /// (D-QUBO runs are decoded back from the extended space).
    pub assignment: Assignment,
    /// Typed domain solution, when `assignment` has the problem's
    /// structural shape (a tour, a coloring, a selection, …).
    pub decoded: Option<P::Decoded>,
    /// Domain objective of `assignment` (lower is better; may be
    /// `f64::INFINITY` when the configuration does not decode).
    pub objective: f64,
    /// Whether `assignment` is fully feasible in the domain,
    /// recomputed from the assignment by `problem.is_feasible` (never
    /// taken from the hardware). For the filter engines, infeasible
    /// results are rare but possible: the noisy filter can admit a
    /// violating flip, and the two extra filter reads that guard the
    /// best state (paper Fig. 6(b)) make it unlikely, not impossible,
    /// that such a state is returned. Frequently false for the D-QUBO
    /// baseline (paper Fig. 10: "trapped in infeasible input
    /// configuration").
    pub feasible: bool,
    /// Energy as reported by the (noisy) hardware for its best state.
    pub reported_energy: f64,
    /// The annealing trace (energy evolution, acceptance statistics).
    pub trace: AnnealTrace,
}

/// The scoring-side success criterion as a free function of the raw
/// (objective, feasible) pair — shared by [`Solution`] and by
/// consumers scoring solutions that crossed the wire, so the two
/// paths cannot drift apart: feasible and within 5% of `reference` on
/// the favorable side; `reference == 0` (pure feasibility problems)
/// demands an exact zero-violation solution.
pub fn objective_success(objective: f64, feasible: bool, reference: f64) -> bool {
    const EPS: f64 = 1e-9;
    if !feasible || !reference.is_finite() {
        return false;
    }
    if reference.abs() < EPS {
        objective.abs() < EPS
    } else if reference < 0.0 {
        objective <= 0.95 * reference
    } else {
        objective <= reference / 0.95
    }
}

impl<P: CopProblem> Solution<P> {
    /// Scores a final configuration against the problem: decodes it,
    /// checks feasibility, and records the domain objective.
    pub(crate) fn score(problem: &P, assignment: Assignment, trace: AnnealTrace) -> Self {
        let decoded = problem.decode(&assignment);
        let feasible = problem.is_feasible(&assignment);
        let objective = problem.objective(&assignment);
        Solution {
            assignment,
            decoded,
            objective,
            feasible,
            reported_energy: trace.best_energy(),
            trace,
        }
    }

    /// Objective value as a non-negative integer for *maximization*
    /// problems (QKP, knapsack, max-cut): the negated objective,
    /// clamped at 0 — infeasible runs report 0, matching the paper's
    /// accounting.
    pub fn value(&self) -> u64 {
        if self.objective.is_finite() {
            (-self.objective).round().max(0.0) as u64
        } else {
            0
        }
    }

    /// Whether this run counts as a success under the paper's
    /// criterion (Sec 4.3) for maximization problems: feasible and
    /// within 95% of the best-known value.
    pub fn is_success(&self, best_known: u64) -> bool {
        self.feasible && self.value() as f64 >= 0.95 * best_known as f64
    }

    /// Value normalized by the best-known optimum — the y-axis of
    /// paper Fig. 10 (maximization problems).
    pub fn normalized_value(&self, best_known: u64) -> f64 {
        if best_known == 0 {
            return 1.0;
        }
        self.value() as f64 / best_known as f64
    }

    /// The success criterion generalized to any objective sign:
    /// feasible and within 5% of `reference` on the favorable side.
    /// `reference == 0` (pure feasibility problems: coloring, bin
    /// packing) demands an exact zero-violation solution.
    pub fn objective_success(&self, reference: f64) -> bool {
        objective_success(self.objective, self.feasible, reference)
    }

    /// Solution quality in `[0, ~1]` relative to `reference` (1 =
    /// matched or beat the reference), defined for both maximization
    /// (negative objectives) and minimization (positive) problems.
    pub fn normalized_objective(&self, reference: f64) -> f64 {
        const EPS: f64 = 1e-9;
        if !self.objective.is_finite() || !reference.is_finite() {
            return 0.0;
        }
        if reference.abs() < EPS {
            return if self.objective.abs() < EPS { 1.0 } else { 0.0 };
        }
        if reference < 0.0 {
            (self.objective / reference).max(0.0)
        } else if self.objective.abs() < EPS {
            0.0
        } else {
            (reference / self.objective).max(0.0)
        }
    }
}

impl<P: CopProblem> fmt::Display for Solution<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Solution(objective={}, feasible={}, {} bits set, E={:.1})",
            self.objective,
            self.feasible,
            self.assignment.ones(),
            self.reported_energy
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hycim_cop::QkpInstance;

    fn dummy(objective: f64, feasible: bool) -> Solution<QkpInstance> {
        Solution {
            assignment: Assignment::zeros(3),
            decoded: Some(Assignment::zeros(3)),
            objective,
            feasible,
            reported_energy: objective,
            trace: AnnealTrace::new(0.0, Assignment::zeros(3), false),
        }
    }

    #[test]
    fn success_criterion() {
        assert!(dummy(-95.0, true).is_success(100));
        assert!(!dummy(-94.0, true).is_success(100));
        assert!(!dummy(-100.0, false).is_success(100));
        assert!(dummy(-100.0, true).is_success(100));
    }

    #[test]
    fn normalized_value() {
        assert!((dummy(-80.0, true).normalized_value(100) - 0.8).abs() < 1e-12);
        assert_eq!(dummy(-5.0, true).normalized_value(0), 1.0);
    }

    #[test]
    fn value_clamps_infeasible_and_positive() {
        assert_eq!(dummy(-42.0, true).value(), 42);
        assert_eq!(dummy(f64::INFINITY, false).value(), 0);
        assert_eq!(dummy(3.0, false).value(), 0);
    }

    #[test]
    fn objective_success_handles_both_signs() {
        // Maximization (negative reference): within 95%.
        assert!(dummy(-96.0, true).objective_success(-100.0));
        assert!(!dummy(-94.0, true).objective_success(-100.0));
        // Minimization (positive reference): within ~5% above.
        assert!(dummy(104.0, true).objective_success(100.0));
        assert!(!dummy(106.0, true).objective_success(100.0));
        // Feasibility problems (zero reference): exact.
        assert!(dummy(0.0, true).objective_success(0.0));
        assert!(!dummy(1.0, true).objective_success(0.0));
        // Infeasible never succeeds.
        assert!(!dummy(-100.0, false).objective_success(-100.0));
    }

    #[test]
    fn normalized_objective_handles_both_signs() {
        assert!((dummy(-80.0, true).normalized_objective(-100.0) - 0.8).abs() < 1e-12);
        assert!((dummy(125.0, true).normalized_objective(100.0) - 0.8).abs() < 1e-12);
        assert_eq!(dummy(0.0, true).normalized_objective(0.0), 1.0);
        assert_eq!(dummy(2.0, true).normalized_objective(0.0), 0.0);
        assert_eq!(dummy(f64::INFINITY, false).normalized_objective(10.0), 0.0);
    }

    #[test]
    fn display() {
        assert!(dummy(-42.0, true).to_string().contains("objective=-42"));
    }
}
