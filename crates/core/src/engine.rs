//! The engine layer: one generic solving pipeline per hardware
//! backend, parameterized over any [`CopProblem`].
//!
//! The three backends mirror the paper's comparison:
//!
//! * [`HyCimEngine`] — the paper's pipeline (Fig. 3): inequality-QUBO
//!   encoding, FeFET inequality filter, FeFET CiM crossbar, SA logic.
//!   It is the one-filter case of [`BankEngine`], which gates a
//!   multi-constraint COP with one filter per constraint.
//! * [`DquboEngine`] — the D-QUBO baseline (Fig. 1(b)): penalty
//!   auxiliaries on one large crossbar, no filter.
//! * [`SoftwareEngine`] — noise-free software evaluation of the same
//!   inequality-QUBO form, separating algorithmic from hardware
//!   effects.
//!
//! All three produce the same typed [`Solution<P>`], so any problem in
//! `hycim-cop` (QKP, knapsack, max-cut, TSP, coloring, bin packing,
//! spin glass — or a raw [`InequalityQubo`](hycim_qubo::InequalityQubo))
//! runs end-to-end on every backend.
//!
//! # Example
//!
//! ```
//! use hycim_core::{Engine, HyCimConfig, HyCimEngine};
//! use hycim_cop::maxcut::MaxCut;
//!
//! # fn main() -> Result<(), hycim_core::HycimError> {
//! let graph = MaxCut::random(16, 0.5, 1);
//! let engine = HyCimEngine::new(&graph, &HyCimConfig::default().with_sweeps(100), 1)?;
//! let solution = engine.solve(2);
//! let partition = solution.decoded.expect("any partition decodes");
//! assert_eq!(graph.cut_value(&partition) as f64, -solution.objective);
//! # Ok(())
//! # }
//! ```

use hycim_cop::{CopProblem, QkpInstance};
use hycim_qubo::dqubo::DquboForm;
use hycim_qubo::{Assignment, InequalityQubo, MultiInequalityQubo};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{
    run_annealing, BankHardwareState, DquboConfig, DquboHardwareState, HyCimConfig, HycimError,
    Solution,
};

/// A solver backend over a [`CopProblem`]: construction validates the
/// encoding eagerly; [`solve`](Engine::solve) is a pure function of
/// the seed, which is what makes batched runs deterministic
/// independent of scheduling (see [`BatchRunner`](crate::BatchRunner)).
///
/// # Example
///
/// The encode → solve → decode round trip on a tiny max-cut: the
/// engine returns a typed [`Solution`] whose decoded partition
/// re-encodes to the exact configuration the annealer settled on.
///
/// ```
/// use hycim_core::{Engine, HyCimConfig, SoftwareEngine};
/// use hycim_cop::maxcut::MaxCut;
/// use hycim_cop::CopProblem;
///
/// # fn main() -> Result<(), hycim_core::HycimError> {
/// let graph = MaxCut::random(8, 0.5, 1);
/// let engine = SoftwareEngine::new(&graph, &HyCimConfig::default().with_sweeps(60))?;
///
/// let solution = engine.solve(7);                       // solve (pure in the seed)
/// let partition = solution.decoded.clone().expect("any partition decodes");
/// assert_eq!(graph.encode(&partition), solution.assignment);   // encode inverts decode
/// assert_eq!(solution.objective, -(graph.cut_value(&partition) as f64));
/// assert_eq!(solution.assignment, engine.solve(7).assignment); // deterministic
/// # Ok(())
/// # }
/// ```
pub trait Engine<P: CopProblem>: Send + Sync {
    /// The problem being solved.
    fn problem(&self) -> &P;

    /// Short backend tag (`"hycim"`, `"dqubo"`, `"software"`) for
    /// reports and the problem × engine matrix.
    fn backend(&self) -> &'static str;

    /// Runs one annealing from a seed-derived initial configuration.
    /// Deterministic in `seed`.
    fn solve(&self, seed: u64) -> Solution<P>;
}

/// Boxed engines are engines: lets heterogeneous backends share one
/// `Vec<Box<dyn Engine<P>>>` and still flow through [`BatchRunner`]
/// fan-outs (the study harness builds its engine columns this way).
///
/// [`BatchRunner`]: crate::BatchRunner
impl<P: CopProblem, E: Engine<P> + ?Sized> Engine<P> for Box<E> {
    fn problem(&self) -> &P {
        (**self).problem()
    }

    fn backend(&self) -> &'static str {
        (**self).backend()
    }

    fn solve(&self, seed: u64) -> Solution<P> {
        (**self).solve(seed)
    }
}

/// The HyCiM engine: inequality-QUBO transformation + FeFET inequality
/// filter + FeFET CiM crossbar + SA logic (paper Fig. 3), generic over
/// the problem being encoded.
///
/// It is the one-filter [`BankEngine`]: the same chip fabrication and
/// solve body over `MultiInequalityQubo::from(to_inequality_qubo())`,
/// so multi-constraint COPs (bin packing) run through their
/// aggregate-capacity relaxation. Only the encoding and the `"hycim"`
/// tag differ.
#[derive(Debug, Clone)]
pub struct HyCimEngine<P: CopProblem>(BankEngine<P>);

/// The paper's solver: the HyCiM engine specialized to the quadratic
/// knapsack problem it evaluates on.
pub type HyCimSolver = HyCimEngine<QkpInstance>;

impl<P: CopProblem> HyCimEngine<P> {
    /// Builds an engine for a problem. `hardware_seed` fixes the
    /// fabricated device variability (a "chip instance").
    ///
    /// # Errors
    ///
    /// Returns [`HycimError`] if the problem cannot be encoded or
    /// mapped onto the hardware (e.g. constraint weights exceeding the
    /// filter's 64-unit columns).
    pub fn new(problem: &P, config: &HyCimConfig, hardware_seed: u64) -> Result<Self, HycimError> {
        let encoded = problem.to_inequality_qubo()?.into();
        BankEngine::with_encoding(problem, encoded, config, hardware_seed).map(Self)
    }

    /// The problem in inequality-QUBO form, as the one-constraint
    /// multi-inequality form the filter bank programs.
    pub fn encoded(&self) -> &MultiInequalityQubo {
        self.0.encoded()
    }

    /// The instance being solved.
    pub fn instance(&self) -> &P {
        self.0.instance()
    }

    /// Runs one annealing from an explicit initial configuration
    /// (which must satisfy the encoded constraint — the paper's
    /// initial states are Monte-Carlo sampled feasible
    /// configurations).
    ///
    /// # Panics
    ///
    /// Panics if `initial` violates the constraint or has the wrong
    /// length.
    pub fn solve_from(&self, initial: &Assignment, seed: u64) -> Solution<P> {
        self.0.solve_from(initial, seed)
    }
}

impl<P: CopProblem> Engine<P> for HyCimEngine<P> {
    fn problem(&self) -> &P {
        self.0.problem()
    }

    fn backend(&self) -> &'static str {
        "hycim"
    }

    fn solve(&self, seed: u64) -> Solution<P> {
        self.0.solve(seed)
    }
}

/// The multi-constraint HyCiM engine: the problem's exact
/// multi-inequality form (`CopProblem::to_multi_inequality_qubo`) on
/// a [`FilterBank`](hycim_cim::filter::FilterBank) — one FeFET filter
/// per constraint — plus the CiM crossbar and the same SA driver as
/// every other engine.
///
/// Where [`HyCimEngine`] runs multi-constraint COPs through an
/// aggregate-capacity relaxation (bin packing) or cannot express them
/// at all, `BankEngine` gates each constraint independently: a
/// proposed configuration reaches the crossbar only when **all**
/// filters admit it, so bin packing is bin-exact in hardware and
/// general multi-inequality COPs (the multi-dimensional knapsack)
/// run natively. Single-constraint problems work too — their bank has
/// one filter and is the single-filter pipeline, bit for bit.
///
/// Determinism: `hardware_seed` fabricates the bank's filters in
/// constraint order from one RNG stream (then the crossbar), so the
/// same seed builds the same "chip instance"; `solve(seed)` is then a
/// pure function of the seed, which is what keeps
/// [`BatchRunner`](crate::BatchRunner) grids and `hycim-service` jobs
/// bit-identical at any thread count.
#[derive(Debug, Clone)]
pub struct BankEngine<P: CopProblem> {
    problem: P,
    encoded: MultiInequalityQubo,
    config: HyCimConfig,
    /// Seed used to fabricate hardware instances (device variability
    /// is sampled per-engine, like a real chip).
    hardware_seed: u64,
}

impl<P: CopProblem> BankEngine<P> {
    /// Builds a bank engine for a problem. `hardware_seed` fixes the
    /// fabricated device variability of every filter in the bank and
    /// the crossbar.
    ///
    /// # Errors
    ///
    /// Returns [`HycimError`] if the problem cannot be encoded into
    /// the multi-inequality form or mapped onto the hardware (e.g.
    /// constraint weights exceeding the filter's 64-unit columns).
    pub fn new(problem: &P, config: &HyCimConfig, hardware_seed: u64) -> Result<Self, HycimError> {
        let encoded = problem.to_multi_inequality_qubo()?;
        Self::with_encoding(problem, encoded, config, hardware_seed)
    }

    /// Builds the engine over an already encoded form, validating the
    /// hardware mapping eagerly so configuration errors surface at
    /// build time, not first solve.
    fn with_encoding(
        problem: &P,
        encoded: MultiInequalityQubo,
        config: &HyCimConfig,
        hardware_seed: u64,
    ) -> Result<Self, HycimError> {
        let mut rng = StdRng::seed_from_u64(hardware_seed);
        let _ = BankHardwareState::build(
            &encoded,
            &config.filter,
            &config.crossbar,
            Assignment::zeros(encoded.dim()),
            &mut rng,
        )?;
        Ok(Self {
            problem: problem.clone(),
            encoded,
            config: config.clone(),
            hardware_seed,
        })
    }

    /// The problem in multi-inequality-QUBO form.
    pub fn encoded(&self) -> &MultiInequalityQubo {
        &self.encoded
    }

    /// The instance being solved.
    pub fn instance(&self) -> &P {
        &self.problem
    }

    /// Runs one annealing from an explicit initial configuration
    /// (which must satisfy every encoded constraint).
    ///
    /// # Panics
    ///
    /// Panics if `initial` violates any constraint or has the wrong
    /// length.
    pub fn solve_from(&self, initial: &Assignment, seed: u64) -> Solution<P> {
        let mut hw_rng = StdRng::seed_from_u64(self.hardware_seed);
        let mut state = BankHardwareState::build(
            &self.encoded,
            &self.config.filter,
            &self.config.crossbar,
            initial.clone(),
            &mut hw_rng,
        )
        .expect("mapping validated at construction");
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = run_annealing(&mut state, &self.config.anneal_settings(), &mut rng);
        let assignment = trace.best_assignment().clone();
        Solution::score(&self.problem, assignment, trace)
    }
}

impl<P: CopProblem> Engine<P> for BankEngine<P> {
    fn problem(&self) -> &P {
        &self.problem
    }

    fn backend(&self) -> &'static str {
        "bank"
    }

    fn solve(&self, seed: u64) -> Solution<P> {
        let mut rng = StdRng::seed_from_u64(seed);
        let initial = self.problem.initial(&mut rng);
        self.solve_from(&initial, seed)
    }
}

/// The D-QUBO baseline engine the paper compares against (Sec 4.3,
/// Fig. 10), generic over the problem being encoded.
#[derive(Debug, Clone)]
pub struct DquboEngine<P: CopProblem> {
    problem: P,
    form: DquboForm,
    config: DquboConfig,
}

/// The baseline solver of the paper's comparison: the D-QUBO engine
/// specialized to QKP.
pub type DquboSolver = DquboEngine<QkpInstance>;

impl<P: CopProblem> DquboEngine<P> {
    /// Transforms the problem with penalty auxiliaries and prepares
    /// the baseline engine.
    ///
    /// # Errors
    ///
    /// Returns [`HycimError`] if the transformation fails.
    pub fn new(problem: &P, config: &DquboConfig) -> Result<Self, HycimError> {
        let form = problem.to_dqubo(config.penalty, config.encoding)?;
        Ok(Self {
            problem: problem.clone(),
            form,
            config: config.clone(),
        })
    }

    /// The transformed D-QUBO form (dimension `n + n_aux`).
    pub fn form(&self) -> &DquboForm {
        &self.form
    }

    /// The instance being solved.
    pub fn instance(&self) -> &P {
        &self.problem
    }

    /// Runs one annealing from an explicit extended-space start.
    ///
    /// # Panics
    ///
    /// Panics if `initial.len() != self.form().dim()`.
    pub fn solve_from(&self, initial: &Assignment, seed: u64) -> Solution<P> {
        let mut state = DquboHardwareState::build(
            &self.form,
            self.config.bits,
            self.config.current_sigma_rel,
            initial.clone(),
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = run_annealing(&mut state, &self.config.anneal_settings(), &mut rng);
        // Decode the best extended configuration back to the problem
        // space; the filterless baseline may well land infeasible
        // (Fig. 10).
        let assignment = self.form.decode(trace.best_assignment());
        Solution::score(&self.problem, assignment, trace)
    }
}

impl<P: CopProblem> Engine<P> for DquboEngine<P> {
    fn problem(&self) -> &P {
        &self.problem
    }

    fn backend(&self) -> &'static str {
        "dqubo"
    }

    fn solve(&self, seed: u64) -> Solution<P> {
        let mut rng = StdRng::seed_from_u64(seed);
        // D-QUBO has no filter, so the baseline starts from an
        // arbitrary configuration of the extended space; lift a random
        // problem-space configuration and let SA sort out the
        // auxiliaries.
        let items = Assignment::random_with_density(self.form.num_items(), 0.3, &mut rng);
        let initial = self.form.lift(&items);
        self.solve_from(&initial, seed)
    }
}

/// Noise-free software reference engine on the same inequality-QUBO
/// form: exact constraint arithmetic, exact energies. Used to separate
/// algorithmic effects from hardware effects.
#[derive(Debug, Clone)]
pub struct SoftwareEngine<P: CopProblem> {
    problem: P,
    encoded: InequalityQubo,
    config: HyCimConfig,
}

/// The software reference solver specialized to QKP.
pub type SoftwareSolver = SoftwareEngine<QkpInstance>;

impl<P: CopProblem> SoftwareEngine<P> {
    /// Builds a software engine with the same annealing parameters.
    ///
    /// # Errors
    ///
    /// Returns [`HycimError`] if the problem cannot be encoded.
    pub fn new(problem: &P, config: &HyCimConfig) -> Result<Self, HycimError> {
        Ok(Self {
            problem: problem.clone(),
            encoded: problem.to_inequality_qubo()?,
            config: config.clone(),
        })
    }

    /// The problem in inequality-QUBO form.
    pub fn encoded(&self) -> &InequalityQubo {
        &self.encoded
    }

    /// Runs one annealing from an explicit feasible start.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is infeasible or has the wrong length.
    pub fn solve_from(&self, initial: &Assignment, seed: u64) -> Solution<P> {
        let mut state = hycim_anneal::SoftwareState::new(&self.encoded, initial.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = run_annealing(&mut state, &self.config.anneal_settings(), &mut rng);
        let assignment = trace.best_assignment().clone();
        Solution::score(&self.problem, assignment, trace)
    }
}

impl<P: CopProblem> Engine<P> for SoftwareEngine<P> {
    fn problem(&self) -> &P {
        &self.problem
    }

    fn backend(&self) -> &'static str {
        "software"
    }

    fn solve(&self, seed: u64) -> Solution<P> {
        let mut rng = StdRng::seed_from_u64(seed);
        let initial = self.problem.initial(&mut rng);
        self.solve_from(&initial, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hycim_cop::generator::QkpGenerator;

    fn fig7e() -> QkpInstance {
        let mut inst = QkpInstance::new(vec![10, 6, 8], vec![4, 7, 2], 9).unwrap();
        inst.set_pair_profit(0, 1, 3);
        inst.set_pair_profit(0, 2, 7);
        inst.set_pair_profit(1, 2, 2);
        inst
    }

    #[test]
    fn hycim_solves_fig7e() {
        let solver =
            HyCimSolver::new(&fig7e(), &HyCimConfig::default().with_sweeps(50), 1).unwrap();
        let solution = solver.solve(2);
        assert!(solution.feasible);
        assert_eq!(solution.value(), 25);
        assert!(solution.is_success(25));
        assert_eq!(solution.objective, -25.0);
    }

    #[test]
    fn software_solves_fig7e() {
        let solver =
            SoftwareSolver::new(&fig7e(), &HyCimConfig::default().with_sweeps(50)).unwrap();
        let solution = solver.solve(3);
        assert_eq!(solution.value(), 25);
    }

    #[test]
    fn solutions_are_seed_deterministic() {
        let solver =
            HyCimSolver::new(&fig7e(), &HyCimConfig::default().with_sweeps(20), 7).unwrap();
        assert_eq!(solver.solve(11).value(), solver.solve(11).value());
        assert_eq!(
            solver.solve(11).reported_energy,
            solver.solve(11).reported_energy
        );
    }

    #[test]
    fn hycim_result_is_always_feasible() {
        for seed in 0..5 {
            let inst = QkpGenerator::new(40, 0.5).generate(seed);
            let solver =
                HyCimSolver::new(&inst, &HyCimConfig::default().with_sweeps(100), seed).unwrap();
            let solution = solver.solve(seed);
            assert!(
                solution.feasible,
                "HyCiM produced infeasible at seed {seed}"
            );
            assert!(solution.value() > 0);
        }
    }

    #[test]
    fn trace_recording_toggles() {
        let solver = HyCimSolver::new(
            &fig7e(),
            &HyCimConfig::default().with_sweeps(10).with_trace(),
            1,
        )
        .unwrap();
        assert!(!solver.solve(1).trace.energies().is_empty());
        let solver2 =
            HyCimSolver::new(&fig7e(), &HyCimConfig::default().with_sweeps(10), 1).unwrap();
        assert!(solver2.solve(1).trace.energies().is_empty());
    }

    #[test]
    fn oversized_weights_fail_at_build() {
        // Item weight 100 > filter column limit 64.
        let inst = QkpInstance::new(vec![5, 5], vec![100, 3], 50).unwrap();
        assert!(HyCimSolver::new(&inst, &HyCimConfig::default(), 1).is_err());
    }

    #[test]
    fn dqubo_baseline_runs_and_decodes() {
        let inst = QkpGenerator::new(10, 0.5)
            .with_capacity_range(20, 60)
            .generate(1);
        let solver = DquboSolver::new(&inst, &DquboConfig::default().with_sweeps(50)).unwrap();
        let solution = solver.solve(2);
        assert_eq!(solution.assignment.len(), 10);
        // Either feasible with a matching value or marked infeasible
        // with zero.
        if solution.feasible {
            assert_eq!(solution.value(), inst.value(&solution.assignment));
        } else {
            assert_eq!(solution.value(), 0);
        }
    }

    #[test]
    fn dqubo_binary_encoding_shrinks_dimension() {
        use hycim_qubo::dqubo::AuxEncoding;
        let inst = QkpGenerator::new(10, 0.5)
            .with_capacity_range(100, 200)
            .generate(3);
        let one_hot = DquboSolver::new(&inst, &DquboConfig::default()).unwrap();
        let binary = DquboSolver::new(
            &inst,
            &DquboConfig::default().with_encoding(AuxEncoding::Binary),
        )
        .unwrap();
        assert!(binary.form().dim() < one_hot.form().dim());
    }

    #[test]
    fn dqubo_success_rate_is_low_on_benchmark_style_instances() {
        use hycim_cop::solvers;
        // The headline Fig. 10 contrast, at reduced scale: the penalty
        // baseline fails much more often than 50%.
        let mut successes = 0;
        let runs = 8;
        for seed in 0..runs {
            let inst = QkpGenerator::new(20, 0.5).generate(seed);
            let (_, best) = solvers::best_known(&inst, 10, seed);
            let solver = DquboSolver::new(&inst, &DquboConfig::default().with_sweeps(100)).unwrap();
            if solver.solve(seed).is_success(best) {
                successes += 1;
            }
        }
        assert!(
            successes <= runs / 2,
            "D-QUBO baseline unexpectedly strong: {successes}/{runs}"
        );
    }

    #[test]
    fn dqubo_deterministic_in_seed() {
        let inst = QkpGenerator::new(8, 0.5)
            .with_capacity_range(10, 30)
            .generate(5);
        let solver = DquboSolver::new(&inst, &DquboConfig::default().with_sweeps(20)).unwrap();
        assert_eq!(solver.solve(9).value(), solver.solve(9).value());
    }

    #[test]
    fn generic_engine_solves_raw_inequality_qubo() {
        use hycim_qubo::{LinearConstraint, QuboMatrix};
        let mut q = QuboMatrix::zeros(3);
        q.set(0, 0, -10.0);
        q.set(2, 2, -8.0);
        q.set(0, 2, -14.0);
        let iq = InequalityQubo::new(q, LinearConstraint::new(vec![4, 7, 2], 9).unwrap()).unwrap();
        let engine = HyCimEngine::new(&iq, &HyCimConfig::default().with_sweeps(60), 5).unwrap();
        let solution = engine.solve(6);
        assert_eq!(solution.objective, -32.0);
        assert!(iq.is_feasible(&solution.assignment));
    }

    #[test]
    fn unmappable_raw_problem_rejected() {
        use hycim_qubo::{LinearConstraint, QuboMatrix};
        let q = QuboMatrix::zeros(2);
        let iq = InequalityQubo::new(q, LinearConstraint::new(vec![100, 1], 50).unwrap()).unwrap();
        assert!(HyCimEngine::new(&iq, &HyCimConfig::default(), 1).is_err());
    }

    #[test]
    fn backend_tags() {
        let inst = fig7e();
        let config = HyCimConfig::default().with_sweeps(5);
        assert_eq!(
            HyCimSolver::new(&inst, &config, 1).unwrap().backend(),
            "hycim"
        );
        assert_eq!(
            SoftwareSolver::new(&inst, &config).unwrap().backend(),
            "software"
        );
        assert_eq!(
            DquboSolver::new(&inst, &DquboConfig::default())
                .unwrap()
                .backend(),
            "dqubo"
        );
        assert_eq!(
            BankEngine::new(&inst, &config, 1).unwrap().backend(),
            "bank"
        );
    }

    #[test]
    fn bank_engine_solves_fig7e_via_single_constraint_bank() {
        // A single-constraint problem runs on a 1-filter bank and
        // reaches the same optimum as the single-filter pipeline.
        let engine = BankEngine::new(&fig7e(), &HyCimConfig::default().with_sweeps(50), 1).unwrap();
        assert_eq!(engine.encoded().num_constraints(), 1);
        let solution = engine.solve(2);
        assert!(solution.feasible);
        assert_eq!(solution.value(), 25);
    }

    #[test]
    fn bank_engine_results_are_seed_deterministic() {
        let bp = hycim_cop::binpack::BinPacking::new(vec![4, 5, 3, 6], 9, 2).unwrap();
        let engine = BankEngine::new(&bp, &HyCimConfig::default().with_sweeps(30), 7).unwrap();
        let a = engine.solve(11);
        let b = engine.solve(11);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.reported_energy, b.reported_energy);
    }

    #[test]
    fn bank_engine_rejects_unmappable_constraints() {
        use hycim_qubo::{LinearConstraint, MultiInequalityQubo, QuboMatrix};
        // Weight 100 > the filter's 64-unit column limit: the raw
        // multi-form problem cannot be programmed.
        let mq = MultiInequalityQubo::new(
            QuboMatrix::zeros(2),
            vec![LinearConstraint::new(vec![100, 1], 50).unwrap()],
        )
        .unwrap();
        // Route through the raw-problem impl: a MultiInequalityQubo is
        // not itself a CopProblem, so check via the state directly.
        let mut rng = StdRng::seed_from_u64(1);
        assert!(BankHardwareState::build(
            &mq,
            &HyCimConfig::default().filter,
            &HyCimConfig::default().crossbar,
            Assignment::zeros(2),
            &mut rng,
        )
        .is_err());
    }
}
