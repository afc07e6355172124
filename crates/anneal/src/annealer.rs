use rand::rngs::StdRng;
use rand::Rng;

use crate::{AnnealState, AnnealTrace, FlipOutcome, Schedule};

/// The Metropolis simulated-annealing loop of the paper's SA logic
/// (Fig. 6(b)).
///
/// Each iteration: generate a new configuration (single-bit flip of
/// the current one), submit it to the problem's feasibility check
/// (HyCiM: the inequality filter), and — for admissible moves — accept
/// with probability `min(1, exp(−ΔE/T))`.
///
/// # Example
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct Annealer<S: Schedule> {
    schedule: S,
    iterations: usize,
    record_trace: bool,
    swap_probability: f64,
}

/// The paper-calibrated exchange-move fraction (Sec 4): half of the
/// proposed moves swap one selected bit for one unselected bit. This
/// is the single source of truth — the solver configurations in
/// `hycim-core` default to the same value.
pub const DEFAULT_SWAP_PROBABILITY: f64 = 0.5;

/// Below this value of `−Δ/T`, `exp` is dominated by every nonzero
/// uniform draw: the RNG's `f64` samples are multiples of 2⁻⁵³
/// (≈ 1.11e-16), and `exp(−37)` ≈ 8.5e-17 < 2⁻⁵³, so `u < exp(arg)`
/// is false for every `u > 0`. Skipping `exp` there changes no
/// decision.
const EXP_DOMINATED: f64 = -37.0;

/// Uphill moves with `Δ ≥ 37.5·T` are rejected by every nonzero
/// uniform draw: `−Δ/T ≤ −37.5·(1 − 2⁻⁵²) < −37` even after the
/// division's half-ulp rounding, so the comparison against
/// [`EXP_DOMINATED`] is provably lost before any randomness is
/// consumed. The 0.5 margin over `−EXP_DOMINATED` absorbs the
/// rounding.
pub(crate) const DRAW_DOMINATED: f64 = 37.5;

/// The shared Metropolis acceptance test: accept downhill moves
/// unconditionally, uphill moves with probability `exp(−Δ/T)` — drawn
/// against one uniform sample consumed *only* for uphill moves at
/// positive temperature. The production loop in this crate, the
/// [`Annealer`], funnels through this function; the sweep-synchronous
/// loops (packed lanes and their scalar reference) share
/// [`metropolis_accept_sweep`] instead, so their accept decisions —
/// and the RNG stream consumption — stay comparable move-for-move.
///
/// The result is *exactly* `u < exp(−Δ/T)` for the drawn `u`: the
/// `EXP_DOMINATED` shortcut only skips `exp` where the comparison is
/// provably false (see the constant), and a `u == 0.0` draw accepts
/// iff `exp` has not underflowed to zero.
#[inline]
pub fn metropolis_accept(delta: f64, temperature: f64, rng: &mut StdRng) -> bool {
    if delta <= 0.0 {
        return true;
    }
    if temperature <= 0.0 {
        return false;
    }
    let u = rng.random::<f64>();
    let arg = -delta / temperature;
    if u == 0.0 {
        return arg.exp() > 0.0;
    }
    arg > EXP_DOMINATED && u < arg.exp()
}

/// The *sweep-reference* Metropolis test: the same acceptance rule as
/// [`metropolis_accept`], except that a deterministically-rejected
/// uphill move — `Δ ≥ 37.5·T`, where the acceptance probability is
/// smaller than every representable nonzero uniform sample (see
/// `DRAW_DOMINATED`) — is rejected *without consuming a draw*. In
/// the cold tail of an anneal nearly every proposal is in this
/// regime, so skipping the futile draws is the packed sweep's single
/// biggest saving; the RNG stream diverges from [`metropolis_accept`]
/// after the first skip, which is why this is a separate function.
///
/// Both sides of the packed bit-identity law — the packed 64-lane
/// sweep and the scalar sweep reference
/// ([`run_replica_scalar`](crate::run_replica_scalar)) — funnel
/// through this test, so lane `k`'s decisions and draw consumption
/// stay aligned move-for-move. The production [`Annealer`] keeps the
/// always-draw [`metropolis_accept`].
#[inline]
pub fn metropolis_accept_sweep(delta: f64, temperature: f64, rng: &mut StdRng) -> bool {
    if delta <= 0.0 {
        return true;
    }
    if temperature <= 0.0 || delta >= DRAW_DOMINATED * temperature {
        return false;
    }
    let u = rng.random::<f64>();
    let arg = -delta / temperature;
    if u == 0.0 {
        return arg.exp() > 0.0;
    }
    arg > EXP_DOMINATED && u < arg.exp()
}

impl<S: Schedule> Annealer<S> {
    /// Creates an annealer running `iterations` iterations under
    /// `schedule`, recording the full energy trace. By default
    /// [`DEFAULT_SWAP_PROBABILITY`] of the moves are exchange
    /// (pair-flip) moves — see
    /// [`with_swap_probability`](Self::with_swap_probability).
    ///
    /// # Panics
    ///
    /// Panics if `iterations == 0`.
    pub fn new(schedule: S, iterations: usize) -> Self {
        assert!(iterations > 0, "need at least one iteration");
        Self {
            schedule,
            iterations,
            record_trace: true,
            swap_probability: DEFAULT_SWAP_PROBABILITY,
        }
    }

    /// Disables per-iteration energy recording (saves memory in bulk
    /// success-rate experiments).
    pub fn without_trace(mut self) -> Self {
        self.record_trace = false;
        self
    }

    /// Sets the fraction of moves proposed as exchanges (one selected
    /// bit swapped with one unselected bit, probed as a single move).
    /// Exchange moves let a capacity-filtered knapsack SA replace an
    /// item without the uphill remove-then-add intermediate; `0.0`
    /// gives a pure single-flip neighborhood.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=1.0`.
    pub fn with_swap_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.swap_probability = p;
        self
    }

    /// Number of iterations per run.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The schedule in use.
    pub fn schedule(&self) -> &S {
        &self.schedule
    }

    /// Runs the annealing loop to completion, mutating `state` in
    /// place and returning the trace. Deterministic in `rng`.
    pub fn run<T: AnnealState>(&self, state: &mut T, rng: &mut StdRng) -> AnnealTrace {
        let n = state.dim();
        let mut trace = AnnealTrace::with_capacity(
            state.energy(),
            state.assignment().clone(),
            self.record_trace,
            self.iterations,
        );
        for iter in 0..self.iterations {
            let temperature = self.schedule.temperature(iter, self.iterations);
            let pair = if self.swap_probability > 0.0 && rng.random::<f64>() < self.swap_probability
            {
                propose_exchange(state.assignment(), rng)
            } else {
                None
            };
            let (outcome, bits) = match pair {
                Some((i, j)) => (state.probe_pair(i, j, rng), (i, Some(j))),
                None => {
                    let i = rng.random_range(0..n);
                    (state.probe_flip(i, rng), (i, None))
                }
            };
            match outcome {
                FlipOutcome::Infeasible => {
                    // Paper Fig. 3: infeasible configurations are sent
                    // back to the SA logic; no QUBO computation happens.
                    trace.count_infeasible();
                }
                FlipOutcome::Feasible { delta } => {
                    if metropolis_accept(delta, temperature, rng) {
                        match bits {
                            (i, Some(j)) => state.commit_pair(i, j, delta),
                            (i, None) => state.commit_flip(i, delta),
                        }
                        trace.count_accept();
                        // Only record as the reserved best after the
                        // problem re-verifies the configuration
                        // (hardware re-runs the inequality filter).
                        if state.energy() < trace.best_energy() && state.verify_best(rng) {
                            trace.update_best(state.energy(), state.assignment());
                        }
                    } else {
                        trace.count_reject();
                    }
                }
            }
            trace.record_iteration(state.energy(), self.record_trace);
        }
        trace
    }
}

/// Picks one selected and one unselected bit for an exchange move;
/// falls back to `None` (→ single flip) when the configuration is all
/// zeros or all ones. The degeneracy check reads the O(1) cached
/// popcount, so proposing costs O(1) expected — no bit scans.
fn propose_exchange(x: &hycim_qubo::Assignment, rng: &mut StdRng) -> Option<(usize, usize)> {
    let n = x.len();
    let ones = x.ones();
    if ones == 0 || ones == n {
        return None;
    }
    // Rejection-sample both sides; expected iterations are small for
    // any non-degenerate density.
    let i = loop {
        let c = rng.random_range(0..n);
        if x.get(c) {
            break c;
        }
    };
    let j = loop {
        let c = rng.random_range(0..n);
        if !x.get(c) {
            break c;
        }
    };
    Some((i, j))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstantSchedule, GeometricSchedule, PenaltyState, SoftwareState};
    use hycim_cop::generator::QkpGenerator;
    use hycim_cop::solvers;
    use hycim_qubo::dqubo::{AuxEncoding, PenaltyWeights};
    use hycim_qubo::{Assignment, InequalityQubo, LinearConstraint, QuboMatrix};
    use rand::SeedableRng;

    fn fig7e() -> InequalityQubo {
        let mut q = QuboMatrix::zeros(3);
        q.set(0, 0, -10.0);
        q.set(1, 1, -6.0);
        q.set(2, 2, -8.0);
        q.set(0, 1, -6.0);
        q.set(0, 2, -14.0);
        q.set(1, 2, -4.0);
        InequalityQubo::new(q, LinearConstraint::new(vec![4, 7, 2], 9).unwrap()).unwrap()
    }

    #[test]
    fn solves_fig7e_to_optimum() {
        // The chip demo of Fig. 7(f): reaches E = −32 within a handful
        // of iterations.
        let iq = fig7e();
        let annealer = Annealer::new(GeometricSchedule::new(15.0, 0.85), 100);
        let mut rng = StdRng::seed_from_u64(5);
        let mut state = SoftwareState::new(&iq, Assignment::zeros(3));
        let trace = annealer.run(&mut state, &mut rng);
        assert_eq!(trace.best_energy(), -32.0);
        assert_eq!(
            trace.best_assignment(),
            &Assignment::from_bits([true, false, true])
        );
    }

    #[test]
    fn greedy_descent_never_accepts_uphill() {
        let iq = fig7e();
        let annealer = Annealer::new(ConstantSchedule::new(0.0), 200);
        let mut rng = StdRng::seed_from_u64(6);
        let mut state = SoftwareState::new(&iq, Assignment::zeros(3));
        let trace = annealer.run(&mut state, &mut rng);
        // Energies must be monotone non-increasing at T = 0.
        assert!(trace.energies().windows(2).all(|w| w[1] <= w[0] + 1e-12));
    }

    #[test]
    fn trace_counts_sum_to_iterations() {
        let iq = fig7e();
        let annealer = Annealer::new(GeometricSchedule::new(10.0, 0.99), 500);
        let mut rng = StdRng::seed_from_u64(7);
        let mut state = SoftwareState::new(&iq, Assignment::zeros(3));
        let trace = annealer.run(&mut state, &mut rng);
        assert_eq!(trace.iterations(), 500);
        assert_eq!(trace.energies().len(), 501);
    }

    #[test]
    fn runs_are_seed_deterministic() {
        let iq = fig7e();
        let annealer = Annealer::new(GeometricSchedule::new(10.0, 0.95), 300);
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut state = SoftwareState::new(&iq, Assignment::zeros(3));
            annealer.run(&mut state, &mut rng)
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn hycim_state_stays_feasible_throughout() {
        let inst = QkpGenerator::new(30, 0.5).generate(8);
        let iq = inst.to_inequality_qubo().unwrap();
        let annealer = Annealer::new(GeometricSchedule::new(100.0, 0.99), 1000);
        let mut rng = StdRng::seed_from_u64(9);
        let mut state = SoftwareState::new(&iq, Assignment::zeros(30));
        let trace = annealer.run(&mut state, &mut rng);
        assert!(iq.is_feasible(state.assignment()));
        assert!(iq.is_feasible(trace.best_assignment()));
        assert!(trace.rejected_infeasible() > 0, "filter never fired");
    }

    #[test]
    fn software_sa_reaches_95_percent_on_small_qkp() {
        // The paper's success criterion on exhaustively solvable sizes.
        let mut successes = 0;
        for seed in 0..10 {
            let inst = QkpGenerator::new(15, 0.5).generate(seed);
            let (_, opt) = solvers::exhaustive(&inst).unwrap();
            let iq = inst.to_inequality_qubo().unwrap();
            let annealer = Annealer::new(GeometricSchedule::for_energy_scale(100.0, 4000), 4000)
                .without_trace();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut state = SoftwareState::new(&iq, Assignment::zeros(15));
            let trace = annealer.run(&mut state, &mut rng);
            let value = -trace.best_energy();
            if value >= 0.95 * opt as f64 {
                successes += 1;
            }
        }
        assert!(successes >= 9, "only {successes}/10 runs reached 95%");
    }

    #[test]
    fn dqubo_sa_gets_trapped_more_often() {
        // The qualitative Fig. 10 effect at small scale: penalty-form
        // SA ends infeasible or suboptimal far more often than the
        // filtered form.
        let mut dqubo_bad = 0;
        let mut hycim_bad = 0;
        let runs = 10;
        for seed in 0..runs {
            let inst = QkpGenerator::new(12, 0.75).generate(seed + 100);
            let (_, opt) = solvers::exhaustive(&inst).unwrap();
            let iq = inst.to_inequality_qubo().unwrap();
            let form = inst
                .to_dqubo(PenaltyWeights::PAPER, AuxEncoding::OneHot)
                .unwrap();

            let mut rng = StdRng::seed_from_u64(seed);
            let annealer =
                Annealer::new(GeometricSchedule::for_energy_scale(100.0, 800), 800).without_trace();

            let mut hs = SoftwareState::new(&iq, Assignment::zeros(12));
            let ht = annealer.run(&mut hs, &mut rng);
            if -ht.best_energy() < 0.95 * opt as f64 {
                hycim_bad += 1;
            }

            let mut ds = PenaltyState::new(&form, Assignment::zeros(form.dim()));
            let dt = annealer.run(&mut ds, &mut rng);
            let best_items = form.decode(dt.best_assignment());
            let ok = inst.is_feasible(&best_items)
                && inst.value(&best_items) as f64 >= 0.95 * opt as f64;
            if !ok {
                dqubo_bad += 1;
            }
        }
        assert!(
            dqubo_bad > hycim_bad,
            "expected D-QUBO to fail more often: D-QUBO {dqubo_bad}/{runs}, HyCiM {hycim_bad}/{runs}"
        );
    }
}
