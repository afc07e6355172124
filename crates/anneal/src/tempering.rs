//! Parallel tempering (replica exchange) — an optional upgrade over
//! plain SA for rugged QKP landscapes; listed as an extension in
//! DESIGN.md. Replicas anneal at fixed, geometrically spaced
//! temperatures and periodically propose state swaps between adjacent
//! temperatures with the standard exchange acceptance
//! `min(1, exp((1/T_a − 1/T_b)(E_a − E_b)))`.
//!
//! [`run_packed_tempering`] runs it bit-parallel over all [`LANES`]
//! lanes of a [`PackedSoftwareState`]: a 64-rung temperature ladder
//! spread across the lanes, with deterministic even/odd swap sweeps.
//! A swap moves *temperatures*, not spins: the rung↔lane permutation
//! is updated in O(1) while each lane keeps its own configuration,
//! fields, and RNG stream — so exchange decisions (drawn from one
//! dedicated swap stream) never perturb the per-lane streams, and the
//! whole run is reproducible from (lane seeds, swap seed) alone.

use hycim_qubo::{Assignment, InequalityQubo, LANES};
use rand::rngs::StdRng;
use rand::Rng;

use crate::packed::PackedSoftwareState;

/// Configuration of a bit-parallel tempering run: a geometric
/// [`LANES`]-rung ladder with `sweeps_per_exchange` packed sweeps
/// between deterministic even/odd exchange rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedTemperingConfig {
    /// Lowest (coldest) temperature — rung 0.
    pub t_min: f64,
    /// Highest (hottest) temperature — rung [`LANES`]` − 1`.
    pub t_max: f64,
    /// Full packed sweeps between exchange rounds.
    pub sweeps_per_exchange: usize,
    /// Total exchange rounds.
    pub rounds: usize,
}

impl PackedTemperingConfig {
    /// A default ladder for profit-scale ~100 problems.
    pub fn standard() -> Self {
        Self {
            t_min: 0.5,
            t_max: 100.0,
            sweeps_per_exchange: 2,
            rounds: 25,
        }
    }

    /// The geometric 64-rung temperature ladder, coldest first.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < t_min < t_max` and both `sweeps_per_exchange`
    /// and `rounds` are positive.
    pub fn ladder(&self) -> [f64; LANES] {
        assert!(
            self.t_min > 0.0 && self.t_max > self.t_min,
            "need 0 < t_min < t_max"
        );
        assert!(
            self.sweeps_per_exchange > 0 && self.rounds > 0,
            "need positive sweeps_per_exchange and rounds"
        );
        let ratio = (self.t_max / self.t_min).powf(1.0 / (LANES - 1) as f64);
        let mut ladder = [0.0; LANES];
        for (r, t) in ladder.iter_mut().enumerate() {
            *t = self.t_min * ratio.powi(r as i32);
        }
        ladder
    }
}

impl Default for PackedTemperingConfig {
    fn default() -> Self {
        Self::standard()
    }
}

/// Result of a bit-parallel tempering run.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedTemperingResult {
    /// Best energy across all lanes.
    pub best_energy: f64,
    /// Configuration achieving it.
    pub best_assignment: Assignment,
    /// Lane that achieved it (lowest index on ties).
    pub best_lane: usize,
    /// Accepted rung exchanges.
    pub exchanges_accepted: usize,
    /// Attempted rung exchanges.
    pub exchanges_attempted: usize,
    /// Accepted moves across all lanes.
    pub accepted: u64,
    /// Metropolis-rejected moves across all lanes.
    pub rejected: u64,
    /// Filter-vetoed moves across all lanes.
    pub infeasible: u64,
}

impl PackedTemperingResult {
    /// Exchange acceptance ratio.
    pub fn exchange_rate(&self) -> f64 {
        if self.exchanges_attempted == 0 {
            return 0.0;
        }
        self.exchanges_accepted as f64 / self.exchanges_attempted as f64
    }
}

/// Parallel tempering over the 64 packed lanes: lane `k` starts at
/// `initials[k]` on rung `k` of the ladder; every round runs
/// `sweeps_per_exchange` packed sweeps and then one deterministic
/// exchange pass over adjacent rung pairs — even-based pairs
/// `(0,1), (2,3), …` on even rounds, odd-based pairs `(1,2), (3,4), …`
/// on odd rounds.
///
/// A swap exchanges the two lanes' *rungs* (an O(1) permutation
/// update); spins, fields, loads, and per-lane RNG streams stay put.
/// This is statistically identical to swapping configurations but
/// avoids touching 64-bit columns, and it keeps lane `k`'s stream
/// `rngs[k]` consuming exactly one draw per uphill feasible probe
/// regardless of the exchange outcomes — the exchange draws come only
/// from `swap_rng` (one uniform per uphill exchange attempt).
///
/// # Panics
///
/// Panics on a degenerate configuration (see
/// [`PackedTemperingConfig::ladder`]) or lane-count mismatches.
pub fn run_packed_tempering(
    problem: &InequalityQubo,
    initials: &[Assignment],
    config: &PackedTemperingConfig,
    rngs: &mut [StdRng],
    swap_rng: &mut StdRng,
) -> PackedTemperingResult {
    let ladder = config.ladder();
    let mut state = PackedSoftwareState::new(problem, initials);
    let mut rung_of_lane: [usize; LANES] = core::array::from_fn(|k| k);
    let mut lane_of_rung: [usize; LANES] = core::array::from_fn(|r| r);
    let mut temperatures = [0.0f64; LANES];
    let mut exchanges_accepted = 0;
    let mut exchanges_attempted = 0;

    for round in 0..config.rounds {
        for (k, t) in temperatures.iter_mut().enumerate() {
            *t = ladder[rung_of_lane[k]];
        }
        for _ in 0..config.sweeps_per_exchange {
            state.sweep(&temperatures, rngs);
        }
        for r in ((round % 2)..LANES - 1).step_by(2) {
            exchanges_attempted += 1;
            let (a, b) = (lane_of_rung[r], lane_of_rung[r + 1]);
            let arg = (1.0 / ladder[r] - 1.0 / ladder[r + 1]) * (state.energy(a) - state.energy(b));
            if arg >= 0.0 || swap_rng.random::<f64>() < arg.exp() {
                lane_of_rung.swap(r, r + 1);
                rung_of_lane[a] = r + 1;
                rung_of_lane[b] = r;
                exchanges_accepted += 1;
            }
        }
    }

    let mut best_lane = 0;
    for k in 1..LANES {
        if state.best_energy(k) < state.best_energy(best_lane) {
            best_lane = k;
        }
    }
    let (accepted, rejected, infeasible) = state.counts();
    PackedTemperingResult {
        best_energy: state.best_energy(best_lane),
        best_assignment: state.best_assignment(best_lane),
        best_lane,
        exchanges_accepted,
        exchanges_attempted,
        accepted,
        rejected,
        infeasible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hycim_cop::generator::QkpGenerator;
    use hycim_cop::solvers;
    use rand::SeedableRng;

    fn packed_setup(n: usize, seed: u64) -> (InequalityQubo, Vec<Assignment>, Vec<StdRng>) {
        use hycim_cop::CopProblem;
        let inst = QkpGenerator::new(n, 0.6).generate(seed);
        let iq = inst.to_inequality_qubo().unwrap();
        let mut rngs: Vec<StdRng> = (0..LANES)
            .map(|k| StdRng::seed_from_u64(seed ^ (k as u64 + 1)))
            .collect();
        let initials: Vec<Assignment> = rngs
            .iter_mut()
            .map(|rng| CopProblem::initial(&iq, rng))
            .collect();
        (iq, initials, rngs)
    }

    #[test]
    fn packed_tempering_solves_small_qkp() {
        let inst = QkpGenerator::new(15, 0.75).generate(1);
        let (_, opt) = solvers::exhaustive(&inst).unwrap();
        let (iq, initials, mut rngs) = {
            use hycim_cop::CopProblem;
            let iq = inst.to_inequality_qubo().unwrap();
            let mut rngs: Vec<StdRng> = (0..LANES)
                .map(|k| StdRng::seed_from_u64(k as u64 + 1))
                .collect();
            let initials: Vec<Assignment> = rngs
                .iter_mut()
                .map(|rng| CopProblem::initial(&iq, rng))
                .collect();
            (iq, initials, rngs)
        };
        let mut swap_rng = StdRng::seed_from_u64(2);
        let result = run_packed_tempering(
            &iq,
            &initials,
            &PackedTemperingConfig::standard(),
            &mut rngs,
            &mut swap_rng,
        );
        assert!(
            -result.best_energy >= 0.95 * opt as f64,
            "packed tempering reached {} of optimum {opt}",
            -result.best_energy
        );
        assert!(iq.is_feasible(&result.best_assignment));
        assert!(result.exchanges_attempted > 0);
        assert!(
            result.exchange_rate() > 0.05,
            "exchange rate {:.3} suspiciously low",
            result.exchange_rate()
        );
    }

    #[test]
    fn packed_tempering_is_deterministic_in_its_seeds() {
        let run = || {
            let (iq, initials, mut rngs) = packed_setup(18, 9);
            let mut swap_rng = StdRng::seed_from_u64(77);
            run_packed_tempering(
                &iq,
                &initials,
                &PackedTemperingConfig {
                    rounds: 6,
                    ..PackedTemperingConfig::standard()
                },
                &mut rngs,
                &mut swap_rng,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn packed_exchange_schedule_alternates_parity() {
        // Round 0 proposes the 32 even-based pairs, round 1 the 31
        // odd-based pairs; counts are exact because the schedule is
        // deterministic no matter what the lanes do.
        let (iq, initials, mut rngs) = packed_setup(12, 4);
        let mut swap_rng = StdRng::seed_from_u64(5);
        let result = run_packed_tempering(
            &iq,
            &initials,
            &PackedTemperingConfig {
                sweeps_per_exchange: 1,
                rounds: 2,
                ..PackedTemperingConfig::standard()
            },
            &mut rngs,
            &mut swap_rng,
        );
        assert_eq!(result.exchanges_attempted, 32 + 31);
    }

    #[test]
    #[should_panic(expected = "t_min < t_max")]
    fn packed_degenerate_ladder_panics() {
        let config = PackedTemperingConfig {
            t_min: 2.0,
            t_max: 1.0,
            ..PackedTemperingConfig::standard()
        };
        let _ = config.ladder();
    }
}
