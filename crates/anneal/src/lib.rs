//! Simulated-annealing engine for the HyCiM reproduction (paper
//! Sec 3.4, Fig. 6(b)).
//!
//! The paper's SA logic generates a new input configuration each
//! iteration, sends it through the inequality filter, computes the
//! QUBO energy on the crossbar for feasible configurations, and
//! accepts/rejects per the Metropolis criterion at the current
//! annealing temperature. Infeasible configurations bounce straight
//! back for the next iteration.
//!
//! This crate factors that loop into:
//!
//! * [`AnnealState`] — the problem-side contract: probe the energy
//!   delta of a single-bit flip (which a filter may veto), commit the
//!   flip. Implemented here for exact software evaluation
//!   ([`SoftwareState`], [`PenaltyState`]) and in `hycim-core` for the
//!   hardware-backed pipelines.
//! * [`Schedule`] — annealing temperature schedules
//!   ([`GeometricSchedule`], [`LinearSchedule`], [`ConstantSchedule`]).
//! * [`Annealer`] — the Metropolis loop, producing an [`AnnealTrace`]
//!   (the energy-evolution curves of paper Fig. 7(f)).
//! * [`packed`] — bit-parallel 64-replica annealing over `u64` spin
//!   bitplanes ([`PackedSoftwareState`]): one CSR sweep advances all
//!   64 lanes, bit-identically to 64 scalar sweep-reference runs
//!   ([`run_replica_scalar`]) on per-lane RNG streams.
//! * [`tempering`] — parallel tempering / replica exchange over the
//!   packed lanes: [`tempering::run_packed_tempering`] (temperature
//!   ladder across the 64 lanes, deterministic even/odd swap sweeps).
//!
//! Every accept decision in the crate goes through a shared
//! Metropolis test: production loops use [`metropolis_accept`], and
//! both sides of the packed-vs-scalar bit-identity laws use
//! [`metropolis_accept_sweep`], which additionally skips the uniform
//! draw for uphill moves that every draw would reject — so packed
//! and scalar sweeps keep the same RNG cadence by construction.
//!
//! # Example
//!
//! ```
//! use hycim_anneal::{Annealer, GeometricSchedule, SoftwareState};
//! use hycim_qubo::{Assignment, InequalityQubo, LinearConstraint, QuboMatrix};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut q = QuboMatrix::zeros(3);
//! q.set(0, 0, -10.0);
//! q.set(2, 2, -8.0);
//! q.set(0, 2, -14.0);
//! let iq = InequalityQubo::new(q, LinearConstraint::new(vec![4, 7, 2], 9)?)?;
//! let mut state = SoftwareState::new(&iq, Assignment::zeros(3));
//! let annealer = Annealer::new(GeometricSchedule::new(20.0, 0.9), 200);
//! let mut rng = StdRng::seed_from_u64(7);
//! let trace = annealer.run(&mut state, &mut rng);
//! assert_eq!(trace.best_energy(), -32.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod annealer;
pub mod packed;
mod schedule;
mod state;
pub mod tempering;
mod trace;

pub use annealer::{
    metropolis_accept, metropolis_accept_sweep, Annealer, DEFAULT_SWAP_PROBABILITY,
};
pub use packed::{
    run_packed_sweeps, run_replica_scalar, PackedRunOutcome, PackedSoftwareState, ReplicaOutcome,
    SweepSchedule,
};
pub use schedule::{ConstantSchedule, GeometricSchedule, LinearSchedule, Schedule};
pub use state::{AnnealState, FlipOutcome, PenaltyState, SoftwareState};
pub use tempering::{run_packed_tempering, PackedTemperingConfig, PackedTemperingResult};
pub use trace::AnnealTrace;
