//! Local execution of a shard spec: the one solve path both sides of
//! the wire share.
//!
//! A [`JobSpec`](crate::proto::JobSpec) carries everything a solve
//! needs — the problem in canonical wire text, the engine tag, the
//! settings, and every pre-derived replica seed — so "run this shard"
//! is a pure function of the spec. Workers call it on their pool
//! threads; the [`Coordinator`](crate::coordinator::Coordinator)
//! calls the same function for graceful degradation when the fleet is
//! exhausted. Because both paths reduce to
//! [`BatchRunner::run_seeds`] over the same seeds, a shard solved
//! locally is byte-for-byte the shard a worker would have returned.

use std::sync::Arc;

use hycim_cop::{AnyProblem, CopProblem};
use hycim_core::{BatchRunner, EngineKind, EngineSettings};
use hycim_obs::ObsRegistry;

use crate::proto::{JobSpec, WireSolution};

/// Solves every seed of a decoded spec, dispatched over the family
/// enum (the engine is built on the calling thread, so trait objects
/// never cross threads). The solves' anneal counters land in `obs`
/// under `core.anneal.<engine tag>.*`.
///
/// # Errors
///
/// A message when the engine refuses the instance (an encoding
/// limit).
pub(crate) fn solve_any(
    problem: &AnyProblem,
    kind: EngineKind,
    settings: &EngineSettings,
    seeds: &[u64],
    obs: &Arc<ObsRegistry>,
) -> Result<Vec<WireSolution>, String> {
    match problem {
        AnyProblem::Qkp(p) => solve_typed(p, kind, settings, seeds, obs),
        AnyProblem::Knapsack(p) => solve_typed(p, kind, settings, seeds, obs),
        AnyProblem::MaxCut(p) => solve_typed(p, kind, settings, seeds, obs),
        AnyProblem::SpinGlass(p) => solve_typed(p, kind, settings, seeds, obs),
        AnyProblem::Tsp(p) => solve_typed(p, kind, settings, seeds, obs),
        AnyProblem::Coloring(p) => solve_typed(p, kind, settings, seeds, obs),
        AnyProblem::BinPack(p) => solve_typed(p, kind, settings, seeds, obs),
        AnyProblem::Mkp(p) => solve_typed(p, kind, settings, seeds, obs),
    }
}

fn solve_typed<P: CopProblem + 'static>(
    problem: &P,
    kind: EngineKind,
    settings: &EngineSettings,
    seeds: &[u64],
    obs: &Arc<ObsRegistry>,
) -> Result<Vec<WireSolution>, String> {
    let engine = kind.build(problem, settings).map_err(|e| e.to_string())?;
    Ok(BatchRunner::serial()
        .with_obs(Arc::clone(obs))
        .run_seeds(&engine, seeds)
        .iter()
        .map(WireSolution::from_solution)
        .collect())
}

/// Runs a whole spec on the local host: decode, build, solve every
/// seed, recording into `obs` — the coordinator's
/// graceful-degradation path.
///
/// # Errors
///
/// A message naming what refused the spec: an unknown engine tag, a
/// problem that does not parse, or an engine that rejects the
/// instance. These are exactly the failures a worker would have
/// reported, so a spec no worker could run does not silently
/// "succeed" locally either.
pub(crate) fn solve_spec(
    spec: &JobSpec,
    obs: &Arc<ObsRegistry>,
) -> Result<Vec<WireSolution>, String> {
    let kind = spec.engine_kind().map_err(|e| e.to_string())?;
    let problem = spec
        .decode_problem()
        .map_err(|e| format!("problem does not parse: {e}"))?;
    solve_any(&problem, kind, &spec.settings(), &spec.seeds, obs)
}
