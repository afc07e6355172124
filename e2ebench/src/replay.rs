//! Replays of traced jobs, one library call at a time, for the layers
//! that run inside the program where the benchmark cannot put a span:
//! the worker's frame decode and engine build, and each solve taken
//! apart into fabrication, annealing and scoring.
//!
//! A replayed solve must reproduce the serial oracle — which is
//! `Engine::solve(seed)` — bit for bit; otherwise the breakdown would
//! time a different program, and the run fails.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hycim_anneal::AnnealState;
use hycim_cop::{AnyProblem, CopProblem};
use hycim_core::{
    calibrate_t0, run_annealing, BankHardwareState, EngineKind, HyCimConfig, HyCimHardwareState,
    Solution,
};
use hycim_net::json::Value;
use hycim_net::{Request, WireSolution, WorkerClient};
use hycim_qubo::Assignment;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::plan::{check_result, typed, AnyEngine, Instance, Oracle, Plan, Workload};
use crate::system::{connect, job_spec, shard_jobs, System};
use crate::trace::Tracer;

/// Summed anneal counters of the replayed solves of one engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnnealTotals {
    pub iterations: u64,
    pub accepted: u64,
    pub rejected_infeasible: u64,
}

/// What the replays recorded.
pub struct ReplayLog {
    pub tracer: Tracer,
    /// Submit frame sizes in bytes, one per frame.
    pub frame_bytes: Vec<f64>,
    /// Per engine tag.
    pub anneal: BTreeMap<&'static str, AnnealTotals>,
    /// Sequence numbers of the replayed jobs.
    pub jobs: Vec<u64>,
}

/// Replays the jobs `seqs` in order until `budget` is spent (at least
/// one job).
pub fn replay_jobs(
    plan: &Plan,
    oracle: &Oracle,
    system: &System,
    seqs: &[u64],
    budget: Duration,
    epoch: Instant,
) -> Result<ReplayLog, String> {
    let mut log = ReplayLog {
        tracer: Tracer::new(epoch),
        frame_bytes: Vec::new(),
        anneal: BTreeMap::new(),
        jobs: Vec::new(),
    };
    // wire-large replays each shard's submit and wait_fetch against the
    // worker it was built for, on connections of the replay's own.
    let mut shard_clients = if plan.workload == Workload::WireLarge {
        system
            .worker_addrs()
            .into_iter()
            .map(connect)
            .collect::<Result<Vec<_>, _>>()?
    } else {
        Vec::new()
    };
    let start = Instant::now();
    for &seq in seqs {
        if !log.jobs.is_empty() && start.elapsed() >= budget {
            break;
        }
        replay_job(plan, oracle, seq, &mut shard_clients, &mut log)?;
        log.jobs.push(seq);
    }
    Ok(log)
}

fn replay_job(
    plan: &Plan,
    oracle: &Oracle,
    seq: u64,
    shard_clients: &mut [WorkerClient],
    log: &mut ReplayLog,
) -> Result<(), String> {
    let j = (seq % plan.jobs.len() as u64) as usize;
    let job = &plan.jobs[j];
    let inst = plan.instance_of(job);
    let expected = &oracle.expected[j];
    let tr = &mut log.tracer;
    let root_id = tr.open("bench.replay", None, seq);
    let root = Some(root_id);

    if plan.workload.remote() {
        // The frames the workers receive: one per job, or one per shard.
        let base = job_spec(plan, job, inst.problem.to_wire());
        let frames = match plan.workload {
            Workload::WireLarge => shard_jobs(plan, job, &base)?
                .1
                .into_iter()
                .map(|s| (s.spec, s.shard.start..s.shard.end))
                .collect(),
            _ => vec![(base, 0..job.seeds.len())],
        };
        for (shard, (spec, range)) in frames.into_iter().enumerate() {
            let request = Request::Submit(spec);
            let text = tr.time("net.frame_encode_ms", root, seq, || {
                request.to_value().encode()
            });
            log.frame_bytes.push(text.len() as f64);
            let value = tr
                .time("net.json_parse_ms", root, seq, || Value::parse(&text))
                .map_err(|e| format!("submit frame does not parse: {e}"))?;
            let decoded = tr
                .time("net.request_decode_ms", root, seq, || {
                    Request::from_value(&value)
                })
                .map_err(|e| format!("submit frame does not decode: {e}"))?;
            if decoded != request {
                return Err("submit frame decodes to another request".into());
            }
            let Request::Submit(spec) = decoded else {
                unreachable!("equal to a submit request")
            };
            let problem = tr
                .time("cop.from_wire_ms", root, seq, || {
                    AnyProblem::from_wire(&spec.family, &spec.problem)
                })
                .map_err(|e| format!("problem does not parse: {e}"))?;
            if problem != inst.problem {
                return Err("problem changed crossing the wire".into());
            }
            if let Some(client) = shard_clients.get_mut(shard) {
                let handle = tr
                    .time("net.submit_ms", root, seq, || client.submit(&spec))
                    .map_err(|e| format!("replayed submit: {e}"))?;
                let got = tr
                    .time("net.wait_fetch_ms", root, seq, || client.wait_fetch(handle))
                    .map_err(|e| format!("replayed wait_fetch: {e}"))?;
                check_result(&inst.problem, &expected[range], &got)?;
            }
        }
    }

    let settings = plan.settings(inst);
    let tag = inst.kind.tag();
    tr.time(format!("core.engine_build_ms.{tag}"), root, seq, || {
        AnyEngine::build(inst, &settings)
    })?;
    let totals = log.anneal.entry(tag).or_default();
    typed!(&inst.problem, p => replay_solves(tr, root, seq, plan, inst, p, &job.seeds, expected, totals))?;
    tr.close(root_id);
    Ok(())
}

/// Encodes the problem as the engine does, then solves every seed by
/// hand and checks each solve against the oracle.
#[allow(clippy::too_many_arguments)]
fn replay_solves<P: CopProblem>(
    tr: &mut Tracer,
    root: Option<usize>,
    seq: u64,
    plan: &Plan,
    inst: &Instance,
    problem: &P,
    seeds: &[u64],
    expected: &[WireSolution],
    totals: &mut AnnealTotals,
) -> Result<(), String> {
    let tag = inst.kind.tag();
    let config = HyCimConfig::default().with_sweeps(plan.sweeps);
    let hardware_rng = || StdRng::seed_from_u64(inst.hardware_seed);
    let encode = format!("cop.encode_ms.{tag}");
    let solves: Vec<Solution<P>> = match inst.kind {
        EngineKind::HyCim => {
            let iq = tr
                .time(encode, root, seq, || problem.to_inequality_qubo())
                .map_err(|e| format!("encode: {e}"))?;
            let fabricate = |x: Assignment| {
                HyCimHardwareState::build(
                    &iq,
                    &config.filter,
                    &config.crossbar,
                    x,
                    &mut hardware_rng(),
                )
            };
            seeds
                .iter()
                .map(|&seed| solve_by_hand(tr, root, seq, tag, problem, &config, seed, &fabricate))
                .collect::<Result<_, _>>()?
        }
        EngineKind::Bank => {
            let mq = tr
                .time(encode, root, seq, || problem.to_multi_inequality_qubo())
                .map_err(|e| format!("encode: {e}"))?;
            let fabricate = |x: Assignment| {
                BankHardwareState::build(
                    &mq,
                    &config.filter,
                    &config.crossbar,
                    x,
                    &mut hardware_rng(),
                )
            };
            seeds
                .iter()
                .map(|&seed| solve_by_hand(tr, root, seq, tag, problem, &config, seed, &fabricate))
                .collect::<Result<_, _>>()?
        }
        other => return Err(format!("no hand-assembled solve for engine {other}")),
    };
    for (k, (solution, want)) in solves.iter().zip(expected).enumerate() {
        if WireSolution::from_solution(solution) != *want {
            return Err(format!(
                "hand-assembled solve of replica {k} differs from Engine::solve"
            ));
        }
        let trace = &solution.trace;
        totals.iterations += trace.iterations() as u64;
        totals.accepted += trace.accepted() as u64;
        totals.rejected_infeasible += trace.rejected_infeasible() as u64;
    }
    Ok(())
}

/// One solve assembled from its public parts, as `Engine::solve` runs
/// it: seed-drawn initial state → fabricate the chip from the hardware
/// seed → `run_annealing` → score. Calibration is then timed on its
/// own, on a second identical chip, outside the solve span.
#[allow(clippy::too_many_arguments)]
fn solve_by_hand<P, S, E>(
    tr: &mut Tracer,
    root: Option<usize>,
    seq: u64,
    tag: &str,
    problem: &P,
    config: &HyCimConfig,
    seed: u64,
    fabricate: &impl Fn(Assignment) -> Result<S, E>,
) -> Result<Solution<P>, String>
where
    P: CopProblem,
    S: AnnealState,
    E: std::fmt::Display,
{
    let settings = config.anneal_settings();
    let solve = tr.open(format!("core.solve_ms.{tag}"), root, seq);
    let initial = problem.initial(&mut StdRng::seed_from_u64(seed));
    let mut state = tr
        .time(format!("core.fabricate_ms.{tag}"), Some(solve), seq, || {
            fabricate(initial)
        })
        .map_err(|e| format!("fabricate: {e}"))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let trace = tr.time(format!("anneal.run_ms.{tag}"), Some(solve), seq, || {
        run_annealing(&mut state, &settings, &mut rng)
    });
    let solution = tr.time(format!("cop.score_ms.{tag}"), Some(solve), seq, || {
        let assignment = trace.best_assignment().clone();
        Solution {
            decoded: problem.decode(&assignment),
            objective: problem.objective(&assignment),
            feasible: problem.is_feasible(&assignment),
            reported_energy: trace.best_energy(),
            assignment,
            trace,
        }
    });
    tr.close(solve);

    let initial = problem.initial(&mut StdRng::seed_from_u64(seed));
    let mut chip = fabricate(initial).map_err(|e| format!("fabricate: {e}"))?;
    let mut rng = StdRng::seed_from_u64(seed);
    tr.time(format!("anneal.calibrate_ms.{tag}"), root, seq, || {
        std::hint::black_box(calibrate_t0(&mut chip, settings.t0_fraction, 64, &mut rng))
    });
    Ok(solution)
}
