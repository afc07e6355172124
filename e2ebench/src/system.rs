//! The system under test for each workload, and the closed loop that
//! drives it: every client issues its next job only after holding the
//! checked result of the previous one.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use hycim_core::BatchRunner;
use hycim_net::{
    shard_replica_column, Coordinator, JobSpec, NetError, ShardJob, WireSolution, WorkerClient,
    WorkerConfig, WorkerHandle, WorkerServer,
};
use hycim_obs::Snapshot;

use crate::plan::{check_result, AnyEngine, JobDef, Oracle, Plan, Workload};
use crate::trace::Tracer;

/// A wire call that does not answer within this long fails the job
/// instead of hanging the run.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Workers behind the coordinator of `wire-large` (and the shards each
/// of its jobs is split into).
pub const WIRE_LARGE_WORKERS: usize = 2;

/// The running system: what `setup_s` pays for.
pub enum System {
    /// Engines built once; each job is one `BatchRunner` call.
    InProcess {
        engines: Vec<AnyEngine>,
        runner: BatchRunner,
    },
    /// One loopback worker and one connected client per caller.
    Remote {
        clients: Vec<WorkerClient>,
        worker: WorkerHandle,
    },
    /// A coordinator over loopback workers.
    Sharded {
        coordinator: Coordinator,
        workers: Vec<WorkerHandle>,
    },
}

fn spawn_worker(threads: usize) -> Result<WorkerHandle, String> {
    let config = WorkerConfig {
        threads,
        ..WorkerConfig::new()
    };
    WorkerServer::bind("127.0.0.1:0", config)
        .map(WorkerServer::spawn)
        .map_err(|e| format!("worker bind: {e}"))
}

pub fn connect(addr: std::net::SocketAddr) -> Result<WorkerClient, String> {
    let mut client = WorkerClient::connect_timeout(addr, IO_TIMEOUT).map_err(net)?;
    client.set_timeout(Some(IO_TIMEOUT)).map_err(net)?;
    client.set_write_timeout(Some(IO_TIMEOUT)).map_err(net)?;
    Ok(client)
}

fn net(e: NetError) -> String {
    format!("net: {e}")
}

/// Generates the inputs and brings the system up to the point where it
/// can take its first job.
pub fn set_up(workload: Workload, seed: u64, nproc: usize) -> Result<(Plan, System), String> {
    let plan = Plan::generate(workload, seed);
    let system = match workload {
        Workload::PaperAnneal => System::InProcess {
            engines: plan
                .instances
                .iter()
                .map(|inst| AnyEngine::build(inst, &plan.settings(inst)))
                .collect::<Result<_, _>>()?,
            runner: BatchRunner::new().with_threads(nproc),
        },
        Workload::ShortRemote => {
            let worker = spawn_worker(nproc)?;
            let clients = (0..nproc)
                .map(|_| connect(worker.addr()))
                .collect::<Result<_, _>>()?;
            System::Remote { clients, worker }
        }
        Workload::WireLarge => {
            let workers = (0..WIRE_LARGE_WORKERS)
                .map(|_| spawn_worker(1))
                .collect::<Result<Vec<_>, _>>()?;
            let coordinator =
                Coordinator::new(workers.iter().map(|w| w.addr().to_string()).collect())
                    .with_read_timeout(IO_TIMEOUT)
                    .with_write_timeout(IO_TIMEOUT)
                    .with_connect_timeout(IO_TIMEOUT);
            System::Sharded {
                coordinator,
                workers,
            }
        }
    };
    Ok((plan, system))
}

impl System {
    pub fn clients(&self) -> usize {
        match self {
            System::Remote { clients, .. } => clients.len(),
            _ => 1,
        }
    }

    /// The workers' registries, merged, read in-process (no wire
    /// frames, so reading them does not move the frame counters).
    pub fn worker_snapshot(&self) -> Option<Snapshot> {
        let workers: Vec<&WorkerHandle> = match self {
            System::InProcess { .. } => return None,
            System::Remote { worker, .. } => vec![worker],
            System::Sharded { workers, .. } => workers.iter().collect(),
        };
        let mut merged = Snapshot::default();
        for w in workers {
            merged.merge(&w.obs().snapshot());
        }
        Some(merged)
    }

    /// The coordinator's registry, if there is one.
    pub fn coordinator_snapshot(&self) -> Option<Snapshot> {
        match self {
            System::Sharded { coordinator, .. } => Some(coordinator.obs().snapshot()),
            _ => None,
        }
    }

    /// Addresses of the workers, for replays that call them directly.
    pub fn worker_addrs(&self) -> Vec<std::net::SocketAddr> {
        match self {
            System::InProcess { .. } => Vec::new(),
            System::Remote { worker, .. } => vec![worker.addr()],
            System::Sharded { workers, .. } => workers.iter().map(|w| w.addr()).collect(),
        }
    }

    /// Closes the connections, then stops the workers.
    pub fn shut_down(self) {
        match self {
            System::InProcess { .. } => {}
            System::Remote { clients, worker } => {
                drop(clients);
                worker.stop();
            }
            System::Sharded {
                coordinator,
                workers,
            } => {
                drop(coordinator);
                workers.into_iter().for_each(WorkerHandle::stop);
            }
        }
    }
}

/// The submit spec of a whole job.
pub fn job_spec(plan: &Plan, job: &JobDef, problem_text: String) -> JobSpec {
    let inst = plan.instance_of(job);
    JobSpec {
        family: inst.problem.family_tag().to_string(),
        problem: problem_text,
        engine: inst.kind.tag().to_string(),
        sweeps: plan.sweeps as u64,
        hardware_seed: inst.hardware_seed,
        record_trace: false,
        seeds: job.seeds.clone(),
    }
}

/// The coordinator's shard jobs for a job; their seeds are the job's
/// own replica seeds.
pub fn shard_jobs(
    plan: &Plan,
    job: &JobDef,
    base: &JobSpec,
) -> Result<(usize, Vec<ShardJob>), String> {
    let (total, shards) = shard_replica_column(
        base,
        job.seeds.len(),
        plan.solve_root,
        job.index,
        WIRE_LARGE_WORKERS,
    );
    let seeds: Vec<u64> = shards.iter().flat_map(|s| s.spec.seeds.clone()).collect();
    if seeds != job.seeds {
        return Err("shard planner derived other seeds than the job's".into());
    }
    Ok((total, shards))
}

/// Times `f` as a span when tracing.
fn timed<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &str,
    parent: Option<usize>,
    job: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.time(name, parent, job, f),
        None => f(),
    }
}

/// One client's handle on the system.
enum Caller<'a> {
    InProcess(&'a [AnyEngine], &'a BatchRunner),
    Remote(&'a mut WorkerClient),
    Sharded(&'a Coordinator),
}

impl Caller<'_> {
    /// Issues one job and returns its solutions, recording a span
    /// around each library call the benchmark makes.
    fn run_job(
        &mut self,
        plan: &Plan,
        job: &JobDef,
        mut tracer: Option<&mut Tracer>,
        root: Option<usize>,
        id: u64,
    ) -> Result<Vec<WireSolution>, String> {
        let inst = plan.instance_of(job);
        match self {
            Caller::InProcess(engines, runner) => {
                let name = format!("core.batch_ms.{}", inst.kind.tag());
                Ok(timed(&mut tracer, &name, root, id, || {
                    engines[job.instance].run_seeds(runner, &job.seeds)
                }))
            }
            Caller::Remote(client) => {
                let text = timed(&mut tracer, "cop.to_wire_ms", root, id, || {
                    inst.problem.to_wire()
                });
                let spec = job_spec(plan, job, text);
                let handle = timed(&mut tracer, "net.submit_ms", root, id, || {
                    client.submit(&spec)
                })
                .map_err(net)?;
                timed(&mut tracer, "net.wait_fetch_ms", root, id, || {
                    client.wait_fetch(handle)
                })
                .map_err(net)
            }
            Caller::Sharded(coordinator) => {
                let text = timed(&mut tracer, "cop.to_wire_ms", root, id, || {
                    inst.problem.to_wire()
                });
                let (total, shards) = shard_jobs(plan, job, &job_spec(plan, job, text))?;
                timed(&mut tracer, "net.coordinator_run_ms", root, id, || {
                    coordinator.run(total, &shards)
                })
                .map_err(net)
            }
        }
    }
}

/// When a closed-loop phase stops.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Measure at least this long.
    pub seconds: f64,
    /// ...and finish (successfully or not) at least this many jobs.
    pub min_jobs: usize,
    /// ...and finish every pool job at least once.
    pub cover_pool: bool,
    /// Record spans.
    pub traced: bool,
}

/// Past this much overtime a phase stops even if its job or coverage
/// minimum is not met, so a broken system cannot hang the run.
const OVERTIME: Duration = Duration::from_secs(30);

/// What one phase measured.
pub struct PhaseResult {
    /// Per completed job, in seconds.
    pub latencies: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    pub wall: f64,
    pub errors: Vec<String>,
    /// Spans, when traced: one `bench.job` root per job, whose span
    /// `job` field is the job's sequence number.
    pub tracer: Option<Tracer>,
    /// Whether every pool job finished at least once.
    pub covered: bool,
}

impl PhaseResult {
    pub fn jobs_per_s(&self) -> f64 {
        self.latencies.len() as f64 / self.wall
    }
}

/// Runs one closed-loop phase with one thread per client. Job `seq`
/// (a run-wide sequence number drawn from `next`) is pool job
/// `seq % pool`.
pub fn closed_loop(
    system: &mut System,
    plan: &Plan,
    oracle: &Oracle,
    phase: Phase,
    next: &AtomicU64,
    epoch: Instant,
) -> PhaseResult {
    let pool = plan.jobs.len();
    let seen: Vec<AtomicBool> = (0..pool).map(|_| AtomicBool::new(false)).collect();
    let covered = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(phase.seconds);
    let keep_going = || {
        let elapsed = start.elapsed();
        if elapsed >= deadline + OVERTIME {
            return false;
        }
        elapsed < deadline
            || finished.load(Ordering::SeqCst) < phase.min_jobs
            || (phase.cover_pool && covered.load(Ordering::SeqCst) < pool)
    };

    struct ClientLog {
        latencies: Vec<f64>,
        attempted: usize,
        failed: usize,
        errors: Vec<String>,
        tracer: Tracer,
    }
    let run_client = |mut caller: Caller<'_>| {
        let mut log = ClientLog {
            latencies: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            tracer: Tracer::new(epoch),
        };
        while keep_going() {
            let seq = next.fetch_add(1, Ordering::SeqCst);
            let j = (seq % pool as u64) as usize;
            let job = &plan.jobs[j];
            log.attempted += 1;
            let t0 = Instant::now();
            let root = phase
                .traced
                .then(|| log.tracer.open("bench.job", None, seq));
            let tracer = phase.traced.then_some(&mut log.tracer);
            let verdict = caller
                .run_job(plan, job, tracer, root, seq)
                .and_then(|got| {
                    check_result(&plan.instance_of(job).problem, &oracle.expected[j], &got)
                });
            let latency = t0.elapsed().as_secs_f64();
            if let Some(root) = root {
                log.tracer.close(root);
            }
            match verdict {
                Ok(()) => log.latencies.push(latency),
                Err(e) => {
                    log.failed += 1;
                    log.errors.push(format!("job {seq} (pool {j}): {e}"));
                }
            }
            finished.fetch_add(1, Ordering::SeqCst);
            if !seen[j].swap(true, Ordering::SeqCst) {
                covered.fetch_add(1, Ordering::SeqCst);
            }
        }
        log
    };

    let logs: Vec<ClientLog> = match system {
        System::InProcess { engines, runner } => {
            vec![run_client(Caller::InProcess(engines, runner))]
        }
        System::Sharded { coordinator, .. } => vec![run_client(Caller::Sharded(coordinator))],
        System::Remote { clients, .. } => std::thread::scope(|scope| {
            let run_client = &run_client;
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|client| scope.spawn(move || run_client(Caller::Remote(client))))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread does not panic"))
                .collect()
        }),
    };
    let wall = start.elapsed().as_secs_f64();

    let mut result = PhaseResult {
        latencies: Vec::new(),
        attempted: 0,
        failed: 0,
        wall,
        errors: Vec::new(),
        tracer: phase.traced.then(|| Tracer::new(epoch)),
        covered: covered.load(Ordering::SeqCst) == pool,
    };
    for log in logs {
        result.latencies.extend(log.latencies);
        result.attempted += log.attempted;
        result.failed += log.failed;
        result.errors.extend(log.errors);
        if let Some(t) = &mut result.tracer {
            t.absorb(log.tracer);
        }
    }
    result
}
