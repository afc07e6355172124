//! The worker pool: a bounded job queue drained by OS threads, with
//! submit / poll / fetch / cancel endpoints safe to call from any
//! number of caller threads at once.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use hycim_cop::CopProblem;
use hycim_core::{default_threads, replica_seed, BatchRunner, Engine};
use hycim_obs::{Counter, Event, Gauge, Histogram, ObsRegistry};

use crate::{FetchError, JobId, JobResult, JobStatus, SubmitError};

/// A finished job's payload with its concrete problem type erased, so
/// heterogeneous jobs can share one queue and one result store.
type ErasedResult = Box<dyn Any + Send>;

/// A queued unit of work: runs the solve and returns the erased
/// result. Stored until a worker picks it up (or cancellation drops
/// it).
type ErasedTask = Box<dyn FnOnce() -> ErasedResult + Send>;

/// Sizing of a [`JobService`]: worker-thread count and the queue
/// bound.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    workers: usize,
    queue_capacity: usize,
    obs: Option<Arc<ObsRegistry>>,
}

impl ServiceConfig {
    /// Default sizing: one worker per available core (the
    /// [`default_threads`] resolution, i.e. `HYCIM_THREADS` is
    /// honored) and a 1024-job queue bound.
    pub fn new() -> Self {
        Self {
            workers: default_threads(),
            queue_capacity: 1024,
            obs: None,
        }
    }

    /// Overrides the worker-thread count.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        self.workers = workers;
        self
    }

    /// Overrides the bound on *waiting* jobs (running jobs do not
    /// count against it). Submits beyond the bound fail with
    /// [`SubmitError::QueueFull`].
    ///
    /// # Panics
    ///
    /// Panics if `queue_capacity == 0`.
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        assert!(queue_capacity > 0, "need a non-empty queue");
        self.queue_capacity = queue_capacity;
        self
    }

    /// Publishes the service's metrics and job-lifecycle events into
    /// `obs` (under `service.*` names — see the `hycim-obs` crate
    /// docs). Without this the service keeps a private registry,
    /// readable via [`JobService::obs`].
    pub fn with_obs(mut self, obs: Arc<ObsRegistry>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Configured worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Configured queue bound.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// What [`JobService::dispose`] did, by the lifecycle stage it found
/// the job in — decided atomically under the service lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisposeOutcome {
    /// The id is untracked (never submitted, or already fetched or
    /// disposed).
    Unknown,
    /// The job was still queued: it was cancelled and its entry
    /// dropped; it will never run.
    Cancelled,
    /// The job was running: its entry is flagged and will be dropped
    /// by the worker the moment the solve finishes, result discarded.
    Deferred,
    /// The job was already terminal: its retained entry (and any
    /// unfetched result) was dropped.
    Discarded,
}

impl DisposeOutcome {
    /// Stable text tag for carrying the outcome across a wire.
    pub fn tag(self) -> &'static str {
        match self {
            DisposeOutcome::Unknown => "unknown",
            DisposeOutcome::Cancelled => "cancelled",
            DisposeOutcome::Deferred => "deferred",
            DisposeOutcome::Discarded => "discarded",
        }
    }

    /// Parses a [`tag`](Self::tag).
    pub fn from_tag(tag: &str) -> Option<Self> {
        [
            DisposeOutcome::Unknown,
            DisposeOutcome::Cancelled,
            DisposeOutcome::Deferred,
            DisposeOutcome::Discarded,
        ]
        .into_iter()
        .find(|o| o.tag() == tag)
    }
}

/// Book-keeping of one job. The task is taken when a worker starts
/// it; exactly one of `result` / `error` is set once terminal (none
/// for `Cancelled`).
struct JobEntry {
    status: JobStatus,
    task: Option<ErasedTask>,
    result: Option<ErasedResult>,
    error: Option<String>,
    /// Set by [`JobService::forget`] on a running job: the completion
    /// path drops the entry instead of storing its result.
    forgotten: bool,
    /// When the job entered the queue — the start of the
    /// submit→fetch latency observation.
    submitted: Instant,
}

/// Mutable service state behind one mutex: the wait queue, the job
/// table, and the id counter. One lock (rather than per-job locks)
/// keeps the invariants simple; every critical section is O(1) or
/// O(queue) and never runs a solve.
struct State {
    queue: VecDeque<JobId>,
    jobs: HashMap<u64, JobEntry>,
    next_id: u64,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Wakes workers when a job is queued or shutdown begins.
    work_cv: Condvar,
    /// Wakes [`JobService::wait`] callers when any job turns terminal.
    done_cv: Condvar,
    queue_capacity: usize,
    metrics: ServiceMetrics,
}

/// The service's registry handle plus cached metric handles, so the
/// submit/complete paths never re-lock the registry's name table.
struct ServiceMetrics {
    obs: Arc<ObsRegistry>,
    submitted: Arc<Counter>,
    rejected_queue_full: Arc<Counter>,
    jobs_done: Arc<Counter>,
    jobs_failed: Arc<Counter>,
    jobs_cancelled: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    submit_to_fetch: Arc<Histogram>,
}

impl ServiceMetrics {
    fn new(obs: Arc<ObsRegistry>) -> Self {
        Self {
            submitted: obs.counter("service.submitted"),
            rejected_queue_full: obs.counter("service.rejected_queue_full"),
            jobs_done: obs.counter("service.jobs_done"),
            jobs_failed: obs.counter("service.jobs_failed"),
            jobs_cancelled: obs.counter("service.jobs_cancelled"),
            queue_depth: obs.gauge("service.queue_depth"),
            submit_to_fetch: obs.histogram("timing.service.submit_to_fetch_seconds"),
            obs,
        }
    }

    /// Counts `n` cancellations and emits their lifecycle events.
    fn cancelled(&self, ids: impl IntoIterator<Item = JobId>) {
        let mut n = 0;
        for id in ids {
            self.obs.tracer().record(Event::JobCancelled { job: id.0 });
            n += 1;
        }
        self.jobs_cancelled.add(n);
    }
}

/// A running solver service: submit jobs from any thread, poll their
/// [`JobStatus`], fetch typed [`JobResult`]s. Dropping the service
/// (or calling [`shutdown`](Self::shutdown)) stops accepting new
/// jobs, drains the queue, and joins the workers.
///
/// See the [crate docs](crate) for the determinism guarantee and a
/// usage example.
pub struct JobService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl JobService {
    /// Spawns the worker pool and returns the running service.
    pub fn start(config: ServiceConfig) -> Self {
        let obs = config.obs.unwrap_or_default();
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                next_id: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            queue_capacity: config.queue_capacity,
            metrics: ServiceMetrics::new(obs),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hycim-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        Self { shared, workers }
    }

    /// Submits one solve: the worker runs `engine.solve(seed)`
    /// through a serial [`BatchRunner`] on the service's registry, so
    /// the result is bit-identical to that direct call and the solve's
    /// anneal counts land under `core.anneal.<backend>.*`. Returns
    /// immediately with the job handle.
    ///
    /// The engine is shared by `Arc` — submitting many seeds against
    /// one engine clones no problem data.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] under backpressure,
    /// [`SubmitError::ShuttingDown`] after shutdown began.
    pub fn submit<P, E>(&self, engine: &Arc<E>, seed: u64) -> Result<JobId, SubmitError>
    where
        P: CopProblem + 'static,
        E: Engine<P> + 'static,
    {
        self.submit_seeds(engine, vec![seed])
    }

    /// Submits a multi-start batch as **one** job: `replicas`
    /// independent solves whose seeds come from
    /// [`replica_seed`]`(root_seed, 0, k)` — exactly the
    /// [`BatchRunner::run`](hycim_core::BatchRunner::run) derivation,
    /// so the fetched solutions are bit-identical to a `BatchRunner`
    /// run of the same `(engine, replicas, root_seed)` at any thread
    /// count. Replicas run serially on one worker, through the same
    /// [`BatchRunner`] path as [`submit`](Self::submit); submit several
    /// batches (or single solves) to spread load across workers.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] under backpressure,
    /// [`SubmitError::ShuttingDown`] after shutdown began.
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0`.
    pub fn submit_batch<P, E>(
        &self,
        engine: &Arc<E>,
        replicas: usize,
        root_seed: u64,
    ) -> Result<JobId, SubmitError>
    where
        P: CopProblem + 'static,
        E: Engine<P> + 'static,
    {
        assert!(replicas > 0, "need at least one replica");
        let seeds = (0..replicas)
            .map(|k| replica_seed(root_seed, 0, k as u64))
            .collect();
        self.submit_seeds(engine, seeds)
    }

    /// Queues one job solving `seeds` in order on a serial
    /// [`BatchRunner`] that records into the service's registry.
    fn submit_seeds<P, E>(&self, engine: &Arc<E>, seeds: Vec<u64>) -> Result<JobId, SubmitError>
    where
        P: CopProblem + 'static,
        E: Engine<P> + 'static,
    {
        let engine = Arc::clone(engine);
        let obs = Arc::clone(&self.shared.metrics.obs);
        self.enqueue(move |id| {
            Box::new(move || -> ErasedResult {
                let solutions = BatchRunner::serial()
                    .with_obs(obs)
                    .run_seeds(engine.as_ref(), &seeds);
                Box::new(JobResult {
                    id,
                    backend: engine.backend(),
                    seeds,
                    solutions,
                })
            })
        })
    }

    /// Submits an arbitrary computation as a job: the worker runs
    /// `task()` and stores its value for [`fetch_value`](Self::fetch_value).
    /// This is the bridge the wire protocol (`hycim-net`) builds on —
    /// a network worker submits "reconstruct the engine and solve a
    /// shard" closures whose results are plain serializable values,
    /// with the same lifecycle (poll, cancel, panic isolation) as
    /// engine jobs.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] under backpressure,
    /// [`SubmitError::ShuttingDown`] after shutdown began.
    pub fn submit_with<R, F>(&self, task: F) -> Result<JobId, SubmitError>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        self.enqueue(move |_| Box::new(move || -> ErasedResult { Box::new(task()) }))
    }

    /// Takes the typed value of a terminal [`submit_with`](Self::submit_with)
    /// job. Same consumption semantics as [`fetch`](Self::fetch): a
    /// successful (or cancelled/failed) fetch removes the entry; a
    /// type mismatch leaves it in place.
    ///
    /// # Errors
    ///
    /// As [`fetch`](Self::fetch), with [`FetchError::WrongType`] when
    /// `R` is not the closure's return type.
    pub fn fetch_value<R>(&self, id: JobId) -> Result<R, FetchError>
    where
        R: Send + 'static,
    {
        let mut state = self.shared.state.lock().expect("service state lock");
        let entry = state.jobs.get_mut(&id.0).ok_or(FetchError::Unknown(id))?;
        match entry.status {
            JobStatus::Queued | JobStatus::Running => Err(FetchError::NotFinished(entry.status)),
            JobStatus::Cancelled => {
                state.jobs.remove(&id.0);
                Err(FetchError::Cancelled(id))
            }
            JobStatus::Failed => {
                let entry = state.jobs.remove(&id.0).expect("entry just observed");
                Err(FetchError::Failed {
                    id,
                    message: entry.error.unwrap_or_else(|| "unknown panic".into()),
                })
            }
            JobStatus::Done => {
                let erased = entry.result.take().expect("done jobs hold a result");
                let latency = entry.submitted.elapsed();
                match erased.downcast::<R>() {
                    Ok(value) => {
                        state.jobs.remove(&id.0);
                        self.shared
                            .metrics
                            .submit_to_fetch
                            .record(latency.as_secs_f64());
                        Ok(*value)
                    }
                    Err(erased) => {
                        entry.result = Some(erased);
                        Err(FetchError::WrongType(id))
                    }
                }
            }
        }
    }

    /// Current status of a job, or `None` when the id is unknown or
    /// its result was already fetched.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let state = self.shared.state.lock().expect("service state lock");
        state.jobs.get(&id.0).map(|entry| entry.status)
    }

    /// Blocks until the job reaches a terminal state and returns it
    /// (`None` when the id is unknown or already fetched — possibly
    /// by a concurrent fetcher while waiting).
    pub fn wait(&self, id: JobId) -> Option<JobStatus> {
        let mut state = self.shared.state.lock().expect("service state lock");
        loop {
            match state.jobs.get(&id.0) {
                None => return None,
                Some(entry) if entry.status.is_terminal() => return Some(entry.status),
                Some(_) => {
                    state = self.shared.done_cv.wait(state).expect("service state lock");
                }
            }
        }
    }

    /// Takes the typed result of a terminal job. A successful fetch
    /// (and a fetch of a cancelled or failed job) **consumes** the
    /// entry: subsequent [`status`](Self::status) calls return `None`
    /// and the id can be garbage-collected. A type mismatch leaves
    /// the entry in place.
    ///
    /// # Errors
    ///
    /// [`FetchError::NotFinished`] while queued/running,
    /// [`FetchError::Cancelled`] / [`FetchError::Failed`] for those
    /// terminal states, [`FetchError::WrongType`] when `P` is not the
    /// problem type the job was submitted with,
    /// [`FetchError::Unknown`] for untracked ids.
    pub fn fetch<P>(&self, id: JobId) -> Result<JobResult<P>, FetchError>
    where
        P: CopProblem + 'static,
    {
        let mut state = self.shared.state.lock().expect("service state lock");
        let entry = state.jobs.get_mut(&id.0).ok_or(FetchError::Unknown(id))?;
        match entry.status {
            JobStatus::Queued | JobStatus::Running => Err(FetchError::NotFinished(entry.status)),
            JobStatus::Cancelled => {
                state.jobs.remove(&id.0);
                Err(FetchError::Cancelled(id))
            }
            JobStatus::Failed => {
                let entry = state.jobs.remove(&id.0).expect("entry just observed");
                Err(FetchError::Failed {
                    id,
                    message: entry.error.unwrap_or_else(|| "unknown panic".into()),
                })
            }
            JobStatus::Done => {
                let erased = entry.result.take().expect("done jobs hold a result");
                let latency = entry.submitted.elapsed();
                match erased.downcast::<JobResult<P>>() {
                    Ok(result) => {
                        state.jobs.remove(&id.0);
                        self.shared
                            .metrics
                            .submit_to_fetch
                            .record(latency.as_secs_f64());
                        Ok(*result)
                    }
                    Err(erased) => {
                        // Wrong type requested: restore the result so a
                        // correctly-typed fetch still succeeds.
                        entry.result = Some(erased);
                        Err(FetchError::WrongType(id))
                    }
                }
            }
        }
    }

    /// [`wait`](Self::wait) + [`fetch`](Self::fetch) in one call: the
    /// blocking convenience for callers that have nothing else to do.
    ///
    /// # Errors
    ///
    /// As [`fetch`](Self::fetch), minus `NotFinished`.
    pub fn wait_fetch<P>(&self, id: JobId) -> Result<JobResult<P>, FetchError>
    where
        P: CopProblem + 'static,
    {
        self.wait(id);
        self.fetch(id)
    }

    /// Cancels a job if it is still queued: true when this call won
    /// the race (the job will never run), false when the job already
    /// started, finished, or is unknown. Running jobs cannot be
    /// interrupted — a solve is a pure function with no safe
    /// cancellation point.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut state = self.shared.state.lock().expect("service state lock");
        let Some(entry) = state.jobs.get_mut(&id.0) else {
            return false;
        };
        if entry.status != JobStatus::Queued {
            return false;
        }
        entry.status = JobStatus::Cancelled;
        entry.task = None;
        state.queue.retain(|&queued| queued != id);
        self.shared
            .metrics
            .queue_depth
            .set(state.queue.len() as u64);
        self.shared.metrics.cancelled([id]);
        drop(state);
        self.shared.done_cv.notify_all();
        true
    }

    /// Drops a job's book-keeping without fetching its result: the
    /// disposal path for fire-and-forget submissions and for jobs
    /// whose caller lost interest after they started running (where
    /// [`cancel`](Self::cancel) no longer applies). A queued job is
    /// cancelled first; a running job's entry is dropped as soon as
    /// its worker finishes, its result discarded. Returns false when
    /// the id is unknown or already fetched.
    ///
    /// The service retains every unfetched terminal result (that is
    /// what makes fetch-after-completion work), so callers that
    /// abandon jobs **must** forget them or the result store grows
    /// with each abandoned job.
    ///
    /// Equivalent to checking [`dispose`](Self::dispose) against
    /// [`DisposeOutcome::Unknown`].
    pub fn forget(&self, id: JobId) -> bool {
        !matches!(self.dispose(id), DisposeOutcome::Unknown)
    }

    /// [`forget`](Self::forget) with the outcome spelled out — what the
    /// wire protocol's `cancel` verb reports back. The whole decision
    /// runs under one lock acquisition, so a dispose racing a
    /// concurrent fetch (or a worker finishing the job) observes
    /// exactly one consistent lifecycle stage: a job can never end up
    /// half-disposed with a stuck `Running` entry.
    pub fn dispose(&self, id: JobId) -> DisposeOutcome {
        let mut state = self.shared.state.lock().expect("service state lock");
        let Some(entry) = state.jobs.get_mut(&id.0) else {
            return DisposeOutcome::Unknown;
        };
        let outcome = match entry.status {
            JobStatus::Queued => {
                // Cancel and drop the stub in the same critical
                // section (cancelled entries hold no result).
                entry.status = JobStatus::Cancelled;
                entry.task = None;
                state.queue.retain(|&queued| queued != id);
                state.jobs.remove(&id.0);
                self.shared
                    .metrics
                    .queue_depth
                    .set(state.queue.len() as u64);
                self.shared.metrics.cancelled([id]);
                DisposeOutcome::Cancelled
            }
            JobStatus::Running => {
                // The worker holds the task; flag the entry so the
                // completion path drops it instead of storing the
                // result.
                entry.forgotten = true;
                DisposeOutcome::Deferred
            }
            JobStatus::Done | JobStatus::Failed | JobStatus::Cancelled => {
                state.jobs.remove(&id.0);
                DisposeOutcome::Discarded
            }
        };
        drop(state);
        if outcome == DisposeOutcome::Cancelled {
            self.shared.done_cv.notify_all();
        }
        outcome
    }

    /// Number of jobs the service is currently tracking (queued,
    /// running, or terminal-but-unfetched). A well-behaved caller that
    /// fetches or forgets every submission drives this back to zero —
    /// the leak assertion the protocol tests rely on.
    pub fn live_jobs(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("service state lock")
            .jobs
            .len()
    }

    /// Cancels every currently-queued job, returning how many were
    /// cancelled (running jobs are unaffected).
    pub fn cancel_queued(&self) -> usize {
        let mut state = self.shared.state.lock().expect("service state lock");
        let queued: Vec<JobId> = state.queue.drain(..).collect();
        for id in &queued {
            let entry = state.jobs.get_mut(&id.0).expect("queued job has an entry");
            entry.status = JobStatus::Cancelled;
            entry.task = None;
        }
        self.shared.metrics.queue_depth.set(0);
        self.shared.metrics.cancelled(queued.iter().copied());
        drop(state);
        if !queued.is_empty() {
            self.shared.done_cv.notify_all();
        }
        queued.len()
    }

    /// Number of jobs currently waiting in the queue.
    pub fn queued(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("service state lock")
            .queue
            .len()
    }

    /// The queue bound submits are checked against.
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue_capacity
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The registry this service publishes into: the one handed to
    /// [`ServiceConfig::with_obs`], or the service's private registry
    /// otherwise. Metric names are listed in the `hycim-obs` docs
    /// (`service.submitted`, `service.queue_depth`,
    /// `timing.service.submit_to_fetch_seconds`, ...).
    pub fn obs(&self) -> &Arc<ObsRegistry> {
        &self.shared.metrics.obs
    }

    /// Stops accepting submissions, lets the workers drain every
    /// still-queued job, and joins them. Equivalent to dropping the
    /// service, as an explicit statement of intent.
    pub fn shutdown(self) {
        drop(self);
    }

    /// Allocates an id under the lock, builds the task for it, and
    /// queues it — the single submit path both public submits share.
    /// Holding the lock across `make` keeps the capacity check and
    /// the push atomic (task construction is a few moves, no solving).
    fn enqueue(&self, make: impl FnOnce(JobId) -> ErasedTask) -> Result<JobId, SubmitError> {
        let metrics = &self.shared.metrics;
        let mut state = self.shared.state.lock().expect("service state lock");
        if state.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if state.queue.len() >= self.shared.queue_capacity {
            metrics.rejected_queue_full.inc();
            return Err(SubmitError::QueueFull {
                capacity: self.shared.queue_capacity,
            });
        }
        let id = JobId(state.next_id);
        state.next_id += 1;
        state.jobs.insert(
            id.0,
            JobEntry {
                status: JobStatus::Queued,
                task: Some(make(id)),
                result: None,
                error: None,
                forgotten: false,
                submitted: Instant::now(),
            },
        );
        state.queue.push_back(id);
        metrics.submitted.inc();
        metrics.queue_depth.set(state.queue.len() as u64);
        metrics
            .obs
            .tracer()
            .record(Event::JobSubmitted { job: id.0 });
        drop(state);
        self.shared.work_cv.notify_one();
        Ok(id)
    }
}

impl Drop for JobService {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("service state lock");
            state.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One worker: pop a job, run it outside the lock, record the
/// outcome. A panicking job is caught and recorded as `Failed`; the
/// worker survives. Exits once shutdown is flagged *and* the queue is
/// drained.
fn worker_loop(shared: &Shared) {
    let metrics = &shared.metrics;
    loop {
        let (id, task) = {
            let mut state = shared.state.lock().expect("service state lock");
            loop {
                if let Some(id) = state.queue.pop_front() {
                    let entry = state.jobs.get_mut(&id.0).expect("queued job has an entry");
                    entry.status = JobStatus::Running;
                    let task = entry.task.take().expect("queued job has a task");
                    metrics.queue_depth.set(state.queue.len() as u64);
                    metrics.obs.tracer().record(Event::JobStarted { job: id.0 });
                    break (id, task);
                }
                if state.shutdown {
                    return;
                }
                state = shared.work_cv.wait(state).expect("service state lock");
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(task));
        let mut state = shared.state.lock().expect("service state lock");
        let entry = state
            .jobs
            .get_mut(&id.0)
            .expect("running job keeps its entry");
        match &outcome {
            Ok(_) => {
                metrics.jobs_done.inc();
                metrics.obs.tracer().record(Event::JobDone { job: id.0 });
            }
            Err(_) => {
                metrics.jobs_failed.inc();
                metrics.obs.tracer().record(Event::JobFailed { job: id.0 });
            }
        }
        if entry.forgotten {
            // The caller disowned the job mid-run: discard instead of
            // retaining a result nobody will fetch.
            state.jobs.remove(&id.0);
        } else {
            match outcome {
                Ok(result) => {
                    entry.status = JobStatus::Done;
                    entry.result = Some(result);
                }
                Err(payload) => {
                    entry.status = JobStatus::Failed;
                    entry.error = Some(panic_message(payload.as_ref()));
                }
            }
        }
        drop(state);
        shared.done_cv.notify_all();
    }
}

/// Renders a caught panic payload as text (the common `&str` /
/// `String` payloads verbatim, anything else a placeholder).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic of unknown type".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hycim_core::{HyCimConfig, SoftwareEngine};

    fn maxcut_engine(nodes: usize) -> Arc<SoftwareEngine<hycim_cop::maxcut::MaxCut>> {
        let graph = hycim_cop::maxcut::MaxCut::random(nodes, 0.5, 1);
        Arc::new(
            SoftwareEngine::new(&graph, &HyCimConfig::default().with_sweeps(30))
                .expect("max-cut always encodes"),
        )
    }

    #[test]
    fn single_job_round_trip() {
        let engine = maxcut_engine(10);
        let service = JobService::start(ServiceConfig::new().with_workers(2));
        let id = service.submit(&engine, 5).unwrap();
        assert_eq!(service.wait(id), Some(JobStatus::Done));
        let result = service
            .fetch::<hycim_cop::maxcut::MaxCut>(id)
            .expect("done job fetches");
        assert_eq!(result.backend, "software");
        assert_eq!(result.seeds, vec![5]);
        assert_eq!(result.solution().assignment, engine.solve(5).assignment);
        // Fetch consumed the entry.
        assert_eq!(service.status(id), None);
        assert!(matches!(
            service.fetch::<hycim_cop::maxcut::MaxCut>(id),
            Err(FetchError::Unknown(_))
        ));
    }

    #[test]
    fn wrong_type_fetch_keeps_the_result() {
        let engine = maxcut_engine(8);
        let service = JobService::start(ServiceConfig::new().with_workers(1));
        let id = service.submit(&engine, 1).unwrap();
        service.wait(id);
        assert!(matches!(
            service.fetch::<hycim_cop::QkpInstance>(id),
            Err(FetchError::WrongType(_))
        ));
        // Entry survived; the right type still succeeds.
        assert!(service.fetch::<hycim_cop::maxcut::MaxCut>(id).is_ok());
    }

    #[test]
    fn batch_job_matches_batch_runner_seeds() {
        let engine = maxcut_engine(10);
        let service = JobService::start(ServiceConfig::new().with_workers(2));
        let id = service.submit_batch(&engine, 4, 99).unwrap();
        let result = service
            .wait_fetch::<hycim_cop::maxcut::MaxCut>(id)
            .expect("batch fetches");
        assert_eq!(result.replicas(), 4);
        let direct = hycim_core::BatchRunner::serial().run(engine.as_ref(), 4, 99);
        for (k, (ours, reference)) in result.solutions.iter().zip(&direct).enumerate() {
            assert_eq!(result.seeds[k], replica_seed(99, 0, k as u64));
            assert_eq!(ours.assignment, reference.assignment, "replica {k}");
            assert_eq!(ours.objective, reference.objective);
        }
    }

    #[test]
    fn best_solution_is_deterministic() {
        let engine = maxcut_engine(12);
        let service = JobService::start(ServiceConfig::new().with_workers(3));
        let id = service.submit_batch(&engine, 6, 7).unwrap();
        let result = service.wait_fetch::<hycim_cop::maxcut::MaxCut>(id).unwrap();
        let best = result.best();
        assert!(result
            .solutions
            .iter()
            .all(|s| s.objective >= best.objective || !s.feasible));
    }

    #[test]
    fn panicking_job_fails_without_killing_the_pool() {
        let engine = maxcut_engine(8);
        let service = JobService::start(ServiceConfig::new().with_workers(1));
        let id = service
            .enqueue(|_| Box::new(|| -> ErasedResult { panic!("intentional test panic") }))
            .unwrap();
        assert_eq!(service.wait(id), Some(JobStatus::Failed));
        match service.fetch::<hycim_cop::maxcut::MaxCut>(id) {
            Err(FetchError::Failed { message, .. }) => {
                assert!(message.contains("intentional test panic"))
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        // The lone worker survived the panic and still serves jobs.
        let ok = service.submit(&engine, 3).unwrap();
        assert_eq!(service.wait(ok), Some(JobStatus::Done));
    }

    #[test]
    fn forget_disposes_of_every_lifecycle_stage() {
        let engine = maxcut_engine(10);
        let service = JobService::start(ServiceConfig::new().with_workers(1));

        // Unknown ids are a no-op.
        assert!(!service.forget(JobId(999)));

        // Done: the retained result is dropped without a fetch.
        let done = service.submit(&engine, 1).unwrap();
        service.wait(done);
        assert!(service.forget(done));
        assert_eq!(service.status(done), None);
        assert!(!service.forget(done), "already disposed");

        // Queued: behaves like cancel + dispose (the job never runs).
        let head = service.submit_batch(&engine, 64, 2).unwrap();
        let queued = service.submit(&engine, 3).unwrap();
        assert!(service.forget(queued));
        assert_eq!(service.status(queued), None);

        // Running: the completion path drops the entry.
        while service.status(head) == Some(JobStatus::Queued) {
            std::thread::yield_now();
        }
        if service.status(head) == Some(JobStatus::Running) {
            assert!(service.forget(head));
            while service.status(head).is_some() {
                std::thread::yield_now();
            }
        } else {
            // The worker already finished: forget still disposes.
            assert!(service.forget(head));
        }
        assert_eq!(service.status(head), None);
        assert!(matches!(
            service.fetch::<hycim_cop::maxcut::MaxCut>(head),
            Err(FetchError::Unknown(_))
        ));

        // The store is empty: nothing leaked.
        assert!(service.shared.state.lock().unwrap().jobs.is_empty());
    }

    #[test]
    fn value_jobs_round_trip_with_typed_fetch() {
        let service = JobService::start(ServiceConfig::new().with_workers(2));
        let id = service.submit_with(|| 6u64 * 7).unwrap();
        assert_eq!(service.wait(id), Some(JobStatus::Done));
        // Wrong type leaves the entry intact...
        assert!(matches!(
            service.fetch_value::<String>(id),
            Err(FetchError::WrongType(_))
        ));
        // ...the right type consumes it.
        assert_eq!(service.fetch_value::<u64>(id).unwrap(), 42);
        assert!(matches!(
            service.fetch_value::<u64>(id),
            Err(FetchError::Unknown(_))
        ));
        assert_eq!(service.live_jobs(), 0);
    }

    #[test]
    fn value_job_panics_surface_as_failed() {
        let service = JobService::start(ServiceConfig::new().with_workers(1));
        let id = service
            .submit_with(|| -> u64 { panic!("value job panic") })
            .unwrap();
        service.wait(id);
        match service.fetch_value::<u64>(id) {
            Err(FetchError::Failed { message, .. }) => {
                assert!(message.contains("value job panic"))
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(service.live_jobs(), 0);
    }

    #[test]
    fn dispose_reports_the_stage_it_found() {
        let engine = maxcut_engine(10);
        let service = JobService::start(ServiceConfig::new().with_workers(1));
        assert_eq!(service.dispose(JobId(404)), DisposeOutcome::Unknown);

        let done = service.submit(&engine, 1).unwrap();
        service.wait(done);
        assert_eq!(service.dispose(done), DisposeOutcome::Discarded);
        assert_eq!(service.dispose(done), DisposeOutcome::Unknown);

        // Park the worker on a long batch, then queue one more.
        let head = service.submit_batch(&engine, 64, 2).unwrap();
        let queued = service.submit(&engine, 3).unwrap();
        assert_eq!(service.dispose(queued), DisposeOutcome::Cancelled);
        assert_eq!(service.status(queued), None);

        while service.status(head) == Some(JobStatus::Queued) {
            std::thread::yield_now();
        }
        match service.dispose(head) {
            DisposeOutcome::Deferred => {
                // Flagged while running: the worker drops it on finish.
                while service.status(head).is_some() {
                    std::thread::yield_now();
                }
            }
            DisposeOutcome::Discarded => {} // worker already finished
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(service.live_jobs(), 0);
    }

    #[test]
    fn concurrent_dispose_and_fetch_never_strand_an_entry() {
        // The regression this guards: the old forget() took the lock
        // twice (cancel, then re-lock), so a fetch could interleave
        // and the second half would act on stale state. Hammer
        // dispose against fetch and the worker from three sides and
        // assert the job table always drains to empty.
        let engine = maxcut_engine(8);
        let service = Arc::new(JobService::start(ServiceConfig::new().with_workers(2)));
        for round in 0..40u64 {
            let id = service.submit(&engine, round).unwrap();
            let disposer = {
                let service = Arc::clone(&service);
                std::thread::spawn(move || service.dispose(id))
            };
            let fetcher = {
                let service = Arc::clone(&service);
                std::thread::spawn(move || service.fetch::<hycim_cop::maxcut::MaxCut>(id))
            };
            let disposed = disposer.join().unwrap();
            let fetched = fetcher.join().unwrap();
            // If the fetch only observed NotFinished, the dispose must
            // have claimed the entry (it existed at that point, so
            // Unknown would mean both sides lost it — the stranding).
            if matches!(fetched, Err(FetchError::NotFinished(_))) {
                assert_ne!(disposed, DisposeOutcome::Unknown, "round {round}");
            }
            // Whatever the interleaving, the entry drains: directly
            // (Cancelled/Discarded or a successful fetch) or via the
            // worker's forgotten-flag path (Deferred). Bounded wait so
            // a stranded entry fails the test instead of hanging it.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while service.status(id).is_some() {
                assert!(
                    std::time::Instant::now() < deadline,
                    "round {round}: entry stranded as {:?} after dispose={disposed:?} fetch={fetched:?}",
                    service.status(id)
                );
                std::thread::yield_now();
            }
        }
        assert_eq!(service.live_jobs(), 0);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let engine = maxcut_engine(10);
        let service = JobService::start(ServiceConfig::new().with_workers(1));
        let ids: Vec<JobId> = (0..5)
            .map(|seed| service.submit(&engine, seed).unwrap())
            .collect();
        let shared = Arc::clone(&service.shared);
        service.shutdown();
        // After shutdown every submitted job has completed.
        let state = shared.state.lock().unwrap();
        for id in ids {
            assert_eq!(state.jobs.get(&id.0).unwrap().status, JobStatus::Done);
        }
    }

    #[test]
    fn submit_after_shutdown_flag_is_rejected() {
        let engine = maxcut_engine(8);
        let service = JobService::start(ServiceConfig::new().with_workers(1));
        service.shared.state.lock().unwrap().shutdown = true;
        assert_eq!(
            service.submit(&engine, 1).unwrap_err(),
            SubmitError::ShuttingDown
        );
        // Clear the flag so Drop's join still works normally.
        service.shared.state.lock().unwrap().shutdown = false;
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replica_batch_panics() {
        let engine = maxcut_engine(8);
        let service = JobService::start(ServiceConfig::new().with_workers(1));
        let _ = service.submit_batch(&engine, 0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = ServiceConfig::new().with_workers(0);
    }

    #[test]
    fn metrics_track_the_job_lifecycle() {
        let engine = maxcut_engine(10);
        let obs = Arc::new(hycim_obs::ObsRegistry::new());
        let service = JobService::start(
            ServiceConfig::new()
                .with_workers(1)
                .with_queue_capacity(1)
                .with_obs(Arc::clone(&obs)),
        );

        // Done path, with a submit→fetch latency observation.
        let done = service.submit(&engine, 1).unwrap();
        service
            .wait_fetch::<hycim_cop::maxcut::MaxCut>(done)
            .unwrap();

        // QueueFull path: park the worker, fill the 1-slot queue,
        // then overflow it.
        let head = service.submit_batch(&engine, 64, 2).unwrap();
        while service.status(head) == Some(JobStatus::Queued) {
            std::thread::yield_now();
        }
        let queued = service.submit(&engine, 3).unwrap();
        let overflow = service.submit(&engine, 4);
        assert!(matches!(overflow, Err(SubmitError::QueueFull { .. })));

        // Cancelled path.
        assert!(service.cancel(queued));
        service.forget(head);
        service.wait(head);

        let snapshot = obs.snapshot();
        assert_eq!(snapshot.counter("service.submitted"), Some(3));
        assert_eq!(snapshot.counter("service.rejected_queue_full"), Some(1));
        assert_eq!(snapshot.counter("service.jobs_cancelled"), Some(1));
        assert!(snapshot.counter("service.jobs_done").unwrap() >= 1);
        assert_eq!(snapshot.counter("service.jobs_failed"), Some(0));
        assert_eq!(snapshot.gauge("service.queue_depth"), Some(0));
        assert_eq!(
            snapshot
                .histogram("timing.service.submit_to_fetch_seconds")
                .map(|h| h.count()),
            Some(1)
        );
        // The lifecycle shows up in the tracer too.
        let events = obs.tracer().events();
        assert!(events.contains(&hycim_obs::Event::JobSubmitted { job: done.0 }));
        assert!(events.contains(&hycim_obs::Event::JobDone { job: done.0 }));
        assert!(events.contains(&hycim_obs::Event::JobCancelled { job: queued.0 }));

        // A service without with_obs still tracks privately.
        let private = JobService::start(ServiceConfig::new().with_workers(1));
        let id = private.submit(&engine, 9).unwrap();
        private.wait(id);
        assert_eq!(
            private.obs().snapshot().counter("service.submitted"),
            Some(1)
        );
    }

    #[test]
    fn failed_jobs_are_counted() {
        let service = JobService::start(ServiceConfig::new().with_workers(1));
        let id = service
            .submit_with(|| -> u64 { panic!("metric test panic") })
            .unwrap();
        service.wait(id);
        assert_eq!(
            service.obs().snapshot().counter("service.jobs_failed"),
            Some(1)
        );
    }

    #[test]
    fn config_accessors() {
        let config = ServiceConfig::new().with_workers(3).with_queue_capacity(7);
        assert_eq!(config.workers(), 3);
        assert_eq!(config.queue_capacity(), 7);
        let service = JobService::start(config);
        assert_eq!(service.workers(), 3);
        assert_eq!(service.queue_capacity(), 7);
        assert_eq!(service.queued(), 0);
    }
}
