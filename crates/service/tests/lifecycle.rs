//! Job lifecycle integration tests: the ISSUE's acceptance criterion
//! that concurrent submissions across heterogeneous problem types
//! fetch solutions **bit-identical** to serial `Engine::solve` calls
//! with the same seeds, plus cancellation and queue-full behavior.

use std::sync::Arc;

use hycim_cop::binpack::BinPacking;
use hycim_cop::generator::QkpGenerator;
use hycim_cop::maxcut::MaxCut;
use hycim_cop::tsp::Tsp;
use hycim_cop::QkpInstance;
use hycim_core::{
    replica_seed, BankEngine, BatchRunner, DquboConfig, DquboEngine, Engine, HyCimConfig,
    HyCimEngine, SoftwareEngine, Solution,
};
use hycim_service::{FetchError, JobService, JobStatus, ServiceConfig, SubmitError};

fn qkp_engine(seed: u64) -> Arc<HyCimEngine<QkpInstance>> {
    let inst = QkpGenerator::new(20, 0.5).generate(seed);
    Arc::new(
        HyCimEngine::new(&inst, &HyCimConfig::default().with_sweeps(60), seed)
            .expect("benchmark instances map"),
    )
}

fn maxcut_engine(seed: u64) -> Arc<SoftwareEngine<MaxCut>> {
    let graph = MaxCut::random(16, 0.5, seed);
    Arc::new(
        SoftwareEngine::new(&graph, &HyCimConfig::default().with_sweeps(60))
            .expect("max-cut always encodes"),
    )
}

/// The headline guarantee: many threads hammering one service with
/// three different problem types (and three different engine
/// backends), every fetched solution equal to the serial reference.
#[test]
fn concurrent_heterogeneous_submits_match_serial_solves() {
    let qkp = qkp_engine(1);
    let cut = maxcut_engine(2);
    let tsp_inst = Tsp::random_euclidean(5, 10.0, 3).expect("valid instance");
    let tsp = Arc::new(
        DquboEngine::new(&tsp_inst, &DquboConfig::default().with_sweeps(60)).expect("tsp encodes"),
    );

    let service = JobService::start(ServiceConfig::new().with_workers(4));
    let seeds: Vec<u64> = (0..6).collect();

    // Submit from several caller threads at once.
    let (qkp_jobs, cut_jobs, tsp_jobs) = std::thread::scope(|scope| {
        let submit_qkp = scope.spawn(|| {
            seeds
                .iter()
                .map(|&s| service.submit(&qkp, s).expect("capacity is ample"))
                .collect::<Vec<_>>()
        });
        let submit_cut = scope.spawn(|| {
            seeds
                .iter()
                .map(|&s| service.submit(&cut, s).expect("capacity is ample"))
                .collect::<Vec<_>>()
        });
        let submit_tsp = scope.spawn(|| {
            seeds
                .iter()
                .map(|&s| service.submit(&tsp, s).expect("capacity is ample"))
                .collect::<Vec<_>>()
        });
        (
            submit_qkp.join().expect("submitter"),
            submit_cut.join().expect("submitter"),
            submit_tsp.join().expect("submitter"),
        )
    });

    for (&seed, &job) in seeds.iter().zip(&qkp_jobs) {
        let got = service.wait_fetch::<QkpInstance>(job).expect("qkp job");
        let want = qkp.solve(seed);
        assert_eq!(
            got.solution().assignment,
            want.assignment,
            "qkp seed {seed}"
        );
        assert_eq!(got.solution().objective, want.objective);
        assert_eq!(got.solution().reported_energy, want.reported_energy);
        assert_eq!(got.backend, "hycim");
    }
    for (&seed, &job) in seeds.iter().zip(&cut_jobs) {
        let got = service.wait_fetch::<MaxCut>(job).expect("max-cut job");
        let want = cut.solve(seed);
        assert_eq!(
            got.solution().assignment,
            want.assignment,
            "cut seed {seed}"
        );
        assert_eq!(got.solution().objective, want.objective);
        assert_eq!(got.backend, "software");
    }
    for (&seed, &job) in seeds.iter().zip(&tsp_jobs) {
        let got = service.wait_fetch::<Tsp>(job).expect("tsp job");
        let want = tsp.solve(seed);
        assert_eq!(
            got.solution().assignment,
            want.assignment,
            "tsp seed {seed}"
        );
        assert_eq!(got.solution().decoded, want.decoded);
        assert_eq!(got.backend, "dqubo");
    }
}

/// Batch jobs reuse the `replica_seed` derivation, so one service job
/// equals a whole `BatchRunner` run — at any worker count.
#[test]
fn batch_job_is_bit_identical_to_batch_runner() {
    let engine = qkp_engine(5);
    let service = JobService::start(ServiceConfig::new().with_workers(3));
    let job = service.submit_batch(&engine, 5, 77).expect("capacity");
    let got = service.wait_fetch::<QkpInstance>(job).expect("batch job");
    let want = BatchRunner::new()
        .with_threads(2)
        .run(engine.as_ref(), 5, 77);
    assert_eq!(got.replicas(), want.len());
    for (k, (g, w)) in got.solutions.iter().zip(&want).enumerate() {
        assert_eq!(got.seeds[k], replica_seed(77, 0, k as u64));
        assert_eq!(g.assignment, w.assignment, "replica {k}");
        assert_eq!(g.objective, w.objective);
        assert_eq!(g.reported_energy, w.reported_energy);
    }
}

/// Bank-engine jobs ride the same erased queue: a batch job over the
/// multi-constraint pipeline fetches bit-identical to `BatchRunner`,
/// and every replica's solution satisfies each per-bin constraint.
#[test]
fn bank_engine_jobs_are_bit_identical_and_bin_exact() {
    let bp = BinPacking::new(vec![4, 5, 3, 6], 9, 2).unwrap();
    let engine = Arc::new(
        BankEngine::new(&bp, &HyCimConfig::default().with_sweeps(60), 7)
            .expect("bin packing maps onto the bank"),
    );
    let service = JobService::start(ServiceConfig::new().with_workers(3));
    let job = service.submit_batch(&engine, 4, 31).expect("capacity");
    let got = service.wait_fetch::<BinPacking>(job).expect("bank job");
    assert_eq!(got.backend, "bank");
    let want = BatchRunner::new()
        .with_threads(2)
        .run(engine.as_ref(), 4, 31);
    use hycim_cop::CopProblem;
    let mq = bp.to_multi_inequality_qubo().expect("encodable");
    for (k, (g, w)) in got.solutions.iter().zip(&want).enumerate() {
        assert_eq!(got.seeds[k], replica_seed(31, 0, k as u64));
        assert_eq!(g.assignment, w.assignment, "replica {k}");
        assert_eq!(g.reported_energy, w.reported_energy);
        assert!(
            mq.is_feasible(&g.assignment),
            "replica {k} violates a bin constraint"
        );
    }
}

/// Cancelling a queued job prevents it from ever running; its entry
/// reports `Cancelled` until fetched, and fetching yields the typed
/// cancellation error.
#[test]
fn cancellation_of_queued_jobs() {
    let engine = qkp_engine(9);
    // One worker + a long head-of-line job keeps later jobs queued.
    let service = JobService::start(ServiceConfig::new().with_workers(1).with_queue_capacity(16));
    let head = service.submit_batch(&engine, 8, 1).expect("capacity");
    let victims: Vec<_> = (0..4)
        .map(|s| service.submit(&engine, s).expect("capacity"))
        .collect();

    let mut cancelled = Vec::new();
    for &job in &victims {
        if service.cancel(job) {
            assert_eq!(service.status(job), Some(JobStatus::Cancelled));
            cancelled.push(job);
        }
    }
    // Double-cancel is a no-op, not an error.
    for &job in &cancelled {
        assert!(!service.cancel(job));
    }
    for &job in &cancelled {
        match service.wait_fetch::<QkpInstance>(job) {
            Err(FetchError::Cancelled(id)) => assert_eq!(id, job),
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // Fetch consumed the entry.
        assert_eq!(service.status(job), None);
    }
    // Untouched jobs still complete correctly.
    assert!(service.wait_fetch::<QkpInstance>(head).is_ok());
    for job in victims {
        if !cancelled.contains(&job) {
            assert!(service.wait_fetch::<QkpInstance>(job).is_ok());
        }
    }
}

/// The queue bound is enforced per waiting job: submits beyond it
/// fail fast with `QueueFull`, and capacity frees up as the queue
/// drains.
#[test]
fn queue_full_backpressure() {
    let engine = qkp_engine(11);
    let service = JobService::start(ServiceConfig::new().with_workers(1).with_queue_capacity(3));
    // Occupy the worker so subsequent submits stay queued.
    let head = service.submit_batch(&engine, 6, 2).expect("first submit");

    let mut queued_jobs = Vec::new();
    let mut rejections = 0usize;
    // 3 capacity + the head job possibly still queued: submit until
    // the bound trips, which must happen within a handful of tries.
    for seed in 0..16 {
        match service.submit(&engine, seed) {
            Ok(job) => queued_jobs.push(job),
            Err(SubmitError::QueueFull { capacity }) => {
                assert_eq!(capacity, 3);
                assert_eq!(service.queue_capacity(), 3);
                rejections += 1;
                break;
            }
            Err(other) => panic!("unexpected submit error: {other}"),
        }
        assert!(queued_jobs.len() <= 4, "bound never tripped");
    }
    assert_eq!(rejections, 1, "submit loop must hit the bound");

    // Draining the queue restores capacity.
    service.wait(head);
    for &job in &queued_jobs {
        service.wait(job);
    }
    assert_eq!(service.queued(), 0);
    let retry = service.submit(&engine, 99).expect("drained queue accepts");
    assert!(service.wait_fetch::<QkpInstance>(retry).is_ok());
}

/// Status transitions observed through the public API follow the
/// documented lifecycle: Queued/Running → Done, and ids are unique.
#[test]
fn status_lifecycle_and_unique_ids() {
    let engine = maxcut_engine(13);
    let service = JobService::start(ServiceConfig::new().with_workers(2));
    let jobs: Vec<_> = (0..8)
        .map(|s| service.submit(&engine, s).expect("capacity"))
        .collect();
    let unique: std::collections::BTreeSet<_> = jobs.iter().copied().collect();
    assert_eq!(unique.len(), jobs.len(), "ids must be unique");

    for &job in &jobs {
        // Any status observed before the terminal wait must be a
        // legal non-fetched state.
        if let Some(status) = service.status(job) {
            assert!(matches!(
                status,
                JobStatus::Queued | JobStatus::Running | JobStatus::Done
            ));
        }
        assert_eq!(service.wait(job), Some(JobStatus::Done));
    }
    for job in jobs {
        assert!(service.wait_fetch::<MaxCut>(job).is_ok());
    }
}

/// In-process jobs record anneal counters like every other solve
/// path: one `submit` and one `submit_batch` count every replica
/// under `core.anneal.<backend>.*`, and the fetched solutions stay
/// bit-identical to direct `Engine::solve` calls.
#[test]
fn service_jobs_record_anneal_counters() {
    let engine = qkp_engine(9);
    let service = JobService::start(ServiceConfig::new().with_workers(2));
    let single = service.submit(&engine, 4).expect("capacity");
    let batch = service.submit_batch(&engine, 3, 21).expect("capacity");
    let single = service
        .wait_fetch::<QkpInstance>(single)
        .expect("single job");
    let batch = service.wait_fetch::<QkpInstance>(batch).expect("batch job");
    let jobs = [&single, &batch];
    let mut iterations = 0;
    for (&seed, got) in jobs
        .iter()
        .flat_map(|job| job.seeds.iter().zip(&job.solutions))
    {
        let want = engine.solve(seed);
        assert_eq!(got.assignment, want.assignment, "seed {seed}");
        assert_eq!(
            got.reported_energy.to_bits(),
            want.reported_energy.to_bits()
        );
        assert_eq!(got.trace, want.trace, "seed {seed}");
        iterations += got.trace.iterations() as u64;
    }
    let obs = service.obs();
    assert_eq!(obs.counter("core.anneal.hycim.solves").get(), 4);
    assert_eq!(
        obs.counter("core.anneal.hycim.iterations").get(),
        iterations
    );
}

/// A solve that panics fails its job with the solve's own message,
/// not a generic one from the thread that ran it.
#[test]
fn panicking_solve_fails_the_job_with_its_message() {
    struct Exploding(MaxCut);
    impl Engine<MaxCut> for Exploding {
        fn problem(&self) -> &MaxCut {
            &self.0
        }
        fn backend(&self) -> &'static str {
            "exploding"
        }
        fn solve(&self, _seed: u64) -> Solution<MaxCut> {
            panic!("solver blew up")
        }
    }
    let engine = Arc::new(Exploding(MaxCut::random(4, 0.5, 1)));
    let service = JobService::start(ServiceConfig::new().with_workers(1));
    let job = service.submit(&engine, 3).expect("capacity");
    match service.wait_fetch::<MaxCut>(job) {
        Err(FetchError::Failed { message, .. }) => {
            assert!(message.contains("solver blew up"), "{message}")
        }
        Err(other) => panic!("expected Failed, got {other:?}"),
        Ok(_) => panic!("a panicking solve cannot succeed"),
    }
}
