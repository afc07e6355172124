//! Job-service demo: serve heterogeneous solve jobs (QKP + max-cut)
//! to concurrent callers through `hycim::service::JobService`, then
//! verify the fetched results are bit-identical to direct synchronous
//! `Engine::solve` calls with the same seeds.
//!
//! Run with: `cargo run --release --example service_demo`

use std::sync::Arc;

use hycim::cop::generator::QkpGenerator;
use hycim::cop::maxcut::MaxCut;
use hycim::cop::QkpInstance;
use hycim::core::{Engine, HyCimConfig, HyCimEngine};
use hycim::service::{DisposeOutcome, JobService, ServiceConfig, SubmitError};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two unrelated problem types behind one queue.
    let qkp = QkpGenerator::new(40, 0.5).generate(7);
    let graph = MaxCut::random(24, 0.4, 7);
    let config = HyCimConfig::default().with_sweeps(200);
    let qkp_engine = Arc::new(HyCimEngine::new(&qkp, &config, 1)?);
    let cut_engine = Arc::new(HyCimEngine::new(&graph, &config, 1)?);

    let service = JobService::start(
        ServiceConfig::default()
            .with_workers(4)
            .with_queue_capacity(64),
    );
    println!(
        "service up: {} workers, queue bound {}",
        service.workers(),
        service.queue_capacity()
    );

    // --- submit → poll → fetch, across both problem types ------------
    let qkp_jobs: Vec<_> = (0..4)
        .map(|seed| service.submit(&qkp_engine, seed).expect("queue has room"))
        .collect();
    let cut_batch = service.submit_batch(&cut_engine, 8, 42)?;
    println!(
        "submitted {} QKP solves + 1 max-cut batch (8 replicas); {} queued",
        qkp_jobs.len(),
        service.queued()
    );

    for (seed, &job) in (0u64..).zip(&qkp_jobs) {
        let result = service.wait_fetch::<QkpInstance>(job)?;
        let direct = qkp_engine.solve(seed);
        assert_eq!(result.solution().assignment, direct.assignment);
        println!(
            "  {job} (qkp, seed {seed}): value {} — matches direct solve",
            result.solution().value()
        );
    }

    let batch = service.wait_fetch::<MaxCut>(cut_batch)?;
    let best = batch.best();
    println!(
        "  {cut_batch} (max-cut batch): best cut {} over {} replicas (backend {})",
        best.value(),
        batch.replicas(),
        batch.backend
    );
    // Every replica reproduces from its recorded seed alone.
    for (seed, solution) in batch.seeds.iter().zip(&batch.solutions) {
        assert_eq!(solution.assignment, cut_engine.solve(*seed).assignment);
    }
    println!(
        "  all {} replicas bit-identical to Engine::solve",
        batch.replicas()
    );

    // --- cancellation ------------------------------------------------
    // A tiny single-worker service so queued jobs stay cancellable.
    let small = JobService::start(
        ServiceConfig::default()
            .with_workers(1)
            .with_queue_capacity(2),
    );
    let running = small.submit(&qkp_engine, 100)?;
    let queued = small.submit(&qkp_engine, 101)?;
    let outcome = small.dispose(queued);
    println!("dispose({queued}) while queued: {}", outcome.tag());
    match outcome {
        DisposeOutcome::Cancelled => println!("  {queued} was cancelled, never ran"),
        DisposeOutcome::Deferred | DisposeOutcome::Discarded => {
            println!("  worker won the race; result discarded")
        }
        DisposeOutcome::Unknown => unreachable!("{queued} was submitted and never fetched"),
    }
    small.wait(running);

    // --- backpressure ------------------------------------------------
    let mut accepted = 0;
    loop {
        match small.submit(&qkp_engine, 200 + accepted) {
            Ok(_) => accepted += 1,
            Err(SubmitError::QueueFull { capacity }) => {
                println!("backpressure after {accepted} accepted jobs (queue bound {capacity})");
                break;
            }
            Err(e) => return Err(e.into()),
        }
    }
    let dropped = small.cancel_queued();
    println!("cancelled {dropped} queued jobs; shutting down");

    small.shutdown();
    service.shutdown();
    println!("done: every fetched result matched its synchronous reference");
    Ok(())
}
