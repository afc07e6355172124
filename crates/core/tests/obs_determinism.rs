//! The observability determinism law: instrumentation consumes zero
//! RNG draws, so every engine returns **bit-identical** `Solution`s
//! whether or not its runner carries a metrics registry, and a
//! metrics snapshot minus the `timing.` section is byte-identical
//! across two runs of the same seed.

use std::sync::Arc;

use hycim_cop::generator::QkpGenerator;
use hycim_core::{BatchRunner, EngineKind, EngineSettings, HyCimConfig, SoftwareEngine};
use hycim_obs::ObsRegistry;

/// Every engine kind, with and without a registry on the runner: the
/// solves must not differ by a single bit, and the instrumented run
/// must have recorded the engine's anneal counters under its own
/// backend label.
#[test]
fn solutions_are_bit_identical_with_and_without_a_registry() {
    let inst = QkpGenerator::new(20, 0.5).generate(11);
    let settings = EngineSettings::new(30, 2);
    let seeds = [0, 1, 2];

    for kind in EngineKind::ALL {
        let engine = kind
            .build(&inst, &settings)
            .expect("QKP encodes everywhere");
        let bare = BatchRunner::serial().run_seeds(&engine, &seeds);

        let obs = Arc::new(ObsRegistry::new());
        let instrumented = BatchRunner::serial()
            .with_obs(Arc::clone(&obs))
            .run_seeds(&engine, &seeds);

        for (seed, (a, b)) in bare.iter().zip(&instrumented).enumerate() {
            assert_eq!(a.assignment, b.assignment, "{kind} diverged at seed {seed}");
            assert_eq!(a.objective, b.objective, "{kind} objective at seed {seed}");
            assert_eq!(
                a.reported_energy.to_bits(),
                b.reported_energy.to_bits(),
                "{kind} energy at seed {seed}"
            );
            assert_eq!(a.feasible, b.feasible, "{kind} feasibility at seed {seed}");
        }

        let snapshot = obs.snapshot();
        assert_eq!(
            snapshot.counter(&format!("core.anneal.{kind}.solves")),
            Some(3),
            "{kind} recorded no solve counters"
        );
        assert!(
            snapshot
                .counter(&format!("core.anneal.{kind}.iterations"))
                .unwrap()
                > 0,
            "{kind} recorded no iterations"
        );
    }
}

/// The stable snapshot form is a pure function of the work: two
/// same-seed `BatchRunner` runs — at *different thread counts* —
/// produce byte-identical `render_stable()` output, while the
/// wall-clock observations stay quarantined in the `timing.` section.
#[test]
fn stable_snapshots_are_byte_identical_across_runs() {
    let inst = QkpGenerator::new(18, 0.5).generate(4);
    let engine = SoftwareEngine::new(&inst, &HyCimConfig::default().with_sweeps(25))
        .expect("software engine builds");

    let run = |threads: usize| {
        let obs = Arc::new(ObsRegistry::new());
        let runner = BatchRunner::serial()
            .with_threads(threads)
            .with_obs(Arc::clone(&obs));
        let cells = runner.run_telemetry(&engine, 6, 42);
        assert_eq!(cells.len(), 6);
        obs.snapshot()
    };

    let first = run(1);
    let second = run(4);

    let stable = first.render_stable();
    assert_eq!(
        stable,
        second.render_stable(),
        "stable form varied across identical-seed runs"
    );
    // The batch counters made it in; the wall clock stayed out.
    assert!(stable.contains("batch.cells 6"));
    assert!(stable.contains("batch.iterations "));
    assert!(!stable.contains("timing."));
    assert_eq!(
        first
            .histogram("timing.batch.cell_seconds")
            .map(|h| h.count()),
        Some(6),
        "wall-clock observations were recorded, just quarantined"
    );
    assert!(first.render().contains("timing.batch.cell_seconds"));
}
