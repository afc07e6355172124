//! Workload definitions, seeded input generation, the serial
//! correctness oracle, and the result check every job goes through.

use std::fmt;

use hycim_cop::generator::QkpGenerator;
use hycim_cop::mkp::{MkpGenerator, MultiKnapsack};
use hycim_cop::{AnyProblem, CopProblem, QkpInstance};
use hycim_core::{replica_seed, BatchRunner, Engine, EngineKind, EngineSettings};
use hycim_net::WireSolution;

/// Runs `$body` with `$p` bound to the typed instance inside an
/// [`AnyProblem`]. The benchmark generates only QKP and MKP instances.
macro_rules! typed {
    ($problem:expr, $p:ident => $body:expr) => {
        match $problem {
            hycim_cop::AnyProblem::Qkp($p) => $body,
            hycim_cop::AnyProblem::Mkp($p) => $body,
            other => unreachable!(
                "the benchmark generates no {} instances",
                other.family_tag()
            ),
        }
    };
}
pub(crate) use typed;

/// The three closed-loop workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process `BatchRunner` at the paper's 1000 sweeps: the anneal
    /// kernel does nearly all the work and there is no wire.
    PaperAnneal,
    /// `nproc` `WorkerClient`s against one loopback worker, many small
    /// frames: fabrication and round trips are a large share.
    ShortRemote,
    /// One sharding `Coordinator` over two loopback workers, a few
    /// large frames: wire decode dominates.
    WireLarge,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperAnneal,
        Workload::ShortRemote,
        Workload::WireLarge,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperAnneal => "paper-anneal",
            Workload::ShortRemote => "short-remote",
            Workload::WireLarge => "wire-large",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether jobs cross the wire.
    pub fn remote(self) -> bool {
        self != Workload::PaperAnneal
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Instance family of one job column.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Capacities are drawn from `capacity` (the generator's default
    /// is 100..=2536).
    Qkp {
        n: usize,
        density: f64,
        capacity: (u64, u64),
    },
    Mkp {
        n: usize,
        dims: usize,
    },
}

/// The sizes of one workload.
struct Sizes {
    /// Job columns, alternated job by job.
    shapes: &'static [(Shape, EngineKind)],
    /// Distinct instances, shapes alternating. Success and latency
    /// differ from instance to instance; enough instances keep a run's
    /// figures from depending on a few of them.
    instances: usize,
    /// Distinct jobs the closed loop cycles through.
    pool_jobs: usize,
    seeds_per_job: usize,
    sweeps: usize,
}

fn sizes(workload: Workload) -> Sizes {
    match workload {
        Workload::PaperAnneal => Sizes {
            shapes: &[
                (
                    Shape::Qkp {
                        n: 100,
                        density: 0.5,
                        capacity: (100, 2536),
                    },
                    EngineKind::HyCim,
                ),
                // At 40 items a bank solve costs about as much as a QKP
                // n=100 solve; unequal costs give the latency distribution
                // two modes with its median in the gap between them.
                (Shape::Mkp { n: 40, dims: 4 }, EngineKind::Bank),
            ],
            instances: 16,
            pool_jobs: 32,
            seeds_per_job: 4,
            sweeps: 1000,
        },
        Workload::ShortRemote => Sizes {
            shapes: &[
                (
                    Shape::Qkp {
                        n: 50,
                        density: 0.5,
                        capacity: (100, 2536),
                    },
                    EngineKind::HyCim,
                ),
                (Shape::Mkp { n: 30, dims: 3 }, EngineKind::Bank),
            ],
            instances: 32,
            pool_jobs: 128,
            seeds_per_job: 2,
            sweeps: 100,
        },
        Workload::WireLarge => Sizes {
            // The capacity cap keeps the reference search near 1 s per
            // instance (up to 20 s with the default range); the submit
            // frame's size does not depend on it.
            shapes: &[(
                Shape::Qkp {
                    n: 200,
                    density: 0.5,
                    capacity: (100, 800),
                },
                EngineKind::HyCim,
            )],
            instances: 16,
            pool_jobs: 32,
            seeds_per_job: 4,
            // Below about 300 sweeps hardly any solve comes within 5% of
            // the reference, and success_rate reads 0.
            sweeps: 300,
        },
    }
}

/// Seed roles, so that no two derived streams collide.
const ROLE_INSTANCE: u64 = 1;
const ROLE_HARDWARE: u64 = 2;
const ROLE_SOLVE: u64 = 3;
const ROLE_REFERENCE: u64 = 4;

/// One generated instance and the engine column it runs on.
#[derive(Debug, Clone)]
pub struct Instance {
    pub problem: AnyProblem,
    pub kind: EngineKind,
    pub hardware_seed: u64,
    pub reference_seed: u64,
}

/// One distinct job: an instance and its replica seeds.
#[derive(Debug, Clone)]
pub struct JobDef {
    /// Position in the pool; also the replica-seed problem index.
    pub index: u64,
    pub instance: usize,
    pub seeds: Vec<u64>,
}

/// Everything the workload seed determines.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub sweeps: usize,
    /// Root of every job's replica seeds: job `j`, replica `k` solves
    /// with `replica_seed(solve_root, j, k)`.
    pub solve_root: u64,
    pub instances: Vec<Instance>,
    pub jobs: Vec<JobDef>,
}

impl Plan {
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let s = sizes(workload);
        let instances = (0..s.instances)
            .map(|i| {
                let (shape, kind) = s.shapes[i % s.shapes.len()];
                let instance_seed = replica_seed(seed, ROLE_INSTANCE, i as u64);
                let problem = match shape {
                    Shape::Qkp {
                        n,
                        density,
                        capacity: (lo, hi),
                    } => AnyProblem::from(
                        QkpGenerator::new(n, density)
                            .with_capacity_range(lo, hi)
                            .generate(instance_seed),
                    ),
                    Shape::Mkp { n, dims } => {
                        AnyProblem::from(MkpGenerator::new(n, dims).generate(instance_seed))
                    }
                };
                Instance {
                    problem,
                    kind,
                    hardware_seed: replica_seed(seed, ROLE_HARDWARE, i as u64),
                    reference_seed: replica_seed(seed, ROLE_REFERENCE, i as u64),
                }
            })
            .collect();
        let solve_root = replica_seed(seed, ROLE_SOLVE, 0);
        let jobs = (0..s.pool_jobs)
            .map(|j| JobDef {
                index: j as u64,
                instance: j % s.instances,
                seeds: (0..s.seeds_per_job)
                    .map(|k| replica_seed(solve_root, j as u64, k as u64))
                    .collect(),
            })
            .collect();
        Plan {
            workload,
            sweeps: s.sweeps,
            solve_root,
            instances,
            jobs,
        }
    }

    /// The engine settings of an instance's jobs.
    pub fn settings(&self, instance: &Instance) -> EngineSettings {
        EngineSettings {
            sweeps: self.sweeps,
            hardware_seed: instance.hardware_seed,
            record_trace: false,
        }
    }

    pub fn instance_of(&self, job: &JobDef) -> &Instance {
        &self.instances[job.instance]
    }
}

/// A built engine for either generated family.
pub enum AnyEngine {
    Qkp(Box<dyn Engine<QkpInstance>>),
    Mkp(Box<dyn Engine<MultiKnapsack>>),
}

impl AnyEngine {
    pub fn build(instance: &Instance, settings: &EngineSettings) -> Result<Self, String> {
        let kind = instance.kind;
        let built = match &instance.problem {
            AnyProblem::Qkp(p) => kind.build(p, settings).map(AnyEngine::Qkp),
            AnyProblem::Mkp(p) => kind.build(p, settings).map(AnyEngine::Mkp),
            other => unreachable!(
                "the benchmark generates no {} instances",
                other.family_tag()
            ),
        };
        built.map_err(|e| format!("{kind} refuses the instance: {e}"))
    }

    pub fn run_seeds(&self, runner: &BatchRunner, seeds: &[u64]) -> Vec<WireSolution> {
        match self {
            AnyEngine::Qkp(e) => runner
                .run_seeds(e, seeds)
                .iter()
                .map(WireSolution::from_solution)
                .collect(),
            AnyEngine::Mkp(e) => runner
                .run_seeds(e, seeds)
                .iter()
                .map(WireSolution::from_solution)
                .collect(),
        }
    }
}

/// The expected output of every pool job and the per-instance
/// success references, computed before timing.
pub struct Oracle {
    pub expected: Vec<Vec<WireSolution>>,
    /// Per instance: `reference_objective` folded with the best
    /// feasible objective the pool reaches.
    pub references: Vec<Option<f64>>,
}

impl Oracle {
    /// Solves every pool job with `BatchRunner::serial` on a fresh
    /// `EngineKind::build` — the reference every timed result must
    /// equal bit for bit — and computes each instance's success
    /// reference. Instances are spread over `threads` threads; each job
    /// is still solved serially.
    pub fn compute(plan: &Plan, threads: usize) -> Result<Self, String> {
        // Per instance: build its engine, solve its jobs, drop the engine,
        // then run its reference search. Instances are spread over
        // `threads` threads, so at most `threads` engines are alive.
        type PerInstance = Result<(Vec<(usize, Vec<WireSolution>)>, Option<f64>), String>;
        let solve_instance = |i: usize| -> PerInstance {
            let inst = &plan.instances[i];
            let engine = AnyEngine::build(inst, &plan.settings(inst))?;
            let solved = plan
                .jobs
                .iter()
                .enumerate()
                .filter(|(_, job)| job.instance == i)
                .map(|(j, job)| (j, engine.run_seeds(&BatchRunner::serial(), &job.seeds)))
                .collect();
            drop(engine);
            Ok((
                solved,
                inst.problem.reference_objective(inst.reference_seed),
            ))
        };
        let mut per_instance: Vec<Option<PerInstance>> =
            (0..plan.instances.len()).map(|_| None).collect();
        let per = plan.instances.len().div_ceil(threads.max(1));
        std::thread::scope(|scope| {
            for (t, chunk) in per_instance.chunks_mut(per).enumerate() {
                let solve_instance = &solve_instance;
                scope.spawn(move || {
                    for (offset, slot) in chunk.iter_mut().enumerate() {
                        *slot = Some(solve_instance(t * per + offset));
                    }
                });
            }
        });
        let mut expected: Vec<Vec<WireSolution>> = vec![Vec::new(); plan.jobs.len()];
        let mut searched = Vec::with_capacity(plan.instances.len());
        for result in per_instance {
            let (solved, reference) = result.expect("every instance was solved")?;
            for (j, sols) in solved {
                expected[j] = sols;
            }
            searched.push(reference);
        }
        let references = searched
            .into_iter()
            .enumerate()
            .map(|(i, reference)| {
                let best_seen = plan
                    .jobs
                    .iter()
                    .zip(&expected)
                    .filter(|(job, _)| job.instance == i)
                    .flat_map(|(_, sols)| sols)
                    .filter(|s| s.feasible)
                    .map(|s| s.objective)
                    .reduce(f64::min);
                match (reference, best_seen) {
                    (Some(r), Some(b)) => Some(r.min(b)),
                    (r, b) => r.or(b),
                }
            })
            .collect();
        Ok(Oracle {
            expected,
            references,
        })
    }

    /// `(feasible_rate, success_rate)` over every solve of the pool.
    pub fn rates(&self, plan: &Plan) -> (f64, f64) {
        let mut solves = 0usize;
        let mut feasible = 0usize;
        let mut success = 0usize;
        for (job, sols) in plan.jobs.iter().zip(&self.expected) {
            for s in sols {
                solves += 1;
                feasible += usize::from(s.feasible);
                if let Some(reference) = self.references[job.instance] {
                    success += usize::from(s.objective_success(reference));
                }
            }
        }
        (
            feasible as f64 / solves as f64,
            success as f64 / solves as f64,
        )
    }
}

/// Checks a job's returned solutions: each must equal the serial
/// oracle's bit for bit, and must re-score to its own objective and
/// feasibility on the instance the benchmark generated.
pub fn check_result(
    problem: &AnyProblem,
    expected: &[WireSolution],
    got: &[WireSolution],
) -> Result<(), String> {
    if got.len() != expected.len() {
        return Err(format!(
            "{} solutions returned, {} expected",
            got.len(),
            expected.len()
        ));
    }
    for (k, (want, have)) in expected.iter().zip(got).enumerate() {
        if want != have {
            return Err(format!("replica {k} differs from the serial oracle"));
        }
        let x = have
            .decode_assignment()
            .map_err(|e| format!("replica {k}: {e}"))?;
        if x.len() != problem.dim() {
            return Err(format!("replica {k}: assignment has {} bits", x.len()));
        }
        let (objective, feasible) = typed!(problem, p => (p.objective(&x), p.is_feasible(&x)));
        if objective.to_bits() != have.objective.to_bits() || feasible != have.feasible {
            return Err(format!(
                "replica {k} does not re-score to its reported values"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for w in Workload::ALL {
            let a = Plan::generate(w, 7);
            let b = Plan::generate(w, 7);
            let c = Plan::generate(w, 8);
            assert_eq!(a.instances[0].problem, b.instances[0].problem);
            assert_eq!(a.jobs[3].seeds, b.jobs[3].seeds);
            assert_ne!(a.instances[0].problem, c.instances[0].problem);
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }

    #[test]
    fn a_flipped_assignment_bit_is_a_failure() {
        let plan = Plan::generate(Workload::ShortRemote, 3);
        let job = &plan.jobs[0];
        let inst = plan.instance_of(job);
        let engine = AnyEngine::build(inst, &plan.settings(inst)).unwrap();
        let expected = engine.run_seeds(&BatchRunner::serial(), &job.seeds);
        assert_eq!(check_result(&inst.problem, &expected, &expected), Ok(()));

        // Flip a bit whose value the objective depends on.
        let x = expected[1].decode_assignment().unwrap();
        let base = typed!(&inst.problem, p => p.objective(&x));
        let bit = (0..x.len())
            .find(|&i| {
                let mut y = x.clone();
                y.flip(i);
                typed!(&inst.problem, p => p.objective(&y)) != base
            })
            .expect("some bit moves the objective");
        let mut flipped = expected.clone();
        let bits = &mut flipped[1].assignment;
        let new = if &bits[bit..=bit] == "0" { "1" } else { "0" };
        bits.replace_range(bit..=bit, new);
        assert!(check_result(&inst.problem, &expected, &flipped).is_err());

        // Also when the reference itself carries the flipped bit: the
        // re-score against the generated instance catches it.
        assert!(check_result(&inst.problem, &flipped, &flipped).is_err());
    }

    #[test]
    fn references_are_never_worse_than_the_best_solve() {
        let plan = Plan::generate(Workload::ShortRemote, 5);
        let oracle = Oracle::compute(&plan, 2).unwrap();
        for (job, sols) in plan.jobs.iter().zip(&oracle.expected) {
            let reference = oracle.references[job.instance].unwrap();
            for s in sols.iter().filter(|s| s.feasible) {
                assert!(reference <= s.objective);
            }
        }
        let (feasible, success) = oracle.rates(&plan);
        assert!(success > 0.0 && success <= feasible && feasible <= 1.0);
    }
}
