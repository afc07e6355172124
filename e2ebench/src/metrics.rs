//! One benchmark run: set-up, oracle, warm-up, the measured phases, and
//! the reduction of what they recorded to the reported metrics.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use hycim_obs::Snapshot;

use crate::plan::{Oracle, Plan, Workload};
use crate::replay::{replay_jobs, ReplayLog};
use crate::system::{closed_loop, set_up, Phase, PhaseResult, System};
use crate::trace::{
    histogram_delta, histogram_quantile, nearest_rank, self_times, tail_is_supported, write_spans,
    Span,
};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 25;

/// Directory, relative to the working directory, that traced runs
/// write their spans to.
const TRACE_DIR: &str = ".bench_trace";

/// Timed jobs a run must complete, so that ten lie beyond the p90.
const MIN_TIMED_JOBS: usize = 100;

/// Engine tags of the engine-dependent layers.
const TAGS: [&str; 2] = ["hycim", "bank"];

/// End-to-end metrics: name, unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("jobs_per_s", "jobs/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("success_rate", "ratio"),
    ("feasible_rate", "ratio"),
    ("completion_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Span timings that do not depend on the engine.
const UNTAGGED_MS: [&str; 8] = [
    "cop.to_wire_ms",
    "cop.from_wire_ms",
    "net.frame_encode_ms",
    "net.json_parse_ms",
    "net.request_decode_ms",
    "net.submit_ms",
    "net.wait_fetch_ms",
    "net.coordinator_run_ms",
];

/// Timings derived from the workers' latency histogram.
const SERVICE_MS: [&str; 2] = ["service.submit_to_fetch_ms", "net.overhead_ms"];

/// Layer timings reported per engine tag.
const TAGGED_MS: [&str; 7] = [
    "cop.encode_ms",
    "cop.score_ms",
    "core.engine_build_ms",
    "core.fabricate_ms",
    "core.batch_ms",
    "anneal.calibrate_ms",
    "anneal.run_ms",
];

/// Anneal rates reported per engine tag: name, unit.
const TAGGED_RATES: [(&str, &str); 3] = [
    ("anneal.iters_per_s", "1/s"),
    ("anneal.accept_ratio", "ratio"),
    ("anneal.filter_reject_ratio", "ratio"),
];

/// Single-valued per-layer metrics: name, unit.
const SCALARS: [(&str, &str); 7] = [
    ("net.frames_per_job", "count"),
    ("net.shard_retries", "count"),
    ("net.shards_local", "count"),
    ("core.fabricate_share", "ratio"),
    ("anneal.run_share", "ratio"),
    ("net.json_parse_share", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// Every per-layer metric, in report order: name, unit, whether higher
/// is better.
pub fn per_layer() -> Vec<(String, &'static str, bool)> {
    let mut out = Vec::new();
    let mut timing = |name: String, unit: &'static str| {
        out.push((format!("{name}.p50"), unit, false));
        out.push((format!("{name}.p90"), unit, false));
        out.push((format!("{name}.n"), "count", true));
    };
    for name in UNTAGGED_MS.into_iter().chain(SERVICE_MS) {
        timing(name.to_string(), "ms");
    }
    for name in TAGGED_MS {
        for tag in TAGS {
            timing(format!("{name}.{tag}"), "ms");
        }
    }
    timing("net.frame_bytes".to_string(), "bytes");
    for (name, unit) in TAGGED_RATES {
        for tag in TAGS {
            let higher = name != "anneal.filter_reject_ratio";
            out.push((format!("{name}.{tag}"), unit, higher));
        }
    }
    for (name, unit) in SCALARS {
        let higher = name == "bench.trace_overhead_ratio";
        out.push((name.to_string(), unit, higher));
    }
    out
}

/// A finished run.
pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// The commit of the checkout, read from `.git` without running git;
/// "unknown" outside a git work tree.
fn commit() -> String {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Runs one benchmark invocation.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"nproc\": {nproc}, \"commit\": \"{}\", \"trace\": {traced}}}",
        commit()
    );
    let epoch = Instant::now();

    // Set up several times; each set-up is stopped before the next one
    // starts, and the last one is kept.
    let repeats = if traced { 1 } else { SETUP_REPEATS };
    let mut setup_times = Vec::new();
    let mut current: Option<(Plan, System)> = None;
    for _ in 0..repeats {
        if let Some((_, old)) = current.take() {
            old.shut_down();
        }
        let t0 = Instant::now();
        current = Some(set_up(workload, seed, nproc)?);
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let (plan, mut system) = current.expect("at least one set-up");

    let t0 = Instant::now();
    let oracle = Oracle::compute(&plan, nproc)?;
    eprintln!("oracle and references: {:.2} s", t0.elapsed().as_secs_f64());
    let next = AtomicU64::new(0);
    let mut attempted = 0;
    let mut failed = 0;
    let mut errors = Vec::new();
    let mut tally = |phase: &PhaseResult| {
        attempted += phase.attempted;
        failed += phase.failed;
        errors.extend(phase.errors.iter().take(5).cloned());
    };

    let warm_up = Phase {
        seconds: 0.0,
        min_jobs: 2 * system.clients(),
        cover_pool: false,
        traced: false,
    };
    tally(&closed_loop(
        &mut system,
        &plan,
        &oracle,
        warm_up,
        &next,
        epoch,
    ));

    let (metrics, complete) = if traced {
        let half = Phase {
            seconds: seconds / 2.0,
            min_jobs: system.clients(),
            cover_pool: false,
            traced: false,
        };
        let plain = closed_loop(&mut system, &plan, &oracle, half, &next, epoch);
        tally(&plain);
        let workers_before = system.worker_snapshot();
        let coordinator_before = system.coordinator_snapshot();
        let traced_phase = closed_loop(
            &mut system,
            &plan,
            &oracle,
            Phase {
                traced: true,
                ..half
            },
            &next,
            epoch,
        );
        tally(&traced_phase);
        let counters = RegistryDelta {
            workers: delta(system.worker_snapshot(), workers_before),
            coordinator: delta(system.coordinator_snapshot(), coordinator_before),
        };
        let tracer = traced_phase
            .tracer
            .as_ref()
            .expect("traced phase records spans");
        let mut seqs: Vec<u64> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "bench.job")
            .map(|s| s.job)
            .collect();
        seqs.sort_unstable();
        let replays = replay_jobs(
            &plan,
            &oracle,
            &system,
            &seqs,
            Duration::from_secs_f64(seconds / 2.0),
            epoch,
        )?;
        let layer = LayerInputs {
            trace_file: format!("{TRACE_DIR}/{workload}-seed{seed}.jsonl"),
            plain: &plain,
            traced: &traced_phase,
            replays,
            counters,
        };
        let metrics = layer
            .metrics()
            .map_err(|e| format!("writing the trace: {e}"))?;
        (metrics, true)
    } else {
        let timed = closed_loop(
            &mut system,
            &plan,
            &oracle,
            Phase {
                seconds,
                min_jobs: MIN_TIMED_JOBS,
                cover_pool: true,
                traced: false,
            },
            &next,
            epoch,
        );
        tally(&timed);
        let n = timed.latencies.len();
        let (feasible_rate, success_rate) = oracle.rates(&plan);
        eprintln!(
            "{} jobs in {:.2} s over {} distinct jobs; median set-up {:.6} s",
            n,
            timed.wall,
            plan.jobs.len(),
            nearest_rank(&setup_times, 0.5).expect("set-up ran")
        );
        let metrics = vec![
            ("jobs_per_s", timed.jobs_per_s()),
            (
                "latency_p50_ms",
                ms(nearest_rank(&timed.latencies, 0.5).unwrap_or(0.0)),
            ),
            (
                "latency_p90_ms",
                ms(nearest_rank(&timed.latencies, 0.9).unwrap_or(0.0)),
            ),
            ("success_rate", success_rate),
            ("feasible_rate", feasible_rate),
            (
                "completion_rate",
                (timed.attempted - timed.failed) as f64 / timed.attempted.max(1) as f64,
            ),
            (
                "setup_s",
                nearest_rank(&setup_times, 0.5).expect("set-up ran"),
            ),
            ("peak_rss_mb", peak_rss_mb()?),
        ];
        let units: BTreeMap<&str, &str> = END_TO_END.into_iter().collect();
        let metrics = metrics
            .into_iter()
            .map(|(name, v)| (name.to_string(), v, units[name]))
            .collect();
        (metrics, timed.covered && tail_is_supported(n, 0.9))
    };
    system.shut_down();

    for e in &errors {
        eprintln!("failure: {e}");
    }
    let finite = metrics
        .iter()
        .all(|(_, v, _): &(String, f64, &str)| v.is_finite());
    Ok(Report {
        correct: failed == 0 && complete && finite,
        attempted,
        failed,
        metrics,
    })
}

/// Registry counters accumulated over the traced phase.
struct RegistryDelta {
    workers: Option<Snapshot>,
    coordinator: Option<Snapshot>,
}

fn delta(after: Option<Snapshot>, before: Option<Snapshot>) -> Option<Snapshot> {
    let (after, before) = (after?, before?);
    let mut out = Snapshot::default();
    for (name, v) in &after.counters {
        let d = v - before.counter(name).unwrap_or(0);
        out.counters.insert(name.clone(), d);
    }
    for (name, h) in &after.histograms {
        let d = match before.histogram(name) {
            Some(b) => histogram_delta(h, b),
            None => h.clone(),
        };
        out.histograms.insert(name.clone(), d);
    }
    Some(out)
}

/// What the traced run hands to the per-layer reduction.
struct LayerInputs<'a> {
    /// Where the spans are written when the run ends.
    trace_file: String,
    plain: &'a PhaseResult,
    traced: &'a PhaseResult,
    replays: ReplayLog,
    counters: RegistryDelta,
}

/// Spans that contain other layers' work and so are no layer of their
/// own in the self-time ranking.
fn is_outer(name: &str) -> bool {
    [
        "bench.",
        "core.solve_ms",
        "core.batch_ms",
        "net.submit_ms",
        "net.wait_fetch_ms",
        "net.coordinator_run_ms",
    ]
    .iter()
    .any(|p| name.starts_with(p))
}

impl LayerInputs<'_> {
    fn metrics(self) -> std::io::Result<Vec<(String, f64, &'static str)>> {
        let replayed: BTreeSet<u64> = self.replays.jobs.iter().copied().collect();
        // One span list: the traced jobs, then the replays.
        let mut merged = self
            .traced
            .tracer
            .clone()
            .expect("traced phase records spans");
        merged.absorb(self.replays.tracer);
        let all = merged.spans();
        let self_all = self_times(all);
        write_spans(std::path::Path::new(&self.trace_file), all, &self_all)?;
        eprintln!("spans written to {}", self.trace_file);
        let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (span, &t) in all.iter().zip(&self_all) {
            by_name.entry(&span.name).or_default().push(t);
        }
        let samples = |name: &str| -> Vec<f64> {
            by_name
                .get(name)
                .map(|v| v.iter().map(|&s| ms(s)).collect())
                .unwrap_or_default()
        };

        let mut values: BTreeMap<String, f64> = BTreeMap::new();
        let put_timing =
            |values: &mut BTreeMap<String, f64>, name: &str, p50: f64, p90: f64, n: usize| {
                values.insert(format!("{name}.p50"), p50);
                values.insert(format!("{name}.p90"), p90);
                values.insert(format!("{name}.n"), n as f64);
            };
        let put_samples = |values: &mut BTreeMap<String, f64>, name: &str, xs: &[f64]| {
            let q = |p| nearest_rank(xs, p).unwrap_or(0.0);
            put_timing(values, name, q(0.5), q(0.9), xs.len());
        };

        for name in UNTAGGED_MS {
            put_samples(&mut values, name, &samples(name));
        }
        // The workers' submit-to-fetch histogram, and client latency
        // minus it, quantile by quantile.
        let [service_name, overhead_name] = SERVICE_MS;
        match self
            .counters
            .workers
            .as_ref()
            .and_then(|w| w.histogram("timing.service.submit_to_fetch_seconds"))
            .filter(|h| h.count() > 0)
        {
            Some(h) => {
                let (s50, s90) = (
                    ms(histogram_quantile(h, 0.5)),
                    ms(histogram_quantile(h, 0.9)),
                );
                put_timing(&mut values, service_name, s50, s90, h.count() as usize);
                let latencies: Vec<f64> = self.traced.latencies.iter().map(|&s| ms(s)).collect();
                let q = |p| nearest_rank(&latencies, p).unwrap_or(0.0);
                put_timing(
                    &mut values,
                    overhead_name,
                    q(0.5) - s50,
                    q(0.9) - s90,
                    latencies.len(),
                );
            }
            None => {
                put_timing(&mut values, service_name, 0.0, 0.0, 0);
                put_timing(&mut values, overhead_name, 0.0, 0.0, 0);
            }
        }
        for name in TAGGED_MS {
            for tag in TAGS {
                let full = format!("{name}.{tag}");
                put_samples(&mut values, &full, &samples(&full));
            }
        }
        put_samples(&mut values, "net.frame_bytes", &self.replays.frame_bytes);

        for tag in TAGS {
            let totals = self.replays.anneal.get(tag).copied().unwrap_or_default();
            let run_s: f64 = by_name
                .get(format!("anneal.run_ms.{tag}").as_str())
                .map_or(0.0, |v| v.iter().sum());
            let iters = totals.iterations as f64;
            let ratio = |x: u64| {
                if totals.iterations == 0 {
                    0.0
                } else {
                    x as f64 / iters
                }
            };
            values.insert(
                format!("anneal.iters_per_s.{tag}"),
                if run_s > 0.0 { iters / run_s } else { 0.0 },
            );
            values.insert(format!("anneal.accept_ratio.{tag}"), ratio(totals.accepted));
            values.insert(
                format!("anneal.filter_reject_ratio.{tag}"),
                ratio(totals.rejected_infeasible),
            );
        }

        let counter = |snap: &Option<Snapshot>, name: &str| {
            snap.as_ref().and_then(|s| s.counter(name)).unwrap_or(0) as f64
        };
        let frames = counter(&self.counters.workers, "net.frames_in")
            + counter(&self.counters.workers, "net.frames_out");
        values.insert(
            "net.frames_per_job".into(),
            frames / self.traced.attempted.max(1) as f64,
        );
        values.insert(
            "net.shard_retries".into(),
            counter(&self.counters.coordinator, "coord.shard_retries"),
        );
        values.insert(
            "net.shards_local".into(),
            counter(&self.counters.coordinator, "coord.shards_local"),
        );

        // Shares of per-solve time, over the replayed solves.
        let total = |prefix: &str| -> f64 {
            by_name
                .iter()
                .filter(|(n, _)| n.starts_with(prefix))
                .map(|(_, v)| v.iter().sum::<f64>())
                .sum()
        };
        let solve_s: f64 = all
            .iter()
            .filter(|s| s.name.starts_with("core.solve_ms"))
            .map(Span::duration)
            .sum();
        let share = |x: f64, of: f64| if of > 0.0 { x / of } else { 0.0 };
        values.insert(
            "core.fabricate_share".into(),
            share(total("core.fabricate_ms"), solve_s),
        );
        values.insert(
            "anneal.run_share".into(),
            share(total("anneal.run_ms"), solve_s),
        );

        // Shares of job latency, over the replayed jobs. Work done on
        // several threads at once (batch threads, shards on different
        // workers) can add up to more than the latency it stands in.
        let replayed_latency: f64 = all
            .iter()
            .filter(|s| s.name == "bench.job" && replayed.contains(&s.job))
            .map(Span::duration)
            .sum();
        let mut layer_self: BTreeMap<&str, f64> = BTreeMap::new();
        for (span, &t) in all.iter().zip(&self_all) {
            if replayed.contains(&span.job) && !is_outer(&span.name) {
                *layer_self.entry(&span.name).or_default() += t;
            }
        }
        let latency_share = |t: f64| share(t, replayed_latency);
        values.insert(
            "net.json_parse_share".into(),
            latency_share(layer_self.get("net.json_parse_ms").copied().unwrap_or(0.0)),
        );
        values.insert(
            "bench.trace_overhead_ratio".into(),
            share(self.traced.jobs_per_s(), self.plain.jobs_per_s()),
        );

        let mut ranking: Vec<(&str, f64)> = layer_self.into_iter().collect();
        ranking.sort_by(|a, b| b.1.total_cmp(&a.1));
        eprintln!(
            "self-time share of job latency over {} replayed jobs:",
            replayed.len()
        );
        for (name, t) in &ranking {
            eprintln!("  {:<32} {:>7.2}%", name, 100.0 * latency_share(*t));
        }
        eprintln!(
            "per-solve shares: fabricate {:.2}%, run_annealing {:.2}%",
            100.0 * values["core.fabricate_share"],
            100.0 * values["anneal.run_share"]
        );

        Ok(per_layer()
            .into_iter()
            .map(|(name, unit, _)| {
                let v = values
                    .get(&name)
                    .copied()
                    .unwrap_or_else(|| panic!("per-layer metric {name} not computed"));
                (name, v, unit)
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let names: Vec<String> = END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .chain(per_layer().into_iter().map(|(n, _, _)| n))
            .collect();
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let unique: BTreeSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
        }
    }

    /// `BENCHMARK.json` declares exactly the metrics the program
    /// reports, in the same order, with the same units and directions.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        // One entry per line: (name, unit, better).
        let section = |key: &str| -> Vec<(String, String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let body = &text[start..];
            let field = |line: &str, f: &str| -> String {
                line.split(&format!("\"{f}\": \""))
                    .nth(1)
                    .map(|rest| rest[..rest.find('"').expect("value closes")].to_string())
                    .unwrap_or_default()
            };
            body[..body.find(']').expect("section closes")]
                .lines()
                .filter(|l| l.contains("\"name\""))
                .map(|l| (field(l, "name"), field(l, "unit"), field(l, "better")))
                .collect()
        };
        let better = |higher: bool| if higher { "higher" } else { "lower" }.to_string();
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let declared: Vec<String> = section("end_to_end").into_iter().map(|e| e.0).collect();
        assert_eq!(declared, e2e);
        for ((_, unit, _), (_, want)) in section("end_to_end").iter().zip(END_TO_END) {
            assert_eq!(unit, want);
        }
        let layers: Vec<(String, String, String)> = per_layer()
            .into_iter()
            .map(|(n, u, h)| (n, u.to_string(), better(h)))
            .collect();
        assert_eq!(section("per_layer"), layers);
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        let declared: Vec<String> = section("workloads").into_iter().map(|e| e.0).collect();
        assert_eq!(declared, workloads);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let report = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s".into(), 0.25, "s")],
        };
        assert_eq!(
            report.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
