//! In-memory spans and the statistics the report is made of: self
//! time over a span tree, nearest-rank percentiles, and quantiles of
//! the workers' power-of-two histograms.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! library (nothing inside the program is instrumented), kept in a
//! `Vec`, and reduced once the run ends.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use hycim_obs::HistogramSnapshot;

/// One timed call: a name, its interval in seconds since the tracer's
/// epoch, the span that caused it, and the job it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub job: u64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A per-thread span recorder. Span ids are indices into its list.
#[derive(Clone)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span starting now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>, job: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name: name.into(),
            start,
            end: start,
            parent,
            job,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, job);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans (same epoch), re-basing their
    /// parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that the union of its children's intervals covers
/// (children may overlap each other, or run past their parent).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(span, kids)| {
            let mut intervals: Vec<(f64, f64)> = kids
                .iter()
                .map(|&k| (spans[k].start.max(span.start), spans[k].end.min(span.end)))
                .filter(|(a, b)| b > a)
                .collect();
            intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut current: Option<(f64, f64)> = None;
            for (a, b) in intervals {
                match current {
                    Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        current = Some((a, b));
                    }
                    None => current = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = current {
                covered += cb - ca;
            }
            (span.duration() - covered).max(0.0)
        })
        .collect()
}

/// Writes spans as JSON lines, one per span with its id (its line
/// number from 0), parent id and self time (from [`self_times`]);
/// times in seconds.
pub fn write_spans(path: &Path, spans: &[Span], self_s: &[f64]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(File::create(path)?);
    for (id, (s, self_s)) in spans.iter().zip(self_s).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {id}, \"parent\": {parent}, \"job\": {}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"self_s\": {self_s}}}",
            s.job, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

/// The nearest-rank `q`-quantile of `samples` (the smallest sample
/// with at least `q·n` samples at or below it); `None` when empty.
pub fn nearest_rank(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Whether the nearest-rank `q`-quantile of `n` samples has at least
/// ten samples beyond it — the condition for reporting that
/// percentile as a tail latency.
pub fn tail_is_supported(n: usize, q: f64) -> bool {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n >= rank + 10
}

/// The `q`-quantile of a worker histogram snapshot. The snapshot
/// holds only power-of-two bucket counts, so the nearest-rank sample
/// is placed inside its bucket by geometric interpolation between the
/// bucket edges. Returns 0 for an empty histogram.
pub fn histogram_quantile(hist: &HistogramSnapshot, q: f64) -> f64 {
    let n = hist.count();
    if n == 0 {
        return 0.0;
    }
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let mut before = 0u64;
    for (i, &count) in hist.buckets.iter().enumerate() {
        if before + count >= rank {
            let frac = ((rank - before) as f64 - 0.5) / count as f64;
            if i == 0 {
                return HistogramSnapshot::edge(0) * frac;
            }
            let lo = HistogramSnapshot::edge(i - 1);
            if i >= hist.buckets.len() - 1 {
                return lo; // overflow bucket: no upper edge
            }
            let hi = HistogramSnapshot::edge(i);
            return lo * (hi / lo).powf(frac);
        }
        before += count;
    }
    unreachable!("the cumulative count reaches n")
}

/// Bucket-wise `after - before` of two snapshots of one histogram.
pub fn histogram_delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        buckets: after
            .buckets
            .iter()
            .enumerate()
            .map(|(i, a)| a - before.buckets.get(i).copied().unwrap_or(0))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
            job: 0,
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&samples, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&samples, 0.9), Some(90.0));
        assert_eq!(nearest_rank(&samples, 1.0), Some(100.0));
        assert_eq!(nearest_rank(&samples, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[7.0, 3.0, 5.0], 0.5), Some(5.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(tail_is_supported(100, 0.9));
        assert!(!tail_is_supported(99, 0.9));
        assert!(!tail_is_supported(50, 0.9));
        assert!(tail_is_supported(1000, 0.99));
        assert!(!tail_is_supported(999, 0.99));
        assert!(!tail_is_supported(0, 0.5));
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("b", 3.0, 6.0, Some(0)),  // overlaps a: union 1..6
            span("c", 8.0, 12.0, Some(0)), // runs past the parent: 8..10 counts
            span("a.1", 1.5, 2.0, Some(1)),
        ];
        let t = self_times(&spans);
        assert!((t[0] - 3.0).abs() < 1e-12, "root {}", t[0]);
        assert!((t[1] - 2.5).abs() < 1e-12, "a {}", t[1]);
        assert!((t[2] - 3.0).abs() < 1e-12);
        assert!((t[3] - 4.0).abs() < 1e-12);
        assert!((t[4] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let root = a.open("x", None, 1);
        a.close(root);
        let mut b = Tracer::new(epoch);
        let r = b.open("y", None, 2);
        b.time("z", Some(r), 2, || ());
        b.close(r);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[2].job, 2);
    }

    #[test]
    fn histogram_quantiles_stay_inside_their_bucket() {
        let h = hycim_obs::Histogram::new();
        for _ in 0..10 {
            h.record(0.003);
        }
        let snap = h.snapshot();
        let q = histogram_quantile(&snap, 0.5);
        let (lo, hi) = snap.quantile_bounds(0.5);
        assert!(q > lo && q <= hi, "{lo} < {q} <= {hi}");
        let before = snap.clone();
        h.record(0.5);
        let delta = histogram_delta(&h.snapshot(), &before);
        assert_eq!(delta.count(), 1);
        assert!(histogram_quantile(&delta, 0.5) > 0.25);
        assert_eq!(histogram_quantile(&HistogramSnapshot::empty(), 0.5), 0.0);
    }
}
