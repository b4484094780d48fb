//! Minimal wall-clock micro-benchmark harness.
//!
//! The bench targets (`benches/*.rs`, built with `harness = false`) use
//! this instead of an external benchmarking crate: each named benchmark
//! is auto-calibrated to a batch size large enough to time reliably,
//! sampled several times, and summarized as min/mean ns per iteration.
//! With `--json` the collected timings render as a versioned
//! [`Kind::Run`] report instead of the text table. The host-time gates
//! (`perf_gate`, `profile_gate`) time with [`min_ns`] and
//! [`min_ns_interleaved`].

use std::hint::black_box;
use std::time::Instant;

use telemetry::{Json, Kind, Report};

/// Timing summary of one named benchmark.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Benchmark name.
    pub name: String,
    /// Iterations per sampled batch.
    pub iters: u64,
    /// Fastest sampled batch, in ns per iteration.
    pub min_ns: f64,
    /// Mean over sampled batches, in ns per iteration.
    pub mean_ns: f64,
}

/// A collection of benchmarks run by one bench binary.
pub struct Harness {
    tool: &'static str,
    json: bool,
    results: Vec<Timing>,
}

const BATCH_TARGET_NANOS: u128 = 10_000_000; // 10 ms per sampled batch
const MAX_ITERS: u64 = 1 << 24;
const SAMPLES: usize = 5;

/// Gate batches are shorter: a gate times many pairs.
const GATE_TARGET_NANOS: u128 = 5_000_000; // 5 ms per sampled batch
const GATE_MAX_ITERS: u64 = 1 << 22;

/// Batch size that makes one sample of `f` take at least `target` ns,
/// capped at `max_iters`.
fn calibrate<T>(f: &mut impl FnMut() -> T, target: u128, max_iters: u64) -> u64 {
    let mut iters: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let dt = t.elapsed().as_nanos().max(1);
        if dt >= target || iters >= max_iters {
            return iters;
        }
        // Scale towards the target with headroom, at least doubling.
        let scale = (target * 2 / dt) as u64;
        iters = iters.saturating_mul(scale.max(2)).min(max_iters);
    }
}

/// ns per call of `f` over one batch of `iters` calls.
fn sample<T>(f: &mut impl FnMut() -> T, iters: u64) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// Fastest observed ns per call of `f` over `samples` batches of about
/// 5 ms.
pub fn min_ns<T>(mut f: impl FnMut() -> T, samples: usize) -> f64 {
    let iters = calibrate(&mut f, GATE_TARGET_NANOS, GATE_MAX_ITERS);
    (0..samples)
        .map(|_| sample(&mut f, iters))
        .fold(f64::INFINITY, f64::min)
}

/// ns per call of `a` and of `b` in each of `samples` alternating
/// batches, in order: one `(a, b)` pair per batch pair. Interleaving
/// matters on shared machines: a throttling episode hits both sides of
/// a pair instead of biasing whichever ran second.
pub fn pairs_ns_interleaved<T, U>(
    mut a: impl FnMut() -> T,
    mut b: impl FnMut() -> U,
    samples: usize,
) -> Vec<(f64, f64)> {
    let ia = calibrate(&mut a, GATE_TARGET_NANOS, GATE_MAX_ITERS);
    let ib = calibrate(&mut b, GATE_TARGET_NANOS, GATE_MAX_ITERS);
    (0..samples)
        .map(|_| (sample(&mut a, ia), sample(&mut b, ib)))
        .collect()
}

/// Fastest observed ns per call of `a` and of `b` over `samples`
/// alternating batches ([`pairs_ns_interleaved`]). The two minima are
/// taken independently, so their ratio is only as stable as the host:
/// noise that slows one side's every batch moves it either way.
pub fn min_ns_interleaved<T, U>(
    a: impl FnMut() -> T,
    b: impl FnMut() -> U,
    samples: usize,
) -> (f64, f64) {
    pairs_ns_interleaved(a, b, samples)
        .into_iter()
        .fold((f64::INFINITY, f64::INFINITY), |(x, y), (a, b)| {
            (x.min(a), y.min(b))
        })
}

impl Harness {
    /// Creates a harness for the bench binary `tool`, parsing its
    /// arguments with [`crate::gate::args`]: `--json`, plus the `--bench`
    /// that `cargo bench` passes.
    pub fn new(tool: &'static str) -> Harness {
        Harness {
            tool,
            json: crate::gate::args(tool, &["--bench"]).json,
            results: Vec::new(),
        }
    }

    /// Times `f`, printing one result line immediately (unless in
    /// `--json` mode, where results are held for [`Harness::finish`]).
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) {
        let iters = calibrate(&mut f, BATCH_TARGET_NANOS, MAX_ITERS);
        let per_iter: Vec<f64> = (0..SAMPLES).map(|_| sample(&mut f, iters)).collect();
        let mean_ns = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
        let min_ns = per_iter.iter().copied().fold(f64::INFINITY, f64::min);
        if !self.json {
            println!("{name:<32} {min_ns:>12.1} ns/iter (min)  {mean_ns:>12.1} ns/iter (mean)");
        }
        self.results.push(Timing {
            name: name.to_string(),
            iters,
            min_ns,
            mean_ns,
        });
    }

    /// The timings collected so far.
    pub fn results(&self) -> &[Timing] {
        &self.results
    }

    /// In `--json` mode, renders the collected timings as a
    /// [`Kind::Run`] report on stdout; otherwise a no-op (lines were
    /// already printed).
    pub fn finish(&self) {
        if !self.json {
            return;
        }
        let rows: Vec<Json> = self
            .results
            .iter()
            .map(|t| {
                Json::obj(vec![
                    ("name", t.name.clone().into()),
                    ("iters", t.iters.into()),
                    ("min_ns", t.min_ns.into()),
                    ("mean_ns", t.mean_ns.into()),
                ])
            })
            .collect();
        let config = Json::obj(vec![("samples", (SAMPLES as u64).into())]);
        let metrics = Json::obj(vec![("benchmarks", Json::Arr(rows))]);
        let report = Report::new(
            Kind::Run,
            self.tool,
            config,
            [("metrics", metrics), ("derived", Json::obj(vec![]))],
        );
        println!("{}", report.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_records_positive_timings() {
        let mut h = Harness {
            tool: "test",
            json: true, // suppress printing
            results: Vec::new(),
        };
        let mut acc = 0u64;
        h.bench("spin", || {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            acc
        });
        let t = &h.results()[0];
        assert!(t.min_ns > 0.0 && t.mean_ns >= t.min_ns);
        assert!(t.iters >= 1);
    }

    #[test]
    fn interleaved_pairs_come_one_per_sample() {
        let pairs = pairs_ns_interleaved(|| black_box(1u64) + 1, || black_box(2u64) * 3, 4);
        assert_eq!(pairs.len(), 4);
        assert!(pairs.iter().all(|&(a, b)| a > 0.0 && b > 0.0));
    }
}
