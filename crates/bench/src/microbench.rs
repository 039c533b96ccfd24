//! Minimal wall-clock micro-benchmark harness.
//!
//! A zero-dependency stand-in for Criterion so `cargo bench` works in a
//! hermetic (offline) build: each benchmark is auto-calibrated to a small
//! time budget, sampled several times, and reported as min/median/max
//! time per iteration on stdout (plus the median ns/byte when a byte
//! throughput is set).

use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Opaque value barrier — keeps the optimizer from deleting benched work.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Per-sample time budget a benchmark is calibrated against.
const SAMPLE_BUDGET: Duration = Duration::from_millis(200);

/// A named group of benchmarks, mirroring Criterion's `benchmark_group`.
pub struct BenchGroup {
    name: String,
    samples: usize,
    bytes: Option<usize>,
}

impl BenchGroup {
    /// Starts a group; results are printed as `group/benchmark`.
    pub fn new(name: &str) -> BenchGroup {
        BenchGroup {
            name: name.to_string(),
            samples: 7,
            bytes: None,
        }
    }

    /// Overrides the number of timed samples (default 7).
    pub fn sample_size(&mut self, samples: usize) -> &mut BenchGroup {
        self.samples = samples.max(1);
        self
    }

    /// Sets the bytes one iteration of the following benchmarks handles,
    /// so each also reports its median ns/byte (Criterion's
    /// `Throughput::Bytes`).
    pub fn throughput_bytes(&mut self, bytes: usize) -> &mut BenchGroup {
        self.bytes = Some(bytes);
        self
    }

    /// Times `f`, printing per-iteration statistics.
    ///
    /// The closure result is passed through [`black_box`] so the work is
    /// not optimized away.
    pub fn bench<R>(&mut self, id: &str, mut f: impl FnMut() -> R) {
        // Warm-up + calibration: grow the iteration count until one
        // batch costs a measurable fraction of the sample budget.
        let mut iters = 1usize;
        let per_iter = loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= SAMPLE_BUDGET / 10 || iters >= 1 << 20 {
                break elapsed / iters as u32;
            }
            iters *= 4;
        };
        let iters = if per_iter.is_zero() {
            iters
        } else {
            (SAMPLE_BUDGET.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1 << 20) as usize
        };
        let mut times: Vec<Duration> = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                start.elapsed() / iters as u32
            })
            .collect();
        times.sort();
        let median = times[times.len() / 2];
        let throughput = match self.bytes {
            Some(bytes) => format!(
                ", {:.3} ns/byte over {bytes} bytes",
                median.as_nanos() as f64 / bytes.max(1) as f64
            ),
            None => String::new(),
        };
        println!(
            "{}/{}: median {:>12?}  (min {:?}, max {:?}; {} samples x {} iters{throughput})",
            self.name,
            id,
            median,
            times[0],
            times[times.len() - 1],
            self.samples,
            iters,
        );
    }

    /// Ends the group (kept for call-site symmetry with Criterion).
    pub fn finish(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        let mut g = BenchGroup::new("selftest");
        g.sample_size(2).throughput_bytes(8);
        let mut calls = 0u64;
        g.bench("count", || {
            calls += 1;
            calls
        });
        g.finish();
        assert!(calls > 0);
    }
}
