//! # fabricsim-bench — the benchmark harness
//!
//! Two entry points:
//!
//! * the **`experiments` binary** (`cargo run -p fabricsim-bench --release
//!   --bin experiments -- all`) regenerates every table and figure of the
//!   paper, writing `results/*.csv` and printing the text tables recorded in
//!   `EXPERIMENTS.md`;
//! * the **micro benches** (`cargo bench --bench micro`) time single hot
//!   primitives (SHA-256, Schnorr, policy evaluation, MVCC, block cutting,
//!   Raft/Kafka steps, ledger commit, the DES kernel). They run on the
//!   dependency-free [`microbench`] harness so `cargo bench` works in offline
//!   build environments (no Criterion).
//!
//! Whole runs are timed by one driver only, the standalone `benchmark/`
//! workspace that `BENCHMARK.json` declares.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::Path;

use fabricsim::report::{to_csv, Row};

/// Writes rows as CSV under `results/<name>.csv` (creating the directory).
///
/// # Panics
/// Panics on I/O errors — the harness wants loud failures.
pub fn write_csv(results_dir: &Path, name: &str, rows: &[Row]) {
    #[expect(
        clippy::expect_used,
        reason = "harness entry point: an unwritable results dir is fatal by design"
    )]
    fs::create_dir_all(results_dir).expect("create results dir");
    let path = results_dir.join(format!("{name}.csv"));
    fs::write(&path, to_csv(rows)).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

/// A dependency-free micro-benchmark harness (Criterion cannot be fetched in
/// the offline build environment). Each bench target declares
/// `harness = false` and drives this module from its own `main`.
///
/// Timing protocol: batches of iterations are grown until one batch costs at
/// least ~5 ms of wall clock, then up to 25 batches are sampled within a
/// fixed per-bench budget and the median batch is reported. Medians make the
/// numbers robust to scheduler noise without Criterion's full bootstrap.
pub mod microbench {
    use std::hint::black_box;
    use std::time::Duration;

    use fabricsim::obs::WallClock;

    /// One reported measurement.
    #[derive(Debug, Clone)]
    pub struct Measurement {
        /// Bench name (`group/function`).
        pub name: String,
        /// Median per-iteration cost, nanoseconds.
        pub median_ns: f64,
        /// Fastest observed batch, nanoseconds per iteration.
        pub min_ns: f64,
        /// Slowest observed batch, nanoseconds per iteration.
        pub max_ns: f64,
        /// Total iterations executed while sampling.
        pub iters: u64,
    }

    /// Runner carrying the CLI filter (`cargo bench -- <substring>`).
    pub struct Runner {
        filter: Option<String>,
        budget: Duration,
        results: Vec<Measurement>,
    }

    impl Runner {
        /// Builds a runner from `std::env::args`, ignoring harness flags that
        /// `cargo bench` forwards (`--bench`, `--exact`, ...).
        pub fn from_args() -> Self {
            let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
            Runner {
                filter,
                budget: Duration::from_millis(300),
                results: Vec::new(),
            }
        }

        /// Caps the sampling budget per bench (default 300 ms).
        pub fn with_budget(mut self, budget: Duration) -> Self {
            self.budget = budget;
            self
        }

        /// Times `f`, printing one line in `name ... N ns/iter` form. Skipped
        /// (with no output) when the name does not match the CLI filter.
        pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
            if let Some(filter) = &self.filter {
                if !name.contains(filter.as_str()) {
                    return;
                }
            }
            // Grow the batch until it is long enough to time reliably.
            let mut batch: u64 = 1;
            loop {
                let t = WallClock::start();
                for _ in 0..batch {
                    black_box(f());
                }
                if t.elapsed_s() >= 0.005 || batch >= 1 << 24 {
                    break;
                }
                batch = (batch * 4).min(1 << 24);
            }
            // Sample batches within the budget.
            let mut per_iter_ns: Vec<f64> = Vec::new();
            let mut iters = 0u64;
            let start = WallClock::start();
            while per_iter_ns.len() < 25
                && (per_iter_ns.is_empty() || start.elapsed_s() < self.budget.as_secs_f64())
            {
                let t = WallClock::start();
                for _ in 0..batch {
                    black_box(f());
                }
                per_iter_ns.push(t.elapsed_s() * 1e9 / batch as f64);
                iters += batch;
            }
            per_iter_ns.sort_by(f64::total_cmp);
            let m = Measurement {
                name: name.to_string(),
                median_ns: per_iter_ns[per_iter_ns.len() / 2],
                min_ns: per_iter_ns[0],
                max_ns: per_iter_ns[per_iter_ns.len() - 1],
                iters,
            };
            println!(
                "{:<44} {:>14} ns/iter  (min {:>12}, max {:>12}, {} iters)",
                m.name,
                fmt_ns(m.median_ns),
                fmt_ns(m.min_ns),
                fmt_ns(m.max_ns),
                m.iters
            );
            self.results.push(m);
        }

        /// All measurements taken so far.
        pub fn results(&self) -> &[Measurement] {
            &self.results
        }
    }

    fn fmt_ns(ns: f64) -> String {
        if ns >= 1e6 {
            format!("{:.1}", ns)
        } else if ns >= 100.0 {
            format!("{:.0}", ns)
        } else {
            format!("{:.2}", ns)
        }
    }
}
