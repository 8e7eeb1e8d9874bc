//! Machine-readable perf-regression harness (`fabricsim bench`).
//!
//! Runs a fixed scenario matrix (offered-load sweep × validator-pool width),
//! records both *simulated* metrics (committed throughput, mean end-to-end
//! latency — fully deterministic given the seed) and *wall-clock* cost of
//! each run, and writes them as a stable-schema JSON baseline
//! (`BENCH_fabricsim.json` at the repo root). CI re-runs the matrix and
//! fails on regressions beyond the tolerance band.
//!
//! **Replication** (`--seeds N`, schema v3): each scenario is run under `N`
//! consecutive seeds and the report records per-metric mean/stddev plus the
//! per-seed runs. Simulated metrics are seed-*varying* but deterministic
//! *per seed* — re-running the same seeds reproduces them byte-for-byte —
//! so their stddev measures genuine cross-seed spread, while the wall-clock
//! stddev measures host noise. [`compare`] uses both: the tolerance band on
//! every metric is `max(tolerance × baseline mean, K_SIGMA × stddev)`, so a
//! metric that legitimately varies across seeds is not flagged for sitting
//! inside its own noise.
//!
//! Wall clock is noisy across machines, so every report also carries a
//! [`calibration`](BenchReport::calibration_ms) measurement: the wall cost
//! of a fixed, deterministic CPU workload on the machine that produced the
//! report. Comparisons normalize wall-clock by the calibration ratio, so a
//! baseline recorded on a fast CI runner doesn't flag a slower laptop (and
//! vice versa). Runs cheaper than [`WALL_FLOOR_MS`] are never compared on
//! wall clock at all — they are dominated by noise. Every check that is
//! skipped (sub-floor, oversubscribed workers) is listed in
//! [`Comparison::skipped`] with its reason, so a passing perf job shows
//! what was *not* checked.

use std::fmt;
use std::hint::black_box;

use fabricsim::obs::json::escape;
use fabricsim::obs::{Json, WallClock};
use fabricsim::{OrdererType, PolicySpec, SimConfig, Simulation};

/// Schema version of the baseline JSON. Bump on incompatible change.
/// v2: scenarios carry `channels` and `sim_workers` (sharded-engine matrix).
/// v3: multi-seed replication — per-scenario `{mean, stddev}` stats plus the
/// per-seed `runs` list; the report carries `seeds`. The only version read;
/// anything else is [`BenchParseError::UnsupportedSchema`].
pub const BENCH_SCHEMA_VERSION: u64 = 3;

/// Baseline wall-clock floor (milliseconds): scenarios whose *baseline* wall
/// cost is below this are excluded from wall-clock comparison.
pub const WALL_FLOOR_MS: f64 = 100.0;

/// Default regression tolerance (fractional): fail beyond ±20%.
pub const DEFAULT_TOLERANCE: f64 = 0.20;

/// Sigma multiplier for the noise-aware tolerance band: a metric only fails
/// when it leaves `max(tolerance × mean, K_SIGMA × stddev)`.
pub const K_SIGMA: f64 = 3.0;

/// First seed of the replication range: seeds `BASE_SEED..BASE_SEED+N`.
pub const BASE_SEED: u64 = 42;

/// One point of the fixed scenario matrix.
#[derive(Debug, Clone)]
pub struct BenchScenario {
    /// Stable scenario name (key used to match baseline ↔ current).
    pub name: String,
    /// Offered load, transactions per second.
    pub offered_tps: f64,
    /// VSCC validator-pool width per committing peer.
    pub validator_pool: usize,
    /// Channel count of the deployment.
    pub channels: u32,
    /// OS threads the per-channel event loops run on (0 and 1 both mean
    /// one); simulated results do not depend on it.
    pub sim_workers: u32,
}

/// Mean and standard deviation of one metric over the seed replicas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// Arithmetic mean over the replicas.
    pub mean: f64,
    /// Population standard deviation over the replicas (0 for one replica).
    pub stddev: f64,
}

impl Stat {
    /// Computes mean/stddev of `samples` (population stddev; a baseline's
    /// replicas are the whole population of interest, not a sample of one).
    pub fn from_samples(samples: &[f64]) -> Stat {
        if samples.is_empty() {
            return Stat {
                mean: 0.0,
                stddev: 0.0,
            };
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
        Stat {
            mean,
            stddev: var.sqrt(),
        }
    }

    /// A single exactly-known value (single-seed runs).
    pub fn exact(v: f64) -> Stat {
        Stat {
            mean: v,
            stddev: 0.0,
        }
    }
}

/// The measured metrics of one scenario under one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedRun {
    /// RNG seed this replica ran with.
    pub seed: u64,
    /// Committed (validate-phase) throughput, tps. Deterministic per seed.
    pub committed_tps: f64,
    /// Mean end-to-end latency, seconds. Deterministic per seed.
    pub overall_latency_mean_s: f64,
    /// Wall-clock cost of the replica, milliseconds. Machine-dependent.
    pub wall_clock_ms: f64,
}

/// Measured result of one scenario (aggregated over its seed replicas).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Scenario name (matches [`BenchScenario::name`]).
    pub name: String,
    /// Offered load, tps.
    pub offered_tps: f64,
    /// Validator-pool width.
    pub validator_pool: usize,
    /// Channel count.
    pub channels: u32,
    /// Worker threads (0 and 1 both mean one).
    pub sim_workers: u32,
    /// [`SimConfig::digest`] of the scenario at [`BASE_SEED`] — detects
    /// silent scenario drift (the digest covers the seed, so replicas are
    /// identified by the base-seed digest).
    pub config_digest: String,
    /// Committed throughput over the replicas, tps.
    pub committed_tps: Stat,
    /// Mean end-to-end latency over the replicas, seconds.
    pub overall_latency_mean_s: Stat,
    /// Wall-clock cost over the replicas, milliseconds.
    pub wall_clock_ms: Stat,
    /// The per-seed replicas, in seed order.
    pub runs: Vec<SeedRun>,
}

/// A full bench report: calibration + every scenario result.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version ([`BENCH_SCHEMA_VERSION`] at write time).
    pub schema_version: u64,
    /// Wall cost of the fixed calibration workload on this machine, ms.
    pub calibration_ms: f64,
    /// Available parallelism on the machine that produced the report.
    /// Sharded scenarios whose worker count oversubscribes either machine
    /// are excluded from wall-clock comparison: an N-worker run on fewer
    /// than N cores measures scheduler luck, not engine cost.
    pub host_cores: usize,
    /// Which SHA-256 compression body produced the wall-clock numbers
    /// (`fabricsim_crypto::sha256_backend`): `"sha-ni"` or `"portable"`.
    /// Optional in the document — a report written before the field existed
    /// reads as `"portable"`, the only body there was. Simulated values do
    /// not depend on it; wall clock does, by about 2×, so [`compare`] skips
    /// every wall-clock check between reports that disagree.
    pub sha256_backend: String,
    /// Seed replicas per scenario ([`BASE_SEED`]`..BASE_SEED+seeds`).
    pub seeds: u64,
    /// Per-scenario results, in matrix order.
    pub scenarios: Vec<ScenarioResult>,
}

/// Why a baseline failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BenchParseError {
    /// The document is not valid JSON.
    Syntax(String),
    /// A required field is absent or has the wrong type.
    Field {
        /// Dotted path of the object holding the field (empty at the root).
        path: String,
        /// Which field, and what was wrong with it.
        detail: String,
    },
    /// The document's `schema_version` is not one this build understands.
    UnsupportedSchema {
        /// The version the document declared.
        found: u64,
    },
}

impl fmt::Display for BenchParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchParseError::Syntax(e) => write!(f, "invalid JSON: {e}"),
            BenchParseError::Field { path, detail } if path.is_empty() => write!(f, "{detail}"),
            BenchParseError::Field { path, detail } => write!(f, "{path}: {detail}"),
            BenchParseError::UnsupportedSchema { found } => write!(
                f,
                "unsupported schema_version {found} (this build reads \
                 v{BENCH_SCHEMA_VERSION}); regenerate with `fabricsim bench --out`"
            ),
        }
    }
}

impl std::error::Error for BenchParseError {}

/// One comparison that was skipped rather than checked, with its reason —
/// surfaced in both the human perf log and the `--json` output so a green
/// gate shows what it did not cover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedCheck {
    /// Scenario the skipped check belongs to.
    pub scenario: String,
    /// Which metric was not compared (e.g. `wall_clock_ms`).
    pub metric: String,
    /// Why it was skipped.
    pub reason: String,
}

/// Outcome of comparing a current report against a baseline.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Hard failures (regressions beyond the band). Non-empty ⇒ CI fails.
    pub failures: Vec<String>,
    /// Informational notes (digest drift, calibration ratio, speedups).
    pub notes: Vec<String>,
    /// Checks that were skipped, with reasons (sub-floor wall clock,
    /// oversubscribed sharded scenarios).
    pub skipped: Vec<SkippedCheck>,
}

impl Comparison {
    /// Compact JSON rendering of the comparison (stable key order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"failures\":[");
        let push_strings = |out: &mut String, items: &[String]| {
            for (i, s) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
        };
        push_strings(&mut out, &self.failures);
        out.push_str("],\"notes\":[");
        push_strings(&mut out, &self.notes);
        out.push_str("],\"skipped\":[");
        for (i, s) in self.skipped.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"scenario\":\"{}\",\"metric\":\"{}\",\"reason\":\"{}\"}}",
                escape(&s.scenario),
                escape(&s.metric),
                escape(&s.reason)
            ));
        }
        out.push_str("]}");
        out
    }
}

/// The fixed scenario matrix: offered-load sweep × validator-pool {1, 4},
/// plus a 4-channel point run at two worker counts.
///
/// Solo ordering with an AND5 endorsement policy keeps the VSCC stage
/// signature-heavy (the paper's validate bottleneck), so widening the pool
/// from 1 to 4 is visible in both throughput and wall clock. The
/// `ch4_r500_p4_w{1,4}` pair runs the same multi-channel deployment at 1
/// and 4 workers: identical simulated metrics and config digest (a worker
/// count only buys wall clock), and the wall-clock delta tracks the parallel
/// speedup on the recording machine.
pub fn scenario_matrix() -> Vec<BenchScenario> {
    let mut out = Vec::new();
    for &pool in &[1usize, 4] {
        for &rate in &[100.0f64, 250.0, 500.0] {
            out.push(BenchScenario {
                name: format!("solo_and5_r{rate:.0}_p{pool}"),
                offered_tps: rate,
                validator_pool: pool,
                channels: 1,
                sim_workers: 0,
            });
        }
    }
    for &workers in &[1u32, 4] {
        out.push(BenchScenario {
            name: format!("ch4_r500_p4_w{workers}"),
            offered_tps: 500.0,
            validator_pool: 4,
            channels: 4,
            sim_workers: workers,
        });
    }
    out
}

/// The exact [`SimConfig`] a scenario runs with under `seed`. Fixed
/// duration: the simulated metrics in the baseline are bit-reproducible per
/// seed.
pub fn scenario_config_seeded(s: &BenchScenario, seed: u64) -> SimConfig {
    let mut cfg = SimConfig {
        orderer_type: OrdererType::Solo,
        policy: PolicySpec::AndX(5),
        endorsing_peers: 10,
        arrival_rate_tps: s.offered_tps,
        duration_secs: 20.0,
        warmup_secs: 4.0,
        cooldown_secs: 2.0,
        seed,
        channels: s.channels,
        sim_workers: s.sim_workers,
        ..SimConfig::default()
    };
    cfg.cost.validator_pool_size = s.validator_pool;
    cfg
}

/// The scenario's configuration at [`BASE_SEED`] (the identity the
/// `config_digest` is computed from).
pub fn scenario_config(s: &BenchScenario) -> SimConfig {
    scenario_config_seeded(s, BASE_SEED)
}

/// Runs the fixed calibration workload and returns its wall cost in ms.
///
/// A pure-integer xorshift loop: deterministic, allocation-free, and scales
/// with single-core CPU speed the same way the DES event loop does.
pub fn calibrate() -> f64 {
    let start = WallClock::start();
    let mut x = 0x9e3779b97f4a7c15u64;
    for _ in 0..200_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed_s() * 1e3
}

/// Runs one scenario under one seed and measures it.
pub fn run_scenario_seeded(s: &BenchScenario, seed: u64) -> SeedRun {
    let cfg = scenario_config_seeded(s, seed);
    let start = WallClock::start();
    let result = Simulation::new(cfg).run_detailed();
    let wall_clock_ms = start.elapsed_s() * 1e3;
    let sum = &result.summary;
    SeedRun {
        seed,
        committed_tps: sum.validate.throughput_tps,
        overall_latency_mean_s: sum.overall_latency.mean_s,
        wall_clock_ms,
    }
}

/// Runs one scenario under `seeds` consecutive seeds starting at
/// [`BASE_SEED`] and aggregates the replicas.
///
/// # Panics
/// Panics if `seeds == 0`.
pub fn run_scenario(s: &BenchScenario, seeds: u64) -> ScenarioResult {
    assert!(seeds > 0, "at least one seed replica is required");
    let runs: Vec<SeedRun> = (BASE_SEED..BASE_SEED + seeds)
        .map(|seed| run_scenario_seeded(s, seed))
        .collect();
    aggregate_scenario(s, runs)
}

/// Builds a [`ScenarioResult`] from measured replicas.
fn aggregate_scenario(s: &BenchScenario, runs: Vec<SeedRun>) -> ScenarioResult {
    let stat =
        |f: fn(&SeedRun) -> f64| Stat::from_samples(&runs.iter().map(f).collect::<Vec<f64>>());
    ScenarioResult {
        name: s.name.clone(),
        offered_tps: s.offered_tps,
        validator_pool: s.validator_pool,
        channels: s.channels,
        sim_workers: s.sim_workers,
        config_digest: scenario_config(s).digest(),
        committed_tps: stat(|r| r.committed_tps),
        overall_latency_mean_s: stat(|r| r.overall_latency_mean_s),
        wall_clock_ms: stat(|r| r.wall_clock_ms),
        runs,
    }
}

/// Runs calibration plus the whole matrix with `seeds` replicas per
/// scenario.
///
/// # Panics
/// Panics if `seeds == 0`.
pub fn run_all(seeds: u64) -> BenchReport {
    let calibration_ms = calibrate();
    let scenarios = scenario_matrix()
        .iter()
        .map(|s| run_scenario(s, seeds))
        .collect();
    BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        calibration_ms,
        host_cores: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        sha256_backend: fabricsim_crypto::sha256_backend().to_string(),
        seeds,
        scenarios,
    }
}

impl BenchReport {
    /// Serializes the report as pretty-printed JSON (the baseline format,
    /// schema v3).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"schema_version\": {},\n  \"generator\": \"fabricsim bench\",\n  \"calibration_ms\": {},\n  \"host_cores\": {},\n  \"sha256_backend\": \"{}\",\n  \"seeds\": {},\n  \"scenarios\": [\n",
            self.schema_version,
            self.calibration_ms,
            self.host_cores,
            escape(&self.sha256_backend),
            self.seeds
        ));
        for (i, s) in self.scenarios.iter().enumerate() {
            let stat = |st: &Stat| format!("{{\"mean\": {}, \"stddev\": {}}}", st.mean, st.stddev);
            out.push_str(&format!(
                concat!(
                    "    {{\"name\": \"{}\", \"offered_tps\": {}, \"validator_pool\": {}, ",
                    "\"channels\": {}, \"sim_workers\": {}, \"config_digest\": \"{}\",\n",
                    "     \"committed_tps\": {}, \"overall_latency_mean_s\": {}, ",
                    "\"wall_clock_ms\": {},\n     \"runs\": ["
                ),
                s.name,
                s.offered_tps,
                s.validator_pool,
                s.channels,
                s.sim_workers,
                s.config_digest,
                stat(&s.committed_tps),
                stat(&s.overall_latency_mean_s),
                stat(&s.wall_clock_ms),
            ));
            for (j, r) in s.runs.iter().enumerate() {
                out.push_str(&format!(
                    "{{\"seed\": {}, \"committed_tps\": {}, \"overall_latency_mean_s\": {}, \"wall_clock_ms\": {}}}{}",
                    r.seed,
                    r.committed_tps,
                    r.overall_latency_mean_s,
                    r.wall_clock_ms,
                    if j + 1 < s.runs.len() { ", " } else { "" },
                ));
            }
            out.push_str(&format!(
                "]}}{}\n",
                if i + 1 < self.scenarios.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The deterministic portion of the report: every scenario's per-seed
    /// simulated metrics, rendered in a stable text form. Two invocations of
    /// the same build over the same seeds must produce byte-identical
    /// fingerprints (wall clock and calibration are excluded — they are the
    /// machine's, not the simulation's).
    pub fn sim_fingerprint(&self) -> String {
        let mut out = String::new();
        for s in &self.scenarios {
            for r in &s.runs {
                out.push_str(&format!(
                    "{} seed={} committed_tps={} overall_latency_mean_s={} digest={}\n",
                    s.name, r.seed, r.committed_tps, r.overall_latency_mean_s, s.config_digest
                ));
            }
        }
        out
    }

    /// Parses a baseline produced by [`BenchReport::to_json`] (schema v3).
    ///
    /// # Errors
    /// A typed [`BenchParseError`]: syntax, missing/mistyped field, or
    /// unsupported schema version.
    pub fn parse(text: &str) -> Result<BenchReport, BenchParseError> {
        // The `Json` accessors name the offending key; `at` adds the path of
        // the object that holds it.
        fn at(path: &str) -> impl Fn(String) -> BenchParseError + '_ {
            move |detail| BenchParseError::Field {
                path: path.to_string(),
                detail,
            }
        }
        let v = Json::parse(text).map_err(BenchParseError::Syntax)?;
        let root = at("");
        let schema_version = v.uint("schema_version").map_err(&root)?;
        if schema_version != BENCH_SCHEMA_VERSION {
            return Err(BenchParseError::UnsupportedSchema {
                found: schema_version,
            });
        }
        let mut scenarios = Vec::new();
        for (i, s) in v.array("scenarios").map_err(&root)?.iter().enumerate() {
            let path = format!("scenarios[{i}]");
            let e = at(&path);
            let stat = |k: &str| -> Result<Stat, BenchParseError> {
                let path = format!("{path}.{k}");
                let obj = s.get(k).unwrap_or(&Json::Null);
                Ok(Stat {
                    mean: obj.num("mean").map_err(at(&path))?,
                    stddev: obj.num("stddev").map_err(at(&path))?,
                })
            };
            let mut runs = Vec::new();
            for (j, r) in s.array("runs").map_err(&e)?.iter().enumerate() {
                let path = format!("{path}.runs[{j}]");
                let e = at(&path);
                runs.push(SeedRun {
                    seed: r.uint("seed").map_err(&e)?,
                    committed_tps: r.num("committed_tps").map_err(&e)?,
                    overall_latency_mean_s: r.num("overall_latency_mean_s").map_err(&e)?,
                    wall_clock_ms: r.num("wall_clock_ms").map_err(&e)?,
                });
            }
            scenarios.push(ScenarioResult {
                name: s.string("name").map_err(&e)?.to_string(),
                offered_tps: s.num("offered_tps").map_err(&e)?,
                validator_pool: s.uint("validator_pool").map_err(&e)?,
                channels: s.uint("channels").map_err(&e)?,
                sim_workers: s.uint("sim_workers").map_err(&e)?,
                config_digest: s.string("config_digest").map_err(&e)?.to_string(),
                committed_tps: stat("committed_tps")?,
                overall_latency_mean_s: stat("overall_latency_mean_s")?,
                wall_clock_ms: stat("wall_clock_ms")?,
                runs,
            });
        }
        Ok(BenchReport {
            schema_version,
            calibration_ms: v.num("calibration_ms").map_err(&root)?,
            host_cores: v.uint("host_cores").map_err(&root)?,
            sha256_backend: match v.get("sha256_backend") {
                None => "portable".to_string(),
                Some(_) => v.string("sha256_backend").map_err(&root)?.to_string(),
            },
            seeds: v.uint("seeds").map_err(&root)?,
            scenarios,
        })
    }
}

/// The noise-aware tolerance band around a baseline stat: the larger of the
/// flat fractional tolerance and [`K_SIGMA`] standard deviations (using the
/// wider of the two reports' spreads, so either side's noise widens it).
fn band(tolerance: f64, base: &Stat, cur_stddev: f64) -> f64 {
    (tolerance * base.mean.abs()).max(K_SIGMA * base.stddev.max(cur_stddev))
}

/// Compares `current` against `baseline` with a fractional `tolerance`.
///
/// * **Simulated throughput** (`committed_tps`) is deterministic per seed: a
///   drop beyond `max(tolerance × mean, K_SIGMA × stddev)` is a hard failure
///   on any machine.
/// * **Wall clock** is first normalized by the calibration ratio
///   (`baseline.calibration_ms / current.calibration_ms`), then compared
///   with the same noise-aware band; scenarios with a baseline wall cost
///   under [`WALL_FLOOR_MS`] are skipped, as is every scenario when the two
///   reports were hashed by different SHA-256 bodies
///   ([`BenchReport::sha256_backend`]), as are sharded scenarios whose
///   worker count exceeds either host's core count — an oversubscribed
///   spin-barrier run measures scheduler luck, not engine cost. Every skip
///   is recorded in [`Comparison::skipped`] with its reason.
/// * **Config-digest drift** means the scenario definition itself changed;
///   it is noted so a "pass" can't silently compare different experiments.
pub fn compare(baseline: &BenchReport, current: &BenchReport, tolerance: f64) -> Comparison {
    let mut cmp = Comparison::default();
    let speed_ratio = if current.calibration_ms > 0.0 {
        baseline.calibration_ms / current.calibration_ms
    } else {
        1.0
    };
    cmp.notes.push(format!(
        "calibration: baseline {:.0} ms, current {:.0} ms (normalizing wall clock by ×{:.3})",
        baseline.calibration_ms, current.calibration_ms, speed_ratio
    ));
    if baseline.seeds != current.seeds {
        cmp.notes.push(format!(
            "seed replicas differ (baseline {}, current {}); stddev bands still apply",
            baseline.seeds, current.seeds
        ));
    }
    for b in &baseline.scenarios {
        let Some(c) = current.scenarios.iter().find(|c| c.name == b.name) else {
            cmp.failures
                .push(format!("{}: scenario missing from current run", b.name));
            continue;
        };
        if b.config_digest != c.config_digest {
            cmp.notes.push(format!(
                "{}: config digest drifted ({} -> {}); simulated metrics not directly comparable",
                b.name, b.config_digest, c.config_digest
            ));
        }
        let tps_band = band(tolerance, &b.committed_tps, c.committed_tps.stddev);
        if c.committed_tps.mean < b.committed_tps.mean - tps_band {
            cmp.failures.push(format!(
                "{}: committed_tps regressed {:.1} -> {:.1} tps ({:+.1}%, band ±{:.1} tps)",
                b.name,
                b.committed_tps.mean,
                c.committed_tps.mean,
                (c.committed_tps.mean / b.committed_tps.mean - 1.0) * 100.0,
                tps_band
            ));
        }
        if baseline.sha256_backend != current.sha256_backend {
            cmp.skipped.push(SkippedCheck {
                scenario: b.name.clone(),
                metric: "wall_clock_ms".into(),
                reason: format!(
                    "hash backends differ (baseline {}, current {})",
                    baseline.sha256_backend, current.sha256_backend
                ),
            });
            continue;
        }
        if b.wall_clock_ms.mean < WALL_FLOOR_MS {
            cmp.skipped.push(SkippedCheck {
                scenario: b.name.clone(),
                metric: "wall_clock_ms".into(),
                reason: format!(
                    "baseline wall clock {:.0} ms under the {WALL_FLOOR_MS:.0} ms noise floor",
                    b.wall_clock_ms.mean
                ),
            });
            continue;
        }
        let workers = c.sim_workers.max(b.sim_workers) as usize;
        let cores = baseline.host_cores.min(current.host_cores);
        if workers > 1 && workers > cores {
            cmp.skipped.push(SkippedCheck {
                scenario: b.name.clone(),
                metric: "wall_clock_ms".into(),
                reason: format!(
                    "{workers} workers oversubscribe a {cores}-core host \
                     (spin-barrier scheduling noise)"
                ),
            });
            continue;
        }
        let normalized_ms = c.wall_clock_ms.mean * speed_ratio;
        let wall_band = band(
            tolerance,
            &b.wall_clock_ms,
            c.wall_clock_ms.stddev * speed_ratio,
        );
        if normalized_ms > b.wall_clock_ms.mean + wall_band {
            cmp.failures.push(format!(
                "{}: wall clock regressed {:.0} -> {:.0} ms normalized ({:+.1}%, band ±{:.0} ms)",
                b.name,
                b.wall_clock_ms.mean,
                normalized_ms,
                (normalized_ms / b.wall_clock_ms.mean - 1.0) * 100.0,
                wall_band
            ));
        } else if normalized_ms < b.wall_clock_ms.mean - wall_band {
            cmp.notes.push(format!(
                "{}: wall clock improved {:.0} -> {:.0} ms normalized",
                b.name, b.wall_clock_ms.mean, normalized_ms
            ));
        }
    }
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(name: &str, tps: f64, wall: f64) -> ScenarioResult {
        ScenarioResult {
            name: name.into(),
            offered_tps: 100.0,
            validator_pool: 1,
            channels: 1,
            sim_workers: 0,
            config_digest: "0123456789abcdef".into(),
            committed_tps: Stat::exact(tps),
            overall_latency_mean_s: Stat::exact(0.5),
            wall_clock_ms: Stat::exact(wall),
            runs: vec![SeedRun {
                seed: BASE_SEED,
                committed_tps: tps,
                overall_latency_mean_s: 0.5,
                wall_clock_ms: wall,
            }],
        }
    }

    fn report(calibration: f64, scenarios: Vec<ScenarioResult>) -> BenchReport {
        BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            calibration_ms: calibration,
            host_cores: 8,
            sha256_backend: "portable".into(),
            seeds: 1,
            scenarios,
        }
    }

    #[test]
    fn matrix_is_load_sweep_times_pool_plus_sharded_pair() {
        let m = scenario_matrix();
        assert_eq!(m.len(), 8);
        let mut names: Vec<&str> = m.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8, "scenario names must be unique");
        assert!(m.iter().any(|s| s.validator_pool == 1));
        assert!(m.iter().any(|s| s.validator_pool == 4));
        for s in &m {
            assert!(scenario_config(s).validate().is_ok(), "{} invalid", s.name);
        }
        // The sharded pair differs only in worker count, so the virtual runs
        // are the same experiment: the config digest must agree.
        let sharded: Vec<&BenchScenario> = m.iter().filter(|s| s.sim_workers > 0).collect();
        assert_eq!(sharded.len(), 2);
        assert!(sharded.iter().all(|s| s.channels == 4));
        assert_eq!(
            scenario_config(sharded[0]).digest(),
            scenario_config(sharded[1]).digest(),
            "worker count must not change the experiment identity"
        );
    }

    #[test]
    fn v3_json_round_trips() {
        let mut multi = result("b", 480.0, 2000.0);
        multi.committed_tps = Stat::from_samples(&[479.0, 481.0]);
        multi.runs = vec![
            SeedRun {
                seed: 42,
                committed_tps: 479.0,
                overall_latency_mean_s: 0.5,
                wall_clock_ms: 1900.0,
            },
            SeedRun {
                seed: 43,
                committed_tps: 481.0,
                overall_latency_mean_s: 0.5,
                wall_clock_ms: 2100.0,
            },
        ];
        let mut r = report(500.0, vec![result("a", 99.5, 250.0), multi]);
        r.seeds = 2;
        let parsed = BenchReport::parse(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn other_schema_versions_are_rejected_with_typed_error() {
        let full = report(500.0, vec![result("a", 99.5, 250.0)]).to_json();
        for found in [2, 9] {
            let doc = full.replace(
                "\"schema_version\": 3",
                &format!("\"schema_version\": {found}"),
            );
            assert_eq!(
                BenchReport::parse(&doc),
                Err(BenchParseError::UnsupportedSchema { found })
            );
        }
    }

    #[test]
    fn malformed_and_truncated_json_are_typed_errors() {
        // Truncations of a valid document must never panic — every prefix
        // is either a syntax error or a missing-field error.
        let full = report(500.0, vec![result("a", 99.5, 250.0)]).to_json();
        // Cutting anywhere inside the content proper (trailing whitespace
        // excluded — a stripped final newline is still a valid document).
        for cut in 0..full.trim_end().len() {
            if !full.is_char_boundary(cut) {
                continue;
            }
            let r = BenchReport::parse(&full[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes should not parse");
        }
        assert!(matches!(
            BenchReport::parse("not json at all"),
            Err(BenchParseError::Syntax(_))
        ));
        assert!(matches!(
            BenchReport::parse("{}"),
            Err(BenchParseError::Field { .. })
        ));
        // A scenario missing its stats is a Field error naming the path.
        let doc = r#"{"schema_version": 3, "calibration_ms": 1, "host_cores": 1,
                      "seeds": 1, "scenarios": [{"name": "a", "offered_tps": 1,
                      "validator_pool": 1, "channels": 1, "sim_workers": 0,
                      "config_digest": "x"}]}"#;
        match BenchReport::parse(doc) {
            Err(BenchParseError::Field { path, .. }) => {
                assert!(path.contains("scenarios[0]"), "{path}");
            }
            other => panic!("expected Field error, got {other:?}"),
        }
        // Errors render human-readable descriptions.
        let e = BenchReport::parse("{}").unwrap_err();
        assert!(e.to_string().contains("schema_version"), "{e}");
    }

    #[test]
    fn stat_mean_and_stddev_are_population_moments() {
        let s = Stat::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.stddev - 2.0).abs() < 1e-12);
        assert_eq!(Stat::from_samples(&[]), Stat::exact(0.0));
        assert_eq!(Stat::from_samples(&[3.5]).stddev, 0.0);
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(500.0, vec![result("a", 99.5, 250.0)]);
        let cmp = compare(&r, &r, DEFAULT_TOLERANCE);
        assert!(cmp.failures.is_empty(), "{:?}", cmp.failures);
        assert!(cmp.skipped.is_empty(), "{:?}", cmp.skipped);
    }

    #[test]
    fn throughput_regression_fails() {
        let base = report(500.0, vec![result("a", 100.0, 250.0)]);
        let cur = report(500.0, vec![result("a", 70.0, 250.0)]);
        let cmp = compare(&base, &cur, DEFAULT_TOLERANCE);
        assert_eq!(cmp.failures.len(), 1);
        assert!(
            cmp.failures[0].contains("committed_tps"),
            "{:?}",
            cmp.failures
        );
    }

    #[test]
    fn noisy_metric_widens_the_band() {
        // A 25% drop fails at the flat ±20% tolerance, but a baseline whose
        // own cross-seed stddev is 10 tps gets a 3σ = 30 tps band, which the
        // same drop sits inside.
        let mut base_s = result("a", 100.0, 250.0);
        let cur = report(500.0, vec![result("a", 75.0, 250.0)]);
        let base_flat = report(500.0, vec![base_s.clone()]);
        assert_eq!(
            compare(&base_flat, &cur, DEFAULT_TOLERANCE).failures.len(),
            1
        );
        base_s.committed_tps.stddev = 10.0;
        let base_noisy = report(500.0, vec![base_s]);
        let cmp = compare(&base_noisy, &cur, DEFAULT_TOLERANCE);
        assert!(cmp.failures.is_empty(), "{:?}", cmp.failures);
    }

    #[test]
    fn current_side_noise_also_widens_the_band() {
        let base = report(500.0, vec![result("a", 100.0, 250.0)]);
        let mut cur_s = result("a", 75.0, 250.0);
        cur_s.committed_tps.stddev = 10.0;
        let cur = report(500.0, vec![cur_s]);
        let cmp = compare(&base, &cur, DEFAULT_TOLERANCE);
        assert!(cmp.failures.is_empty(), "{:?}", cmp.failures);
    }

    #[test]
    fn slower_machine_does_not_fail_wall_clock() {
        // Machine is uniformly 2x slower: calibration and scenario wall both
        // double. Normalization cancels it out.
        let base = report(500.0, vec![result("a", 100.0, 250.0)]);
        let cur = report(1000.0, vec![result("a", 100.0, 500.0)]);
        let cmp = compare(&base, &cur, DEFAULT_TOLERANCE);
        assert!(cmp.failures.is_empty(), "{:?}", cmp.failures);
    }

    #[test]
    fn genuine_wall_clock_regression_fails() {
        let base = report(500.0, vec![result("a", 100.0, 250.0)]);
        let cur = report(500.0, vec![result("a", 100.0, 400.0)]);
        let cmp = compare(&base, &cur, DEFAULT_TOLERANCE);
        assert_eq!(cmp.failures.len(), 1);
        assert!(cmp.failures[0].contains("wall clock"), "{:?}", cmp.failures);
    }

    #[test]
    fn sub_floor_wall_clock_is_listed_as_skipped() {
        let base = report(500.0, vec![result("a", 100.0, 50.0)]);
        let cur = report(500.0, vec![result("a", 100.0, 5000.0)]);
        let cmp = compare(&base, &cur, DEFAULT_TOLERANCE);
        assert!(cmp.failures.is_empty(), "{:?}", cmp.failures);
        assert_eq!(cmp.skipped.len(), 1);
        assert_eq!(cmp.skipped[0].scenario, "a");
        assert_eq!(cmp.skipped[0].metric, "wall_clock_ms");
        assert!(cmp.skipped[0].reason.contains("noise floor"));
        // The JSON rendering carries the skip list.
        let json = cmp.to_json();
        assert!(json.contains("\"skipped\":[{\"scenario\":\"a\""), "{json}");
    }

    #[test]
    fn differing_hash_backends_skip_wall_clock_but_not_simulated_throughput() {
        // A runner without the SHA extensions, twice as slow as the baseline
        // recorded with them: not a regression, and listed as not compared.
        let mut base = report(500.0, vec![result("a", 100.0, 250.0)]);
        base.sha256_backend = "sha-ni".into();
        let cur = report(500.0, vec![result("a", 100.0, 600.0)]);
        let cmp = compare(&base, &cur, DEFAULT_TOLERANCE);
        assert!(cmp.failures.is_empty(), "{:?}", cmp.failures);
        assert_eq!(cmp.skipped.len(), 1);
        assert_eq!(cmp.skipped[0].metric, "wall_clock_ms");
        assert_eq!(
            cmp.skipped[0].reason,
            "hash backends differ (baseline sha-ni, current portable)"
        );
        let slower = report(500.0, vec![result("a", 50.0, 600.0)]);
        assert_eq!(compare(&base, &slower, DEFAULT_TOLERANCE).failures.len(), 1);

        // The field round-trips, and a report written before it reads as the
        // only body there was then.
        let text = base.to_json();
        assert_eq!(BenchReport::parse(&text).unwrap(), base);
        let old = text.replace("  \"sha256_backend\": \"sha-ni\",\n", "");
        assert_ne!(old, text);
        assert_eq!(BenchReport::parse(&old).unwrap().sha256_backend, "portable");
        let mistyped = text.replace("\"sha-ni\"", "7");
        assert!(BenchReport::parse(&mistyped).is_err());
    }

    #[test]
    fn oversubscribed_sharded_wall_clock_is_listed_as_skipped() {
        // A 4-worker scenario checked on a 1-core host: spin-barrier
        // scheduling noise makes wall clock meaningless, but the
        // deterministic committed_tps comparison still applies.
        let mut base_s = result("ch4_w4", 100.0, 4000.0);
        base_s.sim_workers = 4;
        let mut cur_s = base_s.clone();
        cur_s.wall_clock_ms = Stat::exact(10000.0);
        let base = report(500.0, vec![base_s]);
        let mut cur = report(500.0, vec![cur_s]);
        cur.host_cores = 1;
        let cmp = compare(&base, &cur, DEFAULT_TOLERANCE);
        assert!(cmp.failures.is_empty(), "{:?}", cmp.failures);
        assert!(
            cmp.skipped
                .iter()
                .any(|s| s.reason.contains("oversubscribe")),
            "{:?}",
            cmp.skipped
        );

        // Throughput regressions are never excused by oversubscription.
        cur.scenarios[0].committed_tps = Stat::exact(50.0);
        let cmp = compare(&base, &cur, DEFAULT_TOLERANCE);
        assert_eq!(cmp.failures.len(), 1);
        assert!(
            cmp.failures[0].contains("committed_tps"),
            "{:?}",
            cmp.failures
        );
    }

    #[test]
    fn missing_scenario_fails() {
        let base = report(500.0, vec![result("a", 100.0, 250.0)]);
        let cur = report(500.0, vec![]);
        let cmp = compare(&base, &cur, DEFAULT_TOLERANCE);
        assert_eq!(cmp.failures.len(), 1);
        assert!(cmp.failures[0].contains("missing"));
    }

    #[test]
    fn digest_drift_is_noted_not_failed() {
        let base = report(500.0, vec![result("a", 100.0, 250.0)]);
        let mut cur = base.clone();
        cur.scenarios[0].config_digest = "feedfacefeedface".into();
        let cmp = compare(&base, &cur, DEFAULT_TOLERANCE);
        assert!(cmp.failures.is_empty(), "{:?}", cmp.failures);
        assert!(cmp.notes.iter().any(|n| n.contains("digest drifted")));
    }

    #[test]
    fn seed_replication_is_deterministic_per_seed() {
        // Two invocations over the same seed range reproduce the simulated
        // metrics byte-for-byte, while distinct seeds genuinely vary.
        let s = BenchScenario {
            name: "det_check".into(),
            offered_tps: 100.0,
            validator_pool: 1,
            channels: 1,
            sim_workers: 0,
        };
        let a = aggregate_scenario(
            &s,
            vec![run_scenario_seeded(&s, 42), run_scenario_seeded(&s, 43)],
        );
        let b = run_scenario(&s, 2);
        let strip_wall = |r: &ScenarioResult| {
            r.runs
                .iter()
                .map(|run| {
                    format!(
                        "{} {} {}",
                        run.seed, run.committed_tps, run.overall_latency_mean_s
                    )
                })
                .collect::<Vec<String>>()
        };
        assert_eq!(strip_wall(&a), strip_wall(&b));
        assert_ne!(
            (a.runs[0].committed_tps, a.runs[0].overall_latency_mean_s),
            (a.runs[1].committed_tps, a.runs[1].overall_latency_mean_s),
            "different seeds should produce different simulated metrics"
        );
        assert!(b.committed_tps.stddev > 0.0);
        // The full-report fingerprint excludes wall clock/calibration and
        // is identical across the two invocations.
        let mk = |sc: ScenarioResult| BenchReport {
            seeds: 2,
            ..report(1.0, vec![sc])
        };
        assert_eq!(mk(a).sim_fingerprint(), mk(b).sim_fingerprint());
    }

    #[test]
    fn comparison_json_escapes_and_parses() {
        let cmp = Comparison {
            failures: vec!["a: \"quoted\" failure".into()],
            notes: vec!["note\nwith newline".into()],
            skipped: vec![SkippedCheck {
                scenario: "s".into(),
                metric: "wall_clock_ms".into(),
                reason: "r".into(),
            }],
        };
        let v = Json::parse(&cmp.to_json()).expect("comparison JSON parses");
        assert_eq!(
            v.get("failures")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(
            v.get("skipped")
                .and_then(Json::as_array)
                .and_then(|a| a[0].get("metric")?.as_str().map(str::to_string)),
            Some("wall_clock_ms".to_string())
        );
    }
}
