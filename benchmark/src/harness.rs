//! Runs one workload for one seed and turns its repetitions into metrics.
//!
//! One process measures one workload, so peak memory is the workload's own.
//! Repetitions share no state (each builds a fresh world); host timings are
//! medians over the repetitions that fit in `--seconds`, CPU time is taken
//! over the whole measured stretch because `/proc` counts it in 10 ms ticks.

use std::process::Command;
use std::time::{Duration, Instant};

use crate::metrics::{RunReport, Values};
use crate::spans::Span;
use crate::{des, host, pipe, stats};

/// What a repetition is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The discarded first repetition: fills caches and the allocator, and
    /// fixes the reference output every later repetition must reproduce.
    WarmUp,
    /// Produces end-to-end numbers; nothing is recorded.
    Timed,
    /// Produces per-layer numbers; never mixed into end-to-end ones.
    Traced,
    /// The untraced repetition run beside each traced one, so the two can be
    /// compared under the same machine conditions.
    Beside,
}

/// What one repetition did.
pub struct Rep {
    /// Wall seconds of the measured stretch.
    pub wall_s: f64,
    /// Transactions that reached a block, valid or not.
    pub txs: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Wall milliseconds of each `Peer::validate_and_commit` call.
    pub commit_ms: Vec<f64>,
    /// Per-layer values of a traced repetition.
    pub layers: Values,
}

/// A workload prepared for one seed. `rep` checks its own outputs and fails
/// the run on the first wrong one.
pub trait Subject {
    fn rep(&mut self, mode: Mode) -> Result<Rep, String>;

    /// Replay probes on what the last traced repetition produced.
    fn probes(&mut self) -> Result<Values, String> {
        Ok(Values::new())
    }

    /// Hands over the spans of the last traced repetition.
    fn take_spans(&mut self) -> Vec<Span> {
        Vec::new()
    }

    /// The metric that receives traced wall ÷ beside wall.
    fn overhead_metric(&self) -> &'static str {
        "bench.trace_overhead_ratio"
    }

    /// Cores without which the workload's host numbers mean nothing.
    fn min_cores(&self) -> usize {
        1
    }
}

/// Input generation, identity enrolment, genesis seeding and the warm-up
/// repetition: everything between process start and the first timed one.
pub fn set_up(workload: &str, seed: u64) -> Result<Box<dyn Subject>, String> {
    let mut subject: Box<dyn Subject> = if let Some(s) = des::subject(workload, seed) {
        Box::new(s)
    } else if let Some(s) = pipe::subject(workload, seed) {
        Box::new(s)
    } else {
        return Err(format!("unknown workload {workload:?}"));
    };
    let cores = host::nproc();
    if cores < subject.min_cores() {
        return Err(format!(
            "skipped: {workload} needs {} cores to mean anything and this host offers {cores}",
            subject.min_cores()
        ));
    }
    subject.rep(Mode::WarmUp)?;
    Ok(subject)
}

/// Set-up time of a fresh process, measured by running one: work a change
/// moves into first use (a lazily built table, say) is paid once per process
/// and would hide in the median of set-ups repeated inside one.
fn child_setup_seconds(workload: &str, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--setup-only",
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
        ])
        .output()
        .map_err(|e| format!("cannot start the set-up child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "set-up child failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("set-up child printed no time: {e}"))
}

pub struct RunArgs<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a run leaves behind besides its report.
pub struct RunOutput {
    pub report: RunReport,
    pub spans: Vec<Span>,
}

const SETUP_SAMPLES: usize = 3;
const MIN_REPS: usize = 3;

pub fn run(args: &RunArgs<'_>, process_start: Instant) -> Result<RunOutput, String> {
    let mut subject = set_up(args.workload, args.seed)?;
    let own_setup_s = process_start.elapsed().as_secs_f64();
    let measured = if args.trace {
        per_layer(subject.as_mut(), args.seconds)?
    } else {
        end_to_end(subject.as_mut(), args, own_setup_s)?
    };
    Ok(RunOutput {
        report: RunReport {
            // A wrong output fails the run before it gets here.
            correct: true,
            attempted: measured.attempted,
            failed: measured.failed,
            values: measured.values,
        },
        spans: subject.take_spans(),
    })
}

struct Measured {
    attempted: u64,
    failed: u64,
    values: Values,
}

/// The untraced run: set-up time, then throughput, CPU and memory over as
/// many repetitions as fit.
fn end_to_end(
    subject: &mut dyn Subject,
    args: &RunArgs<'_>,
    own_setup_s: f64,
) -> Result<Measured, String> {
    let mut values = Values::new();
    let mut setups = vec![own_setup_s];
    while setups.len() < SETUP_SAMPLES {
        setups.push(child_setup_seconds(args.workload, args.seed)?);
    }
    values.insert("setup_s", stats::median(&setups));

    let cpu_before = host::cpu_seconds();
    let reps = repeat(subject, args.seconds, &[Mode::Timed])?;
    let cpu_after = host::cpu_seconds();
    let per_s: Vec<f64> = reps.iter().map(|(_, r)| r.txs as f64 / r.wall_s).collect();
    values.insert("host_tx_per_s", stats::median(&per_s));
    let txs: u64 = reps.iter().map(|(_, r)| r.txs).sum();
    match (cpu_before, cpu_after) {
        (Ok(a), Ok(b)) => {
            values.insert("host_cpu_us_per_tx", (b - a) * 1e6 / txs as f64);
        }
        (Err(why), _) | (_, Err(why)) => eprintln!("host_cpu_us_per_tx omitted: {why}"),
    }
    match host::peak_rss_mib() {
        Ok(mib) => {
            values.insert("host_peak_rss_mb", mib);
        }
        Err(why) => eprintln!("host_peak_rss_mb omitted: {why}"),
    }
    let walls: Vec<f64> = reps.iter().map(|(_, r)| r.wall_s).collect();
    eprintln!(
        "{}: {} timed repetitions, walls spread {:.1}% of their median: {walls:.3?}",
        args.workload,
        reps.len(),
        100.0 * stats::spread(&walls)
    );
    let (_, first) = &reps[0];
    Ok(Measured {
        attempted: first.attempted,
        failed: first.failed,
        values,
    })
}

/// Runs `cycle` over and over until `seconds` have passed, and at least
/// `MIN_REPS` times. Inputs are per seed, so every repetition attempts and
/// fails the same operations; that is checked, not assumed.
fn repeat(
    subject: &mut dyn Subject,
    seconds: f64,
    cycle: &[Mode],
) -> Result<Vec<(Mode, Rep)>, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut reps: Vec<(Mode, Rep)> = Vec::new();
    while reps.len() < MIN_REPS * cycle.len() || Instant::now() < deadline {
        for mode in cycle {
            let rep = subject.rep(*mode)?;
            if let Some((_, first)) = reps.first() {
                if (rep.attempted, rep.failed, rep.txs)
                    != (first.attempted, first.failed, first.txs)
                {
                    return Err(format!(
                        "repetition {} attempted {} / failed {} / landed {}, the first {} / {} / {}",
                        reps.len(),
                        rep.attempted,
                        rep.failed,
                        rep.txs,
                        first.attempted,
                        first.failed,
                        first.txs
                    ));
                }
            }
            reps.push((*mode, rep));
        }
    }
    Ok(reps)
}

/// The traced run: alternates an untraced and a traced repetition and
/// reports, per layer metric, the median over the traced ones (exact values
/// are equal in all of them).
fn per_layer(subject: &mut dyn Subject, seconds: f64) -> Result<Measured, String> {
    let reps = repeat(subject, seconds, &[Mode::Beside, Mode::Traced])?;
    let of = |mode| -> Vec<&Rep> {
        reps.iter()
            .filter(|(m, _)| *m == mode)
            .map(|(_, r)| r)
            .collect()
    };
    let (beside, traced) = (of(Mode::Beside), of(Mode::Traced));
    let mut values = Values::new();
    for name in traced[0].layers.keys() {
        let per_rep: Vec<f64> = traced.iter().map(|r| r.layers[name]).collect();
        values.insert(*name, stats::median(&per_rep));
    }
    let walls = |reps: &[&Rep]| reps.iter().map(|r| r.wall_s).collect::<Vec<f64>>();
    let (beside_walls, traced_walls) = (walls(&beside), walls(&traced));
    eprintln!("untraced walls {beside_walls:.3?}\ntraced walls   {traced_walls:.3?}");
    // 1 unless the subject claims the ratio for tracing in the next line.
    values.insert("bench.trace_overhead_ratio", 1.0);
    values.insert(
        subject.overhead_metric(),
        stats::median(&traced_walls) / stats::median(&beside_walls),
    );
    values.insert("bench.rep_spread", stats::spread(&beside_walls));
    values.insert("bench.reps", traced.len() as f64);

    // Pipe workloads: the untraced repetitions time each block commit.
    let commits: Vec<Vec<f64>> = beside
        .iter()
        .filter(|r| !r.commit_ms.is_empty())
        .map(|r| r.commit_ms.clone())
        .collect();
    if !commits.is_empty() {
        values.insert(
            "peer.block_commit_ms_p50",
            stats::median_of_quantiles(&commits, 0.5)?,
        );
        values.insert(
            "peer.block_commit_ms_p95",
            stats::median_of_quantiles(&commits, 0.95)?,
        );
    }
    values.extend(subject.probes()?);
    Ok(Measured {
        attempted: traced[0].attempted,
        failed: traced[0].failed,
        values,
    })
}
