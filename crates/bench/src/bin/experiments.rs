//! Regenerates every table and figure from the paper.
//!
//! Usage:
//! ```text
//! cargo run -p fabricsim-bench --release --bin experiments -- all [--quick]
//! cargo run -p fabricsim-bench --release --bin experiments -- fig2 fig8 table2
//! ```
//!
//! Targets: `fig2 fig3 fig4 fig5 fig6 fig7 table2 table3 fig8 pool ablations
//! all` (`pool` runs only the validator-pool what-if sweep); no target means
//! `all`. Any other argument exits 2 and lists the targets.
//! Figures 2–7 share one λ-sweep (as in the paper: one deployment,
//! per-phase instrumentation), so asking for several of them runs it once.
//!
//! Per-scenario progress lines go to stderr (suppress with `--quiet`).

use std::env;
use std::path::PathBuf;
use std::process::exit;

use fabricsim::experiment::{
    ablation_bandwidth, ablation_batch_size, ablation_batch_timeout, ablation_channels,
    ablation_gossip, ablation_mvcc_conflicts, ablation_payload_size,
    ablation_validation_parallelism, ablation_validator_pool, endorsing_peer_scalability,
    osn_scalability, overall_sweep, run, Effort, Scenario,
};
use fabricsim::obs::WallClock;
use fabricsim::report::{phase_table, Row};
use fabricsim::PolicySpec;
use fabricsim_bench::write_csv;

/// Every target name (`all` names them all).
const TARGETS: [&str; 11] = [
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "table2",
    "table3",
    "fig8",
    "pool",
    "ablations",
];

/// One printed and written table: its title, its `results/` CSV name, and
/// the policy whose rows it keeps (`None`: every row).
type Table = (&'static str, &'static str, Option<PolicySpec>);

/// A scenario list to run and the tables drawn from its rows.
struct Job {
    name: &'static str,
    scenarios: Vec<Scenario>,
    tables: Vec<Table>,
}

impl Job {
    fn one(name: &'static str, scenarios: Vec<Scenario>, file: &'static str) -> Job {
        Job {
            name,
            scenarios,
            tables: vec![(name, file, None)],
        }
    }
}

fn main() {
    let mut quick = false;
    let mut quiet = false;
    let mut targets: Vec<&str> = Vec::new();
    let args: Vec<String> = env::args().skip(1).collect();
    for arg in &args {
        match arg.as_str() {
            "--quick" => quick = true,
            "--quiet" => quiet = true,
            "all" => targets.extend(TARGETS),
            t if TARGETS.contains(&t) => targets.push(t),
            other => {
                eprintln!("experiments: unknown argument `{other}`");
                eprintln!("targets: {} all; flags: --quick --quiet", TARGETS.join(" "));
                exit(2);
            }
        }
    }
    if targets.is_empty() {
        targets.extend(TARGETS);
    }
    let effort = if quick { Effort::Quick } else { Effort::Full };
    let wants = |t: &str| targets.contains(&t);

    let mut jobs = Vec::new();
    let or10 = Some(PolicySpec::OrN(10));
    let and5 = Some(PolicySpec::AndX(5));
    let sweep_tables: Vec<Table> = [
        (
            "fig2",
            "Fig. 2 — overall throughput (validate_tps column)",
            "fig2_overall_throughput",
            None,
        ),
        (
            "fig3",
            "Fig. 3 — overall latency (overall column)",
            "fig3_overall_latency",
            None,
        ),
        (
            "fig4",
            "Fig. 4 — per-phase throughput, OR",
            "fig4_phase_throughput_or",
            or10.clone(),
        ),
        (
            "fig5",
            "Fig. 5 — per-phase throughput, AND",
            "fig5_phase_throughput_and",
            and5.clone(),
        ),
        (
            "fig6",
            "Fig. 6 — per-phase latency, OR",
            "fig6_phase_latency_or",
            or10,
        ),
        (
            "fig7",
            "Fig. 7 — per-phase latency, AND",
            "fig7_phase_latency_and",
            and5,
        ),
    ]
    .into_iter()
    .filter(|(target, ..)| wants(target))
    .map(|(_, title, file, policy)| (title, file, policy))
    .collect();
    if !sweep_tables.is_empty() {
        jobs.push(Job {
            name: "the Figs. 2-7 λ-sweep",
            scenarios: overall_sweep(effort),
            tables: sweep_tables,
        });
    }
    let (peers_tput, peers_lat) = endorsing_peer_scalability(effort);
    if wants("table2") {
        jobs.push(Job::one(
            "Table II — peak throughput vs #endorsing peers",
            peers_tput,
            "table2_throughput_vs_peers",
        ));
    }
    if wants("table3") {
        jobs.push(Job::one(
            "Table III — latency vs #endorsing peers (at 0.85x peak)",
            peers_lat,
            "table3_latency_vs_peers",
        ));
    }
    if wants("fig8") {
        let (tput, lat) = osn_scalability(effort);
        jobs.push(Job::one(
            "Fig. 8(a,c) — throughput vs #OSNs",
            tput,
            "fig8_throughput_vs_osns",
        ));
        jobs.push(Job::one(
            "Fig. 8(b,d) — latency vs #OSNs (at 260 tps)",
            lat,
            "fig8_latency_vs_osns",
        ));
    }
    if wants("ablations") {
        let ablations = [
            (
                "Ablation — BatchSize",
                ablation_batch_size(effort),
                "ablation_batch_size",
            ),
            (
                "Ablation — BatchTimeout",
                ablation_batch_timeout(effort),
                "ablation_batch_timeout",
            ),
            (
                "Ablation — committer parallelism",
                ablation_validation_parallelism(effort),
                "ablation_validation_parallelism",
            ),
            (
                "Ablation — MVCC conflicts vs keyspace",
                ablation_mvcc_conflicts(effort),
                "ablation_mvcc_conflicts",
            ),
            (
                "Ablation — payload size",
                ablation_payload_size(effort),
                "ablation_payload_size",
            ),
            (
                "Ablation — gossip vs direct delivery",
                ablation_gossip(effort),
                "ablation_gossip",
            ),
            (
                "Ablation — network bandwidth",
                ablation_bandwidth(effort),
                "ablation_bandwidth",
            ),
            (
                "Ablation — channel count (horizontal scaling)",
                ablation_channels(effort),
                "ablation_channels",
            ),
        ];
        for (title, scenarios, file) in ablations {
            jobs.push(Job::one(title, scenarios, file));
        }
    }
    if wants("pool") {
        jobs.push(Job::one(
            "What-if — VSCC pool width (serial commit tail)",
            ablation_validator_pool(effort),
            "ablation_validator_pool",
        ));
    }

    let results = PathBuf::from("results");
    let total: usize = jobs.iter().map(|job| job.scenarios.len()).sum();
    let clock = WallClock::start();
    let mut done = 0;
    for job in jobs {
        eprintln!("running {} ({effort:?})...", job.name);
        let policies: Vec<PolicySpec> = job
            .scenarios
            .iter()
            .map(|(_, cfg)| cfg.policy.clone())
            .collect();
        let rows: Vec<Row> = run(job.scenarios)
            .inspect(|row| {
                done += 1;
                if !quiet {
                    eprintln!(
                        "  [{done}/{total}] {:6.1}s  {}: {:.1} committed tps",
                        clock.elapsed_s(),
                        row.label,
                        row.summary.committed_tps()
                    );
                }
            })
            .collect();
        for (title, file, policy) in job.tables {
            let rows: Vec<Row> = rows
                .iter()
                .zip(&policies)
                .filter(|(_, p)| policy.as_ref().is_none_or(|want| want == *p))
                .map(|(row, _)| row.clone())
                .collect();
            println!("{}", phase_table(title, &rows));
            write_csv(&results, file, &rows);
        }
    }
    eprintln!("done.");
}
