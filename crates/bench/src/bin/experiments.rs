//! Regenerates every table and figure from the paper.
//!
//! Usage:
//! ```text
//! cargo run -p fabricsim-bench --release --bin experiments -- all [--quick]
//! cargo run -p fabricsim-bench --release --bin experiments -- fig2 fig8 table2
//! ```
//!
//! Targets: `fig2 fig3 fig4 fig5 fig6 fig7 table2 table3 fig8 pool ablations
//! all` (`pool` runs only the validator-pool what-if sweep).
//! Figures 2–7 share one λ-sweep (as in the paper: one deployment,
//! per-phase instrumentation), so asking for several of them runs it once.
//!
//! Per-scenario progress lines go to stderr (suppress with `--quiet`).

use std::env;
use std::path::PathBuf;

use fabricsim::experiment::{
    ablation_bandwidth, ablation_batch_size, ablation_batch_timeout, ablation_channels,
    ablation_gossip, ablation_mvcc_conflicts, ablation_payload_size,
    ablation_validation_parallelism, ablation_validator_pool, endorsing_peer_scalability,
    filter_policy, osn_scalability, overall_sweep, Effort,
};
use fabricsim::report::{phase_table, Row};
use fabricsim_bench::write_csv;

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let quiet = args.iter().any(|a| a == "--quiet");
    let effort = if quick { Effort::Quick } else { Effort::Full };
    if !quiet {
        fabricsim::experiment::progress::enable();
    }
    let mut targets: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--quick" && *a != "--quiet")
        .collect();
    if targets.is_empty() || targets.contains(&"all") {
        targets = vec![
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
    }
    let results = PathBuf::from("results");
    let wants = |t: &str| targets.contains(&t);
    let wants_sweep = ["fig2", "fig3", "fig4", "fig5", "fig6", "fig7"]
        .iter()
        .any(|t| wants(t));

    if wants_sweep {
        eprintln!("running the Figs. 2-7 λ-sweep ({effort:?})...");
        let sweep = overall_sweep(effort);
        if wants("fig2") {
            println!(
                "{}",
                phase_table("Fig. 2 — overall throughput (validate_tps column)", &sweep)
            );
            write_csv(&results, "fig2_overall_throughput", &sweep);
        }
        if wants("fig3") {
            println!(
                "{}",
                phase_table("Fig. 3 — overall latency (overall column)", &sweep)
            );
            write_csv(&results, "fig3_overall_latency", &sweep);
        }
        let or_rows: Vec<Row> = filter_policy(&sweep, "OR10").into_iter().cloned().collect();
        let and_rows: Vec<Row> = filter_policy(&sweep, "AND5").into_iter().cloned().collect();
        if wants("fig4") {
            println!(
                "{}",
                phase_table("Fig. 4 — per-phase throughput, OR", &or_rows)
            );
            write_csv(&results, "fig4_phase_throughput_or", &or_rows);
        }
        if wants("fig5") {
            println!(
                "{}",
                phase_table("Fig. 5 — per-phase throughput, AND", &and_rows)
            );
            write_csv(&results, "fig5_phase_throughput_and", &and_rows);
        }
        if wants("fig6") {
            println!(
                "{}",
                phase_table("Fig. 6 — per-phase latency, OR", &or_rows)
            );
            write_csv(&results, "fig6_phase_latency_or", &or_rows);
        }
        if wants("fig7") {
            println!(
                "{}",
                phase_table("Fig. 7 — per-phase latency, AND", &and_rows)
            );
            write_csv(&results, "fig7_phase_latency_and", &and_rows);
        }
    }

    if wants("table2") || wants("table3") {
        eprintln!("running Table II/III endorsing-peer scalability ({effort:?})...");
        let (tput, lat) = endorsing_peer_scalability(effort);
        if wants("table2") {
            println!(
                "{}",
                phase_table("Table II — peak throughput vs #endorsing peers", &tput)
            );
            write_csv(&results, "table2_throughput_vs_peers", &tput);
        }
        if wants("table3") {
            println!(
                "{}",
                phase_table(
                    "Table III — latency vs #endorsing peers (at 0.85x peak)",
                    &lat
                )
            );
            write_csv(&results, "table3_latency_vs_peers", &lat);
        }
    }

    if wants("fig8") {
        eprintln!("running Fig. 8 OSN scalability ({effort:?})...");
        let (tput, lat) = osn_scalability(effort);
        println!(
            "{}",
            phase_table("Fig. 8(a,c) — throughput vs #OSNs", &tput)
        );
        println!(
            "{}",
            phase_table("Fig. 8(b,d) — latency vs #OSNs (at 260 tps)", &lat)
        );
        write_csv(&results, "fig8_throughput_vs_osns", &tput);
        write_csv(&results, "fig8_latency_vs_osns", &lat);
    }

    if wants("ablations") {
        eprintln!("running ablations ({effort:?})...");
        let batch = ablation_batch_size(effort);
        println!("{}", phase_table("Ablation — BatchSize", &batch));
        write_csv(&results, "ablation_batch_size", &batch);

        let timeout = ablation_batch_timeout(effort);
        println!("{}", phase_table("Ablation — BatchTimeout", &timeout));
        write_csv(&results, "ablation_batch_timeout", &timeout);

        let par = ablation_validation_parallelism(effort);
        println!("{}", phase_table("Ablation — committer parallelism", &par));
        write_csv(&results, "ablation_validation_parallelism", &par);

        let mvcc = ablation_mvcc_conflicts(effort);
        println!(
            "{}",
            phase_table("Ablation — MVCC conflicts vs keyspace", &mvcc)
        );
        write_csv(&results, "ablation_mvcc_conflicts", &mvcc);

        let payload = ablation_payload_size(effort);
        println!("{}", phase_table("Ablation — payload size", &payload));
        write_csv(&results, "ablation_payload_size", &payload);

        let gossip = ablation_gossip(effort);
        println!(
            "{}",
            phase_table("Ablation — gossip vs direct delivery", &gossip)
        );
        write_csv(&results, "ablation_gossip", &gossip);

        let bw = ablation_bandwidth(effort);
        println!("{}", phase_table("Ablation — network bandwidth", &bw));
        write_csv(&results, "ablation_bandwidth", &bw);

        let channels = ablation_channels(effort);
        println!(
            "{}",
            phase_table("Ablation — channel count (horizontal scaling)", &channels)
        );
        write_csv(&results, "ablation_channels", &channels);
    }

    if wants("pool") {
        eprintln!("running the validator-pool what-if sweep ({effort:?})...");
        let pool = ablation_validator_pool(effort);
        println!(
            "{}",
            phase_table("What-if — VSCC pool width (serial commit tail)", &pool)
        );
        write_csv(&results, "ablation_validator_pool", &pool);
    }

    eprintln!("done.");
}
