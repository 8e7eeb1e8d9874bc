//! Experiment runners regenerating every table and figure of the paper.
//!
//! Each function returns labelled [`Row`]s ready for [`crate::report`]'s text
//! tables and CSV writers. The `fabricsim-bench` crate's `experiments` binary
//! drives these and writes `results/*.csv` plus `EXPERIMENTS.md` fodder.
//!
//! One λ-sweep (`overall_sweep`) feeds Figs. 2–7: the paper's overall
//! throughput/latency figures and the per-phase breakdowns are different
//! projections of the same runs, exactly as in the original study (one
//! deployment, instrumented per phase).

use fabricsim_types::OrdererType;

use crate::report::Row;
use crate::sim::Simulation;
use crate::workload::{GossipConfig, PolicySpec, SimConfig, WorkloadKind};

/// Coarse scenario-level progress for the long sweeps.
///
/// Disabled by default so library users and tests stay silent; the
/// `experiments` binary enables it (unless `--quiet`). Each sweep registers
/// its scenario count up front and every completed run prints one stderr
/// line: `[i/N] elapsed label: committed tps`. Wall-clock time never feeds
/// back into the simulation, so enabling progress cannot perturb results.
pub mod progress {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::OnceLock;

    use fabricsim_obs::WallClock;

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static TOTAL: AtomicU64 = AtomicU64::new(0);
    static DONE: AtomicU64 = AtomicU64::new(0);
    static START: OnceLock<WallClock> = OnceLock::new();

    /// Turns on progress lines for this process.
    pub fn enable() {
        START.get_or_init(WallClock::start);
        // relaxed: cosmetic stderr flag; nothing orders against it
        ENABLED.store(true, Ordering::Relaxed);
    }

    /// True when [`enable`] was called.
    pub fn enabled() -> bool {
        // relaxed: gates stderr output only; a stale read delays one line
        ENABLED.load(Ordering::Relaxed)
    }

    /// Registers `n` upcoming scenarios (called at the top of each sweep).
    pub(super) fn batch(n: usize) {
        // relaxed: monotonic counter feeding the cosmetic `[i/N]` denominator
        TOTAL.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Reports one completed scenario.
    pub(super) fn done(label: &str, tps: f64) {
        if !enabled() {
            return;
        }
        // relaxed: counters feed one stderr line; races only reorder lines
        let i = DONE.fetch_add(1, Ordering::Relaxed) + 1;
        // relaxed: same cosmetic counter family as above
        let n = TOTAL.load(Ordering::Relaxed);
        let elapsed = START.get_or_init(WallClock::start).elapsed_s();
        eprintln!("  [{i}/{n}] {elapsed:6.1}s  {label}: {tps:.1} committed tps");
    }
}

/// Runs one labelled scenario, reporting progress when enabled.
fn run_row(label: String, cfg: SimConfig) -> Row {
    let summary = Simulation::new(cfg).run();
    progress::done(&label, summary.committed_tps());
    Row { label, summary }
}

/// Run length preset: `Full` reproduces the paper-scale windows; `Quick` is
/// for CI and the Criterion benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// 60 s virtual per point.
    Full,
    /// 16 s virtual per point, coarser sweeps.
    Quick,
}

impl Effort {
    fn apply(self, cfg: &mut SimConfig) {
        match self {
            Effort::Full => {
                cfg.duration_secs = 60.0;
                cfg.warmup_secs = 12.0;
                cfg.cooldown_secs = 5.0;
            }
            Effort::Quick => {
                cfg.duration_secs = 16.0;
                cfg.warmup_secs = 5.0;
                cfg.cooldown_secs = 2.0;
            }
        }
    }

    fn rates(self) -> Vec<f64> {
        match self {
            Effort::Full => vec![50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 400.0],
            Effort::Quick => vec![100.0, 250.0, 400.0],
        }
    }
}

fn base_config(effort: Effort) -> SimConfig {
    let mut cfg = SimConfig {
        endorsing_peers: 10,
        committing_peers: 1,
        workload: WorkloadKind::KvPut { payload_bytes: 1 },
        ..SimConfig::default()
    };
    effort.apply(&mut cfg);
    cfg
}

/// The master λ-sweep behind Figs. 2–7: `{Solo, Kafka, Raft} × {OR10, AND5}`
/// at 10 endorsing peers, transaction size 1 byte, BatchSize 100 / 1 s.
pub fn overall_sweep(effort: Effort) -> Vec<Row> {
    let rates = effort.rates();
    progress::batch(OrdererType::ALL.len() * 2 * rates.len());
    let mut rows = Vec::new();
    for orderer in OrdererType::ALL {
        for policy in [PolicySpec::OrN(10), PolicySpec::AndX(5)] {
            for &rate in &rates {
                let mut cfg = base_config(effort);
                cfg.orderer_type = orderer;
                cfg.policy = policy.clone();
                cfg.arrival_rate_tps = rate;
                rows.push(run_row(
                    format!("{orderer}/{} λ={rate:.0}", policy.label()),
                    cfg,
                ));
            }
        }
    }
    rows
}

/// Filters the master sweep to one policy (for the per-phase Figs. 4–7).
pub fn filter_policy<'a>(rows: &'a [Row], policy_label: &str) -> Vec<&'a Row> {
    rows.iter()
        .filter(|r| r.label.contains(&format!("/{policy_label} ")))
        .collect()
}

/// Table II / Table III: scalability of endorsing peers.
///
/// For each `(#peers, policy)` cell the paper reports peak throughput and the
/// latency near the peak; we run each cell twice — at 1.2× the predicted
/// capacity (throughput row) and at 0.85× (latency row) — mirroring how a
/// measurement study locates the knee.
pub fn endorsing_peer_scalability(effort: Effort) -> (Vec<Row>, Vec<Row>) {
    // (policy, applicable peer counts) exactly as the paper's table cells.
    let cells: [(PolicySpec, &[u32]); 4] = [
        (PolicySpec::OrN(10), &[1, 3, 5, 7, 10]),
        (PolicySpec::OrN(3), &[1, 3]),
        (PolicySpec::AndX(5), &[1, 3, 5]),
        (PolicySpec::AndX(3), &[1, 3]),
    ];
    progress::batch(cells.iter().map(|(_, counts)| counts.len()).sum::<usize>() * 2);
    let mut tput_rows = Vec::new();
    let mut lat_rows = Vec::new();
    for (policy, counts) in cells {
        for &n in counts {
            let mut cfg = base_config(effort);
            cfg.orderer_type = OrdererType::Solo;
            cfg.endorsing_peers = n;
            cfg.policy = policy.clone();
            let sigs = cfg.signatures_per_tx();
            let capacity = cfg
                .cost
                .execute_capacity_tps(n as usize)
                .min(cfg.cost.validate_capacity_tps(sigs));

            let mut high = cfg.clone();
            high.arrival_rate_tps = capacity * 1.2;
            tput_rows.push(run_row(format!("{} n={n}", policy.label()), high));

            let mut low = cfg;
            low.arrival_rate_tps = capacity * 0.85;
            lat_rows.push(run_row(format!("{} n={n}", policy.label()), low));
        }
    }
    (tput_rows, lat_rows)
}

/// Fig. 8: throughput and latency vs number of ordering-service nodes, for
/// Kafka and Raft, with ZooKeeper/broker ensembles of 3 and of 7.
///
/// Returns `(throughput_rows, latency_rows)`; throughput measured above the
/// knee (λ = 350), latency below it (λ = 260).
pub fn osn_scalability(effort: Effort) -> (Vec<Row>, Vec<Row>) {
    let osn_counts: &[u32] = match effort {
        Effort::Full => &[4, 6, 8, 10, 12],
        Effort::Quick => &[4, 12],
    };
    progress::batch(2 * 2 * osn_counts.len() * 2);
    let mut tput_rows = Vec::new();
    let mut lat_rows = Vec::new();
    for ensemble in [3u32, 7] {
        for orderer in [OrdererType::Kafka, OrdererType::Raft] {
            for &osns in osn_counts {
                let mut cfg = base_config(effort);
                cfg.orderer_type = orderer;
                cfg.policy = PolicySpec::OrN(10);
                cfg.osn_count = osns;
                cfg.broker_count = ensemble;
                cfg.zk_count = ensemble;
                let label = format!("{orderer} osns={osns} zk=br={ensemble}");

                let mut high = cfg.clone();
                high.arrival_rate_tps = 350.0;
                tput_rows.push(run_row(label.clone(), high));

                let mut low = cfg;
                low.arrival_rate_tps = 260.0;
                lat_rows.push(run_row(label, low));
            }
        }
    }
    (tput_rows, lat_rows)
}

/// Ablation: BatchSize sweep (the paper's §III block-cutting rule 1).
pub fn ablation_batch_size(effort: Effort) -> Vec<Row> {
    let sizes = [10usize, 50, 100, 200, 500];
    progress::batch(sizes.len());
    sizes
        .into_iter()
        .map(|size| {
            let mut cfg = base_config(effort);
            cfg.policy = PolicySpec::OrN(10);
            cfg.arrival_rate_tps = 250.0;
            cfg.batch.max_message_count = size;
            run_row(format!("BatchSize={size}"), cfg)
        })
        .collect()
}

/// Ablation: BatchTimeout sweep at a low rate where timeout-cutting dominates.
pub fn ablation_batch_timeout(effort: Effort) -> Vec<Row> {
    let timeouts = [250u64, 500, 1_000, 2_000];
    progress::batch(timeouts.len());
    timeouts
        .into_iter()
        .map(|ms| {
            let mut cfg = base_config(effort);
            cfg.policy = PolicySpec::OrN(10);
            cfg.arrival_rate_tps = 40.0;
            cfg.batch.batch_timeout_ms = ms;
            run_row(format!("BatchTimeout={ms}ms"), cfg)
        })
        .collect()
}

/// Ablation: what if the committer were parallel? (The paper's conclusion
/// implies the validate bottleneck; this quantifies the headroom.)
pub fn ablation_validation_parallelism(effort: Effort) -> Vec<Row> {
    let threads = [1usize, 2, 4, 8];
    progress::batch(threads.len());
    threads
        .into_iter()
        .map(|threads| {
            let mut cfg = base_config(effort);
            cfg.policy = PolicySpec::OrN(10);
            cfg.arrival_rate_tps = 500.0;
            cfg.cost.validate_threads = threads;
            // Give the execute phase headroom so validation stays the knee.
            cfg.endorsing_peers = 10;
            cfg.cost.client_prep_ms = 12.0;
            run_row(format!("validate_threads={threads}"), cfg)
        })
        .collect()
}

/// Ablation: widen only the VSCC worker pool while MVCC + commit stay serial —
/// the staged-pipeline what-if. Same load point as
/// [`ablation_validation_parallelism`], so the two sweeps are directly
/// comparable: pooling VSCC buys most of the headroom of fully parallel
/// committers until the serial commit tail binds.
pub fn ablation_validator_pool(effort: Effort) -> Vec<Row> {
    let pools = [1usize, 2, 4, 8];
    progress::batch(pools.len());
    pools
        .into_iter()
        .map(|pool| {
            let mut cfg = base_config(effort);
            cfg.policy = PolicySpec::OrN(10);
            cfg.arrival_rate_tps = 500.0;
            cfg.cost.validator_pool_size = pool;
            // Give the execute phase headroom so validation stays the knee.
            cfg.endorsing_peers = 10;
            cfg.cost.client_prep_ms = 12.0;
            run_row(format!("validator_pool={pool}"), cfg)
        })
        .collect()
}

/// Ablation: MVCC conflict rate under a hot-key read-modify-write workload.
pub fn ablation_mvcc_conflicts(effort: Effort) -> Vec<Row> {
    let keyspaces = [2usize, 8, 32, 128, 1024];
    progress::batch(keyspaces.len());
    keyspaces
        .into_iter()
        .map(|keyspace| {
            let mut cfg = base_config(effort);
            cfg.policy = PolicySpec::OrN(10);
            cfg.arrival_rate_tps = 150.0;
            cfg.workload = WorkloadKind::KvRmw {
                keyspace,
                payload_bytes: 1,
            };
            run_row(format!("keyspace={keyspace}"), cfg)
        })
        .collect()
}

/// Ablation: gossip dissemination vs direct delivery, at growing peer counts.
/// Quantifies the block-propagation trade-off the paper's related work
/// discusses: gossip bounds the orderer's delivery fan-out at the cost of one
/// extra mesh hop of latency.
pub fn ablation_gossip(effort: Effort) -> Vec<Row> {
    progress::batch(3 * 2);
    let mut rows = Vec::new();
    for committers in [2u32, 8, 16] {
        for gossip in [None, Some(GossipConfig::default())] {
            let mut cfg = base_config(effort);
            cfg.policy = PolicySpec::OrN(10);
            cfg.arrival_rate_tps = 200.0;
            cfg.committing_peers = committers;
            cfg.gossip = gossip;
            let mode = if cfg.gossip.is_some() {
                "gossip"
            } else {
                "direct"
            };
            rows.push(run_row(format!("{mode} committers={committers}"), cfg));
        }
    }
    rows
}

/// Ablation: network bandwidth sensitivity (the paper's testbed was 1 Gbps;
/// related work reports bandwidth becoming the bottleneck at scale).
pub fn ablation_bandwidth(effort: Effort) -> Vec<Row> {
    let bands = [
        (10_000_000u64, "10Mbps"),
        (100_000_000, "100Mbps"),
        (1_000_000_000, "1Gbps"),
    ];
    progress::batch(bands.len());
    bands
        .into_iter()
        .map(|(bps, label)| {
            let mut cfg = base_config(effort);
            cfg.policy = PolicySpec::OrN(10);
            cfg.arrival_rate_tps = 250.0;
            cfg.committing_peers = 8;
            cfg.workload = WorkloadKind::KvPut {
                payload_bytes: 1024,
            };
            cfg.cost.link_bandwidth_bps = bps;
            run_row(label.to_string(), cfg)
        })
        .collect()
}

/// Ablation: channel count — Fabric's horizontal-scaling mechanism (paper
/// §II; Androulaki et al.'s "Channels" paper, the study's reference \[11\]).
/// Each channel gets its own consensus instance and commit pipeline; the
/// validate ceiling multiplies until the client pools bind.
pub fn ablation_channels(effort: Effort) -> Vec<Row> {
    let channel_counts = [1u32, 2, 4];
    progress::batch(channel_counts.len());
    channel_counts
        .into_iter()
        .map(|channels| {
            let mut cfg = base_config(effort);
            cfg.orderer_type = OrdererType::Raft;
            cfg.policy = PolicySpec::OrN(10);
            cfg.channels = channels;
            cfg.arrival_rate_tps = 500.0; // above the single-channel ceiling
            run_row(format!("channels={channels}"), cfg)
        })
        .collect()
}

/// Ablation: payload (transaction value) size.
pub fn ablation_payload_size(effort: Effort) -> Vec<Row> {
    let sizes = [1usize, 64, 1024, 8192];
    progress::batch(sizes.len());
    sizes
        .into_iter()
        .map(|bytes| {
            let mut cfg = base_config(effort);
            cfg.policy = PolicySpec::OrN(10);
            cfg.arrival_rate_tps = 250.0;
            cfg.workload = WorkloadKind::KvPut {
                payload_bytes: bytes,
            };
            run_row(format!("payload={bytes}B"), cfg)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_overall_sweep_shapes_match_the_paper() {
        let rows = overall_sweep(Effort::Quick);
        assert_eq!(rows.len(), 3 * 2 * 3);

        // Finding 1+2 (Fig. 2): at λ=400 every orderer saturates OR ≈ 300 and
        // AND ≈ 200, with no significant difference across orderers.
        let sat = |orderer: &str, pol: &str| {
            rows.iter()
                .find(|r| r.label == format!("{orderer}/{pol} λ=400"))
                .map(|r| r.summary.committed_tps())
                .unwrap()
        };
        for orderer in ["Solo", "Kafka", "Raft"] {
            let or = sat(orderer, "OR10");
            let and = sat(orderer, "AND5");
            assert!((260.0..340.0).contains(&or), "{orderer} OR10 sat {or}");
            assert!((170.0..240.0).contains(&and), "{orderer} AND5 sat {and}");
            assert!(and < or - 40.0, "{orderer}: AND must cap below OR");
        }
        let solo = sat("Solo", "OR10");
        let kafka = sat("Kafka", "OR10");
        let raft = sat("Raft", "OR10");
        let spread = (solo - kafka).abs().max((solo - raft).abs());
        assert!(
            spread < 0.15 * solo,
            "orderers should not differ significantly: {solo}/{kafka}/{raft}"
        );

        // Linearity below the knee (Figs. 4/5): at λ=100 all phases track λ.
        let low = rows.iter().find(|r| r.label == "Solo/OR10 λ=100").unwrap();
        assert!((low.summary.execute.throughput_tps - 100.0).abs() < 10.0);
        assert!((low.summary.validate.throughput_tps - 100.0).abs() < 10.0);
    }

    #[test]
    fn quick_table2_scaling_shape() {
        let (tput, lat) = endorsing_peer_scalability(Effort::Quick);
        let get = |label: &str| {
            tput.iter()
                .find(|r| r.label == label)
                .map(|r| r.summary.committed_tps())
                .unwrap_or_else(|| panic!("row {label} missing"))
        };
        // Table II ramp: ≈50/peer under OR until the validate cap.
        assert!(
            (35.0..65.0).contains(&get("OR10 n=1")),
            "{}",
            get("OR10 n=1")
        );
        assert!((120.0..180.0).contains(&get("OR10 n=3")));
        assert!((250.0..330.0).contains(&get("OR10 n=10")));
        // AND5 caps near 200 at n=5.
        assert!((170.0..240.0).contains(&get("AND5 n=5")));
        // Latency rows exist for every throughput row.
        assert_eq!(tput.len(), lat.len());
    }

    #[test]
    fn quick_fig8_is_flat() {
        let (tput, _lat) = osn_scalability(Effort::Quick);
        let values: Vec<f64> = tput.iter().map(|r| r.summary.committed_tps()).collect();
        let min = values.iter().cloned().fold(f64::MAX, f64::min);
        let max = values.iter().cloned().fold(0.0, f64::max);
        assert!(
            max - min < 0.2 * max,
            "throughput should be flat across OSN counts/ensembles: {values:?}"
        );
        assert!((250.0..340.0).contains(&min), "all near the validate cap");
    }

    #[test]
    fn filter_policy_selects_rows() {
        let rows = vec![
            Row {
                label: "Solo/OR10 λ=100".into(),
                summary: crate::metrics::summarize(
                    &[],
                    &[],
                    (
                        fabricsim_des::SimTime::ZERO,
                        fabricsim_des::SimTime::from_secs_f64(1.0),
                    ),
                    100.0,
                ),
            },
            Row {
                label: "Solo/AND5 λ=100".into(),
                summary: crate::metrics::summarize(
                    &[],
                    &[],
                    (
                        fabricsim_des::SimTime::ZERO,
                        fabricsim_des::SimTime::from_secs_f64(1.0),
                    ),
                    100.0,
                ),
            },
        ];
        assert_eq!(filter_policy(&rows, "OR10").len(), 1);
        assert_eq!(filter_policy(&rows, "AND5").len(), 1);
    }
}
