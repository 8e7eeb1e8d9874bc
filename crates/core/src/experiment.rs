//! The studies behind every table and figure of the paper, as data.
//!
//! Each study function returns its labelled [`Scenario`]s and runs nothing;
//! [`run`] simulates a scenario list into [`Row`]s for [`crate::report`]'s
//! text tables and CSV writers. The `fabricsim-bench` crate's `experiments`
//! binary drives these and writes `results/*.csv` plus `EXPERIMENTS.md`
//! fodder.
//!
//! One λ-sweep (`overall_sweep`) feeds Figs. 2–7: the paper's overall
//! throughput/latency figures and the per-phase breakdowns are different
//! projections of the same runs, exactly as in the original study (one
//! deployment, instrumented per phase).

use fabricsim_types::OrdererType;

use crate::report::Row;
use crate::sim::Simulation;
use crate::workload::{GossipConfig, PolicySpec, SimConfig, WorkloadKind};

/// One labelled scenario of a study: the row label and the configuration
/// to simulate.
pub type Scenario = (String, SimConfig);

/// Runs `scenarios` in order. Lazy: each [`Row`] is simulated when the
/// iterator yields it, so a caller can report progress between runs.
pub fn run(scenarios: impl IntoIterator<Item = Scenario>) -> impl Iterator<Item = Row> {
    scenarios.into_iter().map(|(label, cfg)| Row {
        label,
        summary: Simulation::new(cfg).run(),
    })
}

/// Run length preset: `Full` reproduces the paper-scale windows; `Quick` is
/// for CI and the tests.
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
/// Figs. 4–7 keep the rows of one policy (`cfg.policy`).
pub fn overall_sweep(effort: Effort) -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    for orderer in OrdererType::ALL {
        for policy in [PolicySpec::OrN(10), PolicySpec::AndX(5)] {
            for rate in effort.rates() {
                let mut cfg = base_config(effort);
                cfg.orderer_type = orderer;
                cfg.policy = policy.clone();
                cfg.arrival_rate_tps = rate;
                scenarios.push((format!("{orderer}/{} λ={rate:.0}", policy.label()), cfg));
            }
        }
    }
    scenarios
}

/// Table II / Table III: scalability of endorsing peers.
///
/// For each `(#peers, policy)` cell the paper reports peak throughput and the
/// latency near the peak; we run each cell twice — at 1.2× the predicted
/// capacity (throughput row) and at 0.85× (latency row) — mirroring how a
/// measurement study locates the knee.
///
/// Returns `(throughput_scenarios, latency_scenarios)`.
pub fn endorsing_peer_scalability(effort: Effort) -> (Vec<Scenario>, Vec<Scenario>) {
    // (policy, applicable peer counts) exactly as the paper's table cells.
    let cells: [(PolicySpec, &[u32]); 4] = [
        (PolicySpec::OrN(10), &[1, 3, 5, 7, 10]),
        (PolicySpec::OrN(3), &[1, 3]),
        (PolicySpec::AndX(5), &[1, 3, 5]),
        (PolicySpec::AndX(3), &[1, 3]),
    ];
    let mut tput = Vec::new();
    let mut lat = Vec::new();
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
            let label = format!("{} n={n}", policy.label());

            let mut high = cfg.clone();
            high.arrival_rate_tps = capacity * 1.2;
            tput.push((label.clone(), high));

            let mut low = cfg;
            low.arrival_rate_tps = capacity * 0.85;
            lat.push((label, low));
        }
    }
    (tput, lat)
}

/// Fig. 8: throughput and latency vs number of ordering-service nodes, for
/// Kafka and Raft, with ZooKeeper/broker ensembles of 3 and of 7.
///
/// Returns `(throughput_scenarios, latency_scenarios)`; throughput measured
/// above the knee (λ = 350), latency below it (λ = 260).
pub fn osn_scalability(effort: Effort) -> (Vec<Scenario>, Vec<Scenario>) {
    let osn_counts: &[u32] = match effort {
        Effort::Full => &[4, 6, 8, 10, 12],
        Effort::Quick => &[4, 12],
    };
    let mut tput = Vec::new();
    let mut lat = Vec::new();
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
                tput.push((label.clone(), high));

                let mut low = cfg;
                low.arrival_rate_tps = 260.0;
                lat.push((label, low));
            }
        }
    }
    (tput, lat)
}

/// One scenario per value of a swept knob: `setup` sets the knob on the
/// OR10 base config and returns the row label.
fn or10_sweep<T>(
    effort: Effort,
    values: impl IntoIterator<Item = T>,
    setup: impl Fn(&mut SimConfig, T) -> String,
) -> Vec<Scenario> {
    values
        .into_iter()
        .map(|value| {
            let mut cfg = base_config(effort);
            cfg.policy = PolicySpec::OrN(10);
            let label = setup(&mut cfg, value);
            (label, cfg)
        })
        .collect()
}

/// Ablation: BatchSize sweep (the paper's §III block-cutting rule 1).
pub fn ablation_batch_size(effort: Effort) -> Vec<Scenario> {
    or10_sweep(effort, [10usize, 50, 100, 200, 500], |cfg, size| {
        cfg.arrival_rate_tps = 250.0;
        cfg.batch.max_message_count = size;
        format!("BatchSize={size}")
    })
}

/// Ablation: BatchTimeout sweep at a low rate where timeout-cutting dominates.
pub fn ablation_batch_timeout(effort: Effort) -> Vec<Scenario> {
    or10_sweep(effort, [250u64, 500, 1_000, 2_000], |cfg, ms| {
        cfg.arrival_rate_tps = 40.0;
        cfg.batch.batch_timeout_ms = ms;
        format!("BatchTimeout={ms}ms")
    })
}

/// Ablation: what if the committer were parallel? (The paper's conclusion
/// implies the validate bottleneck; this quantifies the headroom.)
pub fn ablation_validation_parallelism(effort: Effort) -> Vec<Scenario> {
    or10_sweep(effort, [1usize, 2, 4, 8], |cfg, threads| {
        cfg.arrival_rate_tps = 500.0;
        cfg.cost.validate_threads = threads;
        // Give the execute phase headroom so validation stays the knee.
        cfg.endorsing_peers = 10;
        cfg.cost.client_prep_ms = 12.0;
        format!("validate_threads={threads}")
    })
}

/// Ablation: widen only the VSCC worker pool while MVCC + commit stay serial —
/// the staged-pipeline what-if. Same load point as
/// [`ablation_validation_parallelism`], so the two sweeps are directly
/// comparable: pooling VSCC buys most of the headroom of fully parallel
/// committers until the serial commit tail binds.
pub fn ablation_validator_pool(effort: Effort) -> Vec<Scenario> {
    or10_sweep(effort, [1usize, 2, 4, 8], |cfg, pool| {
        cfg.arrival_rate_tps = 500.0;
        cfg.cost.validator_pool_size = pool;
        // Give the execute phase headroom so validation stays the knee.
        cfg.endorsing_peers = 10;
        cfg.cost.client_prep_ms = 12.0;
        format!("validator_pool={pool}")
    })
}

/// Ablation: MVCC conflict rate under a hot-key read-modify-write workload.
pub fn ablation_mvcc_conflicts(effort: Effort) -> Vec<Scenario> {
    or10_sweep(effort, [2usize, 8, 32, 128, 1024], |cfg, keyspace| {
        cfg.arrival_rate_tps = 150.0;
        cfg.workload = WorkloadKind::KvRmw {
            keyspace,
            payload_bytes: 1,
        };
        format!("keyspace={keyspace}")
    })
}

/// Ablation: gossip dissemination vs direct delivery, at growing peer counts.
/// Quantifies the block-propagation trade-off the paper's related work
/// discusses: gossip bounds the orderer's delivery fan-out at the cost of one
/// extra mesh hop of latency.
pub fn ablation_gossip(effort: Effort) -> Vec<Scenario> {
    let cells = [2u32, 8, 16]
        .into_iter()
        .flat_map(|committers| [None, Some(GossipConfig::default())].map(|g| (committers, g)));
    or10_sweep(effort, cells, |cfg, (committers, gossip)| {
        cfg.arrival_rate_tps = 200.0;
        cfg.committing_peers = committers;
        let mode = if gossip.is_some() { "gossip" } else { "direct" };
        cfg.gossip = gossip;
        format!("{mode} committers={committers}")
    })
}

/// Ablation: network bandwidth sensitivity (the paper's testbed was 1 Gbps;
/// related work reports bandwidth becoming the bottleneck at scale).
pub fn ablation_bandwidth(effort: Effort) -> Vec<Scenario> {
    let bands = [
        (10_000_000u64, "10Mbps"),
        (100_000_000, "100Mbps"),
        (1_000_000_000, "1Gbps"),
    ];
    or10_sweep(effort, bands, |cfg, (bps, label)| {
        cfg.arrival_rate_tps = 250.0;
        cfg.committing_peers = 8;
        cfg.workload = WorkloadKind::KvPut {
            payload_bytes: 1024,
        };
        cfg.cost.link_bandwidth_bps = bps;
        label.to_string()
    })
}

/// Ablation: channel count — Fabric's horizontal-scaling mechanism (paper
/// §II; Androulaki et al.'s "Channels" paper, the study's reference \[11\]).
/// Each channel gets its own consensus instance and commit pipeline; the
/// validate ceiling multiplies until the client pools bind.
pub fn ablation_channels(effort: Effort) -> Vec<Scenario> {
    or10_sweep(effort, [1u32, 2, 4], |cfg, channels| {
        cfg.orderer_type = OrdererType::Raft;
        cfg.channels = channels;
        cfg.arrival_rate_tps = 500.0; // above the single-channel ceiling
        format!("channels={channels}")
    })
}

/// Ablation: payload (transaction value) size.
pub fn ablation_payload_size(effort: Effort) -> Vec<Scenario> {
    or10_sweep(effort, [1usize, 64, 1024, 8192], |cfg, bytes| {
        cfg.arrival_rate_tps = 250.0;
        cfg.workload = WorkloadKind::KvPut {
            payload_bytes: bytes,
        };
        format!("payload={bytes}B")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every study at `effort`, as built (nothing is run).
    fn studies(effort: Effort) -> Vec<Vec<Scenario>> {
        let (peers_tput, peers_lat) = endorsing_peer_scalability(effort);
        let (osns_tput, osns_lat) = osn_scalability(effort);
        vec![
            overall_sweep(effort),
            peers_tput,
            peers_lat,
            osns_tput,
            osns_lat,
            ablation_batch_size(effort),
            ablation_batch_timeout(effort),
            ablation_validation_parallelism(effort),
            ablation_validator_pool(effort),
            ablation_mvcc_conflicts(effort),
            ablation_gossip(effort),
            ablation_bandwidth(effort),
            ablation_channels(effort),
            ablation_payload_size(effort),
        ]
    }

    #[test]
    fn every_study_is_valid_with_unique_labels() {
        for (effort, expected) in [(Effort::Quick, 96), (Effort::Full, 150)] {
            let studies = studies(effort);
            let total: usize = studies.iter().map(Vec::len).sum();
            assert_eq!(total, expected, "{effort:?} scenario count");
            for study in &studies {
                let mut labels = std::collections::BTreeSet::new();
                for (label, cfg) in study {
                    cfg.validate()
                        .unwrap_or_else(|e| panic!("{effort:?} {label}: {e}"));
                    assert!(labels.insert(label), "{effort:?}: label {label} repeats");
                }
            }
        }
    }

    #[test]
    fn quick_overall_sweep_shapes_match_the_paper() {
        let rows: Vec<Row> = run(overall_sweep(Effort::Quick)).collect();
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
        // Latency rows exist for every throughput row.
        assert_eq!(tput.len(), lat.len());
        let tput: Vec<Row> = run(tput).collect();
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
    }

    #[test]
    fn quick_fig8_is_flat() {
        let tput: Vec<Row> = run(osn_scalability(Effort::Quick).0).collect();
        let values: Vec<f64> = tput.iter().map(|r| r.summary.committed_tps()).collect();
        let min = values.iter().cloned().fold(f64::MAX, f64::min);
        let max = values.iter().cloned().fold(0.0, f64::max);
        assert!(
            max - min < 0.2 * max,
            "throughput should be flat across OSN counts/ensembles: {values:?}"
        );
        assert!((250.0..340.0).contains(&min), "all near the validate cap");
    }
}
