//! Causal span-graph acceptance: coverage of every actor class, exact
//! critical-path reconciliation against end-to-end latency, one span per id,
//! parents present, deterministic head sampling, and gossip-depth
//! accounting.

use std::collections::HashSet;

use fabricsim::obs::{SpanGraphAnalysis, SpanKind};
use fabricsim::{GossipConfig, OrdererType, PolicySpec, SimConfig, Simulation};
use fabricsim_integration::quick_config;

fn span_config(orderer: OrdererType, rate: f64) -> SimConfig {
    let mut cfg = quick_config(orderer, PolicySpec::AndX(3), rate);
    cfg.obs.span_events = true;
    cfg
}

#[test]
fn critical_path_reconciles_with_e2e_latency_at_500_tps() {
    let cfg = span_config(OrdererType::Raft, 500.0);
    let result = Simulation::new(cfg).run_detailed();
    assert_eq!(result.observability.dropped_spans, 0, "sink overflowed");
    let analysis = SpanGraphAnalysis::from_spans(&result.observability.spans);
    assert!(
        analysis.txs > 500,
        "too few committed txs: {}",
        analysis.txs
    );
    // Tentpole acceptance: for every committed transaction the critical-path
    // segments tile `committed − created` to within 1e-6 seconds.
    assert!(
        analysis.max_residual_s < 1e-6,
        "critical path does not reconcile: residual {}",
        analysis.max_residual_s
    );
    for p in &analysis.paths {
        let e2e = p.committed_s - p.created_s;
        assert!(
            (p.total_s() - e2e).abs() < 1e-6,
            "{}: segments sum {} vs e2e {}",
            p.trace,
            p.total_s(),
            e2e
        );
    }
    // Each reconstructed path must match a recorded TxTrace end-to-end
    // latency (same SimTime stamps seen through the span graph).
    let mut trace_e2e: Vec<f64> = result
        .traces
        .iter()
        .filter_map(|t| Some((t.committed? - t.created).as_secs_f64()))
        .collect();
    trace_e2e.sort_by(f64::total_cmp);
    for p in &analysis.paths {
        let e2e = p.committed_s - p.created_s;
        let i = trace_e2e.partition_point(|&v| v < e2e);
        let near = [i.checked_sub(1), Some(i)]
            .into_iter()
            .flatten()
            .filter_map(|j| trace_e2e.get(j))
            .any(|&v| (v - e2e).abs() < 1e-9);
        assert!(
            near,
            "{}: path e2e {e2e} matches no recorded trace",
            p.trace
        );
    }
}

#[test]
fn span_graph_covers_every_actor_class() {
    for orderer in OrdererType::ALL {
        let mut cfg = span_config(orderer, 120.0);
        cfg.gossip = Some(GossipConfig::default());
        let result = Simulation::new(cfg).run_detailed();
        let kinds: HashSet<SpanKind> = result.observability.spans.iter().map(|s| s.kind).collect();
        for kind in [
            SpanKind::ClientPrep,
            SpanKind::Endorse,
            SpanKind::Assemble,
            SpanKind::OsnBroadcast,
            SpanKind::BlockCut,
            SpanKind::Deliver,
            SpanKind::GossipHop,
            SpanKind::Vscc,
            SpanKind::Commit,
        ] {
            assert!(kinds.contains(&kind), "{orderer}: no {kind:?} spans");
        }
        match orderer {
            OrdererType::Raft => {
                assert!(kinds.contains(&SpanKind::RaftMsg), "no raft legs");
            }
            OrdererType::Kafka => {
                assert!(kinds.contains(&SpanKind::KafkaProduce), "no produce legs");
                assert!(kinds.contains(&SpanKind::KafkaConsume), "no consume legs");
            }
            OrdererType::Solo => {}
        }
        // Gossip-depth histogram: direct OSN deliveries at hop 0 and at
        // least one real gossip hop, since only the leader peers subscribe.
        let analysis = SpanGraphAnalysis::from_spans(&result.observability.spans);
        let depth0 = analysis
            .gossip_depth
            .iter()
            .find(|(h, _)| *h == 0)
            .map_or(0, |(_, n)| *n);
        let deeper: u64 = analysis
            .gossip_depth
            .iter()
            .filter(|(h, _)| *h >= 1)
            .map(|(_, n)| n)
            .sum();
        assert!(depth0 > 0, "{orderer}: no direct deliveries");
        assert!(deeper > 0, "{orderer}: gossip mesh produced no hop spans");
        assert!(
            !analysis.slowest_endorser.is_empty(),
            "{orderer}: straggler histogram empty"
        );
    }
}

/// Without gossip or faults every block reaches a peer from its OSN, whose
/// `deliver` span is the only one: no span id is recorded twice.
#[test]
fn runs_without_gossip_or_faults_record_each_span_once() {
    for orderer in OrdererType::ALL {
        let result = Simulation::new(span_config(orderer, 120.0)).run_detailed();
        let spans = &result.observability.spans;
        assert_eq!(result.observability.dropped_spans, 0, "{orderer}");
        let mut ids = HashSet::new();
        for s in spans {
            assert!(
                ids.insert(s.span_id),
                "{orderer}: {:?} span {:x} of {} at {} recorded twice",
                s.kind,
                s.span_id,
                s.actor,
                s.trace
            );
        }
        assert!(
            spans.iter().any(|s| s.kind == SpanKind::Deliver),
            "{orderer}: no deliveries"
        );
    }
}

/// Every span names as its parent a span the same run recorded, with gossip
/// and without: an OSN delivery names its own OSN's cut, and a gossip-fed
/// peer, which has no OSN `deliver` span, has its `vscc` spans name the
/// anchor it records on delivery.
#[test]
fn every_parent_is_a_span_of_the_same_run() {
    for (orderer, gossip) in OrdererType::ALL
        .into_iter()
        .flat_map(|o| [(o, false), (o, true)])
    {
        let mut cfg = span_config(orderer, 120.0);
        cfg.obs.trace_sample = 1.0;
        cfg.gossip = gossip.then(GossipConfig::default);
        let result = Simulation::new(cfg).run_detailed();
        let spans = &result.observability.spans;
        assert_eq!(result.observability.dropped_spans, 0, "{orderer}");
        let ids: HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
        assert!(
            spans.iter().any(|s| s.kind == SpanKind::Vscc),
            "{orderer}: no vscc spans"
        );
        for s in spans.iter().filter(|s| s.parent_id != 0) {
            assert!(
                ids.contains(&s.parent_id),
                "{orderer} (gossip {gossip}): {:?} span of {} at {} names a missing parent",
                s.kind,
                s.trace,
                s.actor
            );
        }
    }
}

#[test]
fn head_sampling_is_a_deterministic_subset() {
    let full = Simulation::new(span_config(OrdererType::Solo, 150.0)).run_detailed();
    let mut sampled_cfg = span_config(OrdererType::Solo, 150.0);
    sampled_cfg.obs.trace_sample = 0.5;
    let sampled = Simulation::new(sampled_cfg.clone()).run_detailed();
    let again = Simulation::new(sampled_cfg).run_detailed();

    // Same seed, same rate → byte-identical span file.
    assert_eq!(
        sampled.observability.spans_jsonl(),
        again.observability.spans_jsonl(),
        "sampling is not deterministic"
    );
    // A sampled run records strictly fewer tx-scoped spans, and every one of
    // them also exists (same id) in the unsampled run.
    let full_ids: HashSet<u64> = full.observability.spans.iter().map(|s| s.span_id).collect();
    let tx_scoped = |r: &fabricsim::RunResult| {
        r.observability
            .spans
            .iter()
            .filter(|s| s.kind.tx_scoped())
            .count()
    };
    assert!(
        tx_scoped(&sampled) < tx_scoped(&full),
        "nothing was sampled out"
    );
    assert!(tx_scoped(&sampled) > 0, "everything was sampled out at 0.5");
    for s in &sampled.observability.spans {
        assert!(
            full_ids.contains(&s.span_id),
            "sampled span {:x} missing from the full run",
            s.span_id
        );
    }
    // Block-scoped spans ignore the sampling rate entirely.
    let block_count = |r: &fabricsim::RunResult| {
        r.observability
            .spans
            .iter()
            .filter(|s| !s.kind.tx_scoped())
            .count()
    };
    assert_eq!(
        block_count(&sampled),
        block_count(&full),
        "block-scoped spans must not be sampled"
    );
}

#[test]
fn bounded_span_sink_evicts_and_counts_instead_of_growing() {
    let mut cfg = span_config(OrdererType::Solo, 200.0);
    cfg.obs.trace_buffer_cap = 256;
    let result = Simulation::new(cfg).run_detailed();
    assert!(
        result.observability.spans.len() <= 256,
        "ring exceeded its capacity: {}",
        result.observability.spans.len()
    );
    assert!(
        result.observability.dropped_spans > 0,
        "a 256-entry ring at 200 tps must evict"
    );
}
