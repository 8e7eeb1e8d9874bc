//! End-to-end observability: structured traces, sampled time-series, and the
//! bottleneck-attribution report, exercised through the full simulation.

use fabricsim::obs::{metrics_csv, parse_jsonl_with_provenance, TracePhase};
use fabricsim::{OrdererType, PolicySpec, SimConfig, Simulation};

fn obs_config(policy: PolicySpec, rate: f64) -> SimConfig {
    let mut cfg = SimConfig {
        orderer_type: OrdererType::Solo,
        policy,
        arrival_rate_tps: rate,
        endorsing_peers: 10,
        duration_secs: 15.0,
        warmup_secs: 3.0,
        cooldown_secs: 2.0,
        ..SimConfig::default()
    };
    cfg.obs.trace_events = true;
    cfg
}

#[test]
fn tracing_is_off_by_default_and_does_not_change_results() {
    let mut base = obs_config(PolicySpec::OrN(10), 100.0);
    base.obs.trace_events = false;
    let untraced = Simulation::new(base.clone()).run_detailed();
    assert!(untraced.observability.events.is_empty());

    // The sampler always runs; a four-times finer cadence must not perturb
    // the run either.
    let mut traced_cfg = base;
    traced_cfg.obs.trace_events = true;
    traced_cfg.obs.sample_period_s = 0.25;
    let traced = Simulation::new(traced_cfg).run_detailed();
    assert!(!traced.observability.events.is_empty());

    // Instrumentation must observe the run, never perturb it.
    assert_eq!(untraced.summary.created, traced.summary.created);
    assert_eq!(
        untraced.summary.committed_valid,
        traced.summary.committed_valid
    );
    assert_eq!(untraced.summary.blocks_cut, traced.summary.blocks_cut);
    assert_eq!(
        untraced.summary.overall_latency.mean_s,
        traced.summary.overall_latency.mean_s
    );
}

#[test]
fn trace_events_round_trip_through_jsonl() {
    let r = Simulation::new(obs_config(PolicySpec::OrN(10), 80.0)).run_detailed();
    let events = &r.observability.events;
    assert!(!events.is_empty());

    let text = r.observability.events_jsonl();
    let (_, parsed) = parse_jsonl_with_provenance(&text).expect("trace must be valid JSONL");
    assert_eq!(&parsed, events, "parse(serialize(events)) must be lossless");

    // Events are emitted in virtual-time order.
    for w in events.windows(2) {
        assert!(w[0].t_s <= w[1].t_s, "events out of order: {w:?}");
    }

    // Every committed transaction crossed the full pipeline, in order.
    let committed: Vec<&str> = events
        .iter()
        .filter(|e| e.phase == TracePhase::Committed)
        .map(|e| e.tx.as_str())
        .collect();
    assert!(!committed.is_empty());
    let chain = [
        TracePhase::Created,
        TracePhase::ProposalSent,
        TracePhase::Endorsed,
        TracePhase::Submitted,
        TracePhase::Ordered,
        TracePhase::Delivered,
        TracePhase::VsccDone,
        TracePhase::Committed,
    ];
    let tx = committed[committed.len() / 2];
    let mine: Vec<TracePhase> = events
        .iter()
        .filter(|e| e.tx == tx)
        .map(|e| e.phase)
        .collect();
    let mut want = chain.iter();
    let mut next = want.next();
    for p in &mine {
        if Some(p) == next {
            next = want.next();
        }
    }
    assert!(next.is_none(), "tx {tx} missing phases; saw {mine:?}");
}

#[test]
fn bottleneck_report_names_peer_vscc_past_saturation() {
    // Paper Finding 3: validation is the bottleneck, and AND-x policies
    // saturate it sooner. At 250 tps an AND5 deployment is past the knee.
    let r = Simulation::new(obs_config(PolicySpec::AndX(5), 250.0)).run_detailed();
    let report = &r.observability.bottleneck;
    let dominant = report.dominant().expect("committed txs exist");
    assert_eq!(dominant.label(), "peer vscc");

    // Attribution accounting: queueing at the validator dominates its own
    // service time and every other station's queueing.
    let overall = &report.overall;
    let vi = dominant.idx();
    assert!(overall.mean_queued_s[vi] > overall.mean_service_s[vi]);
    for (i, q) in overall.mean_queued_s.iter().enumerate() {
        if i != vi {
            assert!(overall.mean_queued_s[vi] > *q);
        }
    }
    // The rendered table and JSON both name the dominant queue.
    assert!(report.render_table().contains("dominant queue: peer vscc"));
    assert!(report.to_json().contains("\"dominant\":\"peer vscc\""));
}

#[test]
fn sampler_records_every_virtual_second() {
    let r = Simulation::new(obs_config(PolicySpec::OrN(10), 120.0)).run_detailed();
    let [w] = &r.observability.samples[..] else {
        panic!("one channel world, one sampler record");
    };
    // 15 s at the default 1 s period: fifteen whole windows, no tail.
    assert_eq!(w.rows.len(), 15);
    assert!(!w.tail);
    for (i, row) in w.rows.iter().enumerate() {
        assert_eq!((row.t_end_s, row.width_s), ((i + 1) as f64, 1.0));
    }
    // Under steady load some work must actually be in flight.
    assert!(w.rows.iter().any(|row| row.inflight > 0));

    // CSV export: header + one row per window, consistent column count.
    let csv = metrics_csv(1.0, &r.observability.samples);
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), w.rows.len() + 1);
    let header: Vec<&str> = lines[0].split(',').collect();
    for name in [
        "queue.pool_prep",
        "queue.peer_vscc",
        "queue.peer_commit",
        "util.peer_vscc",
        "util.peer_commit",
        "inflight.txs",
        "blocks.cut_per_tick",
    ] {
        assert!(header.contains(&name), "missing column {name}");
    }
    for l in &lines[1..] {
        assert_eq!(l.split(',').count(), header.len());
    }
}

#[test]
fn trace_stamps_and_phase_events_are_one_record() {
    // A transaction's `TxTrace` and its phase events are two renderings of
    // one record: every stamp is the time of the first event of its phase,
    // and every first event of a stamped phase is that stamp.
    use fabricsim::obs::PhaseEvent;
    use fabricsim::TxTrace;
    use std::collections::HashMap;

    fn stamps(t: &TxTrace) -> [(TracePhase, Option<f64>); 8] {
        [
            (TracePhase::Created, Some(t.created)),
            (TracePhase::ProposalSent, t.proposal_sent),
            (TracePhase::Endorsed, t.endorsed),
            (TracePhase::Submitted, t.submitted),
            (TracePhase::OrderAcked, t.order_acked),
            (TracePhase::Ordered, t.ordered),
            (TracePhase::Delivered, t.delivered),
            (TracePhase::Committed, t.committed),
        ]
        .map(|(phase, at)| (phase, at.map(|at| at.as_secs_f64())))
    }

    let scenarios = [
        (OrdererType::Solo, PolicySpec::AndX(5), 5, 150.0),
        (OrdererType::Kafka, PolicySpec::OrN(2), 2, 90.0),
        (OrdererType::Raft, PolicySpec::AndX(3), 3, 150.0),
    ];
    for (orderer, policy, peers, rate) in scenarios {
        let mut cfg = obs_config(policy, rate);
        cfg.orderer_type = orderer;
        cfg.endorsing_peers = peers;
        cfg.obs.trace_sample = 1.0;
        let r = Simulation::new(cfg).run_detailed();
        assert_eq!(r.observability.dropped_events, 0);

        // First event per (tx, phase), and transactions in creation order.
        let mut first: HashMap<(&str, TracePhase), &PhaseEvent> = HashMap::new();
        let mut created: Vec<&str> = Vec::new();
        for e in &r.observability.events {
            first.entry((e.tx.as_str(), e.phase)).or_insert(e);
            if e.phase == TracePhase::Created {
                created.push(e.tx.as_str());
            }
        }
        // No arrival is refused at these loads, so the k-th trace is the
        // k-th created transaction.
        assert_eq!(created.len(), r.traces.len(), "{orderer:?}");
        let mut checked = 0;
        for (tx, trace) in created.iter().zip(&r.traces) {
            for (phase, stamp) in stamps(trace) {
                let event = first.get(&(*tx, phase)).map(|e| e.t_s);
                assert_eq!(stamp, event, "{orderer:?} tx {tx} {phase:?}");
                checked += usize::from(stamp.is_some());
            }
        }
        assert!(checked > 8 * r.traces.len() / 2, "{orderer:?}: {checked}");
    }
}

/// The benchmark's `des_and5_past_knee` configuration cut to 4 simulated
/// seconds: 100-transaction blocks of six signatures each.
fn and5_past_knee(workers: u32) -> SimConfig {
    let mut cfg = SimConfig {
        orderer_type: OrdererType::Solo,
        endorsing_peers: 10,
        committing_peers: 4,
        policy: PolicySpec::AndX(5),
        arrival_rate_tps: 300.0,
        duration_secs: 4.0,
        warmup_secs: 1.0,
        cooldown_secs: 1.0,
        sim_workers: workers,
        ..SimConfig::default()
    };
    cfg.cost.validator_pool_size = 1;
    cfg
}

/// The benchmark's `des_kafka_small_blocks` configuration cut to 10
/// simulated seconds: two transactions a block, each with one endorsement.
fn kafka_small_blocks(workers: u32) -> SimConfig {
    let mut cfg = SimConfig {
        orderer_type: OrdererType::Kafka,
        broker_count: 5,
        zk_count: 3,
        osn_count: 3,
        endorsing_peers: 2,
        policy: PolicySpec::OrN(2),
        arrival_rate_tps: 90.0,
        duration_secs: 10.0,
        warmup_secs: 4.0,
        cooldown_secs: 2.0,
        sim_workers: workers,
        ..SimConfig::default()
    };
    cfg.batch.max_message_count = 2;
    cfg.cost.validator_pool_size = 1;
    cfg
}

/// The benchmark's `des_raft_ch4_w2` configuration cut to 3 simulated
/// seconds: four channels of 100-transaction AND5 blocks.
fn raft_ch4(workers: u32) -> SimConfig {
    let mut cfg = SimConfig {
        orderer_type: OrdererType::Raft,
        osn_count: 3,
        endorsing_peers: 10,
        policy: PolicySpec::AndX(5),
        channels: 4,
        arrival_rate_tps: 500.0,
        duration_secs: 3.0,
        warmup_secs: 1.0,
        cooldown_secs: 1.0,
        sim_workers: workers,
        ..SimConfig::default()
    };
    cfg.cost.validator_pool_size = 1;
    cfg
}

#[test]
fn four_channels_on_two_workers_validate_at_the_barrier() {
    let lane = |cfg: SimConfig| Simulation::new(cfg).run_detailed().observability.lane;
    // Two event loops and no spare thread: the loops serve the lane while
    // they wait for each other, and hand over the same blocks as four
    // loops with a spare thread.
    let two = lane(raft_ch4(2));
    assert!(two.jobs > 0, "{two:?}");
    assert!(two.helped + two.stolen <= two.jobs, "{two:?}");
    assert_eq!(lane(raft_ch4(8)).jobs, two.jobs);
    // One worker is exactly one thread: no lane at all.
    assert_eq!(lane(raft_ch4(1)), fabricsim::LaneStats::default());
}

#[test]
fn the_lane_reports_what_it_did_and_stays_idle_without_work() {
    let lane = |cfg: SimConfig| Simulation::new(cfg).run_detailed().observability.lane;
    // A spare thread and big blocks: every peer hands blocks over. How
    // many is a function of the configuration, not of the thread count.
    let two = lane(and5_past_knee(2));
    assert!(two.jobs > 0, "{two:?}");
    assert!(two.stolen + two.waits <= two.jobs, "{two:?}");
    assert!(two.busy_s > 0.0, "{two:?}");
    assert_eq!(lane(and5_past_knee(4)).jobs, two.jobs);
    // One worker is exactly one thread: no lane at all.
    let one = lane(and5_past_knee(1));
    assert_eq!(one, fabricsim::LaneStats::default());
    // Two-transaction blocks never reach the signature threshold, whatever
    // the thread budget.
    for workers in [0, 1, 2, 4] {
        let small = lane(kafka_small_blocks(workers));
        assert_eq!(small.jobs, 0, "workers={workers}: {small:?}");
    }
}
