//! Reproducibility: the simulation is a pure function of its configuration.

use fabricsim::obs::metrics_csv;
use fabricsim::{
    Fault, GossipConfig, LaneStats, OrdererType, PolicySpec, RunResult, SimConfig, Simulation,
    TxOutcome,
};
use fabricsim_integration::quick_config;

#[test]
fn identical_seeds_give_bit_identical_traces() {
    for orderer in OrdererType::ALL {
        let cfg = quick_config(orderer, PolicySpec::OrN(5), 70.0);
        let a = Simulation::new(cfg.clone()).run_detailed();
        let b = Simulation::new(cfg).run_detailed();
        assert_eq!(a.traces.len(), b.traces.len(), "{orderer}");
        for (x, y) in a.traces.iter().zip(&b.traces) {
            assert_eq!(x.created, y.created, "{orderer}");
            assert_eq!(x.endorsed, y.endorsed, "{orderer}");
            assert_eq!(x.committed, y.committed, "{orderer}");
        }
        assert_eq!(a.block_cuts, b.block_cuts, "{orderer}");
        assert_eq!(a.observer_height, b.observer_height, "{orderer}");
        assert_eq!(a.final_state, b.final_state, "{orderer}");
    }
}

#[test]
fn identical_seeds_give_byte_identical_summary_json_across_pool_sizes() {
    // The staged validation pipeline fans VSCC work over a worker pool;
    // byte-comparing the full serialized report proves that no pool size
    // leaks scheduling nondeterminism into anything the run reports.
    for pool in [1usize, 4, 8] {
        let mut cfg = quick_config(OrdererType::Raft, PolicySpec::AndX(3), 80.0);
        cfg.cost.validator_pool_size = pool;
        let a = Simulation::new(cfg.clone()).run().to_json();
        let b = Simulation::new(cfg).run().to_json();
        assert_eq!(a, b, "pool={pool}: reports differ between identical runs");
        assert!(
            a.contains("\"committed_valid\":"),
            "pool={pool}: serialized report looks empty: {a}"
        );
    }
}

#[test]
fn observability_config_never_changes_the_report() {
    // The entire observability plane is write-only: phase tracing, span-graph
    // recording at any head-sampling rate, and the kernel self-profiler must
    // all leave the serialized SummaryReport byte-identical. This is the
    // contract that lets CI flip tracing on without invalidating baselines.
    let cfg = quick_config(OrdererType::Raft, PolicySpec::AndX(3), 90.0);
    let baseline = Simulation::new(cfg.clone()).run().to_json();
    assert!(
        baseline.contains("\"committed_valid\":"),
        "baseline report looks empty: {baseline}"
    );
    for sample in [0.0, 0.01, 0.5, 1.0] {
        let mut c = cfg.clone();
        c.obs.trace_events = true;
        c.obs.span_events = true;
        c.obs.trace_sample = sample;
        let json = Simulation::new(c).run().to_json();
        assert_eq!(
            baseline, json,
            "tracing at sample rate {sample} changed the report"
        );
    }
    let mut profiled = cfg.clone();
    profiled.obs.profile = true;
    let json = Simulation::new(profiled).run().to_json();
    assert_eq!(baseline, json, "the kernel profiler changed the report");
    // The health plane folds the same sampler's rows and must honor the same
    // write-only contract, whatever objective it burns against.
    for slo in [0.1, 2.0] {
        let mut c = cfg.clone();
        c.obs.health_events = true;
        c.obs.slo_p99_s = slo;
        let json = Simulation::new(c).run().to_json();
        assert_eq!(
            baseline, json,
            "the health plane (SLO {slo}s) changed the report"
        );
    }
}

#[test]
fn health_timeline_is_byte_identical_across_reruns() {
    // The health plane's determinism bar: the serialized JSONL timeline —
    // events, dwell accounting and summary — is byte-identical across
    // reruns, single- and multi-channel (one fold over the channel worlds,
    // window-major then channel order). Worker counts are covered by
    // the `*_byte_identical_at_any_worker_count` tests below.
    for channels in [1u32, 4] {
        let mut cfg = quick_config(OrdererType::Solo, PolicySpec::OrN(5), 120.0);
        cfg.channels = channels;
        cfg.obs.health_events = true;
        let health = |cfg: &SimConfig| {
            let r = Simulation::new(cfg.clone()).run_detailed();
            let h = r.observability.health.expect("health plane attached");
            h.to_jsonl(None)
        };
        assert_eq!(
            health(&cfg),
            health(&cfg),
            "ch{channels}: rerun changed the health timeline"
        );
    }
}

#[test]
fn overload_scenario_emits_deterministic_vscc_onset() {
    // The acceptance scenario: seed 42, one channel, AND5 over 5 peers,
    // validator pool 1, 500 offered tps. The VSCC stage saturates
    // immediately, so the health plane must walk peer.vscc through
    // stable→saturating→overloaded with a deterministic overload onset,
    // and every station's dwells must tile the horizon within 1e-6 s.
    let mut cfg = quick_config(OrdererType::Solo, PolicySpec::AndX(5), 500.0);
    cfg.endorsing_peers = 5;
    cfg.cost.validator_pool_size = 1;
    cfg.seed = 42;
    cfg.obs.health_events = true;
    let r = Simulation::new(cfg).run_detailed();
    let health = r.observability.health.as_ref().expect("health attached");
    let vscc: Vec<(&str, &str)> = health
        .events
        .iter()
        .filter(|e| e.station == "peer.vscc")
        .filter(|e| e.kind == fabricsim::obs::HealthEventKind::Regime)
        .map(|e| (e.from.as_str(), e.to.as_str()))
        .collect();
    assert_eq!(
        vscc,
        [("stable", "saturating"), ("saturating", "overloaded")],
        "step-limited regime walk on peer.vscc: {:?}",
        health.events
    );
    let onset = health
        .onset_of("peer.vscc", fabricsim::obs::Regime::Overloaded)
        .expect("overload onset recorded");
    assert!(
        onset > 0.0,
        "overload is one step after saturating: {onset}"
    );
    assert!(
        health.telescoping_error() <= 1e-6,
        "dwells must tile the horizon: error {}",
        health.telescoping_error()
    );
    assert!(
        health.slo_violations > 0 && health.burn_windows > 0,
        "an overloaded run must burn its SLO budget: {health:?}"
    );
}

#[test]
fn different_seeds_sample_different_arrivals() {
    let mut cfg = quick_config(OrdererType::Solo, PolicySpec::OrN(5), 70.0);
    let a = Simulation::new(cfg.clone()).run_detailed();
    cfg.seed = cfg.seed.wrapping_add(1);
    let b = Simulation::new(cfg).run_detailed();
    assert_ne!(
        a.traces.first().map(|t| t.created),
        b.traces.first().map(|t| t.created),
        "different seeds must shift the arrival process"
    );
}

#[test]
fn throughput_is_seed_stable() {
    // Statistical stability: across seeds, committed throughput at a fixed
    // sub-saturation rate stays within a tight band.
    let mut results = Vec::new();
    for seed in [1u64, 2, 3] {
        let mut cfg = quick_config(OrdererType::Solo, PolicySpec::OrN(5), 100.0);
        cfg.seed = seed;
        results.push(Simulation::new(cfg).run().committed_tps());
    }
    let min = results.iter().cloned().fold(f64::MAX, f64::min);
    let max = results.iter().cloned().fold(0.0, f64::max);
    assert!(
        max - min < 15.0,
        "seed-to-seed throughput variance too large: {results:?}"
    );
}

/// `cfg` run under `faults` at `workers`, with every observability plane
/// on.
fn run_planes_on(cfg: &SimConfig, faults: &[(f64, Fault)], workers: u32) -> RunResult {
    let mut c = cfg.clone();
    c.sim_workers = workers;
    c.obs.trace_events = true;
    c.obs.span_events = true;
    c.obs.trace_sample = 1.0;
    c.obs.health_events = true;
    let r = Simulation::new(c)
        .with_faults(faults.iter().copied())
        .expect("a fault schedule this run can inject")
        .run_detailed();
    assert!(
        r.chain_ok,
        "workers={workers}: every peer's chain must link"
    );
    assert!(
        r.summary.committed_valid > 0,
        "workers={workers}: run must commit"
    );
    r
}

/// Everything a run reports, rendered to the bytes the CLI would write,
/// with every observability plane on, and what the run's lane did.
fn artifacts(
    cfg: &SimConfig,
    faults: &[(f64, Fault)],
    workers: u32,
) -> (Vec<(&'static str, String)>, LaneStats) {
    let r = run_planes_on(cfg, faults, workers);
    (rendered(&r), r.observability.lane)
}

/// `r` rendered to the bytes the CLI would write.
fn rendered(r: &RunResult) -> Vec<(&'static str, String)> {
    let o = &r.observability;
    vec![
        ("summary", r.summary.to_json()),
        ("trace", o.events_jsonl()),
        ("spans", o.spans_jsonl()),
        (
            "health",
            o.health.as_ref().expect("health plane").to_jsonl(None),
        ),
        // Every run here samples at the default period.
        (
            "metrics",
            metrics_csv(SimConfig::default().obs.sample_period_s, &o.samples),
        ),
        ("state", format!("{:?}", r.final_state)),
        ("block cuts", format!("{:?}", r.block_cuts)),
    ]
}

/// `sim_workers` only ever buys wall clock: the serialized SummaryReport
/// (`config_digest` included), the trace/span/health JSONL, the metrics CSV,
/// the final state and the block cuts are byte-identical at every worker
/// count in `workers`, 0 included. The world decomposition and the window
/// boundaries depend only on virtual state, and the lane only moves host
/// work between threads, so the thread budget must be unobservable in every
/// merge point. Returns what the lane did at each worker count.
fn assert_worker_invariant(
    what: &str,
    cfg: &SimConfig,
    faults: &[(f64, Fault)],
    workers: &[u32],
) -> Vec<LaneStats> {
    let (base, lane) = artifacts(cfg, faults, workers[0]);
    let mut lanes = vec![lane];
    for &w in &workers[1..] {
        let (other, lane) = artifacts(cfg, faults, w);
        for ((name, a), (_, b)) in base.iter().zip(other) {
            assert!(
                *a == b,
                "{what}: {name} differs between workers={} and workers={w}",
                workers[0]
            );
        }
        lanes.push(lane);
    }
    lanes
}

/// On one channel, the lane ran at every worker count above 1 and never at
/// 1, so byte-identity across the sweep compared runs with and without it.
fn assert_lane_ran_on_one_channel(what: &str, workers: &[u32], lanes: &[LaneStats]) {
    for (&w, lane) in workers.iter().zip(lanes) {
        match w {
            0 => {}
            1 => assert_eq!(lane.jobs, 0, "{what}: workers=1 is exactly one thread"),
            _ => assert!(lane.jobs > 0, "{what}: workers={w} handed no block over"),
        }
    }
}

#[test]
fn one_channel_runs_are_byte_identical_at_any_worker_count() {
    // Blocks of these runs carry ~100 transactions, far above the lane's
    // signature threshold, so workers 2 and 4 validate ahead on the lane.
    let workers = [0, 1, 2, 4];
    for orderer in OrdererType::ALL {
        let what = format!("{orderer}");
        let cfg = quick_config(orderer, PolicySpec::OrN(5), 120.0);
        let lanes = assert_worker_invariant(&what, &cfg, &[], &workers);
        assert_lane_ran_on_one_channel(&what, &workers, &lanes);
    }
    // AND5: five endorsements a transaction, the benchmark's shape.
    let cfg = quick_config(OrdererType::Solo, PolicySpec::AndX(5), 150.0);
    let lanes = assert_worker_invariant("solo AND5", &cfg, &[], &workers);
    assert_lane_ran_on_one_channel("solo AND5", &workers, &lanes);
    // Gossip delivery is single-channel and all-local, so it needs no
    // special case at any worker count either.
    let mut cfg = quick_config(OrdererType::Solo, PolicySpec::OrN(5), 120.0);
    cfg.committing_peers = 3;
    cfg.gossip = Some(GossipConfig::default());
    let lanes = assert_worker_invariant("gossip", &cfg, &[], &workers);
    assert_lane_ran_on_one_channel("gossip", &workers, &lanes);
}

#[test]
fn osn_crash_replay_is_byte_identical_at_any_worker_count() {
    // An OSN crash makes its subscribers re-subscribe and replay from their
    // height. At 5.4206 s OSN 0's delivery of block 5 is still in flight,
    // so peers 0 and 3 receive block 5 twice and drop the second copy,
    // beside blocks handed to the lane.
    let workers = [1, 2];
    let faults = [(5.4206, Fault::CrashOsn(0))];
    let cfg = quick_config(OrdererType::Raft, PolicySpec::AndX(3), 120.0);
    let lanes = assert_worker_invariant("raft OSN crash", &cfg, &faults, &workers);
    assert_lane_ran_on_one_channel("raft OSN crash", &workers, &lanes);
}

/// On four channels, workers 8 are four event loops and a spare thread, and
/// workers 2 are two loops that serve the lane while they wait at a window
/// barrier: both hand the same blocks over, and workers 1 none.
fn assert_lane_ran_on_four_channels(what: &str, lanes: &[LaneStats]) {
    assert_eq!(lanes[1].jobs, 0, "{what}: workers=1 is exactly one thread");
    assert!(lanes[2].jobs > 0, "{what}: workers=2 handed no block over");
    assert_eq!(lanes[2].jobs, lanes[3].jobs, "{what}: workers 2 against 8");
}

#[test]
fn four_channel_runs_are_byte_identical_at_any_worker_count() {
    let workers = [0, 1, 2, 8];
    for orderer in OrdererType::ALL {
        let mut cfg = quick_config(orderer, PolicySpec::OrN(5), 120.0);
        cfg.channels = 4;
        let what = format!("{orderer} ch4");
        let lanes = assert_worker_invariant(&what, &cfg, &[], &workers);
        assert_lane_ran_on_four_channels(&what, &lanes);
    }
    // The benchmark's `des_raft_ch4_w2` shape: Raft, ten peers, AND5 and
    // 100-transaction blocks of about 600 signatures, so the workers at the
    // barrier validate blocks as big as the benchmark's.
    let mut cfg = quick_config(OrdererType::Raft, PolicySpec::AndX(5), 500.0);
    cfg.endorsing_peers = 10;
    cfg.channels = 4;
    cfg.duration_secs = 6.0;
    cfg.warmup_secs = 2.0;
    cfg.cooldown_secs = 1.0;
    let lanes = assert_worker_invariant("raft AND5 ch4", &cfg, &[], &workers);
    assert_lane_ran_on_four_channels("raft AND5 ch4", &lanes);
}

/// Runs `cfg` under `faults` at workers 1 and 2, long after retention has
/// let go of thousands of blocks in every store, and holds each run to
/// what the crashes must not change: the artifacts are byte-identical, the
/// observer (whose OSN `faults` crash first) re-subscribes and reaches the
/// height the ordering service cut, and every transaction it committed is
/// in its world state once — none lost, none committed twice.
fn assert_faults_after_retention(what: &str, cfg: &SimConfig, faults: &[(f64, Fault)]) {
    let base = run_planes_on(cfg, faults, 1);
    let r = run_planes_on(cfg, faults, 2);
    for ((name, a), (_, b)) in rendered(&base).iter().zip(rendered(&r)) {
        assert!(*a == b, "{what}: {name} differs between workers 1 and 2");
    }
    let cut = r.block_cuts.len() as u64;
    assert!(cut > 400, "{what}: {cut} blocks");
    // The blocks cut in the last moments of the run are still in flight.
    let behind = cut - r.observer_height;
    assert!(
        behind < 16,
        "{what}: the observer is {behind} blocks behind"
    );
    let mut valid = 0;
    for trace in &r.traces {
        if let TxOutcome::Committed(flag) = trace.outcome {
            assert!(
                flag.is_valid(),
                "{what}: {} committed as {flag:?}",
                trace.created
            );
            valid += 1;
        }
    }
    // Every committed `KvPut` wrote its own key.
    assert_eq!(
        r.final_state.len(),
        valid,
        "{what}: commits lost or doubled"
    );
    assert!(valid > 3_000, "{what}: {valid} commits");
}

#[test]
fn kafka_osn_and_leader_broker_crashes_after_retention_are_byte_identical() {
    // Two transactions a block: 40 s in, the OSN logs, broker logs and peer
    // stores have let go of about 1.8k blocks. OSN 2 serves the observer
    // (peer 2); broker 0 leads the partition.
    let mut cfg = quick_config(OrdererType::Kafka, PolicySpec::OrN(2), 90.0);
    cfg.endorsing_peers = 2;
    cfg.broker_count = 5;
    cfg.batch.max_message_count = 2;
    cfg.duration_secs = 60.0;
    let faults = [(40.0, Fault::CrashOsn(2)), (45.0, Fault::CrashBroker(0))];
    assert_faults_after_retention("kafka", &cfg, &faults);
}

#[test]
fn raft_follower_and_leader_osn_crashes_after_retention_are_byte_identical() {
    // Ten transactions a block on five OSNs, so that the group keeps a
    // majority after two crashes. OSN 0 follows and serves the observer
    // (peer 5); at seed 42 OSN 2 leads the group from the start, and the
    // survivors elect a new leader after its crash.
    let mut cfg = quick_config(OrdererType::Raft, PolicySpec::AndX(5), 100.0);
    cfg.osn_count = 5;
    cfg.batch.max_message_count = 10;
    cfg.duration_secs = 60.0;
    let faults = [(40.0, Fault::CrashOsn(0)), (45.0, Fault::CrashOsn(2))];
    assert_faults_after_retention("raft", &cfg, &faults);
}

#[test]
fn a_fault_schedule_and_its_reverse_are_byte_identical() {
    // The kernel orders faults by their time, not by their place in the
    // list: with distinct times, listing them backwards changes no byte.
    let cfg = quick_config(OrdererType::Kafka, PolicySpec::OrN(5), 100.0);
    let faults = [
        (4.0, Fault::CrashBroker(1)),
        (5.5, Fault::CrashOsn(2)),
        (7.0, Fault::Nondeterministic(0)),
    ];
    let reversed: Vec<_> = faults.iter().rev().copied().collect();
    let (forward, _) = artifacts(&cfg, &faults, 1);
    let (backward, _) = artifacts(&cfg, &reversed, 1);
    for ((name, a), (_, b)) in forward.iter().zip(&backward) {
        assert!(a == b, "{name} differs between a schedule and its reverse");
    }
    // And the faults took effect: the run is not the fault-free one.
    let (healthy, _) = artifacts(&cfg, &[], 1);
    assert_ne!(forward[0], healthy[0], "the summary must show the faults");
}

#[test]
fn broker_crash_fails_over_on_every_channel_at_the_default_worker_count() {
    let mut cfg = quick_config(OrdererType::Kafka, PolicySpec::OrN(5), 100.0);
    cfg.channels = 2;
    cfg.duration_secs = 28.0;
    cfg.warmup_secs = 14.0; // measure well after the fault + failover
    assert_eq!(cfg.sim_workers, 0);
    let r = Simulation::new(cfg)
        .with_faults([(6.0, Fault::CrashBroker(0))])
        .unwrap()
        .run_detailed();
    assert!(r.chain_ok, "every channel's chain must verify");
    assert!(
        r.summary.committed_tps() > 80.0,
        "kafka must keep ordering after the leader broker crash: {} tps",
        r.summary.committed_tps()
    );
    // The crash is scheduled into every channel world: each partition loses
    // its leader and each must cut blocks again inside the window.
    assert_eq!(r.observability.samples.len(), 2);
    for (c, w) in r.observability.samples.iter().enumerate() {
        let cuts_after: usize = w
            .rows
            .iter()
            .filter(|row| row.t_end_s - row.width_s >= 14.0)
            .map(|row| row.new_cuts)
            .sum();
        assert!(
            cuts_after > 10,
            "channel {c} must fail over: {cuts_after} blocks cut after t=14s"
        );
    }
}

#[test]
fn zero_link_propagation_runs_on_one_channel_and_is_refused_across_channels() {
    // The link delay is the lookahead channel worlds synchronize on; a lone
    // world has nobody to look ahead to.
    let mut cfg = quick_config(OrdererType::Solo, PolicySpec::OrN(5), 70.0);
    cfg.cost.link_propagation_ms = 0.0;
    assert_eq!(cfg.validate(), Ok(()));
    let r = Simulation::new(cfg.clone()).run_detailed();
    assert!(r.chain_ok && r.summary.committed_valid > 0);
    cfg.channels = 4;
    let err = cfg.validate().expect_err("zero lookahead across channels");
    assert!(err.contains("link_propagation_ms"), "{err}");
    for bad in [-1.0, f64::NAN, f64::INFINITY] {
        cfg.channels = 1;
        cfg.cost.link_propagation_ms = bad;
        assert!(cfg.validate().is_err(), "{bad} must be a typed error");
    }
}

#[test]
fn sharded_profiler_never_changes_the_report() {
    // Per-world kernel profiles must not perturb virtual-time results.
    let mut cfg = quick_config(OrdererType::Solo, PolicySpec::OrN(5), 100.0);
    cfg.channels = 4;
    cfg.sim_workers = 4;
    let baseline = Simulation::new(cfg.clone()).run().to_json();
    cfg.obs.profile = true;
    let r = Simulation::new(cfg).run_detailed();
    assert_eq!(baseline, r.summary.to_json());
    assert_eq!(
        r.observability.shard_profiles.len(),
        4,
        "one kernel profile per shard"
    );
    for p in &r.observability.shard_profiles {
        assert_eq!(p.attributed_ns(), p.loop_ns, "profile must reconcile");
    }
    assert!(r.observability.sync.windows > 1 && r.observability.sync.messages > 0);
    // A one-world run has nothing to tell apart: its kernel's profile is the
    // run's profile, in one window with no cross-shard traffic.
    let mut one = quick_config(OrdererType::Solo, PolicySpec::OrN(5), 100.0);
    one.obs.profile = true;
    let o = Simulation::new(one).run_detailed().observability;
    assert!(o.shard_profiles.is_empty());
    let p = o.profile.expect("profile of the lone world");
    assert_eq!(p.attributed_ns(), p.loop_ns, "profile must reconcile");
    assert_eq!((o.sync.windows, o.sync.messages), (1, 0));
    assert_eq!(
        o.sync.events,
        p.entries.iter().map(|e| e.count).sum::<u64>()
    );
}

/// Wall-clock speedup of the sharded engine — the ISSUE's acceptance bar
/// (≥ 1.5× at 4 workers vs 1 on a 4-channel 500 tps scenario).
/// Timing-sensitive, so it only runs when asked for explicitly (CI runs it
/// under `--release`):
/// `cargo test --release -p fabricsim-integration -- --ignored sharded_speedup`
#[test]
#[ignore = "wall-clock benchmark; run with --release -- --ignored"]
#[expect(
    clippy::disallowed_methods,
    reason = "a wall-clock speedup benchmark times the host by definition"
)]
fn sharded_speedup_exceeds_1_5x_at_4_workers() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        eprintln!("skipping speedup assertion: only {cores} core(s) available");
        return;
    }
    // An AND8 endorsement policy over 8 peers keeps each shard busy between
    // synchronization barriers (~9 executed events per shard per window), so
    // the barrier cost amortizes and the parallel section dominates.
    let mut cfg = quick_config(OrdererType::Solo, PolicySpec::AndX(8), 500.0);
    cfg.channels = 4;
    cfg.endorsing_peers = 8;
    cfg.duration_secs = 30.0;
    cfg.warmup_secs = 5.0;
    let time = |workers: u32| {
        let mut best = f64::INFINITY;
        let mut committed = 0;
        for _ in 0..3 {
            let mut c = cfg.clone();
            c.sim_workers = workers;
            let t0 = std::time::Instant::now();
            let r = Simulation::new(c).run();
            best = best.min(t0.elapsed().as_secs_f64());
            committed = r.committed_valid;
        }
        assert!(committed > 0, "workers={workers}: run must commit");
        best
    };
    let serial = time(1);
    let parallel = time(4);
    let speedup = serial / parallel;
    assert!(
        speedup > 1.5,
        "sharded engine at 4 workers must beat 1 worker by >1.5x: \
         1 worker {serial:.3}s, 4 workers {parallel:.3}s, speedup {speedup:.2}x"
    );
}
