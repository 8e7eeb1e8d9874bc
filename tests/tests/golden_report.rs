//! Golden-value regression: with `validator_pool_size = 1` a full simulation
//! run must produce a **byte-identical** `SummaryReport` to the pre-refactor
//! committer (captured on `main` before the validation pipeline was split
//! into VSCC / commit stages). Floats are compared on their IEEE-754 bit
//! patterns — any change to event ordering, service-time arithmetic, or
//! station bookkeeping that perturbs the simulation shows up here.

use fabricsim::{OrdererType, PolicySpec, SimConfig, Simulation, SummaryReport};

/// One float field pinned to its exact bit pattern.
struct F {
    name: &'static str,
    got: f64,
    want_bits: u64,
}

fn check(fields: Vec<F>) {
    let mut bad = Vec::new();
    for f in &fields {
        if f.got.to_bits() != f.want_bits {
            bad.push(format!(
                "  {}: got {} (0x{:016x}), want 0x{:016x}",
                f.name,
                f.got,
                f.got.to_bits(),
                f.want_bits
            ));
        }
    }
    assert!(
        bad.is_empty(),
        "summary diverged from pre-refactor golden values:\n{}",
        bad.join("\n")
    );
}

#[allow(clippy::too_many_arguments)]
fn phase_fields(
    name: &'static str,
    p: &fabricsim::PhaseReport,
    tps: u64,
    count: usize,
    mean: u64,
    p50: u64,
    p95: u64,
    p99: u64,
    max: u64,
) -> Vec<F> {
    assert_eq!(p.latency.count, count, "{name}.latency.count");
    vec![
        F {
            name: "throughput_tps",
            got: p.throughput_tps,
            want_bits: tps,
        },
        F {
            name: "latency.mean_s",
            got: p.latency.mean_s,
            want_bits: mean,
        },
        F {
            name: "latency.p50_s",
            got: p.latency.p50_s,
            want_bits: p50,
        },
        F {
            name: "latency.p95_s",
            got: p.latency.p95_s,
            want_bits: p95,
        },
        F {
            name: "latency.p99_s",
            got: p.latency.p99_s,
            want_bits: p99,
        },
        F {
            name: "latency.max_s",
            got: p.latency.max_s,
            want_bits: max,
        },
    ]
}

struct Counts {
    created: usize,
    committed_valid: usize,
    committed_invalid: usize,
    overload_dropped: usize,
    ordering_timeouts: usize,
    endorsement_failures: usize,
    blocks_cut: usize,
}

fn check_counts(s: &SummaryReport, c: &Counts) {
    assert_eq!(s.created, c.created, "created");
    assert_eq!(s.committed_valid, c.committed_valid, "committed_valid");
    assert_eq!(
        s.committed_invalid, c.committed_invalid,
        "committed_invalid"
    );
    assert_eq!(s.overload_dropped, c.overload_dropped, "overload_dropped");
    assert_eq!(
        s.ordering_timeouts, c.ordering_timeouts,
        "ordering_timeouts"
    );
    assert_eq!(
        s.endorsement_failures, c.endorsement_failures,
        "endorsement_failures"
    );
    assert_eq!(s.blocks_cut, c.blocks_cut, "blocks_cut");
}

#[test]
fn solo_or3_run_matches_pre_refactor_bits() {
    let cfg = SimConfig {
        orderer_type: OrdererType::Solo,
        endorsing_peers: 3,
        policy: PolicySpec::OrN(3),
        arrival_rate_tps: 60.0,
        duration_secs: 12.0,
        warmup_secs: 3.0,
        cooldown_secs: 2.0,
        ..SimConfig::default()
    };
    assert_eq!(cfg.cost.validator_pool_size, 1, "golden run is pool = 1");
    let s = Simulation::new(cfg).run();

    let mut fields = vec![
        F {
            name: "offered_tps",
            got: s.offered_tps,
            want_bits: 0x404e000000000000,
        },
        F {
            name: "window_secs",
            got: s.window_secs,
            want_bits: 0x401c000000000000,
        },
    ];
    fields.extend(phase_fields(
        "execute",
        &s.execute,
        0x404eedb6db6db6db,
        433,
        0x3fd210d48ee6a393,
        0x3fd1c787fffa5ce4,
        0x3fd4a3a005530203,
        0x3fd740ae88ee6b7a,
        0x3fd8c9c0867603f1,
    ));
    fields.extend(phase_fields(
        "order",
        &s.order,
        0x404f249249249249,
        436,
        0x3fe02cfbe0737e17,
        0x3fe0252c773d8a60,
        0x3feef53deb1482e7,
        0x3ff00156dbf3a00f,
        0x3ff00156dbf3a00f,
    ));
    fields.extend(phase_fields(
        "validate",
        &s.validate,
        0x404f249249249249,
        436,
        0x3fe3856c06aa3623,
        0x3fe37aeedf23effd,
        0x3fef7285d2563d68,
        0x3ff0156344970a7d,
        0x3ff0181fe182f87f,
    ));
    assert_eq!(s.overall_latency.count, 436, "overall.count");
    fields.extend([
        F {
            name: "overall.mean_s",
            got: s.overall_latency.mean_s,
            want_bits: 0x3fec9336dae96d0d,
        },
        F {
            name: "overall.p50_s",
            got: s.overall_latency.p50_s,
            want_bits: 0x3fecc0ded5c170ac,
        },
        F {
            name: "overall.p95_s",
            got: s.overall_latency.p95_s,
            want_bits: 0x3ff44e138ae6115b,
        },
        F {
            name: "overall.p99_s",
            got: s.overall_latency.p99_s,
            want_bits: 0x3ff5081a4f7d0ef6,
        },
        F {
            name: "overall.max_s",
            got: s.overall_latency.max_s,
            want_bits: 0x3ff549c6a6edeb00,
        },
        F {
            name: "ordering_timeouts_per_s",
            got: s.ordering_timeouts_per_s,
            want_bits: 0x0000000000000000,
        },
        F {
            name: "overload_dropped_per_s",
            got: s.overload_dropped_per_s,
            want_bits: 0x0000000000000000,
        },
        F {
            name: "mean_block_time_s",
            got: s.mean_block_time_s,
            want_bits: 0x3ff05164ee9fb8f6,
        },
        F {
            name: "mean_block_size",
            got: s.mean_block_size,
            want_bits: 0x404f249249249249,
        },
    ]);
    check(fields);
    check_counts(
        &s,
        &Counts {
            created: 428,
            committed_valid: 436,
            committed_invalid: 0,
            overload_dropped: 0,
            ordering_timeouts: 0,
            endorsement_failures: 0,
            blocks_cut: 7,
        },
    );
}

#[test]
fn raft_and3_run_matches_pre_refactor_bits() {
    let cfg = SimConfig {
        orderer_type: OrdererType::Raft,
        endorsing_peers: 5,
        policy: PolicySpec::AndX(3),
        arrival_rate_tps: 120.0,
        duration_secs: 12.0,
        warmup_secs: 3.0,
        cooldown_secs: 2.0,
        ..SimConfig::default()
    };
    assert_eq!(cfg.cost.validator_pool_size, 1, "golden run is pool = 1");
    let s = Simulation::new(cfg).run();

    let mut fields = vec![
        F {
            name: "offered_tps",
            got: s.offered_tps,
            want_bits: 0x405e000000000000,
        },
        F {
            name: "window_secs",
            got: s.window_secs,
            want_bits: 0x401c000000000000,
        },
    ];
    fields.extend(phase_fields(
        "execute",
        &s.execute,
        0x405df6db6db6db6e,
        839,
        0x3fd6f28bde5ab9cd,
        0x3fd6a857bd563744,
        0x3fd9bd02a9e65e67,
        0x3fdb6d2171f0d84d,
        0x3fdcfdd34819a7cf,
    ));
    fields.extend(phase_fields(
        "order",
        &s.order,
        0x405c924924924925,
        800,
        0x3fd9ac5b3b2834d4,
        0x3fd979d6b7179504,
        0x3fe8fa5f9a590206,
        0x3feb2504f31833d2,
        0x3fecd94758fc67e7,
    ));
    fields.extend(phase_fields(
        "validate",
        &s.validate,
        0x405fb6db6db6db6e,
        888,
        0x3fe38a0c04b2519c,
        0x3fe3bec82344d39a,
        0x3fe9d9ccf1b40293,
        0x3febc26112452334,
        0x3fed165cc403d906,
    ));
    assert_eq!(s.overall_latency.count, 888, "overall.count");
    fields.extend([
        F {
            name: "overall.mean_s",
            got: s.overall_latency.mean_s,
            want_bits: 0x3fef05c62fcf2f94,
        },
        F {
            name: "overall.p50_s",
            got: s.overall_latency.p50_s,
            want_bits: 0x3fef0daeb488de36,
        },
        F {
            name: "overall.p95_s",
            got: s.overall_latency.p95_s,
            want_bits: 0x3ff2cf051bf8cdea,
        },
        F {
            name: "overall.p99_s",
            got: s.overall_latency.p99_s,
            want_bits: 0x3ff3a146fbab7444,
        },
        F {
            name: "overall.max_s",
            got: s.overall_latency.max_s,
            want_bits: 0x3ff46e7d99441a72,
        },
        F {
            name: "ordering_timeouts_per_s",
            got: s.ordering_timeouts_per_s,
            want_bits: 0x0000000000000000,
        },
        F {
            name: "overload_dropped_per_s",
            got: s.overload_dropped_per_s,
            want_bits: 0x0000000000000000,
        },
        F {
            name: "mean_block_time_s",
            got: s.mean_block_time_s,
            want_bits: 0x3feac800c2c4e38f,
        },
        F {
            name: "mean_block_size",
            got: s.mean_block_size,
            want_bits: 0x4059000000000000,
        },
    ]);
    check(fields);
    check_counts(
        &s,
        &Counts {
            created: 838,
            committed_valid: 888,
            committed_invalid: 0,
            overload_dropped: 0,
            ordering_timeouts: 0,
            endorsement_failures: 0,
            blocks_cut: 8,
        },
    );
}

/// The benchmark's `des_kafka_small_blocks` shape — 5 brokers, 3 ZooKeeper
/// nodes, 3 OSNs, OR2, two transactions a block at 90 tps — cut to 20
/// simulated seconds. Every OSN of the channel cuts every block, so this is
/// the run that shows a change to how their blocks are delivered.
#[test]
fn kafka_or2_small_blocks_run_matches_pre_refactor_bits() {
    let mut cfg = SimConfig {
        orderer_type: OrdererType::Kafka,
        broker_count: 5,
        zk_count: 3,
        osn_count: 3,
        endorsing_peers: 2,
        policy: PolicySpec::OrN(2),
        arrival_rate_tps: 90.0,
        duration_secs: 20.0,
        warmup_secs: 4.0,
        cooldown_secs: 2.0,
        ..SimConfig::default()
    };
    cfg.batch.max_message_count = 2;
    cfg.cost.validator_pool_size = 1;
    let s = Simulation::new(cfg).run();

    let mut fields = vec![
        F {
            name: "offered_tps",
            got: s.offered_tps,
            want_bits: 0x4056800000000000,
        },
        F {
            name: "window_secs",
            got: s.window_secs,
            want_bits: 0x402c000000000000,
        },
    ];
    fields.extend(phase_fields(
        "execute",
        &s.execute,
        0x4056924924924925,
        1264,
        0x3fd4bf635a9ebc3e,
        0x3fd411315ed8e499,
        0x3fdad58a86700aee,
        0x3fdcd0ffe8883321,
        0x3fe0330d6257fdb2,
    ));
    fields.extend(phase_fields(
        "order",
        &s.order,
        0x4056892492492492,
        1262,
        0x3f95e17646a07371,
        0x3f9330a9ebf73480,
        0x3fa4cab2c132e5b1,
        0x3fab568d713d6816,
        0x3fb2ae695f6a1dd6,
    ));
    fields.extend(phase_fields(
        "validate",
        &s.validate,
        0x4056892492492492,
        1262,
        0x3f9c99250f8bab9d,
        0x3f9aaaceb9fba89c,
        0x3fa71bdd788dfda7,
        0x3fada7b82898800c,
        0x3fb3d6febb17a9d1,
    ));
    assert_eq!(s.overall_latency.count, 1262, "overall.count");
    fields.extend([
        F {
            name: "overall.mean_s",
            got: s.overall_latency.mean_s,
            want_bits: 0x3fd6899092da2fc8,
        },
        F {
            name: "overall.p50_s",
            got: s.overall_latency.p50_s,
            want_bits: 0x3fd5d9c379d69f78,
        },
        F {
            name: "overall.p95_s",
            got: s.overall_latency.p95_s,
            want_bits: 0x3fdc911c2f4518e3,
        },
        F {
            name: "overall.p99_s",
            got: s.overall_latency.p99_s,
            want_bits: 0x3fded0f3974bbf7d,
        },
        F {
            name: "overall.max_s",
            got: s.overall_latency.max_s,
            want_bits: 0x3fe116727009fe31,
        },
        F {
            name: "ordering_timeouts_per_s",
            got: s.ordering_timeouts_per_s,
            want_bits: 0x0000000000000000,
        },
        F {
            name: "overload_dropped_per_s",
            got: s.overload_dropped_per_s,
            want_bits: 0x0000000000000000,
        },
        F {
            name: "mean_block_time_s",
            got: s.mean_block_time_s,
            want_bits: 0x3f96b4f08dd0ddb2,
        },
        F {
            name: "mean_block_size",
            got: s.mean_block_size,
            want_bits: 0x4000000000000000,
        },
    ]);
    check(fields);
    check_counts(
        &s,
        &Counts {
            created: 1260,
            committed_valid: 1262,
            committed_invalid: 0,
            overload_dropped: 0,
            ordering_timeouts: 0,
            endorsement_failures: 0,
            blocks_cut: 631,
        },
    );
}

/// The committed figures must be what HEAD writes: every `results/*.csv`
/// carries the header of [`fabricsim::report::to_csv`] and full-width rows.
#[test]
fn committed_result_csvs_have_the_current_columns() {
    let header = fabricsim::report::to_csv(&[]);
    let columns = header.split(',').count();
    let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../results");
    let mut seen = 0;
    for entry in std::fs::read_dir(results).expect("results/ is committed") {
        let path = entry.expect("readable directory entry").path();
        if path.extension().is_none_or(|e| e != "csv") {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(&path).expect("readable CSV");
        assert!(text.starts_with(&header), "stale header: {path:?}");
        for (i, row) in text.lines().enumerate() {
            let fields = row.split(',').count();
            assert_eq!(fields, columns, "{}: line {}", path.display(), i + 1);
        }
    }
    assert!(seen > 0, "no CSV found under {results}");
}
