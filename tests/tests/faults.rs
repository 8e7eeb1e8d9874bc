//! Fault injection: crash-fault tolerance of the three ordering services.

use fabricsim::{Fault, OrdererType, PolicySpec, SimConfig, Simulation, WorkloadKind};
use fabricsim_integration::quick_config;

fn fault_cfg(orderer: OrdererType) -> SimConfig {
    let mut cfg = quick_config(orderer, PolicySpec::OrN(5), 100.0);
    cfg.duration_secs = 28.0;
    cfg.warmup_secs = 14.0; // measure well after the fault + failover
    cfg.cooldown_secs = 2.0;
    cfg
}

#[test]
fn solo_orderer_crash_is_a_total_outage() {
    let faults = [(6.0, Fault::CrashOsn(0))];
    let r = Simulation::new(fault_cfg(OrdererType::Solo))
        .with_faults(faults)
        .unwrap()
        .run_detailed();
    assert_eq!(
        r.summary.committed_valid, 0,
        "solo has a single point of failure"
    );
    assert!(
        r.summary.ordering_timeouts > 100,
        "clients must reject unacknowledged transactions"
    );
    assert!(r.chain_ok, "the pre-crash chain stays valid");
}

#[test]
fn raft_survives_minority_osn_crash() {
    let faults = [(6.0, Fault::CrashOsn(0))];
    let r = Simulation::new(fault_cfg(OrdererType::Raft))
        .with_faults(faults)
        .unwrap()
        .run_detailed();
    assert!(r.chain_ok);
    // Clients keep round-robining to the dead OSN (1 of 3), so up to a third
    // of the load times out; the rest must keep committing.
    assert!(
        r.summary.committed_tps() > 55.0,
        "raft must keep ordering after a crash: {} tps",
        r.summary.committed_tps()
    );
}

#[test]
fn raft_loses_liveness_without_majority() {
    // 2 of 3 OSNs die.
    let faults = [(6.0, Fault::CrashOsn(0)), (6.0, Fault::CrashOsn(1))];
    let r = Simulation::new(fault_cfg(OrdererType::Raft))
        .with_faults(faults)
        .unwrap()
        .run_detailed();
    assert_eq!(
        r.summary.committed_valid, 0,
        "no majority, no commitment (safety over liveness)"
    );
    assert!(r.chain_ok, "and no divergent blocks either");
}

#[test]
fn kafka_survives_leader_broker_crash() {
    let faults = [(6.0, Fault::CrashBroker(0))];
    let r = Simulation::new(fault_cfg(OrdererType::Kafka))
        .with_faults(faults)
        .unwrap()
        .run_detailed();
    assert!(r.chain_ok);
    assert!(
        r.summary.committed_tps() > 80.0,
        "zookeeper must fail the partition over: {} tps",
        r.summary.committed_tps()
    );
}

#[test]
fn kafka_survives_follower_broker_crash_with_isr_shrink() {
    let faults = [(6.0, Fault::CrashBroker(1))]; // a follower, not the leader
    let r = Simulation::new(fault_cfg(OrdererType::Kafka))
        .with_faults(faults)
        .unwrap()
        .run_detailed();
    assert!(r.chain_ok);
    // The leader shrinks the ISR and the high watermark keeps advancing.
    assert!(
        r.summary.committed_tps() > 85.0,
        "follower loss must not stall the partition: {} tps",
        r.summary.committed_tps()
    );
}

#[test]
fn kafka_osn_crash_only_loses_that_osns_clients() {
    let faults = [(6.0, Fault::CrashOsn(2))];
    let r = Simulation::new(fault_cfg(OrdererType::Kafka))
        .with_faults(faults)
        .unwrap()
        .run_detailed();
    assert!(r.chain_ok);
    let tput = r.summary.committed_tps();
    assert!(
        (50.0..90.0).contains(&tput),
        "about a third of traffic routes to the dead OSN: {tput} tps"
    );
    assert!(r.summary.ordering_timeouts > 0);
}

/// The error `with_faults` gives `fault` at `at` seconds on `cfg`.
fn refusal(cfg: SimConfig, at: f64, fault: Fault) -> String {
    Simulation::new(cfg)
        .with_faults([(at, fault)])
        .expect_err("the fault must be refused")
}

#[test]
fn a_fault_time_that_is_not_a_finite_non_negative_second_is_refused() {
    for at in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, -1e-9] {
        let err = refusal(fault_cfg(OrdererType::Raft), at, Fault::CrashOsn(0));
        assert!(err.contains("finite non-negative"), "{at}: {err}");
    }
    // Zero is the first instant; a time past the horizon never fires.
    for at in [0.0, 1e300] {
        let sim = Simulation::new(fault_cfg(OrdererType::Raft));
        assert!(sim.with_faults([(at, Fault::CrashOsn(0))]).is_ok(), "{at}");
    }
}

#[test]
fn a_fault_past_the_horizon_never_fires() {
    let mut cfg = fault_cfg(OrdererType::Solo);
    cfg.duration_secs = 6.0;
    cfg.warmup_secs = 1.0;
    let late = Simulation::new(cfg.clone())
        .with_faults([(cfg.duration_secs + 1.0, Fault::CrashOsn(0))])
        .unwrap()
        .run();
    let none = Simulation::new(cfg).run();
    assert!(none.committed_valid > 0);
    assert_eq!(late.to_json(), none.to_json());
}

#[test]
fn a_broker_fault_outside_kafka_is_refused() {
    for orderer in [OrdererType::Solo, OrdererType::Raft] {
        let err = refusal(fault_cfg(orderer), 6.0, Fault::CrashBroker(0));
        assert!(err.contains("only the kafka orderer has brokers"), "{err}");
    }
}

#[test]
fn a_broker_the_run_does_not_have_is_refused() {
    let cfg = fault_cfg(OrdererType::Kafka);
    let last = cfg.broker_count - 1;
    let sim = Simulation::new(cfg.clone());
    assert!(sim.with_faults([(6.0, Fault::CrashBroker(last))]).is_ok());
    let err = refusal(cfg.clone(), 6.0, Fault::CrashBroker(last + 1));
    let count = cfg.broker_count;
    assert!(
        err.contains(&format!("the run has {count} brokers")),
        "{err}"
    );
}

#[test]
fn an_osn_the_run_does_not_have_is_refused() {
    let cfg = fault_cfg(OrdererType::Raft);
    assert_eq!(cfg.effective_osns(), 3);
    let err = refusal(cfg, 6.0, Fault::CrashOsn(7));
    assert!(err.contains("the run has 3 OSNs"), "{err}");
    // Solo runs one OSN, whatever `osn_count` says.
    let err = refusal(fault_cfg(OrdererType::Solo), 6.0, Fault::CrashOsn(1));
    assert!(err.contains("the run has 1 OSNs"), "{err}");
}

#[test]
fn an_endorsing_peer_the_run_does_not_have_is_refused() {
    let cfg = fault_cfg(OrdererType::Solo);
    let n = cfg.endorsing_peers;
    let sim = Simulation::new(cfg.clone());
    assert!(sim
        .with_faults([(6.0, Fault::Nondeterministic(n - 1))])
        .is_ok());
    let err = refusal(cfg, 6.0, Fault::Nondeterministic(n));
    let expected = format!("the run has {n} endorsing peers");
    assert!(err.contains(&expected), "{err}");
}

#[test]
fn a_nondeterministic_peer_under_a_workload_that_never_invokes_it_is_refused() {
    let workloads = [
        WorkloadKind::Transfer { accounts: 100 },
        WorkloadKind::Smallbank { customers: 100 },
    ];
    for workload in workloads {
        let mut cfg = fault_cfg(OrdererType::Solo);
        cfg.workload = workload;
        let err = refusal(cfg, 6.0, Fault::Nondeterministic(0));
        assert!(err.contains("only the KvPut and KvRmw workloads"), "{err}");
    }
    let mut cfg = fault_cfg(OrdererType::Solo);
    cfg.workload = WorkloadKind::KvRmw {
        keyspace: 16,
        payload_bytes: 1,
    };
    let sim = Simulation::new(cfg);
    assert!(sim.with_faults([(6.0, Fault::Nondeterministic(0))]).is_ok());
}
