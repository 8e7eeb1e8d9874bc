//! Ordering-service comparison: the same workload against Solo, Kafka and
//! Raft (the paper's finding 2: no significant performance difference), then
//! a crash-fault round showing where they *do* differ — fault tolerance.
//!
//! ```text
//! cargo run --release -p fabricsim-examples --example ordering_comparison
//! ```

use fabricsim::{Fault, OrdererType, PolicySpec, SimConfig, Simulation};
use fabricsim_examples::print_summary;

fn base(orderer: OrdererType) -> SimConfig {
    SimConfig {
        orderer_type: orderer,
        endorsing_peers: 10,
        policy: PolicySpec::OrN(10),
        osn_count: 3,
        arrival_rate_tps: 200.0,
        duration_secs: 30.0,
        warmup_secs: 6.0,
        cooldown_secs: 2.0,
        ..SimConfig::default()
    }
}

fn main() {
    println!("— healthy run: 200 tps, 10 endorsing peers, OR10 —");
    let mut healthy = Vec::new();
    for orderer in OrdererType::ALL {
        let s = Simulation::new(base(orderer)).run();
        print_summary(&orderer.to_string(), &s);
        healthy.push((orderer, s.committed_tps()));
    }
    let max = healthy.iter().map(|(_, t)| *t).fold(0.0, f64::max);
    let min = healthy.iter().map(|(_, t)| *t).fold(f64::MAX, f64::min);
    println!(
        "\nspread across orderers: {:.1}% — no significant difference (paper finding 2)\n",
        100.0 * (max - min) / max
    );

    println!("— fault round: crash the ordering leader at t = 10 s —");
    for orderer in OrdererType::ALL {
        // Measure only the post-fault period.
        let mut cfg = base(orderer);
        cfg.warmup_secs = 14.0;
        let fault = match orderer {
            // Solo's single node *is* the service.
            OrdererType::Solo => (10.0, Fault::CrashOsn(0)),
            // Kafka OSNs are stateless producers; the partition leader broker
            // is the interesting failure.
            OrdererType::Kafka => (10.0, Fault::CrashBroker(0)),
            // Raft: kill OSN 0 (a likely leader; followers re-elect).
            OrdererType::Raft => (10.0, Fault::CrashOsn(0)),
        };
        let s = Simulation::new(cfg)
            .with_faults([fault])
            .expect("a fault this run can inject")
            .run();
        print_summary(&format!("{orderer} (post-crash)"), &s);
        match orderer {
            OrdererType::Solo => {
                assert!(
                    s.committed_tps() < 10.0,
                    "solo is a single point of failure"
                );
                println!("  -> Solo stops entirely: single point of failure.");
            }
            _ => {
                assert!(
                    s.committed_tps() > 100.0,
                    "{orderer} should recover, got {} tps",
                    s.committed_tps()
                );
                println!("  -> {orderer} fails over and keeps ordering.");
            }
        }
    }
}
