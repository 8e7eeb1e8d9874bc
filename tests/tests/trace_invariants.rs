//! Seeded invariants over whole simulation runs (`rng::cases`): for random
//! small configurations, accounting must balance, timestamps must be ordered,
//! and the chain must verify. (That replaying a seed gives the identical run
//! is `determinism.rs`, on all three orderers.)

use fabricsim::{OrdererType, PolicySpec, SimConfig, Simulation, TxOutcome};
use fabricsim_des::rng::cases;
use fabricsim_des::RngStream;

/// OR, AND or k-of-n over one to `max_orgs` organisations.
fn policy(rng: &mut RngStream, max_orgs: u32) -> PolicySpec {
    let n = 1 + rng.next_below(u64::from(max_orgs)) as u32;
    match rng.next_below(3) {
        0 => PolicySpec::OrN(n),
        1 => PolicySpec::AndX(n),
        _ => {
            let k = 1 + rng.pick_index(n as usize);
            let orgs: Vec<String> = (1..=n).map(|i| format!("'Org{i}.peer'")).collect();
            PolicySpec::Custom(format!("OutOf({k},{})", orgs.join(",")))
        }
    }
}

// Whole runs are expensive: sixteen random cases still cover the
// orderer x policy x rate space.
#[test]
fn run_invariants_hold() {
    cases("run_invariants_hold", 16, |rng| {
        let cfg = SimConfig {
            seed: rng.next_below(1000),
            orderer_type: OrdererType::ALL[rng.pick_index(OrdererType::ALL.len())],
            policy: policy(rng, 3),
            arrival_rate_tps: rng.uniform(20.0, 120.0),
            endorsing_peers: 3,
            duration_secs: 8.0,
            warmup_secs: 2.0,
            cooldown_secs: 1.0,
            ..SimConfig::default()
        };
        let r = Simulation::new(cfg).run_detailed();

        // 1. The observer's chain always verifies.
        assert!(r.chain_ok);

        // 2. Outcome accounting: every trace is in exactly one terminal (or
        //    in-flight) state, and committed+rejected never exceeds created.
        let mut committed = 0usize;
        let mut rejected = 0usize;
        let mut in_flight = 0usize;
        for t in &r.traces {
            match t.outcome {
                TxOutcome::Committed(_) => committed += 1,
                TxOutcome::OverloadDropped
                | TxOutcome::EndorsementFailed
                | TxOutcome::OrderingTimeout => rejected += 1,
                TxOutcome::InFlight => in_flight += 1,
            }
        }
        assert_eq!(committed + rejected + in_flight, r.traces.len());

        // 3. Phase timestamps are monotone for every trace that has them.
        for t in &r.traces {
            let stages = [
                Some(t.created),
                t.proposal_sent,
                t.endorsed,
                t.submitted,
                t.ordered,
                t.committed,
            ];
            let present: Vec<_> = stages.iter().flatten().collect();
            for w in present.windows(2) {
                assert!(w[0] <= w[1], "phase timestamps must be monotone");
            }
        }

        // 4. Blocks respect BatchSize.
        for (_, size) in &r.block_cuts {
            assert!(*size <= 100, "block of {size} exceeds BatchSize");
        }

        // 5. Valid commits never exceed transactions created, and no
        //    transaction commits without a cut block.
        assert!(r.summary.committed_valid <= r.traces.len());
        let committed = r
            .traces
            .iter()
            .filter(|t| matches!(t.outcome, TxOutcome::Committed(_)))
            .count();
        assert!(r.block_cuts.iter().map(|(_, n)| n).sum::<usize>() >= committed);
    });
}
