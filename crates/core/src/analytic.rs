//! Closed-form performance predictions from the cost model.
//!
//! The paper's related work (Sukhwani et al., SRDS'17) models Fabric
//! analytically with stochastic reward nets. This module provides the
//! equivalent for fabricsim: first-order queueing formulas over the calibrated
//! [`crate::CostModel`] that predict phase capacities, the bottleneck, latencies and
//! block time *without running the simulator* — and the test suite checks the
//! simulator against them, closing the loop between model and measurement.

use std::fmt;

use crate::workload::SimConfig;

/// The three pipeline phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Client + endorsement (paper's first phase).
    Execute,
    /// Ordering service.
    Order,
    /// Validation + commit (paper's third phase).
    Validate,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Phase::Execute => "execute",
            Phase::Order => "order",
            Phase::Validate => "validate",
        })
    }
}

/// Analytic prediction for one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Execute-phase capacity (client pools), tps.
    pub execute_capacity_tps: f64,
    /// Ordering capacity, tps.
    pub order_capacity_tps: f64,
    /// Validate-phase capacity, tps.
    pub validate_capacity_tps: f64,
    /// Peak committed throughput = min of the phases, tps.
    pub peak_committed_tps: f64,
    /// Which phase binds at the peak.
    pub bottleneck: Phase,
    /// Expected mean execute latency at the configured arrival rate, seconds.
    pub execute_latency_s: f64,
    /// Expected mean order+validate latency at the configured rate, seconds
    /// (valid below the knee; above it the queue is unstable).
    pub order_validate_latency_s: f64,
    /// Expected mean block time at the configured rate, seconds.
    pub block_time_s: f64,
    /// Offered-load fraction of the validate phase at the configured rate.
    pub validate_utilization: f64,
}

/// Harmonic number `H_x` (mean of the max of `x` i.i.d. exponentials is
/// `H_x`·mean).
fn harmonic(x: usize) -> f64 {
    (1..=x).map(|i| 1.0 / i as f64).sum()
}

/// Predicts steady-state behaviour for `cfg` (first-order M/D/1 queueing).
pub fn predict(cfg: &SimConfig) -> Prediction {
    let m = &cfg.cost;
    let pools = cfg.endorsing_peers as usize;
    let sigs = cfg.signatures_per_tx().max(1);
    let lambda = cfg.arrival_rate_tps;

    // ---- capacities -----------------------------------------------------
    let execute_capacity = m.execute_capacity_tps(pools);
    // Validate: per-tx cost plus amortized per-block overhead on the
    // committer. With a VSCC pool only the signature/policy stage divides by
    // the pool width; the MVCC + ledger-write tail stays serial.
    let batch = cfg.batch.max_message_count as f64;
    let validate_tx_ms = m.pooled_validate_tx_ms(sigs) + m.validate_block_overhead_ms / batch;
    let validate_capacity = 1000.0 * m.validate_threads as f64 / validate_tx_ms;
    // Ordering: the OSN CPU threads on the admitting path.
    let per_tx_order_ms = m.osn_admission_ms
        + match cfg.orderer_type {
            fabricsim_types::OrdererType::Solo => m.solo_order_ms,
            fabricsim_types::OrdererType::Kafka => m.kafka_broker_op_ms,
            fabricsim_types::OrdererType::Raft => m.raft_op_ms,
        };
    let order_capacity =
        1000.0 * m.osn_cpu_threads as f64 * cfg.effective_osns() as f64 / per_tx_order_ms;

    // Bottleneck = the smallest capacity, chosen by comparison (not float
    // equality on a min() result, which mislabels exact ties). Validate wins
    // ties: it is the paper's default suspect and the strict `<` below keeps
    // it unless another phase is genuinely lower.
    let mut bottleneck = Phase::Validate;
    let mut peak = validate_capacity;
    for (phase, cap) in [
        (Phase::Execute, execute_capacity),
        (Phase::Order, order_capacity),
    ] {
        if cap < peak {
            bottleneck = phase;
            peak = cap;
        }
    }

    // ---- execute latency --------------------------------------------------
    // Pool prep: M/D/1 waiting time W = rho * s / (2 (1 - rho)).
    let prep_s = m.client_prep_ms / 1000.0;
    let rho_prep = (lambda / execute_capacity).min(0.99);
    let prep_wait = rho_prep * prep_s / (2.0 * (1.0 - rho_prep));
    // Endorsement path: network + peer service + jitter; under AND-x the
    // client waits for the max of x exponential jitters (H_x scaling).
    let path = 2.0 * m.link_propagation_ms / 1000.0
        + m.endorse_tx_ms() / 1000.0
        + harmonic(sigs) * m.endorse_path_jitter_ms / 1000.0;
    let assemble =
        (m.client_assemble_base_ms + m.client_assemble_per_endorsement_ms * sigs as f64) / 1000.0;
    let execute_latency =
        prep_wait + prep_s + m.sdk_pre_ms / 1000.0 + path + assemble + m.sdk_post_ms / 1000.0;

    // ---- block time & order+validate latency -------------------------------
    // Count-cut cadence vs the 1 s timeout.
    let timeout_s = cfg.batch.batch_timeout_ms as f64 / 1000.0;
    let count_cut_s = batch / lambda.max(1e-9);
    let block_time = count_cut_s.min(timeout_s);
    let block_size = (lambda * block_time).min(batch);
    // A transaction waits ~half a block period to be cut, then rides the
    // validation of ~half its block. Blocks arrive nearly deterministically
    // (count- or timeout-cut), so below the knee the committer behaves like a
    // D/D/1 queue: no queueing correction is needed until saturation.
    let validate_half_block_s = (block_size / 2.0) * validate_tx_ms / 1000.0;
    let order_validate_latency =
        block_time / 2.0 + validate_half_block_s + 4.0 * m.link_propagation_ms / 1000.0;

    Prediction {
        execute_capacity_tps: execute_capacity,
        order_capacity_tps: order_capacity,
        validate_capacity_tps: validate_capacity,
        peak_committed_tps: peak,
        bottleneck,
        execute_latency_s: execute_latency,
        order_validate_latency_s: order_validate_latency,
        block_time_s: block_time,
        validate_utilization: lambda / validate_capacity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulation;
    use crate::workload::{PolicySpec, SimConfig};
    use fabricsim_types::OrdererType;

    fn cfg(policy: PolicySpec, rate: f64) -> SimConfig {
        SimConfig {
            orderer_type: OrdererType::Solo,
            endorsing_peers: 10,
            policy,
            arrival_rate_tps: rate,
            duration_secs: 20.0,
            warmup_secs: 5.0,
            cooldown_secs: 2.0,
            ..SimConfig::default()
        }
    }

    #[test]
    fn capacities_match_the_calibration() {
        let p = predict(&cfg(PolicySpec::OrN(10), 100.0));
        assert!((p.execute_capacity_tps - 526.3).abs() < 5.0);
        assert!((300.0..320.0).contains(&p.validate_capacity_tps));
        assert_eq!(p.bottleneck, Phase::Validate);
        assert!(p.order_capacity_tps > 5_000.0, "ordering never binds");

        let p = predict(&cfg(PolicySpec::AndX(5), 100.0));
        assert!((195.0..215.0).contains(&p.validate_capacity_tps));
        assert_eq!(p.peak_committed_tps, p.validate_capacity_tps);
    }

    #[test]
    fn validator_pool_raises_the_analytic_knee() {
        let base = cfg(PolicySpec::OrN(10), 100.0);
        let p1 = predict(&base);
        let mut c4 = base.clone();
        c4.cost.validator_pool_size = 4;
        let p4 = predict(&c4);
        assert!(
            p4.validate_capacity_tps > 1.5 * p1.validate_capacity_tps,
            "4-wide VSCC pool should lift the knee well past serial: {} vs {}",
            p4.validate_capacity_tps,
            p1.validate_capacity_tps
        );
        // The serial MVCC+commit tail caps the achievable capacity.
        let ceiling = 1000.0 * c4.cost.validate_threads as f64 / c4.cost.commit_tx_ms();
        assert!(
            p4.validate_capacity_tps < ceiling,
            "pooled capacity {} must stay under the serial-commit ceiling {}",
            p4.validate_capacity_tps,
            ceiling
        );
    }

    #[test]
    fn bottleneck_moves_to_execute_with_few_pools() {
        let mut c = cfg(PolicySpec::OrN(10), 40.0);
        c.endorsing_peers = 1;
        let p = predict(&c);
        assert_eq!(p.bottleneck, Phase::Execute);
        assert!((p.peak_committed_tps - 52.6).abs() < 2.0);
    }

    /// The headline check: analytic predictions track the simulator below the
    /// knee, across policies and rates.
    #[test]
    fn predictions_track_the_simulator() {
        for (policy, rate) in [
            (PolicySpec::OrN(10), 100.0),
            (PolicySpec::OrN(10), 250.0),
            (PolicySpec::AndX(5), 100.0),
            (PolicySpec::AndX(5), 180.0),
        ] {
            let c = cfg(policy.clone(), rate);
            let p = predict(&c);
            let s = Simulation::new(c).run();

            let exec_err =
                (p.execute_latency_s - s.execute.latency.mean_s).abs() / s.execute.latency.mean_s;
            assert!(
                exec_err < 0.25,
                "{} λ={rate}: execute latency predicted {:.3}s, simulated {:.3}s",
                policy.label(),
                p.execute_latency_s,
                s.execute.latency.mean_s
            );

            let ov_err = (p.order_validate_latency_s - s.validate.latency.mean_s).abs()
                / s.validate.latency.mean_s;
            assert!(
                ov_err < 0.35,
                "{} λ={rate}: o+v latency predicted {:.3}s, simulated {:.3}s",
                policy.label(),
                p.order_validate_latency_s,
                s.validate.latency.mean_s
            );

            let bt_err = (p.block_time_s - s.mean_block_time_s).abs() / s.mean_block_time_s;
            assert!(
                bt_err < 0.15,
                "{} λ={rate}: block time predicted {:.2}s, simulated {:.2}s",
                policy.label(),
                p.block_time_s,
                s.mean_block_time_s
            );
        }
    }

    #[test]
    fn harmonic_numbers() {
        assert!((harmonic(1) - 1.0).abs() < 1e-12);
        assert!((harmonic(3) - (1.0 + 0.5 + 1.0 / 3.0)).abs() < 1e-12);
        assert!((harmonic(5) - 2.2833).abs() < 1e-3);
    }

    #[test]
    fn phase_display() {
        assert_eq!(Phase::Execute.to_string(), "execute");
        assert_eq!(Phase::Order.to_string(), "order");
        assert_eq!(Phase::Validate.to_string(), "validate");
    }
}
