//! The DES workloads: the whole modelled network on the discrete-event
//! simulator, driven through `fabricsim::Simulation::run_detailed`.
//!
//! Open loop: seeded Poisson arrivals in simulated time, so the load does not
//! slow down when the system does. A repetition is one full run — world
//! build, event loop and `summarize` — and repetitions share no state.
//! Per-layer numbers come from the already-public `ObsConfig::profile`
//! switch; nothing inside the program is instrumented for this benchmark.

use std::hint::black_box;
use std::time::Instant;

use fabricsim::{
    predict, KernelProfile, OrdererType, PolicySpec, RunResult, SimConfig, Simulation, TxOutcome,
    ValidationCode,
};

use crate::harness::{Mode, Rep, Subject};
use crate::host;
use crate::metrics::Values;

/// What a DES workload does besides running its configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Extra {
    None,
    /// Every observability plane is on and its output is rendered to memory,
    /// as a `--trace-out --span-out --health-out` user pays for.
    ObsPlanes,
    /// The sharded engine; the warm-up repetition runs one worker and the
    /// timed ones must reproduce its report byte for byte.
    Sharded,
}

pub struct DesSubject {
    cfg: SimConfig,
    extra: Extra,
    /// `SummaryReport::to_json()` of the first repetition; every later one
    /// must equal it.
    reference: Option<String>,
}

/// The configuration of a DES workload, or `None` for another kind of name.
/// `SimConfig` defaults unless stated; warm-up and cool-down are cut from the
/// measurement window of the simulated metrics, not from host time.
pub fn subject(name: &str, seed: u64) -> Option<DesSubject> {
    let base = SimConfig {
        seed,
        warmup_secs: 4.0,
        cooldown_secs: 2.0,
        ..SimConfig::default()
    };
    let kafka = SimConfig {
        orderer_type: OrdererType::Kafka,
        broker_count: 5,
        zk_count: 3,
        osn_count: 3,
        endorsing_peers: 2,
        policy: PolicySpec::OrN(2),
        arrival_rate_tps: 90.0,
        duration_secs: 100.0,
        ..base.clone()
    };
    let (mut cfg, extra) = match name {
        "des_and5_past_knee" => (
            SimConfig {
                orderer_type: OrdererType::Solo,
                endorsing_peers: 10,
                committing_peers: 4,
                policy: PolicySpec::AndX(5),
                arrival_rate_tps: 300.0,
                duration_secs: 12.0,
                ..base
            },
            Extra::None,
        ),
        "des_kafka_small_blocks" => (kafka, Extra::None),
        "des_kafka_small_blocks_obs" => (kafka, Extra::ObsPlanes),
        "des_raft_ch4_w2" => (
            SimConfig {
                orderer_type: OrdererType::Raft,
                osn_count: 3,
                endorsing_peers: 10,
                policy: PolicySpec::AndX(5),
                channels: 4,
                arrival_rate_tps: 500.0,
                duration_secs: 8.0,
                warmup_secs: 3.0,
                cooldown_secs: 1.0,
                sim_workers: 2,
                ..base
            },
            Extra::Sharded,
        ),
        _ => return None,
    };
    if name.starts_with("des_kafka") {
        cfg.batch.max_message_count = 2;
    }
    cfg.cost.validator_pool_size = 1;
    if extra == Extra::ObsPlanes {
        cfg.obs.trace_events = true;
        cfg.obs.span_events = true;
        cfg.obs.trace_sample = 1.0;
        cfg.obs.health_events = true;
        cfg.obs.profile = true;
    }
    Some(DesSubject {
        cfg,
        extra,
        reference: None,
    })
}

/// Which layer a kernel event label belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    Client,
    Endorse,
    Ordering,
    Validate,
    Obs,
    /// Labels no group claims (`peer.block` delivery, `gossip.*`).
    Other,
}

pub fn group_of(label: &str) -> Group {
    let family = label.split('.').next().unwrap_or(label);
    match (family, label) {
        ("pool" | "client", _) => Group::Client,
        (_, "peer.endorse") => Group::Endorse,
        ("osn" | "broker" | "zk", _) => Group::Ordering,
        (_, "validate.commit") => Group::Validate,
        ("obs", _) => Group::Obs,
        _ => Group::Other,
    }
}

/// Handler count and host nanoseconds of one group.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCost {
    pub count: u64,
    pub ns: u64,
}

/// The share metric of each group, indexed by `Group as usize`.
const GROUP_SHARES: [&str; 6] = [
    "core.client_ns_share",
    "core.endorse_ns_share",
    "core.ordering_ns_share",
    "core.validate_ns_share",
    "core.obs_ns_share",
    "core.other_ns_share",
];

/// Sums a profile's labels per group, indexed by `Group as usize`.
///
/// # Errors
/// The groups plus heap plus overhead do not add up to `loop_ns` exactly —
/// the profiler's own guarantee, without which the shares explain nothing.
pub fn group_costs(profile: &KernelProfile) -> Result<[GroupCost; 6], String> {
    let mut costs = [GroupCost::default(); 6];
    for e in &profile.entries {
        let cost = &mut costs[group_of(&e.label) as usize];
        cost.count += e.count;
        cost.ns += e.ns;
    }
    let total: u64 =
        costs.iter().map(|c| c.ns).sum::<u64>() + profile.heap_ns + profile.overhead_ns;
    if total != profile.loop_ns {
        return Err(format!(
            "profile does not reconcile: groups + heap + overhead = {total} ns, loop = {} ns",
            profile.loop_ns
        ));
    }
    Ok(costs)
}

fn max_of(v: &[f64]) -> f64 {
    v.iter().copied().fold(0.0, f64::max)
}

fn per(total_ns: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total_ns as f64 / count as f64
    }
}

impl DesSubject {
    /// The simulated-clock ledger: exact per seed, from the summary and the
    /// station utilizations (max over instances).
    fn sim_values(&self, r: &RunResult, inflight: u64, out: &mut Values) {
        let s = &r.summary;
        let u = &r.utilization;
        out.insert("sim.committed_tps", s.validate.throughput_tps);
        out.insert("sim.latency_p50_s", s.overall_latency.p50_s);
        out.insert("sim.latency_p99_s", s.overall_latency.p99_s);
        out.insert("sim.latency_samples", s.overall_latency.count as f64);
        if self.cfg.channels == 1 {
            // The repository's closed-form model is the only reference there
            // is; it is itself unvalidated against hardware.
            let expected = self
                .cfg
                .arrival_rate_tps
                .min(predict(&self.cfg).peak_committed_tps);
            out.insert(
                "sim.analytic_err",
                (s.validate.throughput_tps - expected).abs() / expected,
            );
        }
        out.insert("sim.util_pool_prep", max_of(&u.pool_prep));
        out.insert("sim.util_pool_recv", max_of(&u.pool_recv));
        out.insert("sim.util_peer_endorse", max_of(&u.peer_endorse));
        out.insert("sim.util_peer_vscc", max_of(&u.peer_vscc));
        out.insert("sim.util_peer_commit", max_of(&u.peer_commit));
        out.insert("sim.util_osn_cpu", max_of(&u.osn_cpu));
        out.insert("sim.execute_tps", s.execute.throughput_tps);
        out.insert("sim.order_tps", s.order.throughput_tps);
        out.insert("sim.execute_latency_mean_s", s.execute.latency.mean_s);
        out.insert(
            "sim.order_validate_latency_mean_s",
            s.validate.latency.mean_s,
        );
        out.insert("sim.blocks_cut", s.blocks_cut as f64);
        out.insert("sim.mean_block_size", s.mean_block_size);
        out.insert("sim.mean_block_time_s", s.mean_block_time_s);
        out.insert("sim.inflight_at_horizon", inflight as f64);
    }

    /// The host-clock ledger of one profiled repetition.
    fn host_values(
        &self,
        r: &RunResult,
        wall_s: f64,
        cpu_s: Option<f64>,
        out: &mut Values,
    ) -> Result<(), String> {
        let obs = &r.observability;
        let profile = obs
            .profile
            .as_ref()
            .ok_or("the traced repetition returned no kernel profile")?;
        let costs = group_costs(profile)?;
        let loop_ns = profile.loop_ns.max(1) as f64;
        for (name, cost) in GROUP_SHARES.iter().zip(costs) {
            out.insert(name, cost.ns as f64 / loop_ns);
        }
        let events: u64 = profile.entries.iter().map(|e| e.count).sum();
        out.insert("des.events", events as f64);
        out.insert("des.events_per_s", events as f64 / wall_s);
        out.insert("des.heap_ops", profile.heap_ops as f64);
        out.insert("des.heap_ns_share", profile.heap_ns as f64 / loop_ns);
        out.insert(
            "des.overhead_ns_share",
            profile.overhead_ns as f64 / loop_ns,
        );
        let [endorse, ordering, validate] =
            [Group::Endorse, Group::Ordering, Group::Validate].map(|g| costs[g as usize]);
        out.insert(
            "core.validate_us_per_block",
            per(validate.ns, validate.count) / 1e3,
        );
        out.insert(
            "core.endorse_us_per_call",
            per(endorse.ns, endorse.count) / 1e3,
        );
        out.insert(
            "core.ordering_us_per_event",
            per(ordering.ns, ordering.count) / 1e3,
        );
        // On the sharded engine `loop_ns` sums the shards' loops, which run
        // side by side: spread evenly over the workers they would cover this
        // much of the wall, and the rest is world build, `summarize`,
        // barrier waits and imbalance.
        let shard_loops: Vec<f64> = obs
            .shard_profiles
            .iter()
            .map(|p| p.loop_ns as f64)
            .collect();
        let mut lanes = 1.0;
        if !shard_loops.is_empty() {
            let mean = loop_ns / shard_loops.len() as f64;
            out.insert("des.shard_imbalance", max_of(&shard_loops) / mean);
            lanes = (self.cfg.sim_workers as f64).min(shard_loops.len() as f64);
        }
        out.insert("core.outside_loop_s", wall_s - loop_ns / lanes / 1e9);
        if let Some(cpu_s) = cpu_s {
            out.insert("des.shard_cpu_per_wall", cpu_s / wall_s);
        }
        Ok(())
    }
}

impl Subject for DesSubject {
    fn rep(&mut self, mode: Mode) -> Result<Rep, String> {
        let mut cfg = self.cfg.clone();
        match mode {
            Mode::WarmUp if self.extra == Extra::Sharded => cfg.sim_workers = 1,
            Mode::Traced => cfg.obs.profile = true,
            // The repetition run beside a traced one: the same run without
            // the profiler — and, for the observability workload, without
            // any plane, which is what its overhead is measured against.
            Mode::Beside if self.extra == Extra::ObsPlanes => {
                cfg.obs = SimConfig::default().obs;
            }
            _ => {}
        }
        let render = self.extra == Extra::ObsPlanes && mode != Mode::Beside;
        let cpu_before = host::cpu_seconds().ok();

        let start = Instant::now();
        let result = Simulation::new(cfg).run_detailed();
        let mut render_s = 0.0;
        let mut jsonl_bytes = 0usize;
        if render {
            let t = Instant::now();
            let events = result.observability.events_jsonl();
            let spans = result.observability.spans_jsonl();
            jsonl_bytes = black_box(&events).len() + black_box(&spans).len();
            render_s = t.elapsed().as_secs_f64();
        }
        let wall_s = start.elapsed().as_secs_f64();

        let cpu_s = match (cpu_before, host::cpu_seconds().ok()) {
            (Some(a), Some(b)) => Some(b - a),
            _ => None,
        };

        // Output checks.
        if !result.chain_ok {
            return Err("the observer's chain does not verify".into());
        }
        let json = result.summary.to_json();
        match &self.reference {
            None => self.reference = Some(json),
            Some(first) if *first != json => {
                return Err(format!(
                    "summary differs from the first repetition's:\n  first {first}\n  this  {json}"
                ));
            }
            Some(_) => {}
        }
        let obs = &result.observability;
        if render && (obs.dropped_events != 0 || obs.dropped_spans != 0) {
            return Err(format!(
                "observability rings overflowed: {} events and {} spans dropped",
                obs.dropped_events, obs.dropped_spans
            ));
        }

        // Every trace is an attempted operation. One still in flight at the
        // horizon neither failed nor completed: an open loop past the knee
        // leaves a backlog by design, and it is reported, not hidden.
        let mut reached_block = 0u64;
        let mut failed = 0u64;
        let mut inflight = 0u64;
        for t in &result.traces {
            reached_block += u64::from(t.ordered.is_some());
            match t.outcome {
                TxOutcome::InFlight => inflight += 1,
                TxOutcome::Committed(ValidationCode::Valid) => {}
                TxOutcome::OverloadDropped
                | TxOutcome::EndorsementFailed
                | TxOutcome::OrderingTimeout
                | TxOutcome::Committed(_) => failed += 1,
            }
        }

        let mut layers = Values::new();
        if mode == Mode::Traced {
            self.sim_values(&result, inflight, &mut layers);
            self.host_values(&result, wall_s, cpu_s, &mut layers)?;
            if render {
                layers.insert("obs.events", obs.events.len() as f64);
                layers.insert("obs.spans", obs.spans.len() as f64);
                layers.insert("obs.dropped_events", obs.dropped_events as f64);
                layers.insert("obs.dropped_spans", obs.dropped_spans as f64);
                layers.insert("obs.jsonl_mib", jsonl_bytes as f64 / (1024.0 * 1024.0));
                layers.insert("obs.render_s", render_s);
            }
        }
        Ok(Rep {
            wall_s,
            txs: reached_block,
            attempted: result.traces.len() as u64,
            failed,
            commit_ms: Vec::new(),
            layers,
        })
    }

    fn overhead_metric(&self) -> &'static str {
        // The observability workload always runs with the profiler on, so
        // tracing it adds nothing; what its traced run compares is planes
        // on against planes off.
        if self.extra == Extra::ObsPlanes {
            "obs.overhead_ratio"
        } else {
            "bench.trace_overhead_ratio"
        }
    }

    fn min_cores(&self) -> usize {
        if self.extra == Extra::Sharded {
            2
        } else {
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabricsim::LabelProfile;

    fn entry(label: &str, count: u64, ns: u64) -> LabelProfile {
        LabelProfile {
            label: label.to_string(),
            count,
            ns,
        }
    }

    #[test]
    fn labels_group_by_layer() {
        for (label, want) in [
            ("pool.arrival", Group::Client),
            ("pool.recv", Group::Client),
            ("client.assemble", Group::Client),
            ("peer.endorse", Group::Endorse),
            ("osn.receive", Group::Ordering),
            ("broker.step", Group::Ordering),
            ("zk.tick", Group::Ordering),
            ("validate.commit", Group::Validate),
            ("obs.sample", Group::Obs),
            ("peer.block", Group::Other),
            ("gossip.tick", Group::Other),
            ("unlabeled", Group::Other),
        ] {
            assert_eq!(group_of(label), want, "{label}");
        }
    }

    #[test]
    fn group_totals_plus_heap_and_overhead_equal_the_loop() {
        let mut profile = KernelProfile {
            entries: vec![
                entry("validate.commit", 40, 700),
                entry("peer.endorse", 500, 120),
                entry("pool.arrival", 100, 30),
                entry("client.assemble", 100, 20),
                entry("osn.receive", 100, 40),
                entry("broker.tick", 9, 5),
                entry("obs.sample", 12, 3),
                entry("peer.block", 40, 2),
            ],
            heap_ns: 50,
            heap_ops: 902,
            overhead_ns: 30,
            loop_ns: 1000,
        };
        let costs = group_costs(&profile).unwrap();
        let ns: Vec<u64> = costs.iter().map(|c| c.ns).collect();
        assert_eq!(ns, vec![50, 120, 45, 700, 3, 2]);
        assert_eq!(costs[0].count, 200);
        assert_eq!(
            ns.iter().sum::<u64>() + profile.heap_ns + profile.overhead_ns,
            profile.loop_ns
        );
        // A profile that does not reconcile is refused, not reported.
        profile.loop_ns += 1;
        assert!(group_costs(&profile).is_err());
    }

    #[test]
    fn every_des_workload_has_a_valid_configuration() {
        for w in crate::metrics::WORKLOADS {
            match subject(w.name, 42) {
                Some(s) => {
                    assert!(w.name.starts_with("des_"));
                    assert_eq!(s.cfg.validate(), Ok(()), "{}", w.name);
                    assert_eq!(s.cfg.seed, 42);
                }
                None => assert!(w.name.starts_with("pipe_"), "{}", w.name),
            }
        }
        assert_eq!(subject("des_raft_ch4_w2", 1).unwrap().min_cores(), 2);
    }
}
