//! The benchmark's vocabulary: workloads and metrics by name, with unit,
//! direction and bound. `BENCHMARK.json` is rendered from these tables
//! (`benchmark manifest`) and a unit test keeps the two equal.
//!
//! Two clocks, and every name says which: `sim.*` metrics are simulated
//! seconds on the DES (bit-reproducible per seed; their units carry a `sim_`
//! prefix), `host_*` and every other layer metric is wall or CPU time of this
//! program on the machine running it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One workload and the reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// A metric a user of the system sees; `bound` is the share of the parent's
/// median by which it may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// How `benchmark compare` treats a per-layer metric. The driver applies no
/// bound to per-layer metrics; the compare tool still can.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Check {
    /// Host timing of one layer: reported, never gated.
    Report,
    /// Simulated-clock value or exact count: bit-identical for equal seeds.
    Exact,
    /// Host timing that is end-to-end in nature on the workloads that have
    /// it: may worsen by at most this share.
    Within(f64),
}

/// A metric of a single layer, taken from the traced run. A workload that
/// does not exercise the layer reports 0.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub check: Check,
}

pub const RUN_SECONDS: u64 = 10;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "des_and5_past_knee",
        why: "Solo/AND5 at 300 tps offered, past the validate knee (~204 tps): two thirds of host time is real VSCC/MVCC/commit, so crypto, ledger and peer work shows here and kernel work must not",
    },
    Workload {
        name: "des_kafka_small_blocks",
        why: "Kafka, 2-tx blocks at 90 tps, below every knee: thousands of tiny blocks, so ordering/broker handlers, the kernel heap and loop overhead show here and a signature cache barely does",
    },
    Workload {
        name: "des_kafka_small_blocks_obs",
        why: "the same run with every observability plane on and rendered to memory: span/phase-event emission, ring buffers and JSON rendering show here and nowhere else",
    },
    Workload {
        name: "des_raft_ch4_w2",
        why: "Raft, 4 channels on the sharded engine with 2 workers: the only user of des::sharded, where barrier cost and shard imbalance show; also checks workers 1 == workers 2",
    },
    Workload {
        name: "pipe_and5_kvput",
        why: "real crates without the DES, AND5 blind writes of 1 byte: signature-heavy and conflict-free, where verify/sign speed, signature caches and VSCC restructuring show",
    },
    Workload {
        name: "pipe_or1_rmw_hot_1k",
        why: "real crates without the DES, one endorsement, hot-key read-modify-write of 1 KiB through a 3-node Raft group: ~21% MVCC conflicts, where ledger, codec, hashing and raft work shows and crypto does not",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Host time on a shared two-core sandbox drifts by 10–15 % between runs of
/// the same code minutes apart (README, "Noise"), so the time metrics carry
/// the widest bound the contract allows; memory repeats to within 1 %.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("host_tx_per_s", "tx/s", Better::Higher, 0.25),
    e2e("host_cpu_us_per_tx", "us", Better::Lower, 0.25),
    e2e("host_peak_rss_mb", "MiB", Better::Lower, 0.10),
];

const fn layer(name: &'static str, unit: &'static str, better: Better, check: Check) -> Layer {
    Layer {
        name,
        unit,
        better,
        check,
    }
}

use Better::{Higher, Lower};
use Check::{Exact, Report, Within};

pub const PER_LAYER: &[Layer] = &[
    // Simulated clock: what the modelled network did (DES workloads).
    layer("sim.committed_tps", "sim_tx/s", Higher, Exact),
    layer("sim.latency_p50_s", "sim_s", Lower, Exact),
    layer("sim.latency_p99_s", "sim_s", Lower, Exact),
    layer("sim.latency_samples", "count", Higher, Exact),
    layer("sim.analytic_err", "ratio", Lower, Exact),
    layer("sim.util_pool_prep", "ratio", Lower, Exact),
    layer("sim.util_pool_recv", "ratio", Lower, Exact),
    layer("sim.util_peer_endorse", "ratio", Lower, Exact),
    layer("sim.util_peer_vscc", "ratio", Lower, Exact),
    layer("sim.util_peer_commit", "ratio", Lower, Exact),
    layer("sim.util_osn_cpu", "ratio", Lower, Exact),
    layer("sim.execute_tps", "sim_tx/s", Higher, Exact),
    layer("sim.order_tps", "sim_tx/s", Higher, Exact),
    layer("sim.execute_latency_mean_s", "sim_s", Lower, Exact),
    layer("sim.order_validate_latency_mean_s", "sim_s", Lower, Exact),
    layer("sim.blocks_cut", "count", Higher, Exact),
    layer("sim.mean_block_size", "count", Higher, Exact),
    layer("sim.mean_block_time_s", "sim_s", Lower, Exact),
    layer("sim.inflight_at_horizon", "count", Lower, Exact),
    // Host clock, DES kernel.
    layer("des.events", "count", Lower, Exact),
    layer("des.events_per_s", "1/s", Higher, Report),
    layer("des.heap_ops", "count", Lower, Exact),
    layer("des.heap_ns_share", "ratio", Lower, Report),
    layer("des.overhead_ns_share", "ratio", Lower, Report),
    layer("des.shard_imbalance", "ratio", Lower, Report),
    layer("des.shard_cpu_per_wall", "ratio", Lower, Report),
    // Host clock, handler bodies of the simulation (`fabricsim` core).
    layer("core.client_ns_share", "ratio", Lower, Report),
    layer("core.endorse_ns_share", "ratio", Lower, Report),
    layer("core.ordering_ns_share", "ratio", Lower, Report),
    layer("core.validate_ns_share", "ratio", Lower, Report),
    layer("core.obs_ns_share", "ratio", Lower, Report),
    layer("core.other_ns_share", "ratio", Lower, Report),
    layer("core.validate_us_per_block", "us", Lower, Report),
    layer("core.endorse_us_per_call", "us", Lower, Report),
    layer("core.ordering_us_per_event", "us", Lower, Report),
    layer("core.outside_loop_s", "s", Lower, Report),
    // Host clock, observability planes.
    layer("obs.events", "count", Lower, Exact),
    layer("obs.spans", "count", Lower, Exact),
    layer("obs.dropped_events", "count", Lower, Exact),
    layer("obs.dropped_spans", "count", Lower, Exact),
    layer("obs.jsonl_mib", "MiB", Lower, Exact),
    layer("obs.render_s", "s", Lower, Report),
    layer("obs.overhead_ratio", "ratio", Lower, Report),
    // Host clock, the real pipeline crates (pipe workloads).
    layer("client.create_proposal_us_per_tx", "us", Lower, Report),
    layer("client.collect_us_per_tx", "us", Lower, Report),
    layer("client.assemble_us_per_tx", "us", Lower, Report),
    layer("peer.endorse_us_per_tx", "us", Lower, Report),
    layer("peer.endorse_calls", "count", Lower, Exact),
    layer("peer.validate_and_commit_us_per_tx", "us", Lower, Report),
    layer("peer.block_checks_us_per_tx", "us", Lower, Report),
    layer("peer.vscc_us_per_tx", "us", Lower, Report),
    layer("peer.vscc_txs", "count", Lower, Exact),
    layer("peer.block_commit_ms_p50", "ms", Lower, Within(0.25)),
    layer("peer.block_commit_ms_p95", "ms", Lower, Within(0.25)),
    layer("ordering.handle_us_per_tx", "us", Lower, Report),
    layer("ordering.blocks_cut", "count", Lower, Exact),
    layer("ordering.txs_per_block", "count", Higher, Exact),
    layer("raft.msgs_per_tx", "count", Lower, Exact),
    layer("raft.msgs_per_block", "count", Lower, Exact),
    layer("ledger.mvcc_us_per_tx", "us", Lower, Report),
    layer("ledger.commit_us_per_tx", "us", Lower, Report),
    layer("ledger.mvcc_conflicts", "count", Lower, Exact),
    layer("ledger.state_writes", "count", Lower, Exact),
    layer("ledger.valid_share", "ratio", Higher, Exact),
    // Replay probes on the blocks the traced repetition produced.
    layer("crypto.verify_ns_per_op", "ns", Lower, Report),
    layer("crypto.sign_ns_per_op", "ns", Lower, Report),
    layer("crypto.verifies_per_tx", "count", Lower, Exact),
    layer("crypto.signs_per_tx", "count", Lower, Exact),
    layer("crypto.sha256_ns_per_kib", "ns", Lower, Report),
    layer("crypto.merkle_root_us_per_block", "us", Lower, Report),
    layer("msp.verify_ns_per_op", "ns", Lower, Report),
    layer("policy.eval_ns_per_op", "ns", Lower, Report),
    layer("chaincode.invoke_ns_per_op", "ns", Lower, Report),
    layer("types.encode_block_us", "us", Lower, Report),
    layer("types.decode_block_us", "us", Lower, Report),
    layer("types.block_bytes", "B", Lower, Exact),
    // The harness itself: read these before trusting a host number.
    layer("bench.driver_us_per_tx", "us", Lower, Report),
    layer("bench.span_sum_ratio", "ratio", Lower, Report),
    layer("bench.trace_overhead_ratio", "ratio", Lower, Report),
    layer("bench.rep_spread", "ratio", Lower, Report),
    layer("bench.reps", "count", Higher, Report),
    layer("bench.calibration_ms", "ms", Lower, Report),
    layer("bench.nproc", "count", Higher, Report),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The result of one run, printed as the last line of standard output.
pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

/// Renders a JSON number with all its digits; refuses NaN and infinities,
/// which JSON cannot carry and which always mean a broken measurement.
fn number(name: &str, v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("metric {name} is not finite ({v})"))
    }
}

impl RunReport {
    /// The contract's result line: with `trace` off every end-to-end metric,
    /// with it on every per-layer metric (0 where the workload does not
    /// exercise the layer).
    ///
    /// # Errors
    /// An end-to-end metric is missing (its reader printed why) or a value is
    /// not finite.
    pub fn to_json(&self, trace: bool) -> Result<String, String> {
        let mut body = String::new();
        let mut push = |name: &str, unit: &str, v: f64| -> Result<(), String> {
            if !body.is_empty() {
                body.push_str(", ");
            }
            let _ = write!(
                body,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(name, v)?
            );
            Ok(())
        };
        if trace {
            for m in PER_LAYER {
                push(
                    m.name,
                    m.unit,
                    self.values.get(m.name).copied().unwrap_or(0.0),
                )?;
            }
        } else {
            for m in END_TO_END {
                let v = self
                    .values
                    .get(m.name)
                    .ok_or_else(|| format!("end-to-end metric {} could not be measured", m.name))?;
                push(m.name, m.unit, *v)?;
            }
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.correct, self.attempted, self.failed
        ))
    }
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--release\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.label(),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.label()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !s.is_empty()
            && s.len() <= 64
            && s.chars().all(ok)
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn is_unit(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(is_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(!w.why.contains('"') && !w.why.contains('\\'));
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in END_TO_END {
            assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in PER_LAYER {
            assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        // Set-up time is in the contract by name, and carries the widest bound.
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Lower)
        );
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_manifest_is_rendered_from_these_tables() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            manifest_json(),
            "run `benchmark manifest > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn result_line_carries_exactly_the_declared_metrics() {
        let mut values = Values::new();
        for (i, m) in END_TO_END.iter().enumerate() {
            values.insert(m.name, 1.5 + i as f64);
        }
        values.insert("sim.committed_tps", 203.69);
        let report = RunReport {
            correct: true,
            attempted: 10,
            failed: 0,
            values,
        };
        let e2e = report.to_json(false).unwrap();
        for m in END_TO_END {
            assert!(e2e.contains(&format!("\"{}\": {{\"value\"", m.name)));
        }
        assert!(!e2e.contains("sim.committed_tps"));
        let layers = report.to_json(true).unwrap();
        assert!(
            layers.contains("\"sim.committed_tps\": {\"value\": 203.69, \"unit\": \"sim_tx/s\"}")
        );
        assert!(layers.contains("\"raft.msgs_per_tx\": {\"value\": 0, \"unit\": \"count\"}"));
        assert!(!layers.contains("setup_s"));

        let mut broken = report;
        broken.values.remove("setup_s");
        assert!(
            broken.to_json(false).is_err(),
            "a missing end-to-end metric is refused"
        );
        broken.values.insert("setup_s", f64::NAN);
        assert!(broken.to_json(false).is_err(), "NaN is refused");
    }
}
