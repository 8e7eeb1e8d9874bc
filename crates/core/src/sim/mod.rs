//! The simulation world: clients, peers, ordering service, Kafka brokers and
//! ZooKeeper wired over the DES kernel with the calibrated cost model.

mod client;
mod faults;
mod lane;
mod observe;
mod ordering;
mod peer;
mod retire;
mod world;

pub use faults::Fault;
pub use lane::LaneStats;

use std::fmt::Write as _;
use std::sync::Arc;

use fabricsim_des::{Kernel, KernelProfile, ShardedKernel, ShardedRunReport, SimDuration, SimTime};
use fabricsim_obs::{
    BottleneckReport, HealthReport, PhaseEvent, Samples, SpanEvent, StationClass,
    TxStationBreakdown,
};

use crate::metrics::{summarize, SummaryReport, TxOutcome, TxTrace};
use crate::workload::SimConfig;

use faults::schedule_faults;
use lane::Lane;
use observe::{flush_partial_tick, stations_of, TxRecord};
use world::{bootstrap, build_world, World, K};

/// Mean utilization of each CPU station class over the run (fraction of
/// capacity; >1 means a queue was still draining at the horizon).
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationReport {
    /// Per-pool submission-thread utilization.
    pub pool_prep: Vec<f64>,
    /// Per-pool response-processing utilization.
    pub pool_recv: Vec<f64>,
    /// Per-peer endorsement-station utilization.
    pub peer_endorse: Vec<f64>,
    /// Per-peer VSCC-stage utilization (true per-tx CPU work over the
    /// validator pool) — the paper's bottleneck lives in this stage.
    pub peer_vscc: Vec<f64>,
    /// Per-peer serial MVCC + commit-stage utilization.
    pub peer_commit: Vec<f64>,
    /// Per-OSN CPU utilization.
    pub osn_cpu: Vec<f64>,
}

impl UtilizationReport {
    /// `(name, max utilization)` of the most loaded station class, named by
    /// [`StationClass::label`]; `"idle"` when every station is.
    pub fn hottest(&self) -> (&'static str, f64) {
        StationClass::WIRE
            .into_iter()
            .map(|class| {
                let per_station = match class {
                    StationClass::ClientPrep => &self.pool_prep,
                    StationClass::ClientRecv => &self.pool_recv,
                    StationClass::PeerEndorse => &self.peer_endorse,
                    StationClass::PeerVscc => &self.peer_vscc,
                    StationClass::PeerCommit => &self.peer_commit,
                    StationClass::OsnCpu => &self.osn_cpu,
                };
                (
                    class.label(),
                    per_station.iter().cloned().fold(0.0, f64::max),
                )
            })
            // `>=` keeps the last of equal maxima, matching `max_by`
            // tie-breaking; an idle station never replaces the seed.
            .fold(("idle", 0.0), |best, cand| {
                if cand.1 > 0.0 && cand.1 >= best.1 {
                    cand
                } else {
                    best
                }
            })
    }
}

/// Observability artifacts of a run (see `fabricsim-obs`).
#[derive(Debug)]
pub struct RunObservability {
    /// Structured phase-transition events, in virtual-time order. Empty
    /// unless [`crate::ObsConfig::trace_events`] was set.
    pub events: Vec<PhaseEvent>,
    /// Phase events evicted from the bounded in-memory ring (oldest-first
    /// eviction once `trace_buffer_cap` is exceeded).
    pub dropped_events: u64,
    /// Causal span-graph events, in virtual-time order. Empty unless
    /// [`crate::ObsConfig::span_events`] was set.
    pub spans: Vec<SpanEvent>,
    /// Spans evicted from the bounded in-memory ring (oldest first).
    pub dropped_spans: u64,
    /// The sampler's record of every channel world, in channel order: one
    /// row per window of [`crate::ObsConfig::sample_period_s`] (queue
    /// depths, busy time, utilization, in-flight txs, block-cut cadence).
    /// `obs::metrics_csv` writes it as the metrics table; the health
    /// report is folded from it.
    pub samples: Vec<Samples>,
    /// Per-station queueing/service attribution over committed transactions.
    pub bottleneck: BottleneckReport,
    /// The DES kernel's host-time self-profile. `None` unless
    /// [`crate::ObsConfig::profile`] was set. On a multi-channel run this is
    /// the label-wise sum of every channel world's profile (total host CPU
    /// inside event loops, not elapsed time).
    pub profile: Option<KernelProfile>,
    /// Per-world kernel self-profiles of a multi-channel run, in channel
    /// order. Empty when the run has one world (`profile` is then that
    /// world's own profile) or when profiling is off.
    pub shard_profiles: Vec<KernelProfile>,
    /// Synchronization cost of the run: conservative windows executed,
    /// cross-world messages exchanged and events executed, summed over the
    /// channel worlds. A one-world run is one window and no messages.
    pub sync: ShardedRunReport,
    /// What the run's lane did: blocks whose pure half of validation ran
    /// beside the event loops, on the spare host thread or on a worker
    /// waiting at a window barrier. All zero when the run had no lane (see
    /// [`SimConfig::sim_workers`]).
    pub lane: LaneStats,
    /// Health-plane report (regime timeline, bottleneck-shift onsets, SLO
    /// burn accounting), folded over every channel world's sampler rows
    /// after the run. `None` unless [`crate::ObsConfig::health_events`] was
    /// set. The fold reads the worlds in channel order, so the report is
    /// byte-identical at every worker count.
    pub health: Option<HealthReport>,
}

impl RunObservability {
    /// The collected events as a JSONL document (one event per line).
    pub fn events_jsonl(&self) -> String {
        jsonl(&self.events, PhaseEvent::write_json)
    }

    /// The collected spans as a JSONL document (one span per line).
    pub fn spans_jsonl(&self) -> String {
        jsonl(&self.spans, SpanEvent::write_json)
    }
}

/// Renders `records` one per line into a single buffer sized up front, so a
/// document costs one allocation however many lines it has.
fn jsonl<T>(records: &[T], write_json: impl Fn(&T, &mut String)) -> String {
    // Longer than any line the simulator's own names and times produce
    // (typical: 150–170 bytes); an underestimate only costs a regrow.
    const LINE_BYTES: usize = 192;
    let mut out = String::with_capacity(records.len() * LINE_BYTES);
    for record in records {
        write_json(record, &mut out);
        out.push('\n');
    }
    out
}

/// Detailed output of a run: the summary plus raw traces and block records.
#[derive(Debug)]
pub struct RunResult {
    /// Aggregated report over the measurement window.
    pub summary: SummaryReport,
    /// Every transaction's phase trace.
    pub traces: Vec<TxTrace>,
    /// `(cut time, tx count)` per block, in order.
    pub block_cuts: Vec<(SimTime, usize)>,
    /// Chain height at the observer peer at the end of the run.
    pub observer_height: u64,
    /// Whether every peer appended every block it committed: no ledger
    /// refused a block for its number, its link to the tip or its data
    /// hash.
    pub chain_ok: bool,
    /// Final world state at the observer (key → value), for application-level
    /// assertions such as balance conservation. A one-channel run shares
    /// the observer's key and value bytes; with several channels each key
    /// is prefixed `ch<i>/`.
    pub final_state: Vec<(Arc<str>, Arc<[u8]>)>,
    /// Station utilizations over the run.
    pub utilization: UtilizationReport,
    /// Structured tracing, time-series and bottleneck attribution.
    pub observability: RunObservability,
}

/// One configured simulation run.
#[derive(Debug)]
pub struct Simulation {
    cfg: SimConfig,
    faults: Vec<(f64, Fault)>,
}

impl Simulation {
    /// Creates a simulation from a validated configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(cfg: SimConfig) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "constructor fail-fast: an invalid config is a caller bug"
        )]
        cfg.validate().expect("invalid simulation config");
        Simulation {
            cfg,
            faults: Vec::new(),
        }
    }

    /// Sets the run's fault schedule: each `(virtual second, fault)` is
    /// injected into every channel world, in time order, and faults at the
    /// same instant in list order. A fault timed past `duration_secs` never
    /// fires.
    ///
    /// # Errors
    /// Refuses a time that is not a finite non-negative number, a broker
    /// fault outside the Kafka orderer, an id the run does not have, and a
    /// non-deterministic peer under a workload that never invokes its
    /// chaincode (any but `KvPut`/`KvRmw`).
    pub fn with_faults(
        mut self,
        schedule: impl IntoIterator<Item = (f64, Fault)>,
    ) -> Result<Self, String> {
        self.faults = schedule.into_iter().collect();
        for &(at, fault) in &self.faults {
            faults::check(&self.cfg, at, fault)?;
        }
        Ok(self)
    }

    /// Runs to completion and returns the summary report.
    pub fn run(self) -> SummaryReport {
        self.run_detailed().summary
    }

    /// Runs to completion and returns summary + raw traces.
    ///
    /// Every run is one event-loop world per channel on the sharded kernel,
    /// multiplexed onto `sim_workers` OS threads (0 and 1 both mean one)
    /// under a conservative synchronization barrier whose lookahead is the
    /// link propagation delay. Merge points (traces, block cuts, spans,
    /// series, profiles, ledger state) are all
    /// worker-count-invariant, so the returned report is byte-identical at
    /// any worker count. A single-channel run is one world, one window and
    /// a barrier nobody else waits at.
    pub fn run_detailed(self) -> RunResult {
        let cfg = self.cfg;
        let faults = self.faults;
        let n_shards = cfg.channels as usize;
        let end = SimTime::from_secs_f64(cfg.duration_secs);
        // The conservative lookahead: no cross-shard interaction can land
        // earlier than one link propagation after it was emitted. A lone
        // world has nobody to look ahead to and may run with a zero link
        // delay (`validate` demands a positive one only across channels),
        // hence the 1 ns floor.
        let lookahead = SimDuration::from_millis_f64(cfg.cost.link_propagation_ms)
            .max(SimDuration::from_nanos(1));
        let (workers, spare_thread) = lane::thread_budget(cfg.sim_workers, n_shards);
        // The lane lives exactly as long as the event loops that feed it:
        // every world's end of it is handed back before it closes. It is
        // served by the spare thread, and by every event-loop worker while
        // it waits at a window barrier, so a run has one whenever it has
        // either kind of idle thread.
        let (sync, mut shard_profiles, mut worlds, lane) = std::thread::scope(|scope| {
            let lane = (spare_thread || workers >= 2)
                .then(|| Lane::start(scope, lane::prevalidate, spare_thread));
            let mut sharded: ShardedKernel<World> = ShardedKernel::new(lookahead);
            sharded.set_horizon(end);
            for shard_id in 0..n_shards {
                let mut world = build_world(&cfg, shard_id);
                world.lane = lane.as_ref().map(Lane::handle);
                let mut kernel: K = Kernel::new();
                bootstrap(&mut world, &mut kernel);
                schedule_faults(&faults, &mut kernel);
                sharded.push_shard(kernel, world);
            }
            if cfg.obs.profile {
                sharded.enable_profiler();
            }
            let sync = match &lane {
                Some(lane) => sharded.run(workers, &|| lane.help()),
                None => sharded.run(workers, &|| false),
            };
            let shard_profiles: Vec<KernelProfile> =
                sharded.take_profiles().into_iter().flatten().collect();
            let mut worlds = sharded.into_worlds();
            // Blocks handed over but never committed need no result.
            for w in &mut worlds {
                for p in &mut w.peers {
                    p.ahead = None;
                }
            }
            let handles: Vec<_> = worlds.iter_mut().filter_map(|w| w.lane.take()).collect();
            let lane = lane.map_or_else(LaneStats::default, |l| l.finish(handles));
            (sync, shard_profiles, worlds, lane)
        });
        // A lone world's profile is the run's profile as it stands; several
        // are summed label-wise and also kept apart.
        let profile = if shard_profiles.len() > 1 {
            let mut total = KernelProfile::default();
            for p in &shard_profiles {
                total.absorb(p);
            }
            Some(total)
        } else {
            shard_profiles.pop()
        };
        for w in &mut worlds {
            flush_partial_tick(w, end);
        }

        // ---- deterministic merge --------------------------------------------
        // Utilization first (read-only): lanes of one entity sum busy time
        // over summed provisioned servers.
        let horizon_s = end.as_secs_f64();
        let util = |class: StationClass| -> Vec<f64> {
            let per_world: Vec<_> = worlds.iter().map(|w| stations_of(w, class)).collect();
            let n = per_world.first().map_or(0, Vec::len);
            (0..n)
                .map(|i| {
                    let lanes = per_world.iter().map(|w| w[i]);
                    let busy: f64 = lanes.clone().map(|s| s.busy_time().as_secs_f64()).sum();
                    let servers: usize = lanes.map(|s| s.servers()).sum();
                    busy / (horizon_s * servers.max(1) as f64)
                })
                .collect()
        };
        let utilization = UtilizationReport {
            pool_prep: util(StationClass::ClientPrep),
            pool_recv: util(StationClass::ClientRecv),
            peer_endorse: util(StationClass::PeerEndorse),
            peer_vscc: util(StationClass::PeerVscc),
            peer_commit: util(StationClass::PeerCommit),
            osn_cpu: util(StationClass::OsnCpu),
        };

        // Later worlds fold into the first world's buffers, so a one-world
        // run moves its data and never holds a second copy.
        let multi = n_shards > 1;
        let mut final_state = Vec::new();
        let mut prefixed = String::new();
        let mut observer_height = 0u64;
        let mut chain_ok = true;
        let mut block_cuts: Vec<(SimTime, usize)> = Vec::new();
        let mut dropped_events = 0u64;
        let mut events = Vec::new();
        let mut dropped_spans = 0u64;
        let mut spans = Vec::new();
        let mut samples: Vec<Samples> = Vec::with_capacity(n_shards);
        let mut records: Vec<TxRecord> = Vec::new();

        for (s, mut w) in worlds.into_iter().enumerate() {
            chain_ok &= w.chain_breaks.is_empty();
            // The observer's world state moves out, key by key in order, so
            // the run never holds it twice.
            let ledger = w.peers.swap_remove(w.observer).peer.into_ledger();
            observer_height += ledger.height();
            for (key, v) in ledger.into_state().into_entries() {
                let key = if multi {
                    prefixed.clear();
                    let _ = write!(prefixed, "ch{s}/{key}");
                    Arc::from(prefixed.as_str())
                } else {
                    key
                };
                final_state.push((key, v.value));
            }
            fold_into(&mut block_cuts, w.block_cuts);
            let h = w.obs.harvest();
            dropped_events += h.dropped_events;
            fold_into(&mut events, h.events);
            dropped_spans += h.dropped_spans;
            fold_into(&mut spans, h.spans);
            samples.push(h.samples);
            fold_into(&mut records, h.records);
        }
        // Stable sorts: ties keep shard order, so the merged streams are
        // identical at every worker count. Handlers may also stamp events at
        // staggered per-tx times (e.g. commit times within a block), which
        // the same sorts restore to time order. The two record streams sort
        // cached integer keys and move each 272-byte record once.
        block_cuts.sort_by_key(|c| c.0);
        events.sort_by_cached_key(|e| time_key(e.t_s));
        spans.sort_by_cached_key(|s| (time_key(s.t0_s), time_key(s.t1_s), s.span_id));
        // Transactions go in creation order, ties by home `(shard, seq)`;
        // exported home stubs drop out in favour of the copy that finished.
        // A lone world's records are already in that order and stay put.
        records.retain(|r| r.home.is_some());
        records.sort_by_key(|r| (r.trace.created, r.home));
        // One vector until here; the public traces and the bottleneck
        // report's input are its two projections.
        let committed: Vec<TxStationBreakdown> = records
            .iter()
            .filter(|r| matches!(r.trace.outcome, TxOutcome::Committed(_)))
            .map(|r| r.breakdown.clone())
            .collect();
        let traces: Vec<TxTrace> = records.into_iter().map(|r| r.trace).collect();

        let w0 = SimTime::from_secs_f64(cfg.warmup_secs);
        let w1 = SimTime::from_secs_f64(cfg.duration_secs - cfg.cooldown_secs);
        let mut summary = summarize(&traces, &block_cuts, (w0, w1), cfg.arrival_rate_tps);
        summary.seed = cfg.seed;
        summary.config_digest = cfg.digest();
        // Attribute latency over committed txs; window coarse enough to hold
        // a useful population but fine enough to show regime changes.
        let window_s = (cfg.duration_secs / 10.0).clamp(1.0, 10.0);
        let health = cfg.obs.health_events.then(|| {
            let period = cfg.obs.sample_period_s;
            HealthReport::fold(&samples, period, cfg.duration_secs, cfg.obs.slo_p99_s)
        });
        let observability = RunObservability {
            events,
            dropped_events,
            spans,
            dropped_spans,
            samples,
            bottleneck: BottleneckReport::from_breakdowns(&committed, window_s),
            profile,
            shard_profiles,
            sync,
            lane,
            health,
        };
        RunResult {
            summary,
            observer_height,
            chain_ok,
            final_state,
            utilization,
            observability,
            traces,
            block_cuts,
        }
    }
}

/// `t`'s place in [`f64::total_cmp`] order as an integer, so records can be
/// ordered by plain key comparison.
fn time_key(t: f64) -> i64 {
    let bits = t.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Appends `more` to `acc`, taking `more` over whole while `acc` is still
/// empty (the first world's buffer is moved, not copied).
fn fold_into<T>(acc: &mut Vec<T>, more: Vec<T>) {
    if acc.is_empty() {
        *acc = more;
    } else {
        acc.extend(more);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{PolicySpec, WorkloadKind};
    use fabricsim_types::{ChannelId, OrdererType};

    fn quick_cfg(orderer: OrdererType) -> SimConfig {
        SimConfig {
            orderer_type: orderer,
            endorsing_peers: 3,
            policy: PolicySpec::OrN(3),
            arrival_rate_tps: 60.0,
            duration_secs: 12.0,
            warmup_secs: 3.0,
            cooldown_secs: 2.0,
            ..SimConfig::default()
        }
    }

    #[test]
    fn hottest_names_stations_by_class_label_and_keeps_the_last_tie() {
        let mut u = UtilizationReport {
            pool_prep: vec![0.0],
            pool_recv: vec![0.0],
            peer_endorse: vec![0.0, 0.0],
            peer_vscc: vec![0.0, 0.0],
            peer_commit: vec![0.0, 0.0],
            osn_cpu: vec![0.0],
        };
        assert_eq!(u.hottest(), ("idle", 0.0));
        u.pool_recv = vec![0.5];
        assert_eq!(u.hottest(), ("client recv", 0.5));
        u.peer_commit = vec![0.2, 0.5];
        assert_eq!(u.hottest(), ("peer commit", 0.5));
    }

    #[test]
    fn time_keys_order_like_total_cmp() {
        let ts = [
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            5e-324,
            1e-9,
            1.0,
            1.000_000_001,
            1e300,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in ts {
            for b in ts {
                assert_eq!(time_key(a).cmp(&time_key(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn solo_end_to_end_commits() {
        let r = Simulation::new(quick_cfg(OrdererType::Solo)).run_detailed();
        assert!(r.chain_ok, "observer chain must verify");
        assert!(r.observer_height > 0);
        let tput = r.summary.committed_tps();
        assert!(
            (50.0..70.0).contains(&tput),
            "solo committed {tput} tps at 60 offered"
        );
        assert_eq!(r.summary.endorsement_failures, 0);
        assert_eq!(r.summary.committed_invalid, 0);
    }

    #[test]
    fn raft_end_to_end_commits() {
        let r = Simulation::new(quick_cfg(OrdererType::Raft)).run_detailed();
        assert!(r.chain_ok);
        let tput = r.summary.committed_tps();
        assert!((50.0..70.0).contains(&tput), "raft committed {tput} tps");
    }

    #[test]
    fn kafka_end_to_end_commits() {
        let r = Simulation::new(quick_cfg(OrdererType::Kafka)).run_detailed();
        assert!(r.chain_ok);
        let tput = r.summary.committed_tps();
        assert!((50.0..70.0).contains(&tput), "kafka committed {tput} tps");
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let a = Simulation::new(quick_cfg(OrdererType::Solo)).run();
        let b = Simulation::new(quick_cfg(OrdererType::Solo)).run();
        assert_eq!(a.committed_valid, b.committed_valid);
        assert_eq!(a.blocks_cut, b.blocks_cut);
        assert!((a.validate.latency.mean_s - b.validate.latency.mean_s).abs() < 1e-12);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = quick_cfg(OrdererType::Solo);
        let a = Simulation::new(cfg.clone()).run();
        cfg.seed = 43;
        let b = Simulation::new(cfg).run();
        assert_ne!(a.committed_valid, b.committed_valid);
    }

    #[test]
    fn overload_saturates_at_validate_capacity() {
        let mut cfg = quick_cfg(OrdererType::Solo);
        cfg.endorsing_peers = 10;
        cfg.policy = PolicySpec::OrN(10);
        cfg.arrival_rate_tps = 400.0;
        cfg.duration_secs = 25.0;
        cfg.warmup_secs = 8.0;
        let r = Simulation::new(cfg).run();
        let tput = r.committed_tps();
        assert!(
            (270.0..330.0).contains(&tput),
            "expected validate-phase saturation ~300, got {tput}"
        );
        // Past the knee the validate queue grows without bound: latency
        // blows up (the paper's Fig. 3 "increase rapidly" regime).
        assert!(
            r.validate.latency.mean_s > 1.0,
            "order+validate latency should blow up past saturation, got {}s",
            r.validate.latency.mean_s
        );
    }

    #[test]
    fn and_policy_caps_lower_than_or() {
        let mut cfg = quick_cfg(OrdererType::Solo);
        cfg.endorsing_peers = 10;
        cfg.arrival_rate_tps = 400.0;
        cfg.duration_secs = 25.0;
        cfg.warmup_secs = 8.0;
        cfg.policy = PolicySpec::OrN(10);
        let or = Simulation::new(cfg.clone()).run().committed_tps();
        cfg.policy = PolicySpec::AndX(5);
        let and5 = Simulation::new(cfg).run().committed_tps();
        assert!(
            and5 < or - 50.0,
            "AND5 ({and5}) must cap well below OR ({or})"
        );
        assert!((180.0..230.0).contains(&and5), "AND5 cap {and5}");
    }

    #[test]
    fn mvcc_conflicts_appear_under_contention() {
        let mut cfg = quick_cfg(OrdererType::Solo);
        cfg.workload = WorkloadKind::KvRmw {
            keyspace: 4,
            payload_bytes: 1,
        };
        cfg.arrival_rate_tps = 100.0;
        let r = Simulation::new(cfg).run();
        assert!(
            r.committed_invalid > 0,
            "hot-key read-modify-write must produce MVCC conflicts"
        );
        assert!(r.committed_valid > 0);
    }

    #[test]
    fn broker_crash_fails_over() {
        let mut cfg = quick_cfg(OrdererType::Kafka);
        cfg.duration_secs = 30.0;
        cfg.warmup_secs = 18.0; // measure after the fault + failover
        let r = Simulation::new(cfg)
            .with_faults([(8.0, Fault::CrashBroker(0))])
            .unwrap()
            .run_detailed();
        assert!(r.chain_ok);
        assert!(
            r.summary.committed_tps() > 40.0,
            "kafka must keep ordering after leader broker crash: {} tps",
            r.summary.committed_tps()
        );
    }

    #[test]
    fn unknown_channel_is_a_typed_error() {
        let cfg = quick_cfg(OrdererType::Solo);
        let world = build_world(&cfg, 0);
        assert!(world.check_channel(&ChannelId::default_channel()).is_ok());
        let err = world
            .check_channel(&ChannelId("no-such-channel".into()))
            .unwrap_err();
        assert_eq!(err.to_string(), "unknown channel `no-such-channel`");
    }

    #[test]
    fn window_aligned_run_records_no_zero_width_tail() {
        // 12.0 s duration with a 1.0 s sampler window: the run ends exactly
        // on a window boundary, so there must be no partial tail row — not
        // a zero-width one — and the CSV must not carry a thirteenth row.
        let cfg = quick_cfg(OrdererType::Solo);
        assert_eq!(cfg.obs.sample_period_s, 1.0);
        let r = Simulation::new(cfg).run_detailed();
        let [w] = &r.observability.samples[..] else {
            panic!("one world, one record");
        };
        assert_eq!(w.rows.len(), 12, "one row per whole window");
        assert!(!w.tail, "no tail on an aligned horizon");
        assert!(w.rows.iter().all(|row| row.width_s == 1.0));
        let csv = fabricsim_obs::metrics_csv(1.0, &r.observability.samples);
        assert_eq!(csv.lines().count(), 13, "header + 12 rows:\n{csv}");
        let last = csv.lines().last().expect("rows");
        assert!(
            last.starts_with("11.000,"),
            "last row at the final whole window's start: {last}"
        );
        // A misaligned horizon DOES record its shorter tail window.
        let mut cfg = quick_cfg(OrdererType::Solo);
        cfg.duration_secs = 12.25;
        let r = Simulation::new(cfg).run_detailed();
        let [w] = &r.observability.samples[..] else {
            panic!("one world, one record");
        };
        assert_eq!(w.rows.len(), 13);
        assert!(w.tail);
        let tail = w.rows.last().expect("rows");
        assert_eq!((tail.t_end_s, tail.width_s), (12.25, 0.25));
    }

    #[test]
    fn sharded_multi_channel_worker_count_invariance() {
        let mut cfg = quick_cfg(OrdererType::Solo);
        cfg.channels = 4;
        cfg.endorsing_peers = 4;
        cfg.policy = PolicySpec::OrN(4);
        cfg.sim_workers = 1;
        let a = Simulation::new(cfg.clone()).run_detailed();
        cfg.sim_workers = 4;
        let b = Simulation::new(cfg).run_detailed();
        assert!(a.chain_ok && b.chain_ok);
        assert!(
            a.summary.committed_valid > 0,
            "multi-channel run must commit"
        );
        assert_eq!(a.summary.to_json(), b.summary.to_json());
        assert_eq!(a.final_state, b.final_state);
        assert_eq!(a.block_cuts, b.block_cuts);
        assert_eq!(a.traces.len(), b.traces.len());
    }
}
