//! The simulation world: clients, peers, ordering service, Kafka brokers and
//! ZooKeeper wired over the DES kernel with the calibrated cost model.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use fabricsim_chaincode::samples::{AssetTransfer, KvWrite, Nondeterministic, Smallbank};
use fabricsim_des::{
    EventId, Kernel, KernelProfile, Link, RngStream, ShardWorld, ShardedKernel, ShardedRunReport,
    SimDuration, SimTime, Station,
};
use fabricsim_kafka::{
    Broker, BrokerEffect, BrokerMsg, ClientEvent, KafkaConfig, ZkEffect, ZkEnsemble, ZkMsg,
};
use fabricsim_msp::{CertificateAuthority, Msp};
use fabricsim_obs::{
    message_span_id, span_id, tx_sampled, BottleneckReport, EventSink, HealthConfig, HealthReport,
    HealthWindow, LogHistogram, MetricsRecorder, OnlineHealth, PhaseEvent, SpanEvent, SpanKind,
    SpanSink, StationClass, TracePhase, TxStationBreakdown, DEFAULT_SPAN_KIND_CAP,
    HEALTH_STATION_COUNT,
};
use fabricsim_ordering::{OsnEffect, OsnInput, OsnMsg, OsnNode};
use fabricsim_peer::{GossipEffect, GossipMsg, GossipNode, Peer, PeerConfig};
use fabricsim_policy::Policy;
use fabricsim_types::encode::WireSize;
use fabricsim_types::{
    Block, ChannelId, ClientId, OrdererType, OrgId, Principal, Proposal, ProposalResponse,
    Transaction, TxId, ValidationCode,
};

use fabricsim_client::{ClientSdk, CollectState, EndorsementCollector, TargetSelector};

use crate::live::LiveMetrics;
use crate::metrics::{summarize, SummaryReport, TxOutcome, TxTrace};
use crate::workload::{SimConfig, WorkloadKind};

/// Scheduled fault injections.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Crash these Kafka brokers at the given virtual second.
    pub crash_brokers: Vec<(u32, f64)>,
    /// Crash these OSNs at the given virtual second.
    pub crash_osns: Vec<(u32, f64)>,
    /// Make these endorsing peers run *non-deterministic chaincode* from the
    /// given virtual second: their simulation results diverge from honest
    /// replicas (the classic Fabric failure mode). Only meaningful for the
    /// `KvPut`/`KvRmw` workloads.
    pub nondeterministic_peers: Vec<(u32, f64)>,
}

impl FaultPlan {
    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.crash_brokers.is_empty()
            && self.crash_osns.is_empty()
            && self.nondeterministic_peers.is_empty()
    }
}

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
    /// `(name, max utilization)` of the most loaded station class.
    pub fn hottest(&self) -> (&'static str, f64) {
        let max = |v: &[f64]| v.iter().cloned().fold(0.0, f64::max);
        [
            ("client-pool prep", max(&self.pool_prep)),
            ("client-pool recv", max(&self.pool_recv)),
            ("peer endorse", max(&self.peer_endorse)),
            ("peer vscc", max(&self.peer_vscc)),
            ("peer commit", max(&self.peer_commit)),
            ("osn cpu", max(&self.osn_cpu)),
        ]
        .into_iter()
        // `>=` keeps the last of equal maxima, matching `max_by` tie-breaking
        // (utilizations are never negative, so the seed never survives).
        .fold(
            ("idle", 0.0),
            |best, cand| {
                if cand.1 >= best.1 {
                    cand
                } else {
                    best
                }
            },
        )
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
    /// Spans lost to the ring bound or the per-family cardinality caps.
    pub dropped_spans: u64,
    /// Windowed time-series (queue depths, utilization, in-flight txs,
    /// block-cut cadence). `None` when the sampler was disabled.
    pub metrics: Option<MetricsRecorder>,
    /// Per-station queueing/service attribution over committed transactions.
    pub bottleneck: BottleneckReport,
    /// Log-bucketed end-to-end latency histogram over committed transactions
    /// (whole run, warm-up included).
    pub e2e_hist: LogHistogram,
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
    /// cross-world messages exchanged and event-loop counters summed over
    /// the channel worlds. A one-world run is one window and no messages.
    pub sync: ShardedRunReport,
    /// Online health-plane report (regime timeline, bottleneck-shift onsets,
    /// SLO burn accounting). `None` unless
    /// [`crate::ObsConfig::health_events`] was set. The per-channel engines
    /// are merged canonically in channel order, so the report is
    /// byte-identical at every worker count.
    pub health: Option<HealthReport>,
}

impl RunObservability {
    /// The collected events as a JSONL document (one event per line).
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }

    /// The collected spans as a JSONL document (one span per line).
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for sp in &self.spans {
            out.push_str(&sp.to_json());
            out.push('\n');
        }
        out
    }
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
    /// Whether the observer's chain verified end-to-end.
    pub chain_ok: bool,
    /// Final world state at the observer (key → value), for application-level
    /// assertions such as balance conservation.
    pub final_state: Vec<(String, Vec<u8>)>,
    /// Station utilizations over the run.
    pub utilization: UtilizationReport,
    /// Structured tracing, time-series and bottleneck attribution.
    pub observability: RunObservability,
}

struct PendingTx {
    /// Shared with every endorser the proposal is in flight to.
    proposal: Arc<Proposal>,
    collector: EndorsementCollector,
    timeout_event: Option<EventId>,
}

struct Pool {
    sdk: ClientSdk,
    selector: TargetSelector,
    prep: Station,
    recv: Station,
    egress: Link,
    pending: HashMap<TxId, PendingTx>,
    in_prep: usize,
    next_osn: u32,
    next_channel: u32,
    arrivals: RngStream,
    keys: RngStream,
}

struct PeerNode {
    /// This world's channel instance of the peer (its own ledger).
    peer: Peer,
    endorse: Station,
    /// VSCC stage of the validation pipeline: per-tx signature/policy checks
    /// over `validator_pool_size` workers per committer pipeline.
    vscc: Station,
    /// Serial MVCC + state/blockstore commit stage; one server per committer
    /// pipeline — this station is the queueing backbone of the validate phase.
    commit: Station,
    egress: Link,
    jitter: RngStream,
    /// Number of the next block this peer expects from its delivery stream;
    /// duplicates (e.g. failover replays) are dropped.
    next_expected_block: u64,
    /// Gossip dissemination state (when the run uses gossip delivery;
    /// single-channel only).
    gossip: Option<GossipNode>,
}

struct OsnActor {
    /// This channel's consensus/ordering instance (its own Raft group /
    /// Kafka partition client), as in Fabric.
    node: OsnNode,
    station: Station,
    egress: Link,
    subscribers: Vec<usize>,
    alive: bool,
    /// Blocks this OSN has emitted, kept for Deliver-style replay when a
    /// peer re-subscribes after its OSN crashed.
    delivered: Vec<Arc<Block>>,
}

struct BrokerActor {
    /// This channel's partition (paper §III: a partition is a channel).
    partition: Broker,
    station: Station,
    egress: Link,
    alive: bool,
}

/// Per-run observability state carried alongside the world.
struct ObsState {
    sink: EventSink,
    /// Causal span-graph sink (bounded, deterministically head-sampled).
    spans: SpanSink,
    /// Per-tx station decomposition, parallel to `World::traces`.
    breakdowns: Vec<TxStationBreakdown>,
    recorder: Option<MetricsRecorder>,
    /// Online health plane (streaming regime/SLO detectors); `None` unless
    /// requested. Write-only, like every other surface in this struct.
    health: Option<OnlineHealth>,
    e2e_hist: LogHistogram,
    /// Block-cut count at the previous sampler tick (for the cadence series).
    last_block_cuts: usize,
    /// Live observability plane, if one is attached (write-only: the event
    /// loop never reads these values back, so scraping them concurrently
    /// cannot perturb a deterministic run).
    live: Option<Arc<LiveMetrics>>,
}

struct World {
    cfg: SimConfig,
    policy: Policy,
    pools: Vec<Pool>,
    peers: Vec<PeerNode>,
    osns: Vec<OsnActor>,
    brokers: Vec<BrokerActor>,
    /// The partition's coordination ensemble (Kafka mode only).
    zk: Option<ZkEnsemble>,
    traces: Vec<TxTrace>,
    tx_index: HashMap<TxId, usize>,
    tx_pool: HashMap<TxId, usize>,
    block_cuts: Vec<(SimTime, usize)>,
    /// Next block number whose cut is still unrecorded.
    next_cut_number: u64,
    observer: usize,
    obs: ObsState,
    shard: ShardCtx,
}

type K = Kernel<World>;

/// A channel id that is not this world's channel.
#[derive(Debug, Clone, PartialEq, Eq)]
struct UnknownChannel(ChannelId);

impl std::fmt::Display for UnknownChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown channel `{}`", self.0 .0)
    }
}

impl std::error::Error for UnknownChannel {}

/// A world's place among the run's per-channel worlds. A world owns one
/// channel's entire pipeline (peer instances, OSNs, brokers, one ZK ensemble,
/// and that channel's station lanes) plus the client pools *homed* on it
/// (`pool % n_channels == shard_id`): arrivals, prep and proposal egress run
/// on the home world, and a transaction bound for another channel is exported
/// to that channel's world through the conservative mailbox. A
/// single-channel run is the one world that homes every pool and never
/// exports.
struct ShardCtx {
    /// This world's index == its channel's index in `channels`.
    shard_id: usize,
    /// Every channel id of the run, indexed by channel index.
    channels: Vec<ChannelId>,
    /// Cross-shard messages emitted this window: `(target shard, delivery
    /// time, message)`. Drained by the sharded kernel at the window barrier.
    outbox: Vec<(usize, SimTime, ShardMsg)>,
    /// Home `(shard, seq)` identity of each local trace, parallel to
    /// [`World::traces`] — the merge's tie-break among equal creation times.
    /// Home-created traces carry their own `(shard_id, local index)`,
    /// imported traces their home identity, and `None` marks a home stub
    /// whose transaction was exported: the receiving world holds the live
    /// copy under the same identity, so the merge drops the stub.
    trace_src: Vec<Option<(u32, u32)>>,
    /// Transactions handed to another shard; their home stubs stay
    /// `InFlight` forever, so the in-flight gauge subtracts this count.
    exported: usize,
    /// Virtual times of every scheduled-but-unexecuted `pool.send` event on
    /// this shard — the only events that can emit cross-shard messages.
    /// The heap minimum feeds [`ShardWorld::emission_bound`].
    pending_sends: BinaryHeap<Reverse<SimTime>>,
    /// Guaranteed minimum delay between any event and a `pool.send` it
    /// schedules: client prep service floor (mean minus jitter bound) plus
    /// the SDK pre-processing delay. The emission bound extends to
    /// `next event + this` when no earlier send is already pending.
    min_send_delay: SimDuration,
}

/// The one cross-shard interaction: a client pool on its home shard hands a
/// fully prepared proposal to the shard that owns the target channel. The
/// delivery times were already computed through the home pool's egress link,
/// so they respect the lookahead contract (`transfer ≥ now + propagation`);
/// everything after endorsement fan-in (responses, assembly, ordering,
/// validation, commit) is local to the receiving shard.
enum ShardMsg {
    Proposal {
        /// Origin `(shard, trace seq)` identity of the transaction.
        src: (u32, u32),
        /// Global client-pool index (every shard builds lanes for all pools).
        pool: usize,
        proposal: Arc<Proposal>,
        /// Endorsements the collector should expect (reachable targets).
        expected: usize,
        /// Per-endorser `(peer index, proposal arrival time)` fan-out.
        deliveries: Vec<(usize, SimTime)>,
        /// The transaction's phase trace so far (created/proposal_sent).
        trace: TxTrace,
        /// Station attribution so far (client prep).
        breakdown: TxStationBreakdown,
    },
}

/// The station class whose attribution is complete once a transaction
/// crosses `phase` — the snapshot point for the cumulative queue/service
/// totals stamped on phase events. Classes are pipeline-ordered, so
/// "through class C" means "summed over every class up to and including C".
fn through_class(phase: TracePhase) -> StationClass {
    match phase {
        TracePhase::Created | TracePhase::ProposalSent => StationClass::ClientPrep,
        // Endorsement fan-out and the client's response handling are both
        // settled by the time the envelope is assembled.
        TracePhase::Endorsed | TracePhase::Assembled | TracePhase::Submitted => {
            StationClass::PeerEndorse
        }
        TracePhase::OrderAcked | TracePhase::Ordered | TracePhase::Delivered => {
            StationClass::OsnCpu
        }
        TracePhase::VsccDone => StationClass::PeerVscc,
        // Commit, plus the terminal failures (whatever was attributed).
        TracePhase::Committed
        | TracePhase::OverloadDropped
        | TracePhase::EndorsementFailed
        | TracePhase::OrderingTimeout => StationClass::PeerCommit,
    }
}

impl World {
    fn trace_mut(&mut self, tx_id: TxId) -> Option<&mut TxTrace> {
        let idx = *self.tx_index.get(&tx_id)?;
        self.traces.get_mut(idx)
    }

    /// Records a structured phase event for a non-indexed transaction (no
    /// attribution to snapshot). Call sites must guard on
    /// `self.obs.sink.enabled()` before building the station string so that
    /// disabled tracing allocates nothing.
    fn emit(&mut self, now: SimTime, tx: String, phase: TracePhase, station: String, depth: usize) {
        if !tx_sampled(&tx, self.cfg.seed, self.cfg.obs.trace_sample) {
            return;
        }
        self.obs.sink.record(PhaseEvent {
            t_s: now.as_secs_f64(),
            tx,
            phase,
            station,
            queue_depth: depth as u64,
            cum_queued_s: 0.0,
            cum_service_s: 0.0,
        });
    }

    /// Records a structured phase event for an indexed transaction, stamping
    /// it with the tx's cumulative station attribution *through* the phase
    /// (see [`through_class`]) so the trace analyzer can split each
    /// inter-phase segment into queue-wait vs service. Same guard contract
    /// as [`World::emit`]. Read-only with respect to simulation state.
    fn emit_tx(
        &mut self,
        t: SimTime,
        tx_id: TxId,
        phase: TracePhase,
        station: String,
        depth: usize,
    ) {
        let tx = tx_id.short();
        if !tx_sampled(&tx, self.cfg.seed, self.cfg.obs.trace_sample) {
            return;
        }
        let (cum_queued_s, cum_service_s) = self
            .tx_index
            .get(&tx_id)
            .and_then(|&idx| self.obs.breakdowns.get(idx))
            .map(|b| b.cumulative_through(through_class(phase)))
            .unwrap_or((0.0, 0.0));
        self.obs.sink.record(PhaseEvent {
            t_s: t.as_secs_f64(),
            tx,
            phase,
            station,
            queue_depth: depth as u64,
            cum_queued_s,
            cum_service_s,
        });
    }

    /// Records one causal span. `trace` is the tx short id for tx-scoped
    /// kinds (gated on the sink's deterministic sampling decision) or the
    /// block identity `b{ch}.{number}` for block-scoped kinds (always
    /// recorded). Write-only with respect to simulation state; `t1` may lie
    /// in the future (the analyzer re-sorts).
    #[allow(clippy::too_many_arguments)]
    fn emit_span(
        &mut self,
        trace: &str,
        kind: SpanKind,
        actor: &str,
        t0: SimTime,
        t1: SimTime,
        hop: u32,
        parent_id: u64,
    ) {
        if !self.obs.spans.enabled() {
            return;
        }
        if kind.tx_scoped() && !self.obs.spans.wants_tx(trace) {
            return;
        }
        self.obs.spans.record(SpanEvent {
            span_id: span_id(trace, kind, actor, hop),
            parent_id,
            trace: trace.to_string(),
            kind,
            actor: actor.to_string(),
            t0_s: t0.as_secs_f64(),
            t1_s: t1.as_secs_f64(),
            hop,
        });
    }

    /// Records one infrastructure message-leg span (Raft/Kafka rounds).
    /// The same (trace, kind, actor) triple recurs every round, so the
    /// span's identity folds in its times ([`message_span_id`]).
    fn emit_msg_span(
        &mut self,
        trace: &str,
        kind: SpanKind,
        actor: &str,
        t0: SimTime,
        t1: SimTime,
    ) {
        if !self.obs.spans.enabled() {
            return;
        }
        let (t0_s, t1_s) = (t0.as_secs_f64(), t1.as_secs_f64());
        self.obs.spans.record(SpanEvent {
            span_id: message_span_id(trace, kind, actor, t0_s, t1_s),
            parent_id: 0,
            trace: trace.to_string(),
            kind,
            actor: actor.to_string(),
            t0_s,
            t1_s,
            hop: 0,
        });
    }

    /// Adds a sequential station visit to the tx's latency decomposition.
    fn attribute(
        &mut self,
        tx_id: TxId,
        class: StationClass,
        queued: SimDuration,
        service: SimDuration,
    ) {
        if let Some(&idx) = self.tx_index.get(&tx_id) {
            if let Some(b) = self.obs.breakdowns.get_mut(idx) {
                b.add(class, queued.as_secs_f64(), service.as_secs_f64());
            }
        }
    }

    /// Folds in one of several parallel station visits (critical path only).
    fn attribute_max(
        &mut self,
        tx_id: TxId,
        class: StationClass,
        queued: SimDuration,
        service: SimDuration,
    ) {
        if let Some(&idx) = self.tx_index.get(&tx_id) {
            if let Some(b) = self.obs.breakdowns.get_mut(idx) {
                b.add_max(class, queued.as_secs_f64(), service.as_secs_f64());
            }
        }
    }

    fn ms(&self, x: f64) -> SimDuration {
        SimDuration::from_millis_f64(x.max(0.0))
    }

    /// Peer index for a policy principal (`OrgN.peer` → endorsing peer N-1).
    fn peer_of(&self, principal: &Principal) -> usize {
        (principal.org.0 - 1) as usize
    }

    /// This world's channel. Its index `shard.shard_id` keeps trace
    /// identities (`b{ch}.{n}`, `ch{ch}`) collision-free across worlds.
    fn channel(&self) -> &ChannelId {
        &self.shard.channels[self.shard.shard_id]
    }

    /// Span-graph trace id of a block: channel index + block number.
    fn block_trace(&self, number: u64) -> String {
        format!("b{}.{number}", self.shard.shard_id)
    }

    /// Refuses work addressed to any channel but this world's own with a
    /// typed [`UnknownChannel`] (callers drop the event).
    fn check_channel(&self, id: &ChannelId) -> Result<(), UnknownChannel> {
        if id == self.channel() {
            Ok(())
        } else {
            Err(UnknownChannel(id.clone()))
        }
    }

    /// Appends a home-created trace under its `(shard, seq)` identity.
    fn push_trace(&mut self, trace: TxTrace) {
        let src = (self.shard.shard_id as u32, self.traces.len() as u32);
        self.shard.trace_src.push(Some(src));
        self.traces.push(trace);
    }

    /// `Some(target shard)` when `id` is another world's channel (the
    /// transaction must be exported); `None` when it is local.
    fn export_target(&self, id: &ChannelId) -> Option<usize> {
        if id == self.channel() {
            return None;
        }
        self.shard.channels.iter().position(|c| c == id)
    }

    /// Whether client pool `p` runs its arrival process on this world
    /// (pool `p` is homed at world `p % n_channels`).
    fn pool_is_homed(&self, p: usize) -> bool {
        p % self.shard.channels.len() == self.shard.shard_id
    }
}

/// One configured simulation run.
#[derive(Debug)]
pub struct Simulation {
    cfg: SimConfig,
    faults: FaultPlan,
    live: Option<Arc<LiveMetrics>>,
}

impl Simulation {
    /// Creates a simulation from a validated configuration.
    ///
    /// If a process-global [`LiveMetrics`] bundle was installed (see
    /// [`crate::live::install_global`]), the run reports into it; use
    /// [`Simulation::with_live_metrics`] to attach an explicit bundle instead.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(cfg: SimConfig) -> Self {
        // lint:allow(no-unwrap-in-lib) -- constructor fail-fast: an invalid config is a caller
        // bug
        cfg.validate().expect("invalid simulation config");
        Simulation {
            cfg,
            faults: FaultPlan::default(),
            live: crate::live::global(),
        }
    }

    /// Adds fault injections to the run.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches an explicit live-metrics bundle (overriding any process
    /// global). The run bumps its counters and gauges as virtual time
    /// advances; an exporter thread can scrape them concurrently.
    pub fn with_live_metrics(mut self, live: Arc<LiveMetrics>) -> Self {
        self.live = Some(live);
        self
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
    /// series, histograms, profiles, ledger state) are all
    /// worker-count-invariant, so the returned report is byte-identical at
    /// any worker count. A single-channel run is one world, one window and
    /// a barrier nobody else waits at.
    pub fn run_detailed(self) -> RunResult {
        let cfg = self.cfg;
        let faults = self.faults;
        let n_shards = cfg.channels as usize;
        let end = SimTime::from_secs_f64(cfg.duration_secs);
        if let Some(live) = &self.live {
            live.runs_started.inc();
        }
        // The conservative lookahead: no cross-shard interaction can land
        // earlier than one link propagation after it was emitted. A lone
        // world has nobody to look ahead to and may run with a zero link
        // delay (`validate` demands a positive one only across channels),
        // hence the 1 ns floor.
        let lookahead = SimDuration::from_millis_f64(cfg.cost.link_propagation_ms)
            .max(SimDuration::from_nanos(1));
        let mut sharded: ShardedKernel<World> = ShardedKernel::new(lookahead);
        sharded.set_horizon(end);
        for shard_id in 0..n_shards {
            let mut world = build_world(&cfg, self.live.clone(), shard_id);
            let mut kernel: K = Kernel::new();
            bootstrap(&mut world, &mut kernel);
            schedule_faults(&faults, &mut kernel);
            sharded.push_shard(kernel, world);
        }
        if cfg.obs.profile {
            sharded.enable_profiler();
        }
        let sync = sharded.run((cfg.sim_workers as usize).clamp(1, n_shards));
        let mut shard_profiles: Vec<KernelProfile> =
            sharded.take_profiles().into_iter().flatten().collect();
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
        let mut worlds = sharded.into_worlds();
        for w in &mut worlds {
            flush_partial_tick(w, end);
        }
        if let Some(live) = &self.live {
            live.runs_completed.inc();
        }

        // ---- deterministic merge --------------------------------------------
        // Utilization first (read-only): lanes of one entity sum busy time
        // over summed provisioned servers.
        let horizon_s = end.as_secs_f64();
        let util = |stations: &dyn Fn(&World) -> Vec<&Station>| -> Vec<f64> {
            let per_world: Vec<Vec<&Station>> = worlds.iter().map(stations).collect();
            let n = per_world.first().map_or(0, Vec::len);
            (0..n)
                .map(|i| {
                    let lanes = per_world.iter().map(|w| w[i]);
                    let busy: f64 = lanes.clone().map(|s| s.busy_time().as_secs_f64()).sum();
                    let servers: usize = lanes.map(Station::servers).sum();
                    busy / (horizon_s * servers.max(1) as f64)
                })
                .collect()
        };
        let utilization = UtilizationReport {
            pool_prep: util(&|w| w.pools.iter().map(|p| &p.prep).collect()),
            pool_recv: util(&|w| w.pools.iter().map(|p| &p.recv).collect()),
            peer_endorse: util(&|w| w.peers.iter().map(|p| &p.endorse).collect()),
            peer_vscc: util(&|w| w.peers.iter().map(|p| &p.vscc).collect()),
            peer_commit: util(&|w| w.peers.iter().map(|p| &p.commit).collect()),
            osn_cpu: util(&|w| w.osns.iter().map(|o| &o.station).collect()),
        };

        // Later worlds fold into the first world's buffers, so a one-world
        // run moves its data and never holds a second copy.
        let multi = n_shards > 1;
        let mut final_state = Vec::new();
        let mut observer_height = 0u64;
        let mut chain_ok = true;
        let mut block_cuts: Vec<(SimTime, usize)> = Vec::new();
        let mut dropped_events = 0u64;
        let mut events = Vec::new();
        let mut dropped_spans = 0u64;
        let mut spans = Vec::new();
        let mut recorder: Option<MetricsRecorder> = None;
        let mut health: Option<HealthReport> = None;
        let mut e2e_hist = LogHistogram::latency();
        let mut traces: Vec<TxTrace> = Vec::new();
        let mut breakdowns: Vec<TxStationBreakdown> = Vec::new();
        let mut trace_src: Vec<Option<(u32, u32)>> = Vec::new();

        for (s, w) in worlds.into_iter().enumerate() {
            {
                let ledger = w.peers[w.observer].peer.ledger();
                for (key, v) in ledger.state().range("", "") {
                    let key = if multi {
                        format!("ch{s}/{key}")
                    } else {
                        key.to_string()
                    };
                    final_state.push((key, v.value.clone()));
                }
                observer_height += ledger.height();
                chain_ok &= ledger.blocks().verify_chain().is_ok();
            }
            fold_into(&mut block_cuts, w.block_cuts);
            dropped_events += w.obs.sink.dropped_events();
            fold_into(&mut events, w.obs.sink.into_events());
            dropped_spans += w.obs.spans.dropped_spans();
            fold_into(&mut spans, w.obs.spans.into_spans());
            if let Some(r) = w.obs.recorder {
                match recorder.as_mut() {
                    None => recorder = Some(r),
                    Some(acc) => acc.absorb(&r),
                }
            }
            // Shard-order concatenation; one canonical sort after the loop
            // keeps the merged health timeline worker-count-invariant.
            if let Some(h) = w.obs.health {
                let r = h.into_report();
                match health.as_mut() {
                    None => health = Some(r),
                    Some(acc) => acc.merge(r),
                }
            }
            e2e_hist.merge(&w.obs.e2e_hist);
            debug_assert_eq!(w.shard.trace_src.len(), w.traces.len());
            fold_into(&mut traces, w.traces);
            fold_into(&mut breakdowns, w.obs.breakdowns);
            fold_into(&mut trace_src, w.shard.trace_src);
        }
        // Stable sorts: ties keep shard order, so the merged streams are
        // identical at every worker count. Handlers may also stamp events at
        // staggered per-tx times (e.g. commit times within a block), which
        // the same sorts restore to time order.
        block_cuts.sort_by_key(|c| c.0);
        events.sort_by(|a, b| a.t_s.total_cmp(&b.t_s));
        spans.sort_by(|a, b| {
            a.t0_s
                .total_cmp(&b.t0_s)
                .then(a.t1_s.total_cmp(&b.t1_s))
                .then(a.span_id.cmp(&b.span_id))
        });
        // Transactions go in creation order, ties by home `(shard, seq)`;
        // exported home stubs drop out in favour of the copy that finished.
        // A lone world's traces are already in that order and stay put.
        let mut order: Vec<usize> = (0..traces.len())
            .filter(|&i| trace_src[i].is_some())
            .collect();
        order.sort_by_key(|&i| (traces[i].created, trace_src[i]));
        if !order.iter().copied().eq(0..traces.len()) {
            traces = order.iter().map(|&i| traces[i].clone()).collect();
            breakdowns = order.iter().map(|&i| breakdowns[i].clone()).collect();
        }

        let w0 = SimTime::from_secs_f64(cfg.warmup_secs);
        let w1 = SimTime::from_secs_f64(cfg.duration_secs - cfg.cooldown_secs);
        let mut summary = summarize(&traces, &block_cuts, (w0, w1), cfg.arrival_rate_tps);
        summary.seed = cfg.seed;
        summary.config_digest = cfg.digest();
        // Attribute latency over committed txs; window coarse enough to hold
        // a useful population but fine enough to show regime changes.
        let window_s = (cfg.duration_secs / 10.0).clamp(1.0, 10.0);
        let committed: Vec<TxStationBreakdown> = traces
            .iter()
            .zip(&breakdowns)
            .filter(|(t, _)| matches!(t.outcome, TxOutcome::Committed(_)))
            .map(|(_, b)| b.clone())
            .collect();
        if let Some(h) = health.as_mut() {
            h.sort_events();
        }
        let observability = RunObservability {
            events,
            dropped_events,
            spans,
            dropped_spans,
            metrics: recorder,
            bottleneck: BottleneckReport::from_breakdowns(&committed, window_s),
            e2e_hist,
            profile,
            shard_profiles,
            sync,
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

/// Appends `more` to `acc`, taking `more` over whole while `acc` is still
/// empty (the first world's buffer is moved, not copied).
fn fold_into<T>(acc: &mut Vec<T>, more: Vec<T>) {
    if acc.is_empty() {
        *acc = more;
    } else {
        acc.extend(more);
    }
}

// ---- world construction ------------------------------------------------------

/// Builds the world of channel `shard_id`: that channel's whole pipeline,
/// with each station sized as one channel's lane of its entity, plus a lane
/// for every client pool.
fn build_world(cfg: &SimConfig, live: Option<Arc<LiveMetrics>>, shard_id: usize) -> World {
    let n_channels = cfg.channels as usize;
    let channels: Vec<ChannelId> = if n_channels == 1 {
        vec![ChannelId::default_channel()]
    } else {
        (0..n_channels)
            .map(|c| ChannelId(format!("channel{c}")))
            .collect()
    };
    let channel = &channels[shard_id];
    // Identity material is identical in every shard: same CA seed, same
    // enrollment sequence (independent of the channel restriction), so
    // signatures verify across shard boundaries.
    let policy = cfg.policy.resolve(cfg.endorsing_peers);
    let ca = CertificateAuthority::new("fabric-ca", cfg.seed);
    let root = RngStream::derive(cfg.seed, "world");
    // With several worlds the jitter streams are salted per shard so shards
    // don't draw correlated endorse-path jitter; pool streams are never
    // salted (they are only consumed on a pool's home shard).
    let jitter_salt = if n_channels > 1 {
        100_000 * (shard_id as u64 + 1)
    } else {
        0
    };
    let m = &cfg.cost;

    // Peers: endorsers 0..n-1 (Org i+1), then committers (observer first).
    let n_endorsers = cfg.endorsing_peers as usize;
    let n_peers = n_endorsers + cfg.committing_peers as usize;
    let mut peers = Vec::with_capacity(n_peers);
    let mut endorser_identities = Vec::new();
    for i in 0..n_peers {
        let is_endorser = i < n_endorsers;
        let org = if is_endorser {
            i as u32 + 1
        } else {
            100 + i as u32
        };
        let identity = ca.enroll(Principal::peer(OrgId(org)), &format!("peer{i}"));
        if is_endorser {
            endorser_identities.push(identity.clone());
        }
        let mut peer = Peer::new(
            identity,
            Msp::new(ca.root_of_trust()),
            PeerConfig {
                channel: channel.clone(),
                endorsement_policy: policy.clone(),
                is_endorser,
                validator_pool_size: m.validator_pool_size.max(1),
            },
        );
        match &cfg.workload {
            WorkloadKind::KvPut { .. } | WorkloadKind::KvRmw { .. } => {
                peer.install_chaincode(Box::new(KvWrite));
            }
            WorkloadKind::Transfer { accounts } => {
                peer.install_chaincode(Box::new(AssetTransfer {
                    accounts: *accounts,
                    initial_balance: 1_000_000,
                }));
            }
            WorkloadKind::Smallbank { customers } => {
                peer.install_chaincode(Box::new(Smallbank {
                    customers: *customers,
                    initial_balance: 10_000,
                }));
            }
        }
        let gossip = cfg.gossip.as_ref().map(|g| {
            let neighbours: Vec<u32> = (0..n_peers as u32).filter(|&j| j != i as u32).collect();
            GossipNode::new(
                i as u32,
                neighbours,
                g.fanout,
                cfg.seed ^ 0x60551 ^ i as u64,
            )
        });
        peers.push(PeerNode {
            peer,
            next_expected_block: 0,
            gossip,
            endorse: Station::new(format!("peer{i}.endorse"), m.peer_endorse_threads),
            // This channel's committer pipeline (Fabric runs a commit
            // goroutine per channel): it fans its VSCC checks out over the
            // validator pool while commit stays serial.
            vscc: Station::new(
                format!("peer{i}.vscc"),
                m.validator_pool_size.max(1) * m.validate_threads,
            ),
            commit: Station::new(format!("peer{i}.commit"), m.validate_threads),
            egress: Link::new(
                format!("peer{i}.nic"),
                m.link_bandwidth_bps,
                SimDuration::from_millis_f64(m.link_propagation_ms),
            ),
            jitter: root.child(1000 + i as u64 + jitter_salt),
        });
    }

    // Register endorser keys and client certificates on every peer.
    let mut clients = Vec::new();
    for p in 0..n_endorsers {
        let client_identity = ca.enroll(
            Principal {
                org: OrgId(p as u32 + 1),
                role: "client".into(),
            },
            &format!("client{p}"),
        );
        clients.push((ClientId(p as u32), client_identity));
    }
    for node in &mut peers {
        for endorser in &endorser_identities {
            node.peer.register_endorser(
                endorser.principal().clone(),
                endorser.certificate().public_key,
            );
        }
        for (cid, cident) in &clients {
            node.peer
                .register_client(*cid, cident.certificate().clone());
        }
    }

    // Client pools: one per endorsing peer.
    let mut pools = Vec::with_capacity(n_endorsers);
    for (p, (cid, cident)) in clients.into_iter().enumerate() {
        let mut selector = TargetSelector::new(&policy);
        // Stagger rotation so pools spread load from t=0.
        for _ in 0..p % selector.set_count().max(1) {
            selector.next_targets();
        }
        pools.push(Pool {
            sdk: ClientSdk::new(cid, cident),
            selector,
            prep: Station::new(format!("pool{p}.prep"), 1),
            recv: Station::new(format!("pool{p}.recv"), m.client_recv_threads),
            egress: Link::new(
                format!("pool{p}.nic"),
                m.link_bandwidth_bps,
                SimDuration::from_millis_f64(m.link_propagation_ms),
            ),
            pending: HashMap::new(),
            in_prep: 0,
            next_osn: p as u32,
            next_channel: p as u32,
            arrivals: root.child(p as u64),
            keys: root.child(500 + p as u64),
        });
    }

    // OSNs.
    let osn_count = cfg.effective_osns() as usize;
    let mut osns = Vec::with_capacity(osn_count);
    for o in 0..osn_count {
        let node = match cfg.orderer_type {
            OrdererType::Solo => OsnNode::solo(o as u32, channel.clone(), cfg.batch),
            OrdererType::Raft => OsnNode::raft(
                o as u32,
                channel.clone(),
                cfg.batch,
                (0..osn_count as u32).collect(),
                // The Raft group seed keys off the channel index so every
                // channel's group elects independently.
                cfg.seed ^ 0xABCD ^ o as u64 ^ ((shard_id as u64) << 32),
            ),
            OrdererType::Kafka => OsnNode::kafka(
                o as u32,
                channel.clone(),
                cfg.batch,
                (0..cfg.broker_count).collect(),
            ),
        };
        osns.push(OsnActor {
            node,
            station: Station::new(format!("osn{o}.cpu"), m.osn_cpu_threads),
            egress: Link::new(
                format!("osn{o}.nic"),
                m.link_bandwidth_bps,
                SimDuration::from_millis_f64(m.link_propagation_ms),
            ),
            subscribers: match &cfg.gossip {
                None => (0..n_peers).filter(|p| p % osn_count == o).collect(),
                Some(g) => {
                    // Only leader peers subscribe; they spread across OSNs.
                    let leaders = (g.leader_peers as usize).min(n_peers);
                    (0..leaders).filter(|p| p % osn_count == o).collect()
                }
            },
            alive: true,
            delivered: Vec::new(),
        });
    }

    // Kafka substrate.
    let (brokers, zk) = if cfg.orderer_type == OrdererType::Kafka {
        let brokers = (0..cfg.broker_count)
            .map(|b| BrokerActor {
                partition: Broker::new(
                    b,
                    KafkaConfig {
                        replication_factor: cfg.broker_count.min(3) as usize,
                        ..KafkaConfig::default()
                    },
                ),
                station: Station::new(format!("broker{b}.cpu"), m.broker_cpu_threads),
                egress: Link::new(
                    format!("broker{b}.nic"),
                    m.link_bandwidth_bps,
                    SimDuration::from_millis_f64(m.link_propagation_ms),
                ),
                alive: true,
            })
            .collect();
        let zk = ZkEnsemble::new(
            cfg.zk_count as usize,
            (0..cfg.broker_count).collect(),
            4, // sessions expire after 4 missed zk ticks (~2 s)
        );
        (brokers, Some(zk))
    } else {
        (Vec::new(), None)
    };

    World {
        policy,
        pools,
        observer: n_endorsers,
        peers,
        osns,
        brokers,
        zk,
        traces: Vec::new(),
        tx_index: HashMap::new(),
        tx_pool: HashMap::new(),
        block_cuts: Vec::new(),
        next_cut_number: 0,
        shard: ShardCtx {
            shard_id,
            channels,
            outbox: Vec::new(),
            trace_src: Vec::new(),
            exported: 0,
            pending_sends: BinaryHeap::new(),
            min_send_delay: SimDuration::from_millis_f64(
                (cfg.cost.client_prep_ms - cfg.cost.client_prep_jitter_ms).max(0.0)
                    + cfg.cost.sdk_pre_ms,
            ),
        },
        obs: ObsState {
            sink: if cfg.obs.trace_events {
                EventSink::in_memory_bounded(cfg.obs.trace_buffer_cap)
            } else {
                EventSink::disabled()
            },
            spans: if cfg.obs.span_events {
                SpanSink::bounded(
                    cfg.seed,
                    cfg.obs.trace_sample,
                    cfg.obs.trace_buffer_cap,
                    DEFAULT_SPAN_KIND_CAP,
                )
            } else {
                SpanSink::disabled()
            },
            breakdowns: Vec::new(),
            recorder: (cfg.obs.sample_period_s > 0.0)
                .then(|| MetricsRecorder::new(cfg.obs.sample_period_s)),
            health: cfg.obs.health_events.then(|| {
                // One engine per channel world. The window matches the
                // sampler cadence (1 s fallback mirrors `sample_period_s()`).
                let window = if cfg.obs.sample_period_s > 0.0 {
                    cfg.obs.sample_period_s
                } else {
                    1.0
                };
                OnlineHealth::new(
                    shard_id as u32,
                    window,
                    HealthConfig::with_slo(cfg.obs.slo_p99_s),
                )
            }),
            e2e_hist: LogHistogram::latency(),
            last_block_cuts: 0,
            live,
        },
        cfg: cfg.clone(),
    }
}

// ---- bootstrap ---------------------------------------------------------------

fn bootstrap(world: &mut World, k: &mut K) {
    // Arrival processes, only for the pools homed on this world.
    for p in 0..world.pools.len() {
        if world.pool_is_homed(p) {
            schedule_next_arrival(world, k, p);
        }
    }
    // Time-series sampler (reads state only: scheduling it never perturbs
    // the simulated system, so traced and untraced runs stay bit-identical).
    // A live-metrics bundle keeps the sweep running even when the recorder
    // is disabled, so an exporter always has fresh gauges to serve.
    if world.obs.recorder.is_some() || world.obs.live.is_some() || world.obs.health.is_some() {
        let period = SimDuration::from_secs_f64(sample_period_s(world));
        k.schedule_in_labeled(period, "obs.sample", obs_sample);
    }
    // OSN ticks (Raft elections/heartbeats; Kafka consume polling).
    if world.cfg.orderer_type != OrdererType::Solo {
        let period = world.ms(world.cfg.cost.osn_tick_ms);
        for o in 0..world.osns.len() {
            k.schedule_in_labeled(period, "osn.tick", move |w, k| osn_tick(w, k, o));
        }
    }
    // Gossip anti-entropy pulls.
    if let Some(g) = world.cfg.gossip {
        let period = world.ms(g.anti_entropy_ms as f64);
        for peer_idx in 0..world.peers.len() {
            k.schedule_in_labeled(period, "gossip.tick", move |w, k| {
                gossip_tick(w, k, peer_idx)
            });
        }
    }
    // Kafka broker ticks + ZK heartbeats + ZK tick.
    if world.cfg.orderer_type == OrdererType::Kafka {
        let bt = world.ms(world.cfg.cost.broker_tick_ms);
        for b in 0..world.brokers.len() {
            k.schedule_in_labeled(bt, "broker.tick", move |w, k| broker_tick(w, k, b));
        }
        for b in 0..world.brokers.len() {
            // First heartbeat immediately: bootstraps leader election.
            k.schedule_in_labeled(SimDuration::ZERO, "broker.heartbeat", move |w, k| {
                broker_heartbeat(w, k, b);
            });
        }
        k.schedule_in_labeled(world.ms(500.0), "zk.tick", zk_tick);
    }
}

/// One read-only sweep of the gauges both sampling surfaces consume.
struct GaugeSweep {
    pool_prep: usize,
    pool_recv: usize,
    peer_endorse: usize,
    peer_vscc: usize,
    peer_commit: usize,
    osn_cpu: usize,
    vscc_util: f64,
    commit_util: f64,
    inflight: usize,
    /// Blocks cut since the previous sweep.
    new_cuts: usize,
    /// Cumulative busy seconds per health-plane station class
    /// ([`fabricsim_obs::HEALTH_STATIONS`] order). Busy time accrues at
    /// submit, so differencing consecutive sweeps yields the *offered* work
    /// per window — the health plane's saturation signal.
    busy_s: [f64; HEALTH_STATION_COUNT],
    /// Provisioned servers per health-plane station class.
    servers: [f64; HEALTH_STATION_COUNT],
}

fn sweep_gauges(world: &mut World, now: SimTime) -> GaugeSweep {
    let cuts = world.block_cuts.len();
    let new_cuts = cuts - world.obs.last_block_cuts;
    world.obs.last_block_cuts = cuts;
    // Cumulative (busy seconds, servers) per health-plane station class,
    // summed over the class's stations, in HEALTH_STATIONS order.
    let mut busy_s = [0.0; HEALTH_STATION_COUNT];
    let mut servers = [0.0; HEALTH_STATION_COUNT];
    {
        let mut lane = |i: usize, s: &Station| {
            busy_s[i] += s.busy_time().as_secs_f64();
            servers[i] += s.servers() as f64;
        };
        for p in &world.pools {
            lane(0, &p.prep);
            lane(1, &p.recv);
        }
        for p in &world.peers {
            lane(2, &p.endorse);
            lane(3, &p.vscc);
            lane(4, &p.commit);
        }
        for o in &world.osns {
            lane(5, &o.station);
        }
    }
    GaugeSweep {
        busy_s,
        servers,
        pool_prep: world.pools.iter().map(|p| p.prep.jobs_in_system(now)).sum(),
        pool_recv: world.pools.iter().map(|p| p.recv.jobs_in_system(now)).sum(),
        peer_endorse: world
            .peers
            .iter()
            .map(|p| p.endorse.jobs_in_system(now))
            .sum(),
        peer_vscc: world.peers.iter().map(|p| p.vscc.jobs_in_system(now)).sum(),
        peer_commit: world
            .peers
            .iter()
            .map(|p| p.commit.jobs_in_system(now))
            .sum(),
        osn_cpu: world
            .osns
            .iter()
            .map(|o| o.station.jobs_in_system(now))
            .sum(),
        vscc_util: world
            .peers
            .iter()
            .map(|p| p.vscc.utilization(now))
            .fold(0.0, f64::max),
        commit_util: world
            .peers
            .iter()
            .map(|p| p.commit.utilization(now))
            .fold(0.0, f64::max),
        inflight: world
            .traces
            .iter()
            .filter(|t| matches!(t.outcome, TxOutcome::InFlight))
            .count()
            // Exported home stubs stay InFlight forever; the receiving shard
            // counts the live copy.
            .saturating_sub(world.shard.exported),
        new_cuts,
    }
}

/// Publishes a sweep to the live plane's gauges, if one is attached. Only
/// shard 0 drives the gauges (counters stay cross-shard: they are atomic and
/// increment-only); on a multi-channel run the gauges then cover channel 0's
/// slice of the deployment, which keeps the exporter deterministic-read safe
/// without cross-thread coordination.
fn publish_live(world: &World, now: SimTime, s: &GaugeSweep) {
    let Some(live) = &world.obs.live else { return };
    if world.shard.shard_id != 0 {
        return;
    }
    live.sim_time.set(now.as_secs_f64());
    live.inflight.set(s.inflight as f64);
    live.q_pool_prep.set(s.pool_prep as f64);
    live.q_pool_recv.set(s.pool_recv as f64);
    live.q_peer_endorse.set(s.peer_endorse as f64);
    live.q_peer_vscc.set(s.peer_vscc as f64);
    live.q_peer_commit.set(s.peer_commit as f64);
    live.q_osn_cpu.set(s.osn_cpu as f64);
    live.util_peer_vscc.set(s.vscc_util);
    live.util_peer_commit.set(s.commit_util);
}

/// The sampler cadence: the configured period, or 1 s when only the live
/// plane is attached (`sample_period_s == 0` disables the recorder).
fn sample_period_s(world: &World) -> f64 {
    if world.cfg.obs.sample_period_s > 0.0 {
        world.cfg.obs.sample_period_s
    } else {
        1.0
    }
}

/// The series-name prefix of this world's recorder: empty on a
/// single-channel run, `ch{c}.` on channel `c` of several so the merged
/// table keeps every channel's series distinct.
fn sweep_prefix(world: &World) -> String {
    if world.shard.channels.len() > 1 {
        format!("ch{}.", world.shard.shard_id)
    } else {
        String::new()
    }
}

/// Records a sweep into the recorder's per-window series.
fn record_sweep(rec: &mut MetricsRecorder, s: &GaugeSweep, cut_scale: f64, prefix: &str) {
    rec.sample(&format!("{prefix}queue.pool_prep"), s.pool_prep as f64);
    rec.sample(&format!("{prefix}queue.pool_recv"), s.pool_recv as f64);
    rec.sample(
        &format!("{prefix}queue.peer_endorse"),
        s.peer_endorse as f64,
    );
    rec.sample(&format!("{prefix}queue.peer_vscc"), s.peer_vscc as f64);
    rec.sample(&format!("{prefix}queue.peer_commit"), s.peer_commit as f64);
    rec.sample(&format!("{prefix}queue.osn_cpu"), s.osn_cpu as f64);
    rec.sample(&format!("{prefix}util.peer_vscc"), s.vscc_util);
    rec.sample(&format!("{prefix}util.peer_commit"), s.commit_util);
    rec.sample(&format!("{prefix}inflight.txs"), s.inflight as f64);
    rec.sample(
        &format!("{prefix}blocks.cut_per_tick"),
        s.new_cuts as f64 * cut_scale,
    );
}

/// Closes one health-plane window from a sweep and mirrors the detectors'
/// state into the live plane's gauges (shard 0 only, same rule as
/// [`publish_live`]). No-op when the health plane is off.
fn health_close(world: &mut World, s: &GaugeSweep, t_end_s: f64, width_s: f64) {
    let shard0 = world.shard.shard_id == 0;
    let ObsState { health, live, .. } = &mut world.obs;
    let Some(h) = health.as_mut() else { return };
    h.close_window(&HealthWindow {
        t_end_s,
        width_s,
        busy_s: s.busy_s,
        queue: [
            s.pool_prep as f64,
            s.pool_recv as f64,
            s.peer_endorse as f64,
            s.peer_vscc as f64,
            s.peer_commit as f64,
            s.osn_cpu as f64,
        ],
        servers: s.servers,
        inflight: s.inflight as f64,
    });
    if !shard0 {
        return;
    }
    if let Some(live) = live {
        for (gauge, sev) in live.health_regime.iter().zip(h.severities()) {
            gauge.set(sev as f64);
        }
        live.health_slo_burn.set(h.current_burn());
        for (counter, delta) in live.health_events.iter().zip(h.take_kind_deltas()) {
            counter.add(delta);
        }
    }
}

/// Periodic read-only gauge sweep feeding the [`MetricsRecorder`], the
/// online health plane and the live plane.
fn obs_sample(world: &mut World, k: &mut K) {
    let now = k.now();
    let s = sweep_gauges(world, now);
    publish_live(world, now, &s);
    let prefix = sweep_prefix(world);
    if let Some(rec) = world.obs.recorder.as_mut() {
        record_sweep(rec, &s, 1.0, &prefix);
        rec.end_tick();
    }
    let period = sample_period_s(world);
    health_close(world, &s, now.as_secs_f64(), period);
    let period = SimDuration::from_secs_f64(period);
    k.schedule_in_labeled(period, "obs.sample", obs_sample);
}

/// Flushes the final partial window at the horizon. The sampler only fires
/// on whole periods, so a run whose duration is not an exact multiple of the
/// period used to silently drop the tail; this closes the gap with a
/// width-weighted window for both the recorder and the health plane (whose
/// regime dwells must tile the horizon exactly). The cadence series is
/// scaled by `period / width` so its weighted mean stays in
/// blocks-per-period units. A horizon landing exactly on a tick boundary
/// (modulo fp noise) flushes no tail.
fn flush_partial_tick(world: &mut World, horizon: SimTime) {
    let duration = world.cfg.duration_secs;
    // One sweep serves every surface (the sweep mutates block-cut
    // bookkeeping, so it must run at most once per virtual instant). It also
    // leaves the live gauges at their horizon values.
    let s = sweep_gauges(world, horizon);
    publish_live(world, horizon, &s);
    if let Some(health) = world.obs.health.as_ref() {
        let period = sample_period_s(world);
        let windows = health.windows();
        let width = duration - windows as f64 * period;
        if width > 1e-9 {
            health_close(world, &s, duration, width.min(period));
        }
        if let Some(h) = world.obs.health.as_mut() {
            h.finish(duration);
        }
    }
    let Some(rec) = world.obs.recorder.as_ref() else {
        return;
    };
    let period = world.cfg.obs.sample_period_s;
    let width = duration - rec.ticks() as f64 * period;
    if width <= 1e-9 {
        return;
    }
    let width = width.min(period);
    let prefix = sweep_prefix(world);
    if let Some(rec) = world.obs.recorder.as_mut() {
        record_sweep(rec, &s, period / width, &prefix);
        rec.end_partial_tick(width);
    }
}

fn schedule_faults(faults: &FaultPlan, k: &mut K) {
    for &(peer, at) in &faults.nondeterministic_peers {
        k.schedule_labeled(
            SimTime::from_secs_f64(at),
            "fault",
            move |w: &mut World, _| {
                if let Some(node) = w.peers.get_mut(peer as usize) {
                    node.peer.install_chaincode(Box::new(Nondeterministic {
                        inner: KvWrite,
                        taint: peer,
                    }));
                }
            },
        );
    }
    for &(b, at) in &faults.crash_brokers {
        k.schedule_labeled(
            SimTime::from_secs_f64(at),
            "fault",
            move |w: &mut World, _| {
                if let Some(actor) = w.brokers.get_mut(b as usize) {
                    actor.alive = false;
                }
            },
        );
    }
    for &(o, at) in &faults.crash_osns {
        k.schedule_labeled(
            SimTime::from_secs_f64(at),
            "fault",
            move |w: &mut World, k| {
                let o = o as usize;
                let Some(actor) = w.osns.get_mut(o) else {
                    return;
                };
                actor.alive = false;
                let orphans = std::mem::take(&mut actor.subscribers);
                // Peers reconnect to another OSN and seek from their height.
                let Some(target) = w.osns.iter().position(|a| a.alive) else {
                    return; // no ordering service left (Solo crash)
                };
                for peer_idx in orphans {
                    w.osns[target].subscribers.push(peer_idx);
                    let missing: Vec<Arc<Block>> = w.osns[target]
                        .delivered
                        .iter()
                        .filter(|blk| blk.header.number >= w.peers[peer_idx].next_expected_block)
                        .cloned()
                        .collect();
                    let now = k.now();
                    for b in missing {
                        let bytes = b.wire_size();
                        let arrival = w.osns[target].egress.transfer(now, bytes);
                        k.schedule_labeled(arrival, "peer.block", move |w, k| {
                            peer_receive_block(w, k, peer_idx, b);
                        });
                    }
                }
            },
        );
    }
}

// ---- client pool: arrivals, prep, send ----------------------------------------

fn schedule_next_arrival(world: &mut World, k: &mut K, p: usize) {
    let per_pool_rate = world.cfg.arrival_rate_tps / world.pools.len() as f64;
    let gap = world.pools[p].arrivals.exp(1.0 / per_pool_rate);
    k.schedule_in_labeled(
        SimDuration::from_secs_f64(gap),
        "pool.arrival",
        move |w, k| {
            pool_arrival(w, k, p);
            schedule_next_arrival(w, k, p);
        },
    );
}

fn workload_args(world: &mut World, p: usize, seq: usize) -> (String, Vec<Vec<u8>>) {
    match world.cfg.workload.clone() {
        WorkloadKind::KvPut { payload_bytes } => (
            "kvwrite".into(),
            vec![
                b"put".to_vec(),
                format!("k{p}_{seq}").into_bytes(),
                vec![b'x'; payload_bytes],
            ],
        ),
        WorkloadKind::KvRmw {
            keyspace,
            payload_bytes,
        } => {
            let key = world.pools[p].keys.next_below(keyspace as u64);
            (
                "kvwrite".into(),
                vec![
                    b"rmw".to_vec(),
                    format!("hot{key}").into_bytes(),
                    vec![b'x'; payload_bytes],
                ],
            )
        }
        WorkloadKind::Transfer { accounts } => {
            let from = world.pools[p].keys.next_below(accounts as u64) as u32;
            let mut to = world.pools[p].keys.next_below(accounts as u64) as u32;
            if to == from {
                to = (to + 1) % accounts;
            }
            (
                "asset-transfer".into(),
                vec![
                    b"transfer".to_vec(),
                    AssetTransfer::account_key(from).into_bytes(),
                    AssetTransfer::account_key(to).into_bytes(),
                    b"1".to_vec(),
                ],
            )
        }
        WorkloadKind::Smallbank { customers } => {
            let rng = &mut world.pools[p].keys;
            let a = rng.next_below(customers as u64).to_string().into_bytes();
            let mut b = rng.next_below(customers as u64) as u32;
            let op = rng.next_below(100);
            let args = match op {
                // Blockbench mix: 25 % send_payment, 15 % each of the rest.
                0..=24 => {
                    if b.to_string().as_bytes() == a.as_slice() {
                        b = (b + 1) % customers;
                    }
                    vec![
                        b"send_payment".to_vec(),
                        a,
                        b.to_string().into_bytes(),
                        b"5".to_vec(),
                    ]
                }
                25..=39 => vec![b"transact_savings".to_vec(), a, b"20".to_vec()],
                40..=54 => vec![b"deposit_checking".to_vec(), a, b"20".to_vec()],
                55..=69 => vec![b"write_check".to_vec(), a, b"10".to_vec()],
                70..=84 => vec![b"amalgamate".to_vec(), a],
                _ => vec![b"query".to_vec(), a],
            };
            ("smallbank".into(), args)
        }
    }
}

fn pool_arrival(world: &mut World, k: &mut K, p: usize) {
    let now = k.now();
    let seq = world.traces.len();
    let mut trace = TxTrace::new(now);

    // Overload guard: queue cap on the submission station.
    if world.pools[p].in_prep >= world.cfg.cost.client_queue_cap {
        trace.outcome = TxOutcome::OverloadDropped;
        world.push_trace(trace);
        world.obs.breakdowns.push(TxStationBreakdown::default());
        if let Some(live) = &world.obs.live {
            live.txs_failed_overload.inc();
        }
        if world.obs.sink.enabled() {
            let station = world.pools[p].prep.name().to_string();
            let depth = world.pools[p].in_prep;
            world.emit(
                now,
                format!("arrival{seq}"),
                TracePhase::OverloadDropped,
                station,
                depth,
            );
        }
        return;
    }

    let (chaincode, args) = workload_args(world, p, seq);
    // Round-robin over every channel of the run: a pool's home world spreads
    // its transactions over all of them, exporting the ones bound for
    // another world at proposal-send time.
    let n_channels = world.shard.channels.len() as u32;
    let deployed = world.cfg.endorsing_peers;
    let gc = (world.pools[p].next_channel % n_channels) as usize;
    let channel = world.shard.channels[gc].clone();
    let pool = &mut world.pools[p];
    pool.next_channel = pool.next_channel.wrapping_add(1);
    let proposal = pool.sdk.create_proposal(channel, &chaincode, args);
    let tx_id = proposal.tx_id;
    // Only deployed endorsing peers are reachable; a policy naming an
    // undeployed org can then fail at collection, as on a real network.
    let targets: Vec<Principal> = pool
        .selector
        .next_targets()
        .iter()
        .filter(|pr| pr.org.0 >= 1 && pr.org.0 <= deployed)
        .cloned()
        .collect();
    if targets.is_empty() {
        trace.outcome = TxOutcome::EndorsementFailed;
        world.push_trace(trace);
        world.obs.breakdowns.push(TxStationBreakdown::default());
        if let Some(live) = &world.obs.live {
            live.txs_failed_endorsement.inc();
        }
        if world.obs.sink.enabled() {
            let station = world.pools[p].prep.name().to_string();
            world.emit_tx(now, tx_id, TracePhase::EndorsementFailed, station, 0);
        }
        return;
    }
    let expected = targets.len();

    world.push_trace(trace);
    world.obs.breakdowns.push(TxStationBreakdown::default());
    world.tx_index.insert(tx_id, seq);
    world.tx_pool.insert(tx_id, p);
    if let Some(live) = &world.obs.live {
        live.txs_created.inc();
    }
    let collector = EndorsementCollector::new(tx_id, world.policy.clone(), expected);
    world.pools[p].pending.insert(
        tx_id,
        PendingTx {
            proposal: Arc::new(proposal),
            collector,
            timeout_event: None,
        },
    );

    // Submission-thread service.
    let m = &world.cfg.cost;
    let jitter = world.pools[p]
        .arrivals
        .uniform(-m.client_prep_jitter_ms, m.client_prep_jitter_ms);
    let service = world.ms(m.client_prep_ms + jitter);
    let sdk_pre = world.ms(m.sdk_pre_ms);
    world.pools[p].in_prep += 1;
    let queued = world.pools[p].prep.would_start_at(now) - now;
    let done = world.pools[p].prep.submit(now, service);
    world.attribute(tx_id, StationClass::ClientPrep, queued, service);
    if world.obs.sink.enabled() {
        let station = world.pools[p].prep.name().to_string();
        let depth = world.pools[p].prep.jobs_in_system(now);
        world.emit_tx(now, tx_id, TracePhase::Created, station, depth);
    }
    if world.obs.spans.enabled() {
        let tx = tx_id.short();
        let actor = format!("pool{p}");
        world.emit_span(&tx, SpanKind::ClientPrep, &actor, now, done + sdk_pre, 0, 0);
    }
    world.shard.pending_sends.push(Reverse(done + sdk_pre));
    k.schedule_labeled(done + sdk_pre, "pool.send", move |w, k| {
        w.pools[p].in_prep -= 1;
        send_proposals(w, k, p, tx_id, targets);
    });
}

fn send_proposals(world: &mut World, k: &mut K, p: usize, tx_id: TxId, targets: Vec<Principal>) {
    let now = k.now();
    // Retire this send from the emission-bound heap; `pool.send` events are
    // never cancelled, so pops line up one-to-one with pushes.
    let popped = world.shard.pending_sends.pop();
    debug_assert_eq!(popped.map(|r| r.0), Some(now));
    let Some(pending) = world.pools[p].pending.get(&tx_id) else {
        return;
    };
    let proposal = Arc::clone(&pending.proposal);
    if let Some(t) = world.trace_mut(tx_id) {
        t.proposal_sent = Some(now);
    }
    if world.obs.sink.enabled() {
        let depth = world.pools[p].pending.len();
        world.emit_tx(
            now,
            tx_id,
            TracePhase::ProposalSent,
            format!("pool{p}.nic"),
            depth,
        );
    }
    let bytes = proposal.wire_size();
    if let Some(target) = world.export_target(&proposal.channel) {
        // Cross-shard transaction: fan the proposal out through the home
        // pool's egress link as usual, but hand the resulting arrivals (all
        // at least one link propagation — the lookahead — in the future) to
        // the shard that owns the target channel. That shard runs the rest
        // of the transaction's life; the home copy of the trace becomes a
        // stub that the deterministic merge drops for the completed one.
        let deliveries: Vec<(usize, SimTime)> = targets
            .iter()
            .map(|principal| {
                (
                    world.peer_of(principal),
                    world.pools[p].egress.transfer(now, bytes),
                )
            })
            .collect();
        let Some(at) = deliveries.iter().map(|d| d.1).min() else {
            return;
        };
        let Some(&seq) = world.tx_index.get(&tx_id) else {
            return;
        };
        world.pools[p].pending.remove(&tx_id);
        let trace = world.traces[seq].clone();
        let breakdown = world.obs.breakdowns[seq].clone();
        let expected = targets.len();
        let ctx = &mut world.shard;
        let Some(src) = ctx.trace_src[seq].take() else {
            return;
        };
        ctx.exported += 1;
        ctx.outbox.push((
            target,
            at,
            ShardMsg::Proposal {
                src,
                pool: p,
                proposal,
                expected,
                deliveries,
                trace,
                breakdown,
            },
        ));
        return;
    }
    for principal in targets {
        let peer_idx = world.peer_of(&principal);
        let arrival = world.pools[p].egress.transfer(now, bytes);
        let proposal = Arc::clone(&proposal);
        k.schedule_labeled(arrival, "peer.endorse", move |w, k| {
            peer_receive_proposal(w, k, peer_idx, p, proposal);
        });
    }
}

impl ShardWorld for World {
    type Msg = ShardMsg;

    fn drain_outbox(&mut self) -> Vec<(usize, SimTime, ShardMsg)> {
        std::mem::take(&mut self.shard.outbox)
    }

    fn deliver(&mut self, kernel: &mut K, _at: SimTime, msg: ShardMsg) {
        // An imported proposal re-creates exactly the client-side state the
        // local path would have built — a pending entry keyed by tx id, the
        // trace/breakdown slot, and one endorsement arrival per target peer.
        // The trace slot is tagged with its home (shard, seq) identity so the
        // merge can put the completed trace back where the stub lives.
        let ShardMsg::Proposal {
            src,
            pool: p,
            proposal,
            expected,
            deliveries,
            trace,
            breakdown,
        } = msg;
        let tx_id = proposal.tx_id;
        let seq = self.traces.len();
        self.traces.push(trace);
        self.obs.breakdowns.push(breakdown);
        self.shard.trace_src.push(Some(src));
        self.tx_index.insert(tx_id, seq);
        self.tx_pool.insert(tx_id, p);
        let collector = EndorsementCollector::new(tx_id, self.policy.clone(), expected);
        self.pools[p].pending.insert(
            tx_id,
            PendingTx {
                proposal: Arc::clone(&proposal),
                collector,
                timeout_event: None,
            },
        );
        for (peer_idx, at) in deliveries {
            let proposal = Arc::clone(&proposal);
            kernel.schedule_labeled(at, "peer.endorse", move |w, k| {
                peer_receive_proposal(w, k, peer_idx, p, proposal);
            });
        }
    }

    fn emission_bound(&self, next_event: SimTime) -> Option<SimTime> {
        // Cross-shard messages leave this world only inside `pool.send`
        // handlers (see the outbox push in `send_proposals`), and a
        // `pool.send` is always scheduled at least `min_send_delay` after
        // the (home-pool arrival) event that creates it. Incoming proposals
        // only ever schedule endorsement work, which cannot emit — so the
        // bound holds against every future, which is what lets other shards
        // run `bound + lookahead` ahead instead of one link delay.
        let ctx = &self.shard;
        let pending = ctx
            .pending_sends
            .peek()
            .map_or(SimTime::MAX, |Reverse(t)| *t);
        let from_next = if next_event == SimTime::MAX {
            SimTime::MAX
        } else {
            next_event + ctx.min_send_delay
        };
        Some(pending.min(from_next))
    }
}

fn peer_receive_proposal(
    world: &mut World,
    k: &mut K,
    peer_idx: usize,
    p: usize,
    proposal: Arc<Proposal>,
) {
    let now = k.now();
    let m = &world.cfg.cost;
    let service = world.ms(m.endorse_tx_ms());
    let queued = world.peers[peer_idx].endorse.would_start_at(now) - now;
    let done = world.peers[peer_idx].endorse.submit(now, service);
    // Endorsement fans out: only the slowest endorser is on the critical path.
    world.attribute_max(proposal.tx_id, StationClass::PeerEndorse, queued, service);
    if world.obs.spans.enabled() {
        let tx = proposal.tx_id.short();
        let actor = format!("peer{peer_idx}");
        let parent = span_id(&tx, SpanKind::ClientPrep, &format!("pool{p}"), 0);
        world.emit_span(&tx, SpanKind::Endorse, &actor, now, done, 0, parent);
    }
    k.schedule_labeled(done, "peer.endorse", move |w, k| {
        if w.check_channel(&proposal.channel).is_err() {
            return;
        }
        let response = w.peers[peer_idx].peer.endorse(&proposal);
        send_response(w, k, peer_idx, p, response);
    });
}

fn send_response(
    world: &mut World,
    k: &mut K,
    peer_idx: usize,
    p: usize,
    response: ProposalResponse,
) {
    let now = k.now();
    let bytes = response.wire_size();
    let jitter_ms = world.peers[peer_idx]
        .jitter
        .exp(world.cfg.cost.endorse_path_jitter_ms);
    let arrival = world.peers[peer_idx].egress.transfer(now, bytes) + world.ms(jitter_ms);
    k.schedule_labeled(arrival, "pool.recv", move |w, k| {
        pool_receive_response(w, k, p, response);
    });
}

fn pool_receive_response(world: &mut World, k: &mut K, p: usize, response: ProposalResponse) {
    let now = k.now();
    let tx_id = response.tx_id;
    let Some(pending) = world.pools[p].pending.get_mut(&tx_id) else {
        return; // already assembled or failed
    };
    // The response that satisfies the policy is the slowest endorsement the
    // client waited for — the span graph's causal parent of assembly.
    let endorser_peer = response
        .endorsement
        .as_ref()
        .map(|e| (e.endorser.org.0.saturating_sub(1)) as usize);
    match pending.collector.add(response) {
        CollectState::Pending => {}
        CollectState::Failed => {
            world.pools[p].pending.remove(&tx_id);
            if let Some(t) = world.trace_mut(tx_id) {
                t.outcome = TxOutcome::EndorsementFailed;
            }
            if let Some(live) = &world.obs.live {
                live.txs_failed_endorsement.inc();
            }
            if world.obs.sink.enabled() {
                let station = world.pools[p].recv.name().to_string();
                world.emit_tx(now, tx_id, TracePhase::EndorsementFailed, station, 0);
            }
        }
        CollectState::Satisfied => {
            let n = pending.collector.responses().len();
            let m = &world.cfg.cost;
            let cost = world
                .ms(m.client_assemble_base_ms + m.client_assemble_per_endorsement_ms * n as f64);
            let sdk_post = world.ms(m.sdk_post_ms);
            let queued = world.pools[p].recv.would_start_at(now) - now;
            let done = world.pools[p].recv.submit(now, cost);
            world.attribute(tx_id, StationClass::ClientRecv, queued, cost);
            if world.obs.spans.enabled() {
                let tx = tx_id.short();
                let actor = format!("pool{p}");
                let parent = endorser_peer.map_or(0, |e| {
                    span_id(&tx, SpanKind::Endorse, &format!("peer{e}"), 0)
                });
                world.emit_span(
                    &tx,
                    SpanKind::Assemble,
                    &actor,
                    now,
                    done + sdk_post,
                    0,
                    parent,
                );
            }
            k.schedule_labeled(done + sdk_post, "client.assemble", move |w, k| {
                client_assemble(w, k, p, tx_id);
            });
        }
    }
}

fn client_assemble(world: &mut World, k: &mut K, p: usize, tx_id: TxId) {
    let now = k.now();
    let pool = &world.pools[p];
    let Some(pending) = pool.pending.get(&tx_id) else {
        return;
    };
    let assembled = pool
        .sdk
        .assemble(&pending.proposal, pending.collector.responses());
    let tx = match assembled {
        Ok(tx) => tx,
        Err(_) => {
            world.pools[p].pending.remove(&tx_id);
            if let Some(t) = world.trace_mut(tx_id) {
                t.outcome = TxOutcome::EndorsementFailed;
            }
            if let Some(live) = &world.obs.live {
                live.txs_failed_endorsement.inc();
            }
            if world.obs.sink.enabled() {
                let station = world.pools[p].recv.name().to_string();
                world.emit_tx(now, tx_id, TracePhase::EndorsementFailed, station, 0);
            }
            return;
        }
    };
    let sigs = tx.endorsements.len();
    if let Some(t) = world.trace_mut(tx_id) {
        t.endorsed = Some(now);
        t.signatures = sigs;
    }
    if world.obs.sink.enabled() {
        let station = world.pools[p].recv.name().to_string();
        let depth = world.pools[p].recv.jobs_in_system(now);
        world.emit_tx(now, tx_id, TracePhase::Endorsed, station, depth);
    }
    submit_to_orderer(world, k, p, tx);
}

fn submit_to_orderer(world: &mut World, k: &mut K, p: usize, tx: Transaction) {
    let now = k.now();
    let tx_id = tx.tx_id;
    if let Some(t) = world.trace_mut(tx_id) {
        t.submitted = Some(now);
    }
    if world.obs.sink.enabled() {
        let depth = world.pools[p].pending.len();
        world.emit_tx(
            now,
            tx_id,
            TracePhase::Submitted,
            format!("pool{p}.nic"),
            depth,
        );
    }
    // Round-robin over OSNs.
    let osn_count = world.osns.len() as u32;
    let o = (world.pools[p].next_osn % osn_count) as usize;
    world.pools[p].next_osn = world.pools[p].next_osn.wrapping_add(1);

    // Arm the 3 s ordering timeout.
    let timeout = world.ms(world.cfg.ordering_timeout_ms as f64);
    let ev = k.schedule_labeled(
        now + timeout,
        "ordering.timeout",
        move |w: &mut World, k| {
            let mut timed_out = false;
            if let Some(t) = w.trace_mut(tx_id) {
                if t.order_acked.is_none() && matches!(t.outcome, TxOutcome::InFlight) {
                    t.outcome = TxOutcome::OrderingTimeout;
                    timed_out = true;
                }
            }
            w.pools[p].pending.remove(&tx_id);
            if timed_out {
                if let Some(live) = &w.obs.live {
                    live.txs_failed_timeout.inc();
                }
            }
            if timed_out && w.obs.sink.enabled() {
                let now = k.now();
                w.emit_tx(
                    now,
                    tx_id,
                    TracePhase::OrderingTimeout,
                    "ordering.timeout".into(),
                    0,
                );
            }
        },
    );
    if let Some(pending) = world.pools[p].pending.get_mut(&tx_id) {
        pending.timeout_event = Some(ev);
    }

    let bytes = tx.wire_size();
    let arrival = world.pools[p].egress.transfer(now, bytes);
    if world.check_channel(&tx.channel).is_err() {
        return;
    }
    k.schedule_labeled(arrival, "osn.receive", move |w, k| {
        osn_receive(w, k, o, OsnInput::Broadcast(tx), true);
    });
}

// ---- ordering service ----------------------------------------------------------

/// Routes any input through the OSN's CPU station, then applies effects to
/// the channel's ordering instance.
fn osn_receive(world: &mut World, k: &mut K, o: usize, input: OsnInput, charge_admission: bool) {
    if !world.osns[o].alive {
        return;
    }
    let now = k.now();
    let m = &world.cfg.cost;
    let per_tx = match world.cfg.orderer_type {
        OrdererType::Solo => m.solo_order_ms,
        OrdererType::Kafka => m.kafka_broker_op_ms,
        OrdererType::Raft => m.raft_op_ms,
    };
    let cost = if charge_admission {
        m.osn_admission_ms + per_tx
    } else {
        per_tx * 0.5
    };
    let service = world.ms(cost);
    // Client broadcasts carry a tx identity to attribute CPU time against;
    // intra-cluster traffic (Raft/Kafka relays, ticks) does not.
    let attributed_tx = match &input {
        OsnInput::Broadcast(tx) if charge_admission => Some(tx.tx_id),
        _ => None,
    };
    let queued = world.osns[o].station.would_start_at(now) - now;
    let done = world.osns[o].station.submit(now, service);
    if let Some(tx_id) = attributed_tx {
        world.attribute(tx_id, StationClass::OsnCpu, queued, service);
        if world.obs.spans.enabled() {
            let tx = tx_id.short();
            let actor = format!("osn{o}");
            let parent = world.tx_pool.get(&tx_id).map_or(0, |&p| {
                span_id(&tx, SpanKind::Assemble, &format!("pool{p}"), 0)
            });
            world.emit_span(&tx, SpanKind::OsnBroadcast, &actor, now, done, 0, parent);
        }
    }
    k.schedule_labeled(done, "osn.receive", move |w, k| {
        if !w.osns[o].alive {
            return;
        }
        let effects = w.osns[o].node.handle(input);
        apply_osn_effects(w, k, o, effects);
    });
}

fn osn_tick(world: &mut World, k: &mut K, o: usize) {
    if world.osns[o].alive {
        let effects = world.osns[o].node.handle(OsnInput::Tick);
        apply_osn_effects(world, k, o, effects);
    }
    let period = world.ms(world.cfg.cost.osn_tick_ms);
    k.schedule_in_labeled(period, "osn.tick", move |w, k| osn_tick(w, k, o));
}

fn apply_osn_effects(world: &mut World, k: &mut K, o: usize, effects: Vec<OsnEffect>) {
    let now = k.now();
    for effect in effects {
        match effect {
            OsnEffect::Ack { tx_id } => {
                let Some(&p) = world.tx_pool.get(&tx_id) else {
                    continue;
                };
                let arrival = world.osns[o].egress.transfer(now, 200);
                k.schedule_labeled(arrival, "osn.ack", move |w: &mut World, k2| {
                    let now = k2.now();
                    if let Some(pending) = w.pools[p].pending.remove(&tx_id) {
                        if let Some(ev) = pending.timeout_event {
                            k2.cancel(ev);
                        }
                    }
                    let mut first_ack = false;
                    if let Some(t) = w.trace_mut(tx_id) {
                        if t.order_acked.is_none() {
                            t.order_acked = Some(now);
                            first_ack = true;
                        }
                    }
                    if first_ack && w.obs.sink.enabled() {
                        let station = w.osns[o].station.name().to_string();
                        let depth = w.osns[o].station.jobs_in_system(now);
                        w.emit_tx(now, tx_id, TracePhase::OrderAcked, station, depth);
                    }
                });
            }
            OsnEffect::SendOsn { to, message } => {
                let bytes = osn_msg_bytes(&message);
                let arrival = world.osns[o].egress.transfer(now, bytes);
                let from = o as u32;
                if world.obs.spans.enabled() {
                    let trace = format!("ch{}", world.shard.shard_id);
                    let actor = format!("osn{o}>osn{to}");
                    world.emit_msg_span(&trace, SpanKind::RaftMsg, &actor, now, arrival);
                }
                k.schedule_labeled(arrival, "osn.relay", move |w, k| {
                    osn_receive(w, k, to as usize, OsnInput::Osn { from, message }, false);
                });
            }
            OsnEffect::SendBroker { to, message } => {
                let bytes = broker_msg_bytes(&message);
                let arrival = world.osns[o].egress.transfer(now, bytes);
                if world.obs.spans.enabled() {
                    let trace = format!("ch{}", world.shard.shard_id);
                    let actor = format!("osn{o}>broker{to}");
                    world.emit_msg_span(&trace, SpanKind::KafkaProduce, &actor, now, arrival);
                }
                k.schedule_labeled(arrival, "broker.produce", move |w, k| {
                    broker_receive(w, k, to as usize, message);
                });
            }
            OsnEffect::ArmBatchTimer { after_ms, seq } => {
                let delay = world.ms(after_ms as f64);
                k.schedule_in_labeled(delay, "osn.timer", move |w, k| {
                    osn_receive(w, k, o, OsnInput::BatchTimer { seq }, false);
                });
            }
            OsnEffect::BlockReady(block) => {
                deliver_block(world, k, o, block);
            }
        }
    }
}

fn osn_msg_bytes(message: &OsnMsg) -> u64 {
    match message {
        OsnMsg::Relay(tx) => tx.wire_size(),
        OsnMsg::Raft(m) => match m {
            fabricsim_raft::Message::AppendEntries { entries, .. } => {
                200 + entries.iter().map(|e| e.data.len() as u64).sum::<u64>()
            }
            _ => 150,
        },
    }
}

fn broker_msg_bytes(message: &BrokerMsg) -> u64 {
    match message {
        BrokerMsg::Produce { record, .. } => 150 + record.data.len() as u64,
        BrokerMsg::FetchResponse { records, .. } => {
            150 + records.iter().map(|r| r.data.len() as u64).sum::<u64>()
        }
        _ => 150,
    }
}

fn deliver_block(world: &mut World, k: &mut K, o: usize, block: Block) {
    // Shared from here to each committer: subscribers, the replay log and
    // the gossip mesh all hold the one allocation, and a peer deep-copies it
    // only when its ledger takes ownership.
    let block = Arc::new(block);
    let now = k.now();
    if world.check_channel(&block.channel).is_err() {
        return;
    }
    // Record the cut and per-tx ordering timestamps once (Kafka/Raft OSNs all
    // emit the same blocks; the first emission wins).
    if block.header.number >= world.next_cut_number {
        world.next_cut_number = block.header.number + 1;
        world.block_cuts.push((now, block.len()));
        if let Some(live) = &world.obs.live {
            live.blocks_cut.inc();
            live.block_txs.add(block.len() as u64);
        }
        let station = world
            .obs
            .sink
            .enabled()
            .then(|| world.osns[o].station.name().to_string());
        let depth = world.osns[o].station.jobs_in_system(now);
        for tx in &block.transactions {
            let tx_id = tx.tx_id;
            if let Some(t) = world.trace_mut(tx_id) {
                if t.ordered.is_none() {
                    t.ordered = Some(now);
                }
            }
        }
        if let Some(station) = station {
            let tx_ids: Vec<TxId> = block.transactions.iter().map(|t| t.tx_id).collect();
            for tx_id in tx_ids {
                world.emit_tx(now, tx_id, TracePhase::Ordered, station.clone(), depth);
            }
        }
        if world.obs.spans.enabled() {
            // Zero-width anchor: the instant the block exists as an artifact.
            let trace = world.block_trace(block.header.number);
            let actor = format!("osn{o}");
            world.emit_span(&trace, SpanKind::BlockCut, &actor, now, now, 0, 0);
        }
    }
    let bytes = block.wire_size();
    let subscribers = world.osns[o].subscribers.clone();
    let btrace = world
        .obs
        .spans
        .enabled()
        .then(|| world.block_trace(block.header.number));
    for peer_idx in subscribers {
        let arrival = world.osns[o].egress.transfer(now, bytes);
        if let Some(trace) = &btrace {
            let parent = span_id(trace, SpanKind::BlockCut, &format!("osn{o}"), 0);
            let actor = format!("peer{peer_idx}");
            world.emit_span(trace, SpanKind::Deliver, &actor, now, arrival, 0, parent);
        }
        let b = Arc::clone(&block);
        k.schedule_labeled(arrival, "osn.deliver", move |w, k| {
            peer_receive_block(w, k, peer_idx, b);
        });
    }
    world.osns[o].delivered.push(block);
}

// ---- validate phase ---------------------------------------------------------------

/// Entry point for blocks arriving from the ordering service (or from a
/// failover replay). Routes through the gossip layer when enabled.
fn peer_receive_block(world: &mut World, k: &mut K, peer_idx: usize, block: Arc<Block>) {
    if let Some(gossip) = world.peers[peer_idx].gossip.as_mut() {
        let effects = gossip.on_block_from_orderer(block);
        apply_gossip_effects(world, k, peer_idx, effects);
    } else {
        enqueue_block_validation(world, k, peer_idx, block);
    }
}

fn gossip_msg_bytes(message: &GossipMsg) -> u64 {
    match message {
        GossipMsg::Push { block, .. } => block.wire_size(),
        GossipMsg::PullRequest { .. } => 60,
        GossipMsg::PullResponse { blocks } => {
            100 + blocks.iter().map(|b| b.wire_size()).sum::<u64>()
        }
    }
}

fn apply_gossip_effects(world: &mut World, k: &mut K, peer_idx: usize, effects: Vec<GossipEffect>) {
    for effect in effects {
        match effect {
            GossipEffect::Send { to, message } => {
                let now = k.now();
                let bytes = gossip_msg_bytes(&message);
                let arrival = world.peers[peer_idx].egress.transfer(now, bytes);
                let from = peer_idx as u32;
                if world.obs.spans.enabled() {
                    if let GossipMsg::Push { block, hop } = &message {
                        // One span per mesh hop: actor is the *receiving*
                        // peer, parent the hop (or orderer delivery) that
                        // brought the block to the sender.
                        if world.check_channel(&block.channel).is_ok() {
                            let trace = world.block_trace(block.header.number);
                            let actor = format!("peer{to}");
                            let sender = format!("peer{peer_idx}");
                            let parent = if *hop > 1 {
                                span_id(&trace, SpanKind::GossipHop, &sender, hop - 1)
                            } else {
                                span_id(&trace, SpanKind::Deliver, &sender, 0)
                            };
                            world.emit_span(
                                &trace,
                                SpanKind::GossipHop,
                                &actor,
                                now,
                                arrival,
                                *hop,
                                parent,
                            );
                        }
                    }
                }
                k.schedule_labeled(arrival, "gossip.send", move |w, k| {
                    peer_receive_gossip(w, k, to as usize, from, message);
                });
            }
            GossipEffect::Deliver(block) => {
                enqueue_block_validation(world, k, peer_idx, block);
            }
        }
    }
}

fn peer_receive_gossip(
    world: &mut World,
    k: &mut K,
    peer_idx: usize,
    from: u32,
    message: GossipMsg,
) {
    let Some(gossip) = world.peers[peer_idx].gossip.as_mut() else {
        return;
    };
    let effects = gossip.step(from, message);
    apply_gossip_effects(world, k, peer_idx, effects);
}

fn gossip_tick(world: &mut World, k: &mut K, peer_idx: usize) {
    // Peers carry a gossip layer only when cfg.gossip is Some; requiring
    // both here removes the unwrap without changing when the tick re-arms.
    let Some(gossip_cfg) = world.cfg.gossip else {
        return;
    };
    if let Some(gossip) = world.peers[peer_idx].gossip.as_mut() {
        let effects = gossip.tick();
        apply_gossip_effects(world, k, peer_idx, effects);
        let period = world.ms(gossip_cfg.anti_entropy_ms as f64);
        k.schedule_in_labeled(period, "gossip.tick", move |w, k| {
            gossip_tick(w, k, peer_idx)
        });
    }
}

fn enqueue_block_validation(world: &mut World, k: &mut K, peer_idx: usize, block: Arc<Block>) {
    let now = k.now();
    if world.check_channel(&block.channel).is_err() {
        return;
    }
    // Drop duplicate deliveries (failover replay overlapping in-flight blocks).
    if block.header.number < world.peers[peer_idx].next_expected_block {
        return;
    }
    debug_assert_eq!(
        block.header.number, world.peers[peer_idx].next_expected_block,
        "delivery gap at peer {peer_idx}"
    );
    world.peers[peer_idx].next_expected_block = block.header.number + 1;
    if world.obs.spans.enabled() {
        // Zero-width delivery anchor for gossip-fed peers (no orderer
        // Deliver span). Orderer subscribers already have a real one with
        // the same deterministic id — the analyzer dedups, keeping the
        // earlier real span.
        let trace = world.block_trace(block.header.number);
        let actor = format!("peer{peer_idx}");
        world.emit_span(&trace, SpanKind::Deliver, &actor, now, now, 0, 0);
    }
    let is_observer = peer_idx == world.observer;
    if is_observer {
        let station = world
            .obs
            .sink
            .enabled()
            .then(|| world.peers[peer_idx].vscc.name().to_string());
        let depth = world.peers[peer_idx].vscc.jobs_in_system(now);
        for tx_id in block
            .transactions
            .iter()
            .map(|t| t.tx_id)
            .collect::<Vec<_>>()
        {
            if let Some(t) = world.trace_mut(tx_id) {
                t.delivered = Some(now);
            }
            if let Some(station) = &station {
                world.emit_tx(now, tx_id, TracePhase::Delivered, station.clone(), depth);
            }
        }
    }
    let m = &world.cfg.cost;
    let pool = m.validator_pool_size.max(1);
    // Per-transaction stage costs (progressive within the block).
    let vscc_tx_ms: Vec<f64> = block
        .transactions
        .iter()
        .map(|tx| m.vscc_tx_ms(tx.endorsements.len().max(1)))
        .collect();
    let commit_tx_ms = m.commit_tx_ms();
    let overhead_ms = m.validate_block_overhead_ms;
    // Blocks are serviced in delivery order and VSCC cannot overtake an
    // earlier block's commit, so the serial commit station is the queueing
    // backbone of the staged pipeline: the block's VSCC stage begins when a
    // committer slot frees up, and the commit stage follows immediately.
    let start = world.peers[peer_idx].commit.would_start_at(now);
    type StageTimes = (SimDuration, SimDuration, Vec<SimTime>, Vec<SimTime>);
    let (vscc_service, commit_service, commit_times, vscc_times): StageTimes = if pool <= 1 {
        // Serial stock-Fabric path. Timing reproduces the single-station
        // model exactly: the block's total service is one f64 sum, and the
        // split point is carved out by *integer* subtraction so
        // vscc_service + commit_service == total_service bit-for-bit.
        let per_tx_ms: Vec<f64> = block
            .transactions
            .iter()
            .map(|tx| m.validate_tx_ms(tx.endorsements.len().max(1)))
            .collect();
        let total_ms: f64 = overhead_ms + per_tx_ms.iter().sum::<f64>();
        let total_service = world.ms(total_ms);
        let vscc_service = world.ms(vscc_tx_ms.iter().sum::<f64>()).min(total_service);
        let commit_service = total_service - vscc_service;
        // Each tx's VSCC check runs at the head of its own serial slice, so
        // its vscc-done instant sits inside the slice, clamped to never land
        // after the commit record it precedes.
        let mut acc = overhead_ms;
        let mut commit_times = Vec::with_capacity(per_tx_ms.len());
        let mut vscc_times = Vec::with_capacity(per_tx_ms.len());
        for (c, &v) in per_tx_ms.iter().zip(&vscc_tx_ms) {
            let committed = start + SimDuration::from_millis_f64(acc + c);
            vscc_times.push((start + SimDuration::from_millis_f64(acc + v)).min(committed));
            acc += c;
            commit_times.push(committed);
        }
        (vscc_service, commit_service, commit_times, vscc_times)
    } else {
        // Pooled path: the VSCC stage's makespan is a deterministic
        // earliest-free-worker schedule of the per-tx costs over `pool`
        // workers; MVCC + ledger write stay serial behind it. The stage is a
        // barrier, so every tx's vscc-done instant is the stage end.
        let vscc_service = world.ms(crate::model::CostModel::vscc_makespan_ms(&vscc_tx_ms, pool));
        let commit_service = world.ms(overhead_ms + commit_tx_ms * block.transactions.len() as f64);
        let vscc_end = start + vscc_service;
        let commit_times = {
            let mut acc = overhead_ms;
            (0..block.transactions.len())
                .map(|_| {
                    acc += commit_tx_ms;
                    vscc_end + SimDuration::from_millis_f64(acc)
                })
                .collect()
        };
        let vscc_times = vec![vscc_end; block.transactions.len()];
        (vscc_service, commit_service, commit_times, vscc_times)
    };
    // Observational per-tx VSCC visits: the station's busy time is the pool's
    // real CPU demand, so its utilization reads as aggregate core usage.
    let vscc_services: Vec<SimDuration> = vscc_tx_ms.iter().map(|&ms| world.ms(ms)).collect();
    for s in vscc_services {
        world.peers[peer_idx].vscc.submit_ready(now, start, s);
    }
    let vscc_end = start + vscc_service;
    let done = world.peers[peer_idx]
        .commit
        .submit_ready(now, vscc_end, commit_service);
    debug_assert_eq!(done, vscc_end + commit_service);
    if is_observer {
        // Attribute each stage per tx: block-level queueing lands on the VSCC
        // stage (it is what the block waits to enter); the commit stage then
        // runs back-to-back, charged this tx's serial share plus its slice of
        // the block overhead.
        let queued = start - now;
        let overhead_share_ms = overhead_ms / block.transactions.len().max(1) as f64;
        let tx_service: Vec<(TxId, SimDuration, SimDuration)> = block
            .transactions
            .iter()
            .zip(&vscc_tx_ms)
            .map(|(tx, &vscc_ms)| {
                (
                    tx.tx_id,
                    SimDuration::from_millis_f64(vscc_ms),
                    SimDuration::from_millis_f64(commit_tx_ms + overhead_share_ms),
                )
            })
            .collect();
        for (tx_id, vscc_s, commit_s) in tx_service {
            world.attribute(tx_id, StationClass::PeerVscc, queued, vscc_s);
            world.attribute(tx_id, StationClass::PeerCommit, SimDuration::ZERO, commit_s);
        }
    }

    k.schedule_labeled(done, "validate.commit", move |w, k| {
        commit_block(w, k, peer_idx, block, start, vscc_times, commit_times);
    });
}

fn commit_block(
    world: &mut World,
    k: &mut K,
    peer_idx: usize,
    block: Arc<Block>,
    start: SimTime,
    vscc_times: Vec<SimTime>,
    commit_times: Vec<SimTime>,
) {
    let _ = k;
    if world.check_channel(&block.channel).is_err() {
        return;
    }
    let number = block.header.number;
    let tx_ids: Vec<TxId> = block.transactions.iter().map(|t| t.tx_id).collect();
    let is_observer = peer_idx == world.observer;
    if is_observer && world.obs.spans.enabled() {
        // Per-tx validation spans bridge the tx-scoped graph back onto the
        // block-scoped delivery chain via the Vscc parent edge. Emitted here
        // — at commit time, not when validation was enqueued — so the span
        // graph only ever contains finished work and every Commit span has a
        // matching TxTrace commit stamp.
        let trace_b = world.block_trace(number);
        let actor = format!("peer{peer_idx}");
        let deliver_parent = span_id(&trace_b, SpanKind::Deliver, &actor, 0);
        for (i, tx_id) in tx_ids.iter().enumerate() {
            let tx_s = tx_id.short();
            world.emit_span(
                &tx_s,
                SpanKind::Vscc,
                &actor,
                start,
                vscc_times[i],
                0,
                deliver_parent,
            );
            let vscc_parent = span_id(&tx_s, SpanKind::Vscc, &actor, 0);
            world.emit_span(
                &tx_s,
                SpanKind::Commit,
                &actor,
                vscc_times[i],
                commit_times[i],
                0,
                vscc_parent,
            );
        }
    }
    // The one deep copy: this peer's ledger must own its block.
    let stats = world.peers[peer_idx]
        .peer
        .validate_and_commit(Arc::unwrap_or_clone(block))
        // lint:allow(no-unwrap-in-lib) -- ordering delivers blocks in order; a chain break is
        // a simulator bug
        .expect("delivered blocks must chain");
    let _ = stats;
    if is_observer {
        let flags = {
            let ledger = world.peers[peer_idx].peer.ledger();
            let height = ledger.height();
            ledger
                .blocks()
                .by_number(height - 1)
                // lint:allow(no-unwrap-in-lib) -- reads back the block committed two above
                // statements
                .expect("just committed")
                .metadata
                .flags
                .clone()
        };
        let vscc_station = world
            .obs
            .sink
            .enabled()
            .then(|| world.peers[peer_idx].vscc.name().to_string());
        let commit_station = world
            .obs
            .sink
            .enabled()
            .then(|| world.peers[peer_idx].commit.name().to_string());
        for (i, tx_id) in tx_ids.iter().enumerate() {
            let mut e2e = None;
            if let Some(t) = world.trace_mut(*tx_id) {
                t.committed = Some(commit_times[i]);
                if matches!(t.outcome, TxOutcome::InFlight) {
                    t.outcome = TxOutcome::Committed(flags[i]);
                    e2e = Some((commit_times[i] - t.created).as_secs_f64());
                }
            }
            if let Some(e2e_s) = e2e {
                world.obs.e2e_hist.record(e2e_s);
                if let Some(h) = world.obs.health.as_mut() {
                    h.observe_completion(e2e_s);
                }
                if let Some(live) = &world.obs.live {
                    live.e2e_latency.observe(e2e_s);
                    if flags[i] == ValidationCode::Valid {
                        live.txs_committed_valid.inc();
                    } else {
                        live.txs_committed_invalid.inc();
                    }
                }
                if let Some(&idx) = world.tx_index.get(tx_id) {
                    if let Some(b) = world.obs.breakdowns.get_mut(idx) {
                        b.commit_s = commit_times[i].as_secs_f64();
                        b.end_to_end_s = e2e_s;
                    }
                }
            }
            if let Some(station) = &vscc_station {
                world.emit_tx(
                    vscc_times[i],
                    *tx_id,
                    TracePhase::VsccDone,
                    station.clone(),
                    0,
                );
            }
            if let Some(station) = &commit_station {
                world.emit_tx(
                    commit_times[i],
                    *tx_id,
                    TracePhase::Committed,
                    station.clone(),
                    0,
                );
            }
        }
    }
}

// ---- kafka substrate ----------------------------------------------------------------

fn broker_receive(world: &mut World, k: &mut K, b: usize, message: BrokerMsg) {
    if !world.brokers[b].alive {
        return;
    }
    let now = k.now();
    let service = world.ms(world.cfg.cost.kafka_broker_op_ms);
    let done = world.brokers[b].station.submit(now, service);
    k.schedule_labeled(done, "broker.step", move |w, k| {
        if !w.brokers[b].alive {
            return;
        }
        let effects = w.brokers[b].partition.step(message);
        apply_broker_effects(w, k, b, effects);
    });
}

fn broker_tick(world: &mut World, k: &mut K, b: usize) {
    if world.brokers[b].alive {
        let effects = world.brokers[b].partition.tick();
        apply_broker_effects(world, k, b, effects);
    }
    let period = world.ms(world.cfg.cost.broker_tick_ms);
    k.schedule_in_labeled(period, "broker.tick", move |w, k| broker_tick(w, k, b));
}

fn broker_heartbeat(world: &mut World, k: &mut K, b: usize) {
    if world.brokers[b].alive {
        let from = world.brokers[b].partition.id();
        zk_receive(world, k, ZkMsg::Heartbeat { from });
    }
    let period = world.ms(world.cfg.cost.zk_heartbeat_ms);
    k.schedule_in_labeled(period, "broker.heartbeat", move |w, k| {
        broker_heartbeat(w, k, b);
    });
}

fn apply_broker_effects(world: &mut World, k: &mut K, b: usize, effects: Vec<BrokerEffect>) {
    let now = k.now();
    for effect in effects {
        match effect {
            BrokerEffect::Send { to, message } => {
                let bytes = broker_msg_bytes(&message);
                let arrival = world.brokers[b].egress.transfer(now, bytes);
                k.schedule_labeled(arrival, "broker.send", move |w, k| {
                    broker_receive(w, k, to as usize, message);
                });
            }
            BrokerEffect::Reply { to, event } => {
                let bytes = client_event_bytes(&event);
                let arrival = world.brokers[b].egress.transfer(now, bytes);
                let o = to as usize;
                if world.obs.spans.enabled() {
                    if let ClientEvent::ConsumeBatch { .. } = &event {
                        let trace = format!("ch{}", world.shard.shard_id);
                        let actor = format!("broker{b}>osn{o}");
                        world.emit_msg_span(&trace, SpanKind::KafkaConsume, &actor, now, arrival);
                    }
                }
                k.schedule_labeled(arrival, "osn.consume", move |w, k| {
                    osn_receive(w, k, o, OsnInput::Kafka(event), false);
                });
            }
            BrokerEffect::IsrUpdate { isr } => {
                let from = world.brokers[b].partition.id();
                zk_receive(world, k, ZkMsg::IsrUpdate { from, isr });
            }
        }
    }
}

fn client_event_bytes(event: &ClientEvent) -> u64 {
    match event {
        ClientEvent::ConsumeBatch { records, .. } => {
            150 + records.iter().map(|r| r.data.len() as u64).sum::<u64>()
        }
        _ => 150,
    }
}

fn zk_receive(world: &mut World, k: &mut K, message: ZkMsg) {
    let Some(zk) = world.zk.as_mut() else {
        return;
    };
    let effects = zk.step(message);
    apply_zk_effects(world, k, effects);
}

fn zk_tick(world: &mut World, k: &mut K) {
    if let Some(zk) = world.zk.as_mut() {
        let effects = zk.tick();
        apply_zk_effects(world, k, effects);
    }
    k.schedule_in_labeled(world.ms(500.0), "zk.tick", zk_tick);
}

fn apply_zk_effects(world: &mut World, k: &mut K, effects: Vec<ZkEffect>) {
    for effect in effects {
        // Kafka clients learn leadership through metadata refresh; model it as
        // a prompt notification to every OSN when ZooKeeper appoints a leader.
        if let ZkEffect::AppointLeader { broker, .. } = &effect {
            let leader = *broker;
            for o in 0..world.osns.len() {
                let delay = world.ms(world.cfg.cost.link_propagation_ms + 1.0);
                k.schedule_in_labeled(delay, "osn.metadata", move |w, k| {
                    osn_receive(w, k, o, OsnInput::KafkaMetadata { leader }, false);
                });
            }
        }
        let (target, message) = match effect {
            ZkEffect::AppointLeader {
                broker,
                epoch,
                replicas,
            } => (broker, BrokerMsg::AppointLeader { epoch, replicas }),
            ZkEffect::AppointFollower {
                broker,
                leader,
                epoch,
            } => (broker, BrokerMsg::AppointFollower { epoch, leader }),
        };
        // Coordination messages travel the same LAN.
        let delay = world.ms(world.cfg.cost.link_propagation_ms + 0.5);
        k.schedule_in_labeled(delay, "broker.appoint", move |w, k| {
            broker_receive(w, k, target as usize, message);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::PolicySpec;

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
        let faults = FaultPlan {
            crash_brokers: vec![(0, 8.0)],
            crash_osns: vec![],
            ..FaultPlan::default()
        };
        let r = Simulation::new(cfg).with_faults(faults).run_detailed();
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
        let world = build_world(&cfg, None, 0);
        assert!(world.check_channel(&ChannelId::default_channel()).is_ok());
        let err = world
            .check_channel(&ChannelId("no-such-channel".into()))
            .unwrap_err();
        assert_eq!(err.to_string(), "unknown channel `no-such-channel`");
    }

    #[test]
    fn window_aligned_run_records_no_zero_width_tail() {
        // 12.0 s duration with a 1.0 s sampler window: the run ends exactly
        // on a window boundary, so there must be no partial tail tick — not
        // a zero-width one — and the CSV/JSON must not carry a tail marker.
        let cfg = quick_cfg(OrdererType::Solo);
        assert_eq!(cfg.obs.sample_period_s, 1.0);
        let r = Simulation::new(cfg).run_detailed();
        let m = r
            .observability
            .metrics
            .expect("sampler attached by default");
        assert_eq!(m.ticks(), 12, "one tick per whole window");
        assert_eq!(m.tail_width_s(), None, "no tail on an aligned horizon");
        let json = m.to_json();
        assert!(
            !json.contains("tail_width_s"),
            "aligned run leaked a tail marker: {json}"
        );
        let csv = m.to_csv();
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
        let m = r.observability.metrics.expect("sampler attached");
        assert_eq!(m.ticks(), 13);
        assert_eq!(m.tail_width_s(), Some(0.25));
        assert!(m.to_json().contains("\"tail_width_s\":0.25"));
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
