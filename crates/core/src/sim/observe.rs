//! The observer: the one seam between the simulated system and every
//! observability plane.
//!
//! A handler reports *what happened* in typed coordinates — a phase crossing
//! ([`Observer::phase`]), a station visit ([`Observer::visit`]), a unit of
//! distributed work ([`Observer::span`], [`Observer::msg_span`]), the end of
//! a transaction's life ([`Observer::terminal`]) — and this module alone
//! decides *which planes exist and how each records it*: the first-wins
//! [`TxTrace`] stamp, the station attribution, the enabled/sampled guards,
//! every rendered id and actor name, the span-id parent arithmetic, and the
//! latency records. It also owns the per-transaction records those planes
//! share, and the periodic gauge sweep over the world's stations, recorded
//! as typed rows that the metrics table and the health plane are built from
//! after the run. The determinism contract is the module's: nothing recorded
//! here is read back by the model except a transaction's own log line —
//! [`Observer::record`] (has the orderer acked yet? which pool gets the
//! ack?) and [`Observer::arrivals`] (the sequence number that names the
//! next arrival's key).

use std::collections::HashMap;
use std::fmt::{self, Write as _};

use fabricsim_des::{SimDuration, SimTime, Station};
use fabricsim_obs::{
    message_span_id, span_id, tx_sampled, Name, PhaseEvent, SampleRow, Samples, Sink, SpanEvent,
    SpanKind, StationClass, TracePhase, TxStationBreakdown,
};
use fabricsim_types::{FxBuildHasher, TxId};

use crate::metrics::{TxOutcome, TxTrace};
use crate::workload::SimConfig;

use super::world::{Ev, World, K};

/// Everything recorded about one transaction: the paper's per-phase log
/// line, its station decomposition, and where it lives among the worlds.
#[derive(Debug, Clone)]
pub(super) struct TxRecord {
    pub(super) trace: TxTrace,
    pub(super) breakdown: TxStationBreakdown,
    /// Home `(shard, seq)` identity — the merge's tie-break among equal
    /// creation times. A home-created record carries its own `(shard, local
    /// index)`, an imported one its home identity, and `None` marks a home
    /// stub whose transaction was exported: the receiving world holds the
    /// live copy under the same identity, so the merge drops the stub.
    pub(super) home: Option<(u32, u32)>,
    /// Global index of the client pool that created the transaction.
    pub(super) pool: usize,
}

/// Who did the work a span records.
#[derive(Debug, Clone, Copy)]
pub(super) enum Actor {
    Pool(usize),
    Peer(usize),
    Osn(usize),
    Broker(usize),
}

impl fmt::Display for Actor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Actor::Pool(i) => write!(f, "pool{i}"),
            Actor::Peer(i) => write!(f, "peer{i}"),
            Actor::Osn(i) => write!(f, "osn{i}"),
            Actor::Broker(i) => write!(f, "broker{i}"),
        }
    }
}

/// What a span is about: one transaction, or one block of this world's
/// channel.
#[derive(Debug, Clone, Copy)]
enum Scope {
    Tx(TxId),
    Block(u64),
}

/// The coordinates that name one span of the causal graph. Span ids are
/// derived from them, so a consumer names its producer's span by value.
#[derive(Debug, Clone, Copy)]
pub(super) struct SpanKey {
    scope: Scope,
    kind: SpanKind,
    actor: Actor,
    hop: u32,
}

impl SpanKey {
    pub(super) fn tx(tx: TxId, kind: SpanKind, actor: Actor) -> Self {
        SpanKey {
            scope: Scope::Tx(tx),
            kind,
            actor,
            hop: 0,
        }
    }

    pub(super) fn block(number: u64, kind: SpanKind, actor: Actor) -> Self {
        SpanKey {
            scope: Scope::Block(number),
            kind,
            actor,
            hop: 0,
        }
    }

    /// The same span at gossip depth `hop`.
    pub(super) fn at_hop(self, hop: u32) -> Self {
        SpanKey { hop, ..self }
    }
}

/// Renders `what` straight into an inline [`Name`]: every id and actor name
/// a record carries is built here, on the stack.
fn name(what: impl fmt::Display) -> Name {
    let mut name = Name::new();
    // Writing into a `Name` cannot fail.
    let _ = write!(name, "{what}");
    name
}

/// The short id a transaction goes by in every trace, skipping `fmt`.
fn tx_name(tx: TxId) -> Name {
    let mut name = Name::new();
    let _ = tx.write_short(&mut name);
    name
}

/// The [`TxTrace`] timestamp a phase crossing stamps, if it has one.
fn stamp_of(trace: &mut TxTrace, phase: TracePhase) -> Option<&mut Option<SimTime>> {
    match phase {
        TracePhase::ProposalSent => Some(&mut trace.proposal_sent),
        TracePhase::Endorsed => Some(&mut trace.endorsed),
        TracePhase::Submitted => Some(&mut trace.submitted),
        TracePhase::OrderAcked => Some(&mut trace.order_acked),
        TracePhase::Ordered => Some(&mut trace.ordered),
        TracePhase::Delivered => Some(&mut trace.delivered),
        TracePhase::Committed => Some(&mut trace.committed),
        // `created` is set when the record is; the rest are events only.
        TracePhase::Created
        | TracePhase::VsccDone
        | TracePhase::OverloadDropped
        | TracePhase::EndorsementFailed
        | TracePhase::OrderingTimeout => None,
    }
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
        TracePhase::Endorsed | TracePhase::Submitted => StationClass::PeerEndorse,
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

/// What a finished world hands to the merge.
pub(super) struct Harvest {
    pub(super) records: Vec<TxRecord>,
    pub(super) events: Vec<PhaseEvent>,
    pub(super) dropped_events: u64,
    pub(super) spans: Vec<SpanEvent>,
    pub(super) dropped_spans: u64,
    pub(super) samples: Samples,
}

/// One world's observability state. Write-only with respect to the
/// simulation: recording never schedules kernel work, and attaching or
/// sampling any plane cannot perturb a deterministic run.
pub(super) struct Observer {
    /// This world's index == its channel's index; keeps trace identities
    /// (`b{ch}.{n}`, `ch{ch}`) collision-free across worlds.
    shard_id: usize,
    seed: u64,
    trace_sample: f64,
    /// One record per arrival at a pool homed here or imported from its
    /// home world, in arrival order.
    txs: Vec<TxRecord>,
    index: HashMap<TxId, usize, FxBuildHasher>,
    /// Live transactions of this world: admitted or imported, not yet
    /// terminal or exported.
    inflight: usize,
    sink: Sink<PhaseEvent>,
    /// Causal span-graph sink.
    spans: Sink<SpanEvent>,
    /// The sampler's rows, and the commit-ordered latencies when the health
    /// plane will fold them.
    samples: Samples,
    /// Whether a commit's end-to-end latency goes into `samples`.
    record_e2e: bool,
    /// Block-cut count at the previous sampler tick (for the cadence series).
    last_block_cuts: usize,
}

impl Observer {
    pub(super) fn new(cfg: &SimConfig, shard_id: usize) -> Self {
        let obs = &cfg.obs;
        Observer {
            shard_id,
            seed: cfg.seed,
            trace_sample: obs.trace_sample,
            txs: Vec::new(),
            index: HashMap::default(),
            inflight: 0,
            sink: if obs.trace_events {
                Sink::bounded(obs.trace_buffer_cap)
            } else {
                Sink::disabled()
            },
            spans: if obs.span_events {
                Sink::bounded(obs.trace_buffer_cap)
            } else {
                Sink::disabled()
            },
            samples: Samples::default(),
            record_e2e: obs.health_events,
            last_block_cuts: 0,
        }
    }

    // ---- per-transaction records ------------------------------------------

    /// Arrivals recorded so far — the sequence number of the next one.
    pub(super) fn arrivals(&self) -> usize {
        self.txs.len()
    }

    fn push(&mut self, now: SimTime, pool: usize, outcome: TxOutcome) {
        let home = (self.shard_id as u32, self.txs.len() as u32);
        let mut trace = TxTrace::new(now);
        trace.outcome = outcome;
        self.txs.push(TxRecord {
            trace,
            breakdown: TxStationBreakdown::default(),
            home: Some(home),
            pool,
        });
    }

    /// Opens the record of a transaction `pool` just created.
    pub(super) fn admit(&mut self, now: SimTime, tx_id: TxId, pool: usize) {
        self.index.insert(tx_id, self.txs.len());
        self.push(now, pool, TxOutcome::InFlight);
        self.inflight += 1;
    }

    /// Records an arrival turned away at the door with `outcome` and its one
    /// phase event. `tx` is `None` when not even a proposal was built; the
    /// event is then named by arrival sequence.
    pub(super) fn refuse(
        &mut self,
        now: SimTime,
        pool: usize,
        tx: Option<TxId>,
        outcome: TxOutcome,
        station: &str,
        depth: usize,
    ) {
        let Some(exit) = exit_phase(outcome) else {
            return;
        };
        let seq = self.txs.len();
        let named = move || tx.map_or_else(|| name(format_args!("arrival{seq}")), tx_name);
        self.emit(now, named, exit, station, depth, (0.0, 0.0));
        self.push(now, pool, outcome);
    }

    /// Hands a transaction to the world that owns its channel: returns the
    /// record to ship and leaves a stub behind for the merge to drop.
    pub(super) fn export(&mut self, tx_id: TxId) -> Option<TxRecord> {
        let rec = self.record_mut(tx_id)?;
        let shipped = rec.clone();
        rec.home.take()?;
        self.inflight -= 1;
        Some(shipped)
    }

    /// Adopts a transaction exported by its home world.
    pub(super) fn import(&mut self, tx_id: TxId, record: TxRecord) {
        self.index.insert(tx_id, self.txs.len());
        self.txs.push(record);
        self.inflight += 1;
    }

    fn record_mut(&mut self, tx_id: TxId) -> Option<&mut TxRecord> {
        let idx = *self.index.get(&tx_id)?;
        self.txs.get_mut(idx)
    }

    /// Everything recorded about the transaction so far.
    pub(super) fn record(&self, tx_id: TxId) -> Option<&TxRecord> {
        self.index.get(&tx_id).map(|&idx| &self.txs[idx])
    }

    /// Notes how many endorsement signatures the assembled envelope carries.
    pub(super) fn signatures(&mut self, tx_id: TxId, n: usize) {
        if let Some(rec) = self.record_mut(tx_id) {
            rec.trace.signatures = n;
        }
    }

    // ---- the seam ------------------------------------------------------------

    /// A transaction crossed `phase` at `t`: stamps the trace (first
    /// crossing wins; a repeat is not recorded at all) and emits the phase
    /// event, snapshotting the attribution through the phase. `station` is
    /// the borrowed name of the station, link or timer the crossing happened
    /// at and `depth` its jobs in system.
    pub(super) fn phase(
        &mut self,
        t: SimTime,
        tx_id: TxId,
        phase: TracePhase,
        station: &str,
        depth: usize,
    ) {
        let tracing = self.sink.enabled();
        let mut cum = (0.0, 0.0);
        if let Some(rec) = self.record_mut(tx_id) {
            if let Some(stamp) = stamp_of(&mut rec.trace, phase) {
                if stamp.is_some() {
                    return;
                }
                *stamp = Some(t);
            }
            if tracing {
                cum = rec.breakdown.cumulative_through(through_class(phase));
            }
        }
        self.emit(t, || tx_name(tx_id), phase, station, depth, cum);
    }

    /// The deterministic head-sampling decision for a transaction, shared by
    /// phase events and tx-scoped spans.
    fn sampled(&self, tx: &str) -> bool {
        tx_sampled(tx, self.seed, self.trace_sample)
    }

    /// The one place a [`PhaseEvent`] is built: nothing is rendered unless
    /// the sink is on, and the record owns no heap.
    fn emit(
        &mut self,
        t: SimTime,
        tx: impl FnOnce() -> Name,
        phase: TracePhase,
        station: &str,
        depth: usize,
        (cum_queued_s, cum_service_s): (f64, f64),
    ) {
        if !self.sink.enabled() {
            return;
        }
        let tx = tx();
        if !self.sampled(&tx) {
            return;
        }
        self.sink.record(PhaseEvent {
            t_s: t.as_secs_f64(),
            tx,
            phase,
            station: station.into(),
            queue_depth: depth as u64,
            cum_queued_s,
            cum_service_s,
        });
    }

    /// Adds a sequential station visit to the tx's latency decomposition.
    pub(super) fn visit(
        &mut self,
        tx_id: TxId,
        class: StationClass,
        queued: SimDuration,
        service: SimDuration,
    ) {
        if let Some(rec) = self.record_mut(tx_id) {
            rec.breakdown
                .add(class, queued.as_secs_f64(), service.as_secs_f64());
        }
    }

    /// Folds in one of several parallel station visits (critical path only).
    pub(super) fn visit_max(
        &mut self,
        tx_id: TxId,
        class: StationClass,
        queued: SimDuration,
        service: SimDuration,
    ) {
        if let Some(rec) = self.record_mut(tx_id) {
            rec.breakdown
                .add_max(class, queued.as_secs_f64(), service.as_secs_f64());
        }
    }

    /// A transaction's life ended with `outcome` at `t`; the first ending
    /// wins. A failure emits its exit event when it takes effect. A commit is also the `Committed` crossing, stamped and
    /// emitted whatever the outcome already was (a transaction the client
    /// timed out on can still commit), and feeds the latency planes.
    pub(super) fn terminal(
        &mut self,
        t: SimTime,
        tx_id: TxId,
        outcome: TxOutcome,
        station: &str,
        depth: usize,
    ) {
        let Some(exit) = exit_phase(outcome) else {
            return;
        };
        let committing = exit == TracePhase::Committed;
        if committing {
            self.phase(t, tx_id, exit, station, depth);
        }
        let Some(rec) = self.record_mut(tx_id) else {
            return;
        };
        if !matches!(rec.trace.outcome, TxOutcome::InFlight) {
            return;
        }
        rec.trace.outcome = outcome;
        if committing {
            let e2e_s = (t - rec.trace.created).as_secs_f64();
            rec.breakdown.commit_s = t.as_secs_f64();
            rec.breakdown.end_to_end_s = e2e_s;
            if self.record_e2e {
                self.samples.e2e_s.push(e2e_s);
            }
        } else {
            self.phase(t, tx_id, exit, station, depth);
        }
        self.inflight -= 1;
    }

    fn trace_name(&self, scope: Scope) -> Name {
        match scope {
            Scope::Tx(tx) => tx_name(tx),
            Scope::Block(number) => name(format_args!("b{}.{number}", self.shard_id)),
        }
    }

    /// The id of the span `key` names — a producer's, computed by value at
    /// its consumer.
    fn id_of(&self, key: SpanKey) -> u64 {
        span_id(
            &self.trace_name(key.scope),
            key.kind,
            &name(key.actor),
            key.hop,
        )
    }

    /// Records one causal span over `[t0, t1]` (`t1` may lie in the future;
    /// the analyzer re-sorts) with `parent` as its causal predecessor.
    /// Tx-scoped kinds are head-sampled; block-scoped kinds are always
    /// recorded.
    pub(super) fn span(&mut self, key: SpanKey, parent: Option<SpanKey>, t0: SimTime, t1: SimTime) {
        if !self.spans.enabled() {
            return;
        }
        let trace = self.trace_name(key.scope);
        if key.kind.tx_scoped() && !self.sampled(&trace) {
            return;
        }
        let actor = name(key.actor);
        self.spans.record(SpanEvent {
            span_id: span_id(&trace, key.kind, &actor, key.hop),
            parent_id: parent.map_or(0, |p| self.id_of(p)),
            trace,
            kind: key.kind,
            actor,
            t0_s: t0.as_secs_f64(),
            t1_s: t1.as_secs_f64(),
            hop: key.hop,
        });
    }

    /// Records one infrastructure message leg (Raft/Kafka rounds) of this
    /// world's channel. The same (kind, from, to) recurs every round, so
    /// the span's identity folds in its times ([`message_span_id`]).
    pub(super) fn msg_span(
        &mut self,
        kind: SpanKind,
        from: Actor,
        to: Actor,
        t0: SimTime,
        t1: SimTime,
    ) {
        if !self.spans.enabled() {
            return;
        }
        let trace = name(format_args!("ch{}", self.shard_id));
        let actor = name(format_args!("{from}>{to}"));
        let (t0_s, t1_s) = (t0.as_secs_f64(), t1.as_secs_f64());
        self.spans.record(SpanEvent {
            span_id: message_span_id(&trace, kind, &actor, t0_s, t1_s),
            parent_id: 0,
            trace,
            kind,
            actor,
            t0_s,
            t1_s,
            hop: 0,
        });
    }

    /// Consumes the observer at the end of the run.
    pub(super) fn harvest(self) -> Harvest {
        Harvest {
            records: self.txs,
            dropped_events: self.sink.dropped(),
            events: self.sink.into_vec(),
            dropped_spans: self.spans.dropped(),
            spans: self.spans.into_vec(),
            samples: self.samples,
        }
    }
}

/// The phase a transaction leaves the pipeline through; `InFlight` is not
/// an ending.
fn exit_phase(outcome: TxOutcome) -> Option<TracePhase> {
    match outcome {
        TxOutcome::InFlight => None,
        TxOutcome::OverloadDropped => Some(TracePhase::OverloadDropped),
        TxOutcome::EndorsementFailed => Some(TracePhase::EndorsementFailed),
        TxOutcome::OrderingTimeout => Some(TracePhase::OrderingTimeout),
        TxOutcome::Committed(_) => Some(TracePhase::Committed),
    }
}

// ---- the gauge sweep ---------------------------------------------------------

/// Every station of `class` in the world, one per pool, peer or OSN.
pub(super) fn stations_of(world: &World, class: StationClass) -> Vec<&Station> {
    match class {
        StationClass::ClientPrep => world.pools.iter().map(|p| &p.prep).collect(),
        StationClass::ClientRecv => world.pools.iter().map(|p| &p.recv).collect(),
        StationClass::PeerEndorse => world.peers.iter().map(|p| &p.endorse).collect(),
        StationClass::PeerVscc => world.peers.iter().map(|p| &p.vscc).collect(),
        StationClass::PeerCommit => world.peers.iter().map(|p| &p.commit).collect(),
        StationClass::OsnCpu => world.osns.iter().map(|o| &o.station).collect(),
    }
}

/// Reads the world's gauges once and records them as the row of the window
/// of `width_s` ending at `t_end_s`.
fn sweep(world: &mut World, now: SimTime, t_end_s: f64, width_s: f64) {
    let cuts = world.block_cuts.len();
    let new_cuts = cuts - world.obs.last_block_cuts;
    world.obs.last_block_cuts = cuts;
    // One loop per gauge over the classes, each summed over its stations.
    let per_class = |gauge: &dyn Fn(&Station) -> f64| {
        StationClass::WIRE.map(|class| stations_of(world, class).into_iter().map(gauge).sum())
    };
    let max_util = |class| {
        let utils = stations_of(world, class)
            .into_iter()
            .map(|st| st.utilization(now));
        utils.fold(0.0, f64::max)
    };
    let row = SampleRow {
        t_end_s,
        width_s,
        queue: per_class(&|st| st.jobs_in_system(now) as f64),
        busy_s: per_class(&|st| st.busy_time().as_secs_f64()),
        servers: per_class(&|st| st.servers() as f64),
        vscc_util: max_util(StationClass::PeerVscc),
        commit_util: max_util(StationClass::PeerCommit),
        inflight: world.obs.inflight,
        new_cuts,
        completions: world.obs.samples.e2e_s.len(),
    };
    // The counter must equal a scan of the records. Exported home stubs stay
    // `InFlight` forever — the receiving world counts the live copy.
    debug_assert_eq!(
        row.inflight,
        world
            .obs
            .txs
            .iter()
            .filter(|r| r.home.is_some() && matches!(r.trace.outcome, TxOutcome::InFlight))
            .count()
    );
    world.obs.samples.rows.push(row);
}

/// Starts the periodic sampler. It reads state only: scheduling it never
/// perturbs the simulated system, so traced and untraced runs stay
/// bit-identical.
pub(super) fn schedule_sampler(world: &World, k: &mut K) {
    let period = SimDuration::from_secs_f64(world.cfg.obs.sample_period_s);
    k.schedule_in(period, Ev::ObsSample);
}

/// The periodic sweep: one row per whole window.
pub(super) fn obs_sample(world: &mut World, k: &mut K) {
    let period = world.cfg.obs.sample_period_s;
    let now = k.now();
    sweep(world, now, now.as_secs_f64(), period);
    let period = SimDuration::from_secs_f64(period);
    k.schedule_in(period, Ev::ObsSample);
}

/// Records the final partial window at the horizon. The sampler only fires
/// on whole periods, so a run whose duration is not an exact multiple of the
/// period would otherwise drop the tail, and the health plane's regime
/// dwells must tile the horizon exactly. A horizon landing exactly on a tick
/// boundary (modulo fp noise) records no tail.
pub(super) fn flush_partial_tick(world: &mut World, horizon: SimTime) {
    let period = world.cfg.obs.sample_period_s;
    let duration = world.cfg.duration_secs;
    let width = duration - world.obs.samples.rows.len() as f64 * period;
    if width > 1e-9 {
        sweep(world, horizon, duration, width.min(period));
        world.obs.samples.tail = true;
    }
}
