//! Conservative parallel execution of independent event-loop shards.
//!
//! A [`ShardedKernel`] owns a fixed set of shards, each a [`Kernel`] plus its
//! world, and advances them in lockstep windows of virtual time. Shards
//! interact only through typed cross-shard messages with a guaranteed minimum
//! latency — the **lookahead** `L` (in the simulator, the minimum link
//! propagation delay): any message emitted at virtual time `t` must be
//! delivered no earlier than `t + L`.
//!
//! That bound makes the classic conservative window safe: with `t_min` the
//! earliest pending event across all shards, every event in
//! `[t_min, t_min + L)` can run without ever observing a message from this
//! window, so all shards execute their slice of the window in parallel.
//! Messages produced during the window are exchanged at a barrier, delivered
//! in a canonical order, and the next window starts.
//!
//! Worlds can widen the window far past the classical bound by implementing
//! [`ShardWorld::emission_bound`]: when a shard promises it cannot emit a
//! cross-shard message before time `B` (no matter what it receives), every
//! other shard may safely run to `B + L` instead of `t_min + L`. In the
//! simulator, cross-shard messages originate only at client proposal-send
//! events, which always sit at least one client-preparation delay after the
//! event that schedules them — a bound several orders of magnitude larger
//! than the link lookahead, which collapses the synchronization-round count
//! accordingly.
//!
//! ## Determinism across worker counts
//!
//! The shard decomposition and the window boundaries depend only on virtual
//! state, never on how many OS threads multiplex the shards. Messages are
//! delivered sorted by `(delivery time, source shard, per-source emission
//! counter)` before being scheduled into the target kernel, so insertion
//! sequence numbers — the tie-breaker of the event queue — are identical at
//! any worker count. A run at `workers = 1` is byte-identical to the same run
//! at `workers = 8`.
//!
//! ## Idle workers
//!
//! A worker that finishes its shards' window before the others would only
//! spin at the barrier. [`ShardedKernel::run`] takes an idle hook instead,
//! which a waiting worker calls until the cohort is complete; the caller
//! decides what that time is spent on. The hook cannot reach any shard, so
//! it cannot change a result.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::kernel::{Kernel, Model};
use crate::profiler::KernelProfile;
use crate::time::{SimDuration, SimTime};

/// A [`Model`] that can run as one shard of a [`ShardedKernel`].
///
/// Handlers communicate with other shards by pushing messages into an outbox
/// the sharded kernel drains at every window barrier. The delivery-time
/// contract is enforced at delivery: `at` must be at least the emitting
/// event's time plus the kernel's lookahead.
pub trait ShardWorld: Model + Send {
    /// The typed cross-shard message.
    type Msg: Send;

    /// Drains every message emitted since the last call, in emission order:
    /// `(destination shard, delivery time, message)`.
    fn drain_outbox(&mut self) -> Vec<(usize, SimTime, Self::Msg)>;

    /// Delivers one cross-shard message into this shard, typically by
    /// scheduling a local event at `at` on `kernel`.
    fn deliver(&mut self, kernel: &mut Kernel<Self>, at: SimTime, msg: Self::Msg);

    /// A lower bound on the virtual time at which this shard could *ever*
    /// again emit a cross-shard message, or `None` for the classical
    /// conservative assumption (any future event may emit, so the bound is
    /// the global minimum next event time).
    ///
    /// Worlds that know emission happens only at specific event families —
    /// e.g. client proposal sends that always sit at least one preparation
    /// delay after the event that schedules them — can return a much later
    /// bound, which widens every *other* shard's execution window to
    /// `bound + lookahead` and collapses the number of synchronization
    /// rounds.
    ///
    /// # Contract
    /// The bound must hold against **every possible future** of this shard,
    /// including events scheduled by cross-shard messages it has not yet
    /// received — if an incoming message can trigger an emission, that path
    /// must be covered by the bound (or the world must return `None`).
    /// Returning a bound that is too small only narrows windows (costs
    /// performance, never correctness); the sharded kernel additionally
    /// floors every bound at the global minimum next event time, since no
    /// shard can emit before the first event of the round executes.
    ///
    /// `next_event` is the shard's earliest pending event time, or
    /// [`SimTime::MAX`] when its queue is empty.
    fn emission_bound(&self, next_event: SimTime) -> Option<SimTime> {
        let _ = next_event;
        None
    }
}

/// One message queued for delivery at the next window barrier.
struct Pending<M> {
    at: SimTime,
    src_shard: usize,
    src_counter: u64,
    msg: M,
}

struct Shard<W: ShardWorld> {
    kernel: Kernel<W>,
    world: W,
    /// Messages emitted by this shard so far (the per-source tie-breaker).
    emitted: u64,
}

/// Hybrid spin barrier: a waiting party first offers its time to the run's
/// idle hook, and only when the hook has nothing to do busy-waits briefly,
/// then yields. Never sleeps — window rounds are far too frequent (one per
/// lookahead interval of virtual time) for parked-thread wakeup latency.
///
/// A party that panics never arrives. Its worker marks the barrier broken on
/// the way out ([`BreakOnPanic`]), and every waiter then panics with
/// [`BarrierBroken`] instead of spinning forever.
struct SpinBarrier {
    parties: usize,
    arrived: AtomicU64,
    generation: AtomicU64,
    broken: AtomicBool,
}

/// The panic payload of a worker released from a broken barrier. The run
/// re-raises the panic that broke it, not this one.
struct BarrierBroken;

/// Marks the barrier broken when the worker holding it unwinds.
struct BreakOnPanic<'a>(&'a SpinBarrier);

impl Drop for BreakOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.broken.store(true, Ordering::Release);
        }
    }
}

impl SpinBarrier {
    fn new(parties: usize) -> Self {
        SpinBarrier {
            parties,
            arrived: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            broken: AtomicBool::new(false),
        }
    }

    /// Waits until every party has arrived, calling `idle` while the cohort
    /// is incomplete. `idle` returns whether it did some work; it is never
    /// called when this is the last arrival or the only party.
    ///
    /// # Panics
    /// Panics with [`BarrierBroken`] once another party has panicked.
    fn wait(&self, idle: &dyn Fn() -> bool) {
        if self.parties == 1 {
            return;
        }
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties as u64 {
            // Last arrival: reset and release the cohort.
            self.arrived.store(0, Ordering::Release);
            self.generation.store(gen + 1, Ordering::Release);
            return;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == gen {
            if self.broken.load(Ordering::Acquire) {
                // Unwinds without the panic hook: the panic that broke the
                // barrier has already been reported.
                std::panic::resume_unwind(Box::new(BarrierBroken));
            }
            if idle() {
                continue;
            }
            spins += 1;
            if spins < 128 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Summary of one sharded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardedRunReport {
    /// Final virtual time (capped at the horizon).
    pub end: SimTime,
    /// Synchronization windows executed.
    pub windows: u64,
    /// Cross-shard messages exchanged.
    pub messages: u64,
    /// Events executed, summed over all shards.
    pub events: u64,
}

/// A fixed set of event-loop shards advanced in conservative windows.
///
/// ```
/// use fabricsim_des::{Kernel, Model, ShardWorld, ShardedKernel, SimDuration, SimTime};
///
/// struct Echo { log: Vec<u64>, out: Vec<(usize, SimTime, u64)> }
/// enum Ev { Ping, Echo(u64) }
/// impl Model for Echo {
///     type Event = Ev;
///     fn fire(&mut self, event: Ev, k: &mut Kernel<Self>) {
///         match event {
///             Ev::Ping => self.out.push((1, k.now() + SimDuration::from_millis(1), 7)),
///             Ev::Echo(msg) => self.log.push(msg),
///         }
///     }
///     fn label(_: &Ev) -> &'static str {
///         "echo"
///     }
/// }
/// impl ShardWorld for Echo {
///     type Msg = u64;
///     fn drain_outbox(&mut self) -> Vec<(usize, SimTime, u64)> {
///         std::mem::take(&mut self.out)
///     }
///     fn deliver(&mut self, kernel: &mut Kernel<Self>, at: SimTime, msg: u64) {
///         kernel.schedule(at, Ev::Echo(msg));
///     }
/// }
///
/// let mut sk = ShardedKernel::new(SimDuration::from_millis(1));
/// for id in 0..2 {
///     let mut k = Kernel::new();
///     if id == 0 {
///         k.schedule(SimTime::ZERO, Ev::Ping);
///     }
///     sk.push_shard(k, Echo { log: Vec::new(), out: Vec::new() });
/// }
/// sk.set_horizon(SimTime::ZERO + SimDuration::from_secs(1));
/// let report = sk.run(1, &|| false);
/// assert_eq!(report.messages, 1);
/// assert_eq!(sk.worlds()[1].log, vec![7]);
/// ```
pub struct ShardedKernel<W: ShardWorld> {
    shards: Vec<Shard<W>>,
    lookahead: SimDuration,
    horizon: SimTime,
}

impl<W: ShardWorld> ShardedKernel<W> {
    /// Creates an empty sharded kernel with the given lookahead.
    ///
    /// # Panics
    /// Panics if `lookahead` is zero — a zero lookahead admits no
    /// conservative window.
    pub fn new(lookahead: SimDuration) -> Self {
        assert!(
            lookahead > SimDuration::ZERO,
            "sharded kernel requires a positive lookahead"
        );
        ShardedKernel {
            shards: Vec::new(),
            lookahead,
            horizon: SimTime::MAX,
        }
    }

    /// Adds a shard (its kernel may already hold bootstrap events) and
    /// returns its index.
    pub fn push_shard(&mut self, kernel: Kernel<W>, world: W) -> usize {
        self.shards.push(Shard {
            kernel,
            world,
            emitted: 0,
        });
        self.shards.len() - 1
    }

    /// Stops the run once every shard's clock would pass `t`; events at
    /// exactly `t` still fire, later ones stay queued and never do.
    pub fn set_horizon(&mut self, t: SimTime) {
        self.horizon = t;
    }

    /// Enables the self-profiler on every shard kernel.
    pub fn enable_profiler(&mut self) {
        for s in &mut self.shards {
            s.kernel.enable_profiler();
        }
    }

    /// Takes the per-shard self-profiles (empty entries for shards without
    /// profiling enabled).
    pub fn take_profiles(&mut self) -> Vec<Option<KernelProfile>> {
        self.shards
            .iter_mut()
            .map(|s| s.kernel.take_profile())
            .collect()
    }

    /// Shared access to the shard worlds (e.g. for post-run merging).
    pub fn worlds(&self) -> Vec<&W> {
        self.shards.iter().map(|s| &s.world).collect()
    }

    /// Consumes the sharded kernel, returning the shard worlds in shard
    /// order.
    pub fn into_worlds(self) -> Vec<W> {
        self.shards.into_iter().map(|s| s.world).collect()
    }

    /// Runs all shards to completion (queues drained or horizon reached) on
    /// `workers` OS threads. Results are identical for every `workers >= 1`;
    /// the worker count only controls how shards are multiplexed onto
    /// threads.
    ///
    /// A worker that reaches a window barrier before the others calls
    /// `idle` until they arrive, and spins only while `idle` returns
    /// `false` (nothing to do). The kernel never looks at what the hook
    /// does; pass `&|| false` to offer nothing. With one worker there is no
    /// one to wait for and the hook is never called.
    ///
    /// # Panics
    /// Panics if `workers == 0`, or if a shard emits a message violating the
    /// lookahead contract (delivery before the shard's published emission
    /// floor plus the lookahead). A panic in one worker's shards stops the
    /// other workers at their next barrier, and the run re-raises it.
    pub fn run(&mut self, workers: usize, idle: &(dyn Fn() -> bool + Sync)) -> ShardedRunReport {
        assert!(workers > 0, "sharded run needs at least one worker");
        let n = self.shards.len();
        if n == 0 {
            return ShardedRunReport {
                end: self.horizon.min(SimTime::ZERO),
                ..ShardedRunReport::default()
            };
        }
        let workers = workers.min(n);
        let horizon_ns = self.horizon.as_nanos();
        let lookahead_ns = self.lookahead.as_nanos().max(1);

        // Shared round state. `next_times[i]` holds shard i's earliest
        // event time (u64::MAX when idle); `emit_bounds[i]` its emission
        // bound (>= next time); `inboxes[i]` collects messages bound for
        // shard i during a window; `window_counter` counts rounds and
        // `message_counter` totals exchanged messages.
        let next_times: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
        let emit_bounds: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
        let inboxes: Vec<Mutex<Vec<Pending<W::Msg>>>> =
            (0..n).map(|_| Mutex::new(Vec::new())).collect();
        let windows = AtomicU64::new(0);
        let messages = AtomicU64::new(0);
        let barrier = SpinBarrier::new(workers);

        // Contiguous static partition: worker w owns one chunk of shards.
        // The partition never changes mid-run, so per-shard state needs no
        // locking; only the inboxes are shared, and only between the two
        // barriers of a round.
        let chunk = n.div_ceil(workers);
        let worker_loop = |chunk_start: usize, my: &mut [Shard<W>]| {
            let _guard = BreakOnPanic(&barrier);
            loop {
                // Phase A: deliver last window's inbound messages in
                // canonical order, then publish each shard's next event time.
                for (off, shard) in my.iter_mut().enumerate() {
                    let idx = chunk_start + off;
                    let mut inbox = {
                        let mut guard = inboxes[idx]
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        std::mem::take(&mut *guard)
                    };
                    inbox.sort_by(|a, b| {
                        a.at.cmp(&b.at)
                            .then(a.src_shard.cmp(&b.src_shard))
                            .then(a.src_counter.cmp(&b.src_counter))
                    });
                    for p in inbox {
                        shard.world.deliver(&mut shard.kernel, p.at, p.msg);
                    }
                    let t = shard.kernel.next_event_time();
                    // u64::MAX marks "no custom bound": the shard falls back
                    // to the classical assumption that it may emit at any of
                    // its future events (floor `t_min`). Custom bounds are
                    // clamped one below the sentinel.
                    let eb = shard
                        .world
                        .emission_bound(t.unwrap_or(SimTime::MAX))
                        .map_or(u64::MAX, |b| b.as_nanos().min(u64::MAX - 1));
                    next_times[idx].store(t.map_or(u64::MAX, |t| t.as_nanos()), Ordering::Release);
                    emit_bounds[idx].store(eb, Ordering::Release);
                }
                barrier.wait(idle);

                // Every worker computes the same windows from the published
                // times; no coordinator thread needed.
                let t_min = next_times
                    .iter()
                    .map(|t| t.load(Ordering::Acquire))
                    .min()
                    .unwrap_or(u64::MAX);
                if t_min == u64::MAX || t_min > horizon_ns {
                    break;
                }

                // Phase B: run the window on every owned shard, routing
                // emitted messages to the destination inboxes. Each shard's
                // window is *individually* bounded by the earliest delivery
                // any other shard could still produce: `t_min + L` for
                // shards under the classical assumption (any future event
                // may emit; every future event is >= t_min), or
                // `max(bound, t_min) + L` for shards with a model-derived
                // emission bound — which can be arbitrarily wider. The
                // window end is exclusive; the final window runs through
                // the horizon inclusively (events at exactly the horizon
                // still fire).
                let delivery_floor = |eb: u64| {
                    let emit = if eb == u64::MAX { t_min } else { eb.max(t_min) };
                    emit.saturating_add(lookahead_ns)
                };
                for (off, shard) in my.iter_mut().enumerate() {
                    let idx = chunk_start + off;
                    let earliest_delivery =
                        delivery_floor(emit_bounds[idx].load(Ordering::Acquire));
                    let window_end = emit_bounds
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != idx)
                        .map(|(_, b)| delivery_floor(b.load(Ordering::Acquire)))
                        .min()
                        .unwrap_or(u64::MAX)
                        .min(horizon_ns.saturating_add(1));
                    shard
                        .kernel
                        .run_until(&mut shard.world, SimTime::from_nanos(window_end));
                    let out = shard.world.drain_outbox();
                    if out.is_empty() {
                        continue;
                    }
                    messages.fetch_add(out.len() as u64, Ordering::AcqRel);
                    for (dst, at, msg) in out {
                        assert!(
                            at.as_nanos() >= earliest_delivery,
                            "cross-shard message from shard {idx} to {dst} at {at} \
                             violates the lookahead contract (emission floor \
                             {earliest_delivery} ns)"
                        );
                        let counter = shard.emitted;
                        shard.emitted += 1;
                        inboxes[dst]
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .push(Pending {
                                at,
                                src_shard: idx,
                                src_counter: counter,
                                msg,
                            });
                    }
                }
                if chunk_start == 0 {
                    windows.fetch_add(1, Ordering::AcqRel);
                }
                barrier.wait(idle);
            }
        };

        if workers == 1 {
            worker_loop(0, &mut self.shards);
        } else {
            let mut chunks: Vec<(usize, &mut [Shard<W>])> = Vec::new();
            let mut rest = self.shards.as_mut_slice();
            let mut start = 0;
            while !rest.is_empty() {
                let take = chunk.min(rest.len());
                let (head, tail) = rest.split_at_mut(take);
                chunks.push((start, head));
                start += take;
                rest = tail;
            }
            let joined: Vec<_> = std::thread::scope(|scope| {
                let workers: Vec<_> = chunks
                    .into_iter()
                    .map(|(chunk_start, my)| scope.spawn(move || worker_loop(chunk_start, my)))
                    .collect();
                workers.into_iter().map(|w| w.join()).collect()
            });
            // Re-raise the panic that broke the barrier, not the panics of
            // the workers it released.
            let mut panics: Vec<_> = joined.into_iter().filter_map(Result::err).collect();
            panics.sort_by_key(|p| p.is::<BarrierBroken>());
            if let Some(first) = panics.into_iter().next() {
                std::panic::resume_unwind(first);
            }
        }

        let mut events = 0;
        let mut end = SimTime::ZERO;
        for s in &self.shards {
            events += s.kernel.executed();
            end = end.max(s.kernel.now());
        }
        ShardedRunReport {
            end: end.min(self.horizon),
            windows: windows.load(Ordering::Acquire),
            messages: messages.load(Ordering::Acquire),
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy shard world: records received messages with their delivery time
    /// and, when `rally` is set, answers each receipt with a reply to the
    /// other shard 1.5 ms later (>= the test lookahead). When `quiet` is set
    /// the node promises it will never emit, the strongest possible emission
    /// bound.
    #[derive(Debug, Default)]
    struct Node {
        id: usize,
        rally: bool,
        quiet: bool,
        received: Vec<(u64, String)>, // (delivery ns, payload)
        out: Vec<(usize, SimTime, String)>,
        /// Deliveries scheduled below the kernel's next event.
        below_head: u64,
    }

    #[derive(Debug)]
    enum Ev {
        /// A cross-shard message arrives.
        Receive(String),
        /// Emits each message to shard `to`, delivered `after` from now.
        Send {
            to: usize,
            after: SimDuration,
            msgs: Vec<&'static str>,
        },
        /// Records a local payload, no message.
        Local(&'static str),
        /// Records a tick and re-arms `every` later.
        Tick { every: SimDuration },
        /// A handler bug: panics.
        Boom,
    }

    impl Model for Node {
        type Event = Ev;

        fn fire(&mut self, event: Ev, k: &mut Kernel<Self>) {
            let now = k.now();
            match event {
                Ev::Receive(msg) => {
                    self.received.push((now.as_nanos(), msg));
                    if self.rally {
                        let n = self.received.len();
                        let reply = format!("rally-{}-{n}", self.id);
                        self.out
                            .push((1 - self.id, now + SimDuration::from_micros(1500), reply));
                    }
                }
                Ev::Send { to, after, msgs } => {
                    for msg in msgs {
                        self.out.push((to, now + after, msg.into()));
                    }
                }
                Ev::Local(msg) => self.received.push((now.as_nanos(), msg.into())),
                Ev::Tick { every } => {
                    self.received.push((now.as_nanos(), "tick".into()));
                    k.schedule_in(every, Ev::Tick { every });
                }
                Ev::Boom => panic!("shard {} failed at {now}", self.id),
            }
        }

        fn label(event: &Ev) -> &'static str {
            match event {
                Ev::Receive(_) => "xshard",
                Ev::Send { .. } => "send",
                Ev::Local(_) => "local",
                Ev::Tick { .. } => "tick",
                Ev::Boom => "boom",
            }
        }
    }

    impl ShardWorld for Node {
        type Msg = String;
        fn drain_outbox(&mut self) -> Vec<(usize, SimTime, String)> {
            std::mem::take(&mut self.out)
        }
        fn emission_bound(&self, _next_event: SimTime) -> Option<SimTime> {
            self.quiet.then_some(SimTime::MAX)
        }
        fn deliver(&mut self, kernel: &mut Kernel<Self>, at: SimTime, msg: String) {
            if kernel.next_event_time().is_some_and(|head| at < head) {
                self.below_head += 1;
            }
            kernel.schedule(at, Ev::Receive(msg));
        }
    }

    const L: SimDuration = SimDuration::from_millis(1);

    fn send(to: usize, after: SimDuration, msgs: &[&'static str]) -> Ev {
        Ev::Send {
            to,
            after,
            msgs: msgs.to_vec(),
        }
    }

    fn two_nodes() -> ShardedKernel<Node> {
        let mut sk = ShardedKernel::new(L);
        for id in 0..2 {
            sk.push_shard(
                Kernel::new(),
                Node {
                    id,
                    ..Node::default()
                },
            );
        }
        sk
    }

    #[test]
    fn lookahead_must_be_positive() {
        let r = std::panic::catch_unwind(|| ShardedKernel::<Node>::new(SimDuration::ZERO));
        assert!(r.is_err());
    }

    #[test]
    fn messages_cross_shards_at_their_delivery_time() {
        let mut sk = two_nodes();
        sk.set_horizon(SimTime::from_secs_f64(1.0));
        // Shard 0 pings shard 1 at t=0, delivery t=2ms.
        sk.shards[0].kernel.schedule(
            SimTime::ZERO,
            send(1, SimDuration::from_millis(2), &["ping"]),
        );
        let report = sk.run(1, &|| false);
        assert_eq!(report.messages, 1);
        assert_eq!(
            sk.worlds()[1].received,
            vec![(2_000_000, "ping".to_string())]
        );
        assert!(report.windows >= 1);
    }

    /// The canonical ordering rule: simultaneous deliveries sort by source
    /// shard, then per-source emission order — regardless of which shard's
    /// window ran first on which thread.
    #[test]
    fn simultaneous_deliveries_order_by_source_then_counter() {
        for workers in [1, 2, 3] {
            let mut sk = ShardedKernel::new(L);
            for id in 0..3 {
                sk.push_shard(
                    Kernel::new(),
                    Node {
                        id,
                        ..Node::default()
                    },
                );
            }
            sk.set_horizon(SimTime::from_secs_f64(1.0));
            let after = SimDuration::from_millis(5);
            // Shards 2 and 1 both emit two messages to shard 0, all with the
            // same delivery instant.
            sk.shards[2]
                .kernel
                .schedule(SimTime::ZERO, send(0, after, &["s2-first", "s2-second"]));
            sk.shards[1]
                .kernel
                .schedule(SimTime::ZERO, send(0, after, &["s1-first", "s1-second"]));
            sk.run(workers, &|| false);
            let got: Vec<&str> = sk.worlds()[0]
                .received
                .iter()
                .map(|(_, m)| m.as_str())
                .collect();
            assert_eq!(
                got,
                vec!["s1-first", "s1-second", "s2-first", "s2-second"],
                "workers={workers}"
            );
        }
    }

    #[test]
    fn ping_pong_chains_survive_many_rounds_identically_at_any_worker_count() {
        type Log = Vec<(u64, String)>;
        let run = |workers: usize| -> (Log, Log, u64) {
            let mut sk = two_nodes();
            for s in &mut sk.shards {
                s.world.rally = true;
            }
            sk.set_horizon(SimTime::from_secs_f64(0.050));
            // Node 0 serves at t=0; every delivery then triggers a reply
            // 1.5 ms later (>= lookahead), bouncing until the horizon.
            sk.shards[0].kernel.schedule(
                SimTime::ZERO,
                send(1, SimDuration::from_micros(1500), &["serve"]),
            );
            let report = sk.run(workers, &|| false);
            let worlds = sk.into_worlds();
            let mut it = worlds.into_iter();
            let a = it.next().expect("shard 0");
            let b = it.next().expect("shard 1");
            (a.received, b.received, report.messages)
        };
        let base = run(1);
        assert_eq!(run(2), base);
        // 50 ms rally at 1.5 ms per hop: a few dozen messages crossed.
        assert!(base.2 > 20, "messages exchanged: {}", base.2);
        assert!(!base.0.is_empty() && !base.1.is_empty());
    }

    /// Each window ends with a peek at the shard's next event, past the
    /// window; the rally's deliveries then land between the clock and that
    /// head. Two workers must report exactly what one does.
    #[test]
    fn deliveries_below_a_peeked_head_run_identically_at_two_workers() {
        let run = |workers: usize| {
            let mut sk = two_nodes();
            sk.set_horizon(SimTime::from_secs_f64(0.200));
            for s in &mut sk.shards {
                s.world.rally = true;
            }
            for (id, every) in [(0usize, 7_300), (1, 10_000)] {
                let every = SimDuration::from_micros(every);
                sk.shards[id]
                    .kernel
                    .schedule(SimTime::ZERO, Ev::Tick { every });
            }
            sk.shards[1]
                .kernel
                .schedule(SimTime::from_secs_f64(0.150), Ev::Local("late"));
            sk.shards[0].kernel.schedule(
                SimTime::ZERO,
                send(1, SimDuration::from_micros(1500), &["serve"]),
            );
            let report = sk.run(workers, &|| false);
            let worlds: Vec<(Vec<(u64, String)>, u64)> = sk
                .into_worlds()
                .into_iter()
                .map(|w| (w.received, w.below_head))
                .collect();
            (report, worlds)
        };
        let one = run(1);
        assert!(
            one.1.iter().all(|(_, below)| *below > 50),
            "deliveries below the head: {:?}",
            one.1.iter().map(|(_, below)| below).collect::<Vec<_>>()
        );
        assert!(one.1[1].0.contains(&(150_000_000, "late".to_string())));
        assert_eq!(run(2), one);
    }

    #[test]
    #[should_panic(expected = "lookahead contract")]
    fn undershooting_the_lookahead_panics() {
        let mut sk = two_nodes();
        sk.set_horizon(SimTime::from_secs_f64(1.0));
        // 0.1 ms < 1 ms lookahead: illegal.
        sk.shards[0].kernel.schedule(
            SimTime::from_secs_f64(0.010),
            send(1, SimDuration::from_micros(100), &["bad"]),
        );
        sk.run(1, &|| false);
    }

    /// One worker's handler panics while the other worker ticks on: the
    /// other stops at its next barrier and the run re-raises the first
    /// panic. A watchdog turns a hang into a failure.
    #[test]
    fn a_panicking_worker_ends_the_run_with_its_panic_and_nothing_hangs() {
        let (done, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let result = std::panic::catch_unwind(|| {
                let mut sk = two_nodes();
                sk.set_horizon(SimTime::from_secs_f64(1.0));
                let every = SimDuration::from_micros(250);
                for s in &mut sk.shards {
                    s.kernel.schedule(SimTime::ZERO, Ev::Tick { every });
                }
                sk.shards[0]
                    .kernel
                    .schedule(SimTime::from_secs_f64(0.010), Ev::Boom);
                sk.run(2, &|| false);
            });
            let message = result.err().and_then(|p| p.downcast::<String>().ok());
            let _ = done.send(message.map(|m| *m));
        });
        let message = outcome
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("the run returned instead of hanging");
        let message = message.expect("the run panicked with the handler's message");
        assert!(message.starts_with("shard 0 failed at"), "{message}");
    }

    #[test]
    fn horizon_clips_the_run_and_messages_past_it_are_dropped() {
        let mut sk = two_nodes();
        sk.set_horizon(SimTime::from_secs_f64(0.004));
        // Delivery at 6 ms is past the 4 ms horizon: exchanged but never
        // executed.
        sk.shards[0].kernel.schedule(
            SimTime::ZERO,
            send(1, SimDuration::from_millis(6), &["late"]),
        );
        // An ordinary local event at exactly the horizon still fires.
        sk.shards[1]
            .kernel
            .schedule(SimTime::from_secs_f64(0.004), Ev::Local("at-horizon"));
        let report = sk.run(1, &|| false);
        assert_eq!(report.end, SimTime::from_secs_f64(0.004));
        assert_eq!(
            sk.worlds()[1].received,
            vec![(4_000_000, "at-horizon".to_string())]
        );
    }

    #[test]
    fn stats_sum_over_shards_and_profiles_reconcile() {
        let mut sk = two_nodes();
        sk.set_horizon(SimTime::from_secs_f64(0.100));
        sk.enable_profiler();
        let every = SimDuration::from_millis(7);
        for id in 0..2usize {
            sk.shards[id]
                .kernel
                .schedule(SimTime::ZERO, Ev::Tick { every });
        }
        let report = sk.run(2, &|| false);
        // 100 ms / 7 ms -> 15 ticks per shard (t=0..=98ms).
        assert_eq!(report.events, 30);
        let profiles = sk.take_profiles();
        assert_eq!(profiles.len(), 2);
        let mut merged = KernelProfile::default();
        for p in profiles.into_iter().flatten() {
            assert_eq!(p.attributed_ns(), p.loop_ns, "per-shard identity");
            merged.absorb(&p);
        }
        assert_eq!(merged.attributed_ns(), merged.loop_ns, "merged identity");
        let ticks: u64 = merged
            .entries
            .iter()
            .filter(|e| e.label == "tick")
            .map(|e| e.count)
            .sum();
        assert_eq!(ticks, 30);
    }

    /// A world-declared emission bound widens every window past the
    /// classical `t_min + L` floor: shards that promise never to emit run
    /// straight to the horizon in a single synchronization window, with
    /// results identical to the narrow-window run at any worker count.
    #[test]
    fn emission_bounds_collapse_windows_without_changing_results() {
        let run = |quiet: bool, workers: usize| {
            let mut sk = two_nodes();
            sk.set_horizon(SimTime::from_secs_f64(0.100));
            let every = SimDuration::from_micros(250);
            for id in 0..2usize {
                sk.shards[id].world.quiet = quiet;
                sk.shards[id]
                    .kernel
                    .schedule(SimTime::ZERO, Ev::Tick { every });
            }
            let report = sk.run(workers, &|| false);
            let logs: Vec<Vec<(u64, String)>> =
                sk.into_worlds().into_iter().map(|w| w.received).collect();
            (logs, report.windows)
        };
        let (narrow, narrow_windows) = run(false, 1);
        let (wide, wide_windows) = run(true, 1);
        assert_eq!(narrow, wide, "widening must never change results");
        assert!(
            narrow_windows > 50,
            "classical floor should need ~one window per lookahead interval, \
             got {narrow_windows}"
        );
        assert_eq!(
            wide_windows, 1,
            "an all-quiet round must run straight to the horizon"
        );
        assert_eq!(run(true, 2), (wide, wide_windows));
    }

    /// A worker whose shard finishes its window early spends the wait in
    /// the idle hook, and nothing the hook does reaches a shard. With one
    /// worker nobody waits, so the hook is never called.
    #[test]
    fn a_waiting_worker_calls_the_idle_hook_and_results_do_not_change() {
        let run = |workers: usize, idle: &(dyn Fn() -> bool + Sync)| {
            let mut sk = two_nodes();
            sk.set_horizon(SimTime::from_secs_f64(0.100));
            // Shard 0 is heavy: a hundred ticks per lookahead window against
            // shard 1's one, so shard 1's worker waits at every barrier.
            for (id, every) in [(0usize, 10), (1, 1000)] {
                let every = SimDuration::from_micros(every);
                sk.shards[id]
                    .kernel
                    .schedule(SimTime::ZERO, Ev::Tick { every });
            }
            let report = sk.run(workers, idle);
            let logs: Vec<Vec<(u64, String)>> =
                sk.into_worlds().into_iter().map(|w| w.received).collect();
            (report, logs)
        };
        // The hook claims work for its first hundred calls, then has none.
        let calls = AtomicU64::new(0);
        let hook = || calls.fetch_add(1, Ordering::Relaxed) < 100;
        let plain = run(2, &|| false);
        assert!(plain.0.windows > 50, "windows: {}", plain.0.windows);
        assert_eq!(run(2, &hook), plain);
        assert!(calls.load(Ordering::Relaxed) > 0, "nobody waited");
        calls.store(0, Ordering::Relaxed);
        assert_eq!(run(1, &hook), plain);
        assert_eq!(calls.load(Ordering::Relaxed), 0, "one worker never waits");
    }

    #[test]
    fn worker_counts_beyond_shard_count_are_clamped() {
        let mut sk = two_nodes();
        sk.set_horizon(SimTime::from_secs_f64(0.010));
        sk.shards[0]
            .kernel
            .schedule(SimTime::ZERO, send(1, SimDuration::from_millis(2), &["hi"]));
        let report = sk.run(64, &|| false);
        assert_eq!(report.messages, 1);
        assert_eq!(sk.worlds()[1].received.len(), 1);
    }
}
