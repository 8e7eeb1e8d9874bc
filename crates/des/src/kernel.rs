//! The event loop: typed events in a keyed 4-ary heap.
//!
//! A [`Model`] names its event type and how to fire one. The kernel stores
//! each scheduled event once, in a slot of a slab, and orders small
//! `(time, seq, slot)` keys in a 4-ary min-heap: sifting moves 24-byte keys,
//! never events, and scheduling allocates nothing once the slab and the heap
//! have grown to the run's peak of pending events. A slot is freed when its
//! key leaves the heap and its generation is bumped then, so an [`EventId`]
//! — slot plus generation — names one scheduling and nothing after it.

use std::time::Instant;

use crate::profiler::{elapsed_ns, lap_ns, KernelProfile, ProfilerState};
use crate::time::{SimDuration, SimTime};

/// A world the kernel can drive: its typed event and how to fire one.
pub trait Model: Sized {
    /// Everything that can be scheduled on this world.
    type Event: Send;

    /// Handles `event` at `kernel.now()`; may schedule or cancel further
    /// events on `kernel`.
    fn fire(&mut self, event: Self::Event, kernel: &mut Kernel<Self>);

    /// The static label of `event`'s family: what the self-profiler
    /// attributes the host time of firing it to (e.g. `peer.endorse`).
    fn label(event: &Self::Event) -> &'static str;
}

/// Identifier of a scheduled event, usable for cancellation: the slot the
/// event lives in and that slot's generation when it was scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventId {
    slot: usize,
    generation: u64,
}

/// One heap entry: the pop order `(time, seq)` and where the event lives.
#[derive(Debug, Clone, Copy)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: usize,
}

impl Key {
    #[inline]
    fn precedes(&self, other: &Key) -> bool {
        (self.time, self.seq) < (other.time, other.seq)
    }
}

/// A min-heap of keys with four children per node: half the depth of a
/// binary heap, and a node's children share a cache line.
#[derive(Debug, Default)]
struct KeyHeap(Vec<Key>);

const ARITY: usize = 4;

impl KeyHeap {
    fn peek(&self) -> Option<&Key> {
        self.0.first()
    }

    fn push(&mut self, key: Key) {
        let heap = &mut self.0;
        let mut hole = heap.len();
        heap.push(key);
        while hole > 0 {
            let parent = (hole - 1) / ARITY;
            if !key.precedes(&heap[parent]) {
                break;
            }
            heap[hole] = heap[parent];
            hole = parent;
        }
        heap[hole] = key;
    }

    fn pop(&mut self) -> Option<Key> {
        let heap = &mut self.0;
        let last = heap.pop()?;
        let Some(&top) = heap.first() else {
            return Some(last);
        };
        // Floyd's pop: walk the hole from the root to a leaf, moving the
        // earliest child up at each level, then sift `last` — which came
        // from the bottom and mostly belongs there — up from that leaf.
        let n = heap.len();
        let mut hole = 0;
        loop {
            let first = hole * ARITY + 1;
            if first >= n {
                break;
            }
            let children = &heap[first..(first + ARITY).min(n)];
            let mut best = 0;
            for (i, child) in children.iter().enumerate().skip(1) {
                if child.precedes(&children[best]) {
                    best = i;
                }
            }
            heap[hole] = children[best];
            hole = first + best;
        }
        while hole > 0 {
            let parent = (hole - 1) / ARITY;
            if !last.precedes(&heap[parent]) {
                break;
            }
            heap[hole] = heap[parent];
            hole = parent;
        }
        heap[hole] = last;
        Some(top)
    }
}

/// A slab slot: the pending event, or `None` once it was cancelled (its key
/// is then a tombstone still in the heap) or while the slot is free.
#[derive(Debug)]
struct Slot<E> {
    generation: u64,
    event: Option<E>,
}

/// Counters describing a finished (or in-progress) simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelStats {
    /// Events executed so far.
    pub executed: u64,
    /// Events scheduled so far (including cancelled ones).
    pub scheduled: u64,
    /// Events cancelled before execution.
    pub cancelled: u64,
}

/// A deterministic discrete-event kernel over a world `W`.
///
/// Events are `W::Event` values fired by [`Model::fire`]; ties in time are
/// broken by insertion order, which makes runs bit-reproducible.
///
/// ```
/// use fabricsim_des::{Kernel, Model, SimDuration};
///
/// struct Log(Vec<&'static str>);
/// impl Model for Log {
///     type Event = &'static str;
///     fn fire(&mut self, event: &'static str, _: &mut Kernel<Self>) {
///         self.0.push(event);
///     }
///     fn label(_: &&'static str) -> &'static str {
///         "log"
///     }
/// }
///
/// let mut k = Kernel::new();
/// let mut log = Log(Vec::new());
/// k.schedule_in(SimDuration::from_secs(1), "b");
/// k.schedule_in(SimDuration::ZERO, "a");
/// k.run(&mut log);
/// assert_eq!(log.0, vec!["a", "b"]);
/// ```
pub struct Kernel<W: Model> {
    now: SimTime,
    seq: u64,
    heap: KeyHeap,
    slots: Vec<Slot<W::Event>>,
    /// Slots whose keys have left the heap, reused last-freed first.
    free: Vec<usize>,
    stats: KernelStats,
    horizon: SimTime,
    profiler: Option<Box<ProfilerState>>,
}

impl<W: Model> Default for Kernel<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W: Model> std::fmt::Debug for Kernel<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("now", &self.now)
            .field("pending", &self.pending())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<W: Model> Kernel<W> {
    /// Creates an empty kernel with the clock at [`SimTime::ZERO`] and no horizon.
    pub fn new() -> Self {
        Kernel {
            now: SimTime::ZERO,
            seq: 0,
            heap: KeyHeap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            stats: KernelStats::default(),
            horizon: SimTime::MAX,
            profiler: None,
        }
    }

    /// Turns on the host-time self-profiler for subsequent [`Kernel::run`]
    /// calls. Write-only with respect to the simulation: nothing the
    /// profiler measures feeds back into virtual time, so results are
    /// byte-identical with it on or off.
    pub fn enable_profiler(&mut self) {
        self.profiler = Some(Box::default());
    }

    /// Whether the self-profiler is collecting.
    pub fn profiling(&self) -> bool {
        self.profiler.is_some()
    }

    /// Takes the finished self-profile, if profiling was enabled. Resets the
    /// kernel to the unprofiled state.
    pub fn take_profile(&mut self) -> Option<KernelProfile> {
        self.profiler.take().map(|p| p.finish())
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Counters for this run.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Number of events still pending (including cancelled-but-unpopped ones).
    pub fn pending(&self) -> usize {
        self.heap.0.len()
    }

    /// Stops the run once the clock would pass `t`; events at exactly `t` still fire.
    pub fn set_horizon(&mut self, t: SimTime) {
        self.horizon = t;
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past (`at < self.now()`).
    pub fn schedule(&mut self, at: SimTime, event: W::Event) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        self.seq += 1;
        self.stats.scheduled += 1;
        let id = self.occupy(event);
        self.heap.push(Key {
            time: at,
            seq: self.seq,
            slot: id.slot,
        });
        id
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: W::Event) -> EventId {
        self.schedule(self.now + delay, event)
    }

    /// Cancels a scheduled event. Cancelling an event that already fired,
    /// was already cancelled, was dropped past the horizon, or was never
    /// scheduled here is a no-op and is not counted.
    pub fn cancel(&mut self, id: EventId) {
        if let Some(slot) = self.slots.get_mut(id.slot) {
            if slot.generation == id.generation && slot.event.take().is_some() {
                self.stats.cancelled += 1;
            }
        }
    }

    /// Puts `event` in a free slot (or a new one) and names it.
    fn occupy(&mut self, event: W::Event) -> EventId {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slots.push(Slot {
                    generation: 0,
                    event: None,
                });
                self.slots.len() - 1
            }
        };
        let entry = &mut self.slots[slot];
        entry.event = Some(event);
        EventId {
            slot,
            generation: entry.generation,
        }
    }

    /// Frees the slot of a key that just left the heap and returns its
    /// event, `None` for a cancelled one. Bumping the generation is what
    /// turns every id of this scheduling stale.
    fn release(&mut self, slot: usize) -> Option<W::Event> {
        let entry = &mut self.slots[slot];
        entry.generation += 1;
        self.free.push(slot);
        entry.event.take()
    }

    /// Runs the event loop until the queue drains or the horizon is reached.
    /// Returns the final virtual time. This is [`Kernel::run_until`] driven
    /// through the horizon inclusively, so an event at `SimTime::MAX` itself
    /// lies past every horizon (as it does on [`crate::ShardedKernel`]).
    pub fn run(&mut self, world: &mut W) -> SimTime {
        let limit = SimTime::from_nanos(self.horizon.as_nanos().saturating_add(1));
        self.run_until(world, limit);
        if !self.heap.0.is_empty() {
            // Past the horizon: put nothing back; the run is over.
            self.now = self.horizon;
            for key in std::mem::take(&mut self.heap.0) {
                self.release(key.slot);
            }
        }
        self.now
    }

    /// The virtual time of the earliest *live* pending event, purging any
    /// cancelled tombstones sitting at the top of the heap on the way.
    /// Returns `None` when nothing live is pending. Purging is observable
    /// only through [`Kernel::pending`]; execution order is unaffected.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        while let Some(&head) = self.heap.peek() {
            if self.slots[head.slot].event.is_some() {
                return Some(head.time);
            }
            self.heap.pop();
            self.release(head.slot);
        }
        None
    }

    /// Runs every pending event with `time < limit`, leaving later events in
    /// the heap, and returns how many were executed. The clock stays at the
    /// last executed event (it does **not** jump to `limit`), so events
    /// delivered into the window gap afterwards can still be scheduled.
    ///
    /// This is the building block of conservative windowed execution
    /// ([`crate::ShardedKernel`]): virtual-time semantics are identical to
    /// [`Kernel::run`] restricted to the window. When the self-profiler is on,
    /// host time is accumulated across windows so the per-label totals still
    /// sum to the loop wall time.
    pub fn run_until(&mut self, world: &mut W, limit: SimTime) -> u64 {
        #[expect(
            clippy::disallowed_methods,
            reason = "kernel self-profiler window timing, write-only with respect to the \
                      simulation (see profiler.rs)"
        )]
        let loop_start = self.profiler.is_some().then(Instant::now);
        // One running mark: each read attributes everything since the
        // previous one, so two reads per event tile the whole loop.
        let mut mark = loop_start;
        let mut executed = 0;
        while let Some(&head) = self.heap.peek() {
            if head.time >= limit {
                break;
            }
            self.heap.pop();
            if let (Some(p), Some(m)) = (self.profiler.as_mut(), mark.as_mut()) {
                p.record_heap(lap_ns(m));
            }
            debug_assert!(head.time >= self.now, "event heap produced time regression");
            self.now = head.time;
            let Some(event) = self.release(head.slot) else {
                continue;
            };
            self.stats.executed += 1;
            executed += 1;
            let label = self.profiler.is_some().then(|| W::label(&event));
            world.fire(event, self);
            if let (Some(p), Some(m), Some(label)) = (self.profiler.as_mut(), mark.as_mut(), label)
            {
                p.record_handler(label, lap_ns(m));
            }
        }
        if let (Some(p), Some(t0)) = (self.profiler.as_mut(), loop_start) {
            p.record_loop(elapsed_ns(t0));
        }
        executed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test world: a log of fired payloads.
    #[derive(Debug, Default)]
    struct Log(Vec<u64>);

    #[derive(Debug)]
    enum Ev {
        /// Logs its payload.
        Push(u64),
        /// Logs its payload under a label of the test's choosing.
        Labeled(&'static str, u64),
        /// Logs the clock and re-arms itself `every` ns later while the log
        /// is shorter than `until`.
        Tick { every: u64, until: usize },
        /// Logs its payload and, every 100th payload, schedules an `echo`
        /// one nanosecond later.
        Echoing(&'static str, u64),
        /// Tries to schedule at 5 ns.
        Rewind,
    }

    impl Model for Log {
        type Event = Ev;

        fn fire(&mut self, event: Ev, k: &mut Kernel<Self>) {
            match event {
                Ev::Push(v) | Ev::Labeled(_, v) => self.0.push(v),
                Ev::Tick { every, until } => {
                    self.0.push(k.now().as_nanos());
                    if self.0.len() < until {
                        k.schedule_in(SimDuration::from_nanos(every), Ev::Tick { every, until });
                    }
                }
                Ev::Echoing(_, v) => {
                    self.0.push(v);
                    if v % 100 == 0 {
                        k.schedule_in(SimDuration::from_nanos(1), Ev::Labeled("echo", u64::MAX));
                    }
                }
                Ev::Rewind => {
                    k.schedule(SimTime::from_nanos(5), Ev::Push(5));
                }
            }
        }

        fn label(event: &Ev) -> &'static str {
            match event {
                Ev::Push(_) => "push",
                Ev::Labeled(label, _) | Ev::Echoing(label, _) => label,
                Ev::Tick { .. } => "tick",
                Ev::Rewind => "rewind",
            }
        }
    }

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut k = Kernel::new();
        let mut out = Log::default();
        k.schedule(at(30), Ev::Push(30));
        k.schedule(at(10), Ev::Push(10));
        k.schedule(at(20), Ev::Push(20));
        k.run(&mut out);
        assert_eq!(out.0, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut k = Kernel::new();
        let mut out = Log::default();
        for i in 0..100 {
            k.schedule(at(5), Ev::Push(i));
        }
        k.run(&mut out);
        assert_eq!(out.0, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn the_heap_pops_in_time_then_insertion_order_under_interleaved_pushes() {
        // Pops interleaved with pushes at earlier and later times: every
        // sift path of the 4-ary heap, checked against a sorted oracle.
        let mut heap = KeyHeap::default();
        let mut oracle: Vec<(u64, u64)> = Vec::new();
        let mut popped = Vec::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for seq in 0..2_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let time = x % 97;
            heap.push(Key {
                time: at(time),
                seq,
                slot: 0,
            });
            oracle.push((time, seq));
            if x.is_multiple_of(3) {
                let key = heap.pop().expect("non-empty");
                popped.push((key.time.as_nanos(), key.seq));
                oracle.sort_unstable();
                assert_eq!(popped.last(), oracle.first());
                oracle.remove(0);
            }
        }
        while let Some(key) = heap.pop() {
            popped.push((key.time.as_nanos(), key.seq));
        }
        oracle.sort_unstable();
        assert_eq!(&popped[popped.len() - oracle.len()..], &oracle[..]);
        assert_eq!(popped.len(), 2_000);
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        let mut k = Kernel::new();
        let mut out = Log::default();
        k.schedule(SimTime::ZERO, Ev::Tick { every: 7, until: 5 });
        let end = k.run(&mut out);
        assert_eq!(out.0, vec![0, 7, 14, 21, 28]);
        assert_eq!(end, at(28));
    }

    #[test]
    fn cancellation_skips_events() {
        let mut k = Kernel::new();
        let mut out = Log::default();
        let id = k.schedule(at(10), Ev::Push(1));
        k.schedule(at(20), Ev::Push(2));
        k.cancel(id);
        k.cancel(id); // double-cancel is a no-op
        k.run(&mut out);
        assert_eq!(out.0, vec![2]);
        assert_eq!(k.stats().cancelled, 1);
        assert_eq!(k.stats().executed, 1);
        assert_eq!(k.stats().scheduled, 2);
    }

    #[test]
    fn cancelling_a_fired_stale_or_unknown_event_is_a_no_op() {
        let mut k = Kernel::new();
        let mut out = Log::default();
        let fired = k.schedule(at(10), Ev::Push(10));
        k.run(&mut out);
        k.cancel(fired);
        assert_eq!(k.stats().cancelled, 0, "a fired event cannot be cancelled");
        // The next scheduling reuses the fired event's slot; the old id
        // must not reach it.
        let reused = k.schedule(at(20), Ev::Push(20));
        assert_ne!(reused, fired);
        k.cancel(fired);
        k.cancel(EventId {
            slot: 1_000,
            generation: 0,
        });
        // Dropped past the horizon: gone, and its id goes stale with it.
        k.set_horizon(at(30));
        let dropped = k.schedule(at(40), Ev::Push(40));
        k.run(&mut out);
        k.cancel(dropped);
        assert_eq!(out.0, vec![10, 20]);
        assert_eq!(k.pending(), 0);
        assert_eq!(
            k.stats(),
            KernelStats {
                executed: 2,
                scheduled: 3,
                cancelled: 0
            }
        );
        // A cancel that lands is still counted once, and the slot comes back.
        let live = k.schedule(at(30), Ev::Push(30));
        k.cancel(live);
        k.cancel(live);
        k.run(&mut out);
        assert_eq!(out.0, vec![10, 20]);
        assert_eq!(k.stats().cancelled, 1);
        assert_eq!(k.slots.len(), 2, "slots are reused, not leaked");
    }

    #[test]
    fn horizon_stops_the_run() {
        let mut k = Kernel::new();
        let mut out = Log::default();
        k.set_horizon(at(15));
        k.schedule(at(10), Ev::Push(10));
        k.schedule(at(15), Ev::Push(15));
        k.schedule(at(20), Ev::Push(20));
        let end = k.run(&mut out);
        assert_eq!(out.0, vec![10, 15]);
        assert_eq!(end, at(15));
        assert_eq!(k.pending(), 0);
    }

    #[test]
    fn run_until_executes_events_before_the_limit() {
        let mut k = Kernel::new();
        let mut out = Log::default();
        for i in 0..10u64 {
            k.schedule(at(i), Ev::Push(i));
        }
        assert_eq!(k.run_until(&mut out, at(3)), 3);
        assert_eq!(out.0, vec![0, 1, 2]);
        assert_eq!(k.now(), at(2), "the clock stays put");
        assert_eq!(k.run_until(&mut out, at(100)), 7);
    }

    #[test]
    fn run_is_run_until_driven_through_the_horizon() {
        // The horizon and cancel fixtures above, driven both ways.
        type Drive = fn(&mut Kernel<Log>, &mut Log, SimTime);
        let via_run: Drive = |k, w, _| {
            k.run(w);
        };
        let via_run_until: Drive = |k, w, horizon| {
            k.run_until(w, at(horizon.as_nanos() + 1));
        };
        let horizon = at(15);
        let observe = |drive: Drive| {
            let mut k = Kernel::new();
            let mut out = Log::default();
            k.enable_profiler();
            k.set_horizon(horizon);
            let doomed = k.schedule(at(5), Ev::Push(5));
            k.schedule(at(10), Ev::Push(10));
            k.schedule(at(15), Ev::Push(15));
            k.schedule(at(20), Ev::Push(20));
            k.cancel(doomed);
            drive(&mut k, &mut out, horizon);
            let profile = k.take_profile().expect("profile collected");
            (out.0, k.now(), k.stats(), profile.heap_ops)
        };
        let expected = observe(via_run);
        assert_eq!(expected.0, vec![10, 15]);
        assert_eq!(expected.1, horizon);
        assert_eq!(observe(via_run_until), expected);
    }

    #[test]
    fn profiler_attributes_every_executed_handler() {
        let mut k = Kernel::new();
        let mut out = Log::default();
        k.enable_profiler();
        assert!(k.profiling());
        for i in 0..50u64 {
            k.schedule(at(i), Ev::Labeled("tick", i));
        }
        let cancel_me = k.schedule(at(100), Ev::Labeled("doomed", 100));
        k.cancel(cancel_me);
        k.schedule(at(200), Ev::Push(200));
        k.run(&mut out);
        assert_eq!(out.0.len(), 51, "profiling must not change execution");
        let profile = k.take_profile().expect("profile collected");
        assert!(!k.profiling(), "take_profile resets the kernel");
        let by_label: Vec<(&str, u64)> = profile
            .entries
            .iter()
            .map(|e| (e.label.as_str(), e.count))
            .collect();
        assert!(by_label.contains(&("tick", 50)), "{by_label:?}");
        assert!(by_label.contains(&("push", 1)), "{by_label:?}");
        assert!(
            !by_label.iter().any(|(l, _)| *l == "doomed"),
            "cancelled events never dispatch: {by_label:?}"
        );
        // Heap ops: one pop per event, cancelled or not; the loop peeks before
        // it pops, so finding the heap empty is not a heap op.
        assert_eq!(profile.heap_ops, 52);
        // The accounting identity the acceptance criterion rests on.
        assert_eq!(profile.attributed_ns(), profile.loop_ns);
    }

    #[test]
    fn profile_reconciles_however_the_run_is_windowed() {
        // Same text, different address: the two must share one entry.
        let tick: &'static str = "tick";
        let tick_twin: &'static str = Box::leak(String::from("tick").into_boxed_str());
        assert!(!std::ptr::eq(tick, tick_twin));
        let observe = |windows: u64| {
            let mut k = Kernel::new();
            let mut out = Log::default();
            k.enable_profiler();
            for i in 0..3000u64 {
                let label = [tick, "tock", tick_twin][(i % 3) as usize];
                k.schedule(at(i), Ev::Echoing(label, i));
            }
            let doomed = k.schedule(at(1500), Ev::Labeled("doomed", 0));
            k.cancel(doomed);
            // The sharded engine's calling pattern: many short windows, most
            // of which find little or nothing to run.
            let span = 4000 / windows;
            let executed: u64 = (1..=windows)
                .map(|w| k.run_until(&mut out, at(w * span)))
                .sum();
            assert_eq!(executed, 3030);
            assert_eq!(k.pending(), 0);
            let profile = k.take_profile().expect("profile collected");
            assert_eq!(
                profile.attributed_ns(),
                profile.loop_ns,
                "{windows} windows"
            );
            let laps: u64 = profile.entries.iter().map(|e| e.ns).sum::<u64>() + profile.heap_ns;
            assert!(laps <= profile.loop_ns, "laps never overrun the loop");
            let mut counts: Vec<(String, u64)> = profile
                .entries
                .iter()
                .map(|e| (e.label.clone(), e.count))
                .collect();
            counts.sort();
            (out.0, counts, profile.heap_ops)
        };
        let one = observe(1);
        assert_eq!(
            one.1,
            [("echo", 30), ("tick", 2000), ("tock", 1000)].map(|(l, n)| (l.to_string(), n))
        );
        assert_eq!(one.2, 3031, "one pop per event, the cancelled one included");
        assert_eq!(observe(1000), one);
    }

    #[test]
    fn profiled_and_unprofiled_runs_agree_on_virtual_time() {
        let run = |profile: bool| -> (Vec<u64>, SimTime, KernelStats) {
            let mut k = Kernel::new();
            if profile {
                k.enable_profiler();
            }
            k.set_horizon(at(40));
            let mut out = Log::default();
            k.schedule(
                SimTime::ZERO,
                Ev::Tick {
                    every: 7,
                    until: usize::MAX,
                },
            );
            let end = k.run(&mut out);
            (out.0, end, k.stats())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn take_profile_is_none_without_enable() {
        let mut k = Kernel::new();
        let mut out = Log::default();
        k.schedule(SimTime::ZERO, Ev::Push(1));
        k.run(&mut out);
        assert!(k.take_profile().is_none());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut k = Kernel::new();
        let mut out = Log::default();
        k.schedule(at(10), Ev::Rewind);
        k.run(&mut out);
    }
}
