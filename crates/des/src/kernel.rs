//! The event loop: a time-ordered heap of boxed event handlers.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::time::Instant;

use crate::profiler::{elapsed_ns, lap_ns, KernelProfile, ProfilerState};
use crate::time::{SimDuration, SimTime};

/// Identifier of a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Kernel<W>) + Send>;

struct Scheduled<W> {
    time: SimTime,
    seq: u64,
    id: EventId,
    label: &'static str,
    run: EventFn<W>,
}

impl<W> PartialEq for Scheduled<W> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<W> Eq for Scheduled<W> {}
impl<W> PartialOrd for Scheduled<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for Scheduled<W> {
    // Reversed: BinaryHeap is a max-heap, we want the earliest event on top.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
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

/// A deterministic discrete-event kernel over a world type `W`.
///
/// Events are closures `FnOnce(&mut W, &mut Kernel<W>)`; ties in time are broken
/// by insertion order, which makes runs bit-reproducible.
///
/// ```
/// use fabricsim_des::{Kernel, SimTime, SimDuration};
/// let mut k: Kernel<Vec<&'static str>> = Kernel::new();
/// let mut log = Vec::new();
/// k.schedule_in(SimDuration::from_secs(1), |w: &mut Vec<_>, _| w.push("b"));
/// k.schedule_in(SimDuration::ZERO, |w: &mut Vec<_>, _| w.push("a"));
/// k.run(&mut log);
/// assert_eq!(log, vec!["a", "b"]);
/// ```
pub struct Kernel<W> {
    now: SimTime,
    seq: u64,
    next_id: u64,
    heap: BinaryHeap<Scheduled<W>>,
    cancelled: HashSet<EventId>,
    stats: KernelStats,
    horizon: SimTime,
    profiler: Option<Box<ProfilerState>>,
}

impl<W> Default for Kernel<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> std::fmt::Debug for Kernel<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<W> Kernel<W> {
    /// Creates an empty kernel with the clock at [`SimTime::ZERO`] and no horizon.
    pub fn new() -> Self {
        Kernel {
            now: SimTime::ZERO,
            seq: 0,
            next_id: 0,
            heap: BinaryHeap::new(),
            cancelled: HashSet::new(),
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
        self.heap.len()
    }

    /// Stops the run once the clock would pass `t`; events at exactly `t` still fire.
    pub fn set_horizon(&mut self, t: SimTime) {
        self.horizon = t;
    }

    /// Schedules `f` to run at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past (`at < self.now()`).
    pub fn schedule<F>(&mut self, at: SimTime, f: F) -> EventId
    where
        F: FnOnce(&mut W, &mut Kernel<W>) + Send + 'static,
    {
        self.schedule_labeled(at, "unlabeled", f)
    }

    /// Schedules `f` to run after `delay` from the current time.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, f: F) -> EventId
    where
        F: FnOnce(&mut W, &mut Kernel<W>) + Send + 'static,
    {
        self.schedule(self.now + delay, f)
    }

    /// Schedules `f` at absolute time `at` under a static profiling label
    /// (the event-family name the self-profiler attributes host time to).
    /// Identical to [`Kernel::schedule`] in every simulated respect.
    ///
    /// # Panics
    /// Panics if `at` is in the past (`at < self.now()`).
    pub fn schedule_labeled<F>(&mut self, at: SimTime, label: &'static str, f: F) -> EventId
    where
        F: FnOnce(&mut W, &mut Kernel<W>) + Send + 'static,
    {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        let id = EventId(self.next_id);
        self.next_id += 1;
        self.seq += 1;
        self.stats.scheduled += 1;
        self.heap.push(Scheduled {
            time: at,
            seq: self.seq,
            id,
            label,
            run: Box::new(f),
        });
        id
    }

    /// Labeled form of [`Kernel::schedule_in`].
    pub fn schedule_in_labeled<F>(
        &mut self,
        delay: SimDuration,
        label: &'static str,
        f: F,
    ) -> EventId
    where
        F: FnOnce(&mut W, &mut Kernel<W>) + Send + 'static,
    {
        self.schedule_labeled(self.now + delay, label, f)
    }

    /// Cancels a previously scheduled event. Cancelling an already-fired or
    /// already-cancelled event is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        if self.cancelled.insert(id) {
            self.stats.cancelled += 1;
        }
    }

    /// Runs the event loop until the queue drains or the horizon is reached.
    /// Returns the final virtual time. This is [`Kernel::run_until`] driven
    /// through the horizon inclusively, so an event at `SimTime::MAX` itself
    /// lies past every horizon (as it does on [`crate::ShardedKernel`]).
    pub fn run(&mut self, world: &mut W) -> SimTime {
        let limit = SimTime::from_nanos(self.horizon.as_nanos().saturating_add(1));
        self.run_until(world, limit);
        if !self.heap.is_empty() {
            // Past the horizon: put nothing back; the run is over.
            self.now = self.horizon;
            self.heap.clear();
        }
        self.now
    }

    /// The virtual time of the earliest *live* pending event, purging any
    /// cancelled tombstones sitting at the top of the heap on the way.
    /// Returns `None` when nothing live is pending. Purging is observable
    /// only through [`Kernel::pending`]; execution order is unaffected.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        while let Some(head) = self.heap.peek() {
            if !self.cancelled.contains(&head.id) {
                return Some(head.time);
            }
            if let Some(ev) = self.heap.pop() {
                self.cancelled.remove(&ev.id);
            }
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
        loop {
            let head_runs = match self.heap.peek() {
                Some(head) => head.time < limit,
                None => false,
            };
            if !head_runs {
                break;
            }
            let popped = self.heap.pop();
            if let (Some(p), Some(m)) = (self.profiler.as_mut(), mark.as_mut()) {
                p.record_heap(lap_ns(m));
            }
            let Some(ev) = popped else { break };
            debug_assert!(ev.time >= self.now, "event heap produced time regression");
            self.now = ev.time;
            if self.cancelled.remove(&ev.id) {
                continue;
            }
            self.stats.executed += 1;
            executed += 1;
            (ev.run)(world, self);
            if let (Some(p), Some(m)) = (self.profiler.as_mut(), mark.as_mut()) {
                p.record_handler(ev.label, lap_ns(m));
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

    #[test]
    fn events_fire_in_time_order() {
        let mut k: Kernel<Vec<u64>> = Kernel::new();
        let mut out = Vec::new();
        k.schedule(SimTime::from_nanos(30), |w: &mut Vec<u64>, _| w.push(30));
        k.schedule(SimTime::from_nanos(10), |w: &mut Vec<u64>, _| w.push(10));
        k.schedule(SimTime::from_nanos(20), |w: &mut Vec<u64>, _| w.push(20));
        k.run(&mut out);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut k: Kernel<Vec<u64>> = Kernel::new();
        let mut out = Vec::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            k.schedule(t, move |w: &mut Vec<u64>, _| w.push(i));
        }
        k.run(&mut out);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        let mut k: Kernel<Vec<u64>> = Kernel::new();
        let mut out = Vec::new();
        fn tick(w: &mut Vec<u64>, k: &mut Kernel<Vec<u64>>) {
            w.push(k.now().as_nanos());
            if w.len() < 5 {
                k.schedule_in(SimDuration::from_nanos(7), tick);
            }
        }
        k.schedule(SimTime::ZERO, tick);
        let end = k.run(&mut out);
        assert_eq!(out, vec![0, 7, 14, 21, 28]);
        assert_eq!(end, SimTime::from_nanos(28));
    }

    #[test]
    fn cancellation_skips_events() {
        let mut k: Kernel<Vec<u64>> = Kernel::new();
        let mut out = Vec::new();
        let id = k.schedule(SimTime::from_nanos(10), |w: &mut Vec<u64>, _| w.push(1));
        k.schedule(SimTime::from_nanos(20), |w: &mut Vec<u64>, _| w.push(2));
        k.cancel(id);
        k.cancel(id); // double-cancel is a no-op
        k.run(&mut out);
        assert_eq!(out, vec![2]);
        assert_eq!(k.stats().cancelled, 1);
        assert_eq!(k.stats().executed, 1);
        assert_eq!(k.stats().scheduled, 2);
    }

    #[test]
    fn horizon_stops_the_run() {
        let mut k: Kernel<Vec<u64>> = Kernel::new();
        let mut out = Vec::new();
        k.set_horizon(SimTime::from_nanos(15));
        k.schedule(SimTime::from_nanos(10), |w: &mut Vec<u64>, _| w.push(10));
        k.schedule(SimTime::from_nanos(15), |w: &mut Vec<u64>, _| w.push(15));
        k.schedule(SimTime::from_nanos(20), |w: &mut Vec<u64>, _| w.push(20));
        let end = k.run(&mut out);
        assert_eq!(out, vec![10, 15]);
        assert_eq!(end, SimTime::from_nanos(15));
        assert_eq!(k.pending(), 0);
    }

    #[test]
    fn run_until_executes_events_before_the_limit() {
        let mut k: Kernel<Vec<u64>> = Kernel::new();
        let mut out = Vec::new();
        for i in 0..10u64 {
            k.schedule(SimTime::from_nanos(i), move |w: &mut Vec<u64>, _| w.push(i));
        }
        assert_eq!(k.run_until(&mut out, SimTime::from_nanos(3)), 3);
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(k.now(), SimTime::from_nanos(2), "the clock stays put");
        assert_eq!(k.run_until(&mut out, SimTime::from_nanos(100)), 7);
    }

    #[test]
    fn run_is_run_until_driven_through_the_horizon() {
        // The horizon and cancel fixtures above, driven both ways.
        type Drive = fn(&mut Kernel<Vec<u64>>, &mut Vec<u64>, SimTime);
        let via_run: Drive = |k, w, _| {
            k.run(w);
        };
        let via_run_until: Drive = |k, w, horizon| {
            k.run_until(w, SimTime::from_nanos(horizon.as_nanos() + 1));
        };
        let horizon = SimTime::from_nanos(15);
        let observe = |drive: Drive| {
            let mut k: Kernel<Vec<u64>> = Kernel::new();
            let mut out = Vec::new();
            k.enable_profiler();
            k.set_horizon(horizon);
            let doomed = k.schedule(SimTime::from_nanos(5), |w: &mut Vec<u64>, _| w.push(5));
            k.schedule(SimTime::from_nanos(10), |w: &mut Vec<u64>, _| w.push(10));
            k.schedule(SimTime::from_nanos(15), |w: &mut Vec<u64>, _| w.push(15));
            k.schedule(SimTime::from_nanos(20), |w: &mut Vec<u64>, _| w.push(20));
            k.cancel(doomed);
            drive(&mut k, &mut out, horizon);
            let profile = k.take_profile().expect("profile collected");
            (out, k.now(), k.stats(), profile.heap_ops)
        };
        let expected = observe(via_run);
        assert_eq!(expected.0, vec![10, 15]);
        assert_eq!(expected.1, horizon);
        assert_eq!(observe(via_run_until), expected);
    }

    #[test]
    fn profiler_attributes_every_executed_handler() {
        let mut k: Kernel<Vec<u64>> = Kernel::new();
        let mut out = Vec::new();
        k.enable_profiler();
        assert!(k.profiling());
        for i in 0..50u64 {
            k.schedule_labeled(
                SimTime::from_nanos(i),
                "tick",
                move |w: &mut Vec<u64>, _| w.push(i),
            );
        }
        let cancel_me = k.schedule_labeled(SimTime::from_nanos(100), "doomed", |_, _| {});
        k.cancel(cancel_me);
        k.schedule(SimTime::from_nanos(200), |w: &mut Vec<u64>, _| w.push(200));
        k.run(&mut out);
        assert_eq!(out.len(), 51, "profiling must not change execution");
        let profile = k.take_profile().expect("profile collected");
        assert!(!k.profiling(), "take_profile resets the kernel");
        let by_label: Vec<(&str, u64)> = profile
            .entries
            .iter()
            .map(|e| (e.label.as_str(), e.count))
            .collect();
        assert!(by_label.contains(&("tick", 50)), "{by_label:?}");
        assert!(by_label.contains(&("unlabeled", 1)), "{by_label:?}");
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
            let mut k: Kernel<Vec<u64>> = Kernel::new();
            let mut out = Vec::new();
            k.enable_profiler();
            for i in 0..3000u64 {
                let label = [tick, "tock", tick_twin][(i % 3) as usize];
                k.schedule_labeled(SimTime::from_nanos(i), label, move |w: &mut Vec<u64>, k| {
                    w.push(i);
                    if i % 100 == 0 {
                        k.schedule_in_labeled(SimDuration::from_nanos(1), "echo", |_, _| {});
                    }
                });
            }
            let doomed = k.schedule_labeled(SimTime::from_nanos(1500), "doomed", |_, _| {});
            k.cancel(doomed);
            // The sharded engine's calling pattern: many short windows, most
            // of which find little or nothing to run.
            let span = 4000 / windows;
            let executed: u64 = (1..=windows)
                .map(|w| k.run_until(&mut out, SimTime::from_nanos(w * span)))
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
            (out, counts, profile.heap_ops)
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
            let mut k: Kernel<Vec<u64>> = Kernel::new();
            if profile {
                k.enable_profiler();
            }
            k.set_horizon(SimTime::from_nanos(40));
            let mut out = Vec::new();
            fn tick(w: &mut Vec<u64>, k: &mut Kernel<Vec<u64>>) {
                w.push(k.now().as_nanos());
                k.schedule_in_labeled(SimDuration::from_nanos(7), "tick", tick);
            }
            k.schedule_labeled(SimTime::ZERO, "tick", tick);
            let end = k.run(&mut out);
            (out, end, k.stats())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn take_profile_is_none_without_enable() {
        let mut k: Kernel<Vec<u64>> = Kernel::new();
        let mut out = Vec::new();
        k.schedule(SimTime::ZERO, |w: &mut Vec<u64>, _| w.push(1));
        k.run(&mut out);
        assert!(k.take_profile().is_none());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut k: Kernel<Vec<u64>> = Kernel::new();
        let mut out = Vec::new();
        k.schedule(SimTime::from_nanos(10), |_: &mut Vec<u64>, k| {
            k.schedule(SimTime::from_nanos(5), |_, _| {});
        });
        k.run(&mut out);
    }
}
