//! The lane: one queue per run of blocks to validate ahead of the event
//! loops, served by whichever host thread is idle.
//!
//! Validating a block has a pure half — the data-hash proof, intra-block
//! dedup and VSCC, which read nothing from the ledger — and a stateful half
//! — the link check, MVCC and the commit ([`fabricsim_peer::BlockValidator`],
//! [`fabricsim_peer::Peer::commit_prevalidated`]). A peer hands the pure half
//! of the head of its validation queue to the lane; the `validate.commit`
//! handler later takes the result and runs the stateful half on the event
//! thread, at the same simulated instant as before. Nothing simulated can
//! tell the difference: the lane only moves host work between threads.
//!
//! Two kinds of thread serve the queue: the run's spare thread, when the
//! thread budget leaves one over, and every event-loop worker while it
//! waits at a window barrier for the others ([`Lane::help`]).
//!
//! The event thread never depends on the lane to make progress. A job no
//! server has started when the result is needed is *stolen*: computed
//! inline, and skipped by the lane later. A job that is running is waited
//! for on its slot's lock, which its server holds while it computes the
//! job. A job that panicked on the lane is recomputed inline, so the panic
//! surfaces on the event thread exactly where it would without a lane.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::thread::{Scope, ScopedJoinHandle};

use fabricsim_obs::WallClock;
use fabricsim_peer::{BlockValidator, Prevalidated};
use fabricsim_types::Block;

/// Blocks with fewer signatures than this — creator plus endorsements,
/// summed over the block — are validated inline: below it a handoff costs
/// more host CPU than the lane saves (DESIGN.md §10.6).
pub(super) const LANE_MIN_SIGNATURES: usize = 32;

/// What a run's lane did. Only `jobs` is a function of the configuration;
/// the rest depends on how the host scheduled the threads.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LaneStats {
    /// Jobs handed to the lane.
    pub jobs: u64,
    /// Jobs the event thread needed before the lane started them, and
    /// computed inline.
    pub stolen: u64,
    /// Jobs the event thread found running (their slot locked) and waited
    /// for.
    pub waits: u64,
    /// Jobs an event-loop worker computed while it waited at a window
    /// barrier (the rest of the lane's jobs ran on the spare thread).
    pub helped: u64,
    /// Host seconds the lane spent computing jobs, on the spare thread and
    /// at the barriers together.
    pub busy_s: f64,
}

/// How many event-loop threads a run of `channels` worlds gets at
/// `sim_workers`, and whether it also gets a spare thread for the lane:
/// `0` is one event-loop thread, plus the spare thread when the host has a
/// second core; `n ≥ 1` is `min(n, channels)` event-loop threads, plus the
/// spare thread if and only if threads are left over.
pub(super) fn thread_budget(sim_workers: u32, channels: usize) -> (usize, bool) {
    let cores = || std::thread::available_parallelism().map_or(1, |n| n.get());
    match sim_workers as usize {
        0 => (1, cores() >= 2),
        n => (n.min(channels), n > channels),
    }
}

/// The pure half of one peer's validation of one block: the snapshot of
/// what the peer trusted when it handed the block over, and the block.
pub(super) type BlockJob = (Arc<BlockValidator>, Arc<Block>);

/// The lane's work on a [`BlockJob`].
pub(super) fn prevalidate(job: &BlockJob) -> Prevalidated {
    job.0.check(Block::clone(&job.1))
}

/// A world's end of a lane that prevalidates blocks.
pub(super) type BlockLane = LaneHandle<BlockJob, Prevalidated>;

/// Whether `block` carries enough signatures to be worth a handoff.
pub(super) fn worth_handing_over(block: &Block) -> bool {
    let signatures: usize = block
        .transactions
        .iter()
        .map(|tx| 1 + tx.endorsements.len())
        .sum();
    signatures >= LANE_MIN_SIGNATURES
}

enum State<O> {
    Queued,
    Done(O),
    Failed,
    Stolen,
}

/// One job's meeting point between its server and the event thread. The
/// server holds the lock while it computes the job, so a job that is
/// running is a slot that is locked.
type Slot<O> = Mutex<State<O>>;

/// Nothing panics while holding one of the lane's locks (a job runs under
/// `catch_unwind`), so a poisoned one still guards a value that was written
/// whole.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

type Job<I, O> = (Arc<Slot<O>>, I);

/// The jobs waiting for a server, and whether the lane still takes more.
struct Pending<I, O> {
    jobs: VecDeque<Job<I, O>>,
    closed: bool,
    /// The spare thread is asleep on [`Queue::more`].
    parked: bool,
}

/// The queue every server of one lane pops from.
struct Queue<I, O> {
    pending: Mutex<Pending<I, O>>,
    /// Wakes the spare thread when a job arrives or the lane closes.
    more: Condvar,
    work: fn(&I) -> O,
}

impl<I, O> Queue<I, O> {
    fn new(work: fn(&I) -> O) -> Self {
        Queue {
            pending: Mutex::new(Pending {
                jobs: VecDeque::new(),
                closed: false,
                parked: false,
            }),
            more: Condvar::new(),
            work,
        }
    }

    /// Queues `job` unless the lane is closed, and reports whether it did.
    fn push(&self, job: Job<I, O>) -> bool {
        let mut pending = lock(&self.pending);
        if pending.closed {
            return false;
        }
        pending.jobs.push_back(job);
        // A notify costs a system call; an awake spare thread finds the job
        // on its own.
        let wake = pending.parked;
        drop(pending);
        if wake {
            self.more.notify_one();
        }
        true
    }

    /// The next job, if one is queued.
    fn try_pop(&self) -> Option<Job<I, O>> {
        lock(&self.pending).jobs.pop_front()
    }

    /// The next job, sleeping until one is queued; `None` once the lane is
    /// closed and drained.
    fn pop(&self) -> Option<Job<I, O>> {
        let mut pending = lock(&self.pending);
        loop {
            if let Some(job) = pending.jobs.pop_front() {
                return Some(job);
            }
            if pending.closed {
                return None;
            }
            pending.parked = true;
            pending = self
                .more
                .wait(pending)
                .unwrap_or_else(PoisonError::into_inner);
            pending.parked = false;
        }
    }

    /// Stops taking jobs and wakes the spare thread to drain what is left.
    fn close(&self) {
        lock(&self.pending).closed = true;
        self.more.notify_all();
    }

    /// Computes `job` unless it was stolen or nobody holds its ticket any
    /// more, and returns the host seconds it took if it ran.
    fn run(&self, (slot, input): Job<I, O>) -> Option<f64> {
        // Only the lane still holds the slot: its ticket was dropped (the
        // run ended before the commit that needed it), so skip the work.
        if Arc::strong_count(&slot) == 1 {
            return None;
        }
        let mut state = lock(&slot);
        if !matches!(*state, State::Queued) {
            return None;
        }
        let clock = WallClock::start();
        let out = catch_unwind(AssertUnwindSafe(|| (self.work)(&input)));
        let busy_s = clock.elapsed_s();
        *state = out.map_or(State::Failed, State::Done);
        Some(busy_s)
    }
}

/// A job handed to the lane. It keeps its own copy of the input, so whoever
/// holds it can always compute the result itself.
pub(super) struct Ticket<I, O> {
    slot: Arc<Slot<O>>,
    input: I,
}

impl<I, O> Ticket<I, O> {
    /// What the job computes on.
    pub(super) fn input(&self) -> &I {
        &self.input
    }
}

/// One world's end of the lane: it hands jobs over and takes their results.
pub(super) struct LaneHandle<I, O> {
    queue: Arc<Queue<I, O>>,
    stats: LaneStats,
}

impl<I: Clone, O> LaneHandle<I, O> {
    /// Queues `work(&input)` on the lane.
    pub(super) fn hand_over(&mut self, input: I) -> Ticket<I, O> {
        let slot = Arc::new(Mutex::new(State::Queued));
        // A closed lane leaves the slot queued, and `take` steals it.
        if self.queue.push((Arc::clone(&slot), input.clone())) {
            self.stats.jobs += 1;
        }
        Ticket { slot, input }
    }

    /// The job's result: the lane's if it finished, after waiting if it is
    /// running; computed here if the lane has not started it or panicked.
    pub(super) fn take(&mut self, ticket: Ticket<I, O>) -> O {
        let Ticket { slot, input } = ticket;
        let mut state = match slot.try_lock() {
            Ok(state) => state,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            // A server holds the slot while it computes the job: wait for it
            // on the lock.
            Err(TryLockError::WouldBlock) => {
                self.stats.waits += 1;
                lock(&slot)
            }
        };
        match std::mem::replace(&mut *state, State::Stolen) {
            State::Done(out) => return out,
            State::Queued => self.stats.stolen += 1,
            State::Failed | State::Stolen => {}
        }
        drop(state);
        (self.queue.work)(&input)
    }
}

/// The lane of one run: its queue, the spare thread if the run has one,
/// and a tally of the jobs the event-loop workers computed.
pub(super) struct Lane<'scope, I, O> {
    queue: Arc<Queue<I, O>>,
    spare: Option<ScopedJoinHandle<'scope, f64>>,
    /// Jobs computed by [`Lane::help`], and the host seconds they took.
    helped: Mutex<(u64, f64)>,
}

impl<'scope, I: Send + 'scope, O: Send + 'scope> Lane<'scope, I, O> {
    /// Opens a lane in `scope` that runs `work` on every job handed over,
    /// with a thread of its own if `spare_thread`; otherwise only
    /// [`Lane::help`] serves it.
    pub(super) fn start<'env>(
        scope: &'scope Scope<'scope, 'env>,
        work: fn(&I) -> O,
        spare_thread: bool,
    ) -> Self {
        let queue = Arc::new(Queue::new(work));
        let spare = spare_thread.then(|| {
            let queue = Arc::clone(&queue);
            scope.spawn(move || serve(&queue))
        });
        Lane {
            queue,
            spare,
            helped: Mutex::new((0, 0.0)),
        }
    }

    /// A new end for one world.
    pub(super) fn handle(&self) -> LaneHandle<I, O> {
        LaneHandle {
            queue: Arc::clone(&self.queue),
            stats: LaneStats::default(),
        }
    }

    /// Serves one queued job on the calling thread, through the same slot
    /// protocol as the spare thread. Returns whether there was a job.
    pub(super) fn help(&self) -> bool {
        let Some(job) = self.queue.try_pop() else {
            return false;
        };
        if let Some(busy_s) = self.queue.run(job) {
            let mut helped = lock(&self.helped);
            helped.0 += 1;
            helped.1 += busy_s;
        }
        true
    }

    /// Closes the lane, given every handle it gave out, and reports what it
    /// did. The spare thread stops once it has drained the queue.
    pub(super) fn finish(
        mut self,
        handles: impl IntoIterator<Item = LaneHandle<I, O>>,
    ) -> LaneStats {
        let mut stats = LaneStats::default();
        for h in handles {
            stats.jobs += h.stats.jobs;
            stats.stolen += h.stats.stolen;
            stats.waits += h.stats.waits;
        }
        self.queue.close();
        // Every job runs under `catch_unwind`, so the thread itself does not
        // panic; if it did, every result was still taken or recomputed by
        // its event thread, and only its busy time is lost.
        let spare_s = self.spare.take().map_or(0.0, |t| t.join().unwrap_or(0.0));
        let (helped, helped_s) = *lock(&self.helped);
        stats.helped = helped;
        stats.busy_s = spare_s + helped_s;
        stats
    }
}

impl<I, O> Drop for Lane<'_, I, O> {
    /// A lane dropped without [`Lane::finish`] (an event loop panicked)
    /// still lets its spare thread go, so the run's scope can end.
    fn drop(&mut self) {
        self.queue.close();
    }
}

/// The spare thread: runs each queued job nobody has stolen until the lane
/// is closed and drained, and returns the host seconds it spent on them.
fn serve<I, O>(queue: &Queue<I, O>) -> f64 {
    let mut busy_s = 0.0;
    while let Some(job) = queue.pop() {
        busy_s += queue.run(job).unwrap_or(0.0);
    }
    busy_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    /// A job's input: a number, and a count of the times it was computed.
    type Counted = (u64, Arc<AtomicU64>);

    fn plus_one(x: &Counted) -> u64 {
        x.1.fetch_add(1, Ordering::SeqCst);
        x.0 + 1
    }

    fn counted(x: u64) -> Counted {
        (x, Arc::new(AtomicU64::new(0)))
    }

    fn runs(x: &Counted) -> u64 {
        x.1.load(Ordering::SeqCst)
    }

    /// A handle whose lane is played by hand through the returned queue.
    fn by_hand() -> (LaneHandle<Counted, u64>, Arc<Queue<Counted, u64>>) {
        let queue = Arc::new(Queue::new(plus_one));
        let handle = LaneHandle {
            queue: Arc::clone(&queue),
            stats: LaneStats::default(),
        };
        (handle, queue)
    }

    #[test]
    fn a_job_still_queued_is_stolen_and_the_lane_skips_it() {
        let (mut handle, queue) = by_hand();
        let input = counted(41);
        let ticket = handle.hand_over(input.clone());
        let slot = Arc::clone(&ticket.slot);
        assert_eq!(handle.take(ticket), 42);
        assert_eq!((handle.stats.jobs, handle.stats.stolen), (1, 1));
        assert_eq!(handle.stats.waits, 0);
        // The lane finds the job stolen and leaves it alone.
        drop(handle);
        queue.close();
        assert_eq!(serve(&queue), 0.0);
        assert!(matches!(*lock(&slot), State::Stolen));
        assert_eq!(runs(&input), 1, "computed once, inline");
    }

    #[test]
    fn a_running_job_is_waited_for() {
        let (mut handle, queue) = by_hand();
        let ticket = handle.hand_over(counted(20));
        // Play the server: hold the slot as the lane does while it computes,
        // take the job on another thread, and only then write the result.
        let (slot, input) = queue.try_pop().unwrap();
        let mut state = lock(&slot);
        assert!(matches!(*state, State::Queued));
        let written = AtomicBool::new(false);
        std::thread::scope(|s| {
            let taker = s.spawn(|| {
                let out = handle.take(ticket);
                (out, written.load(Ordering::SeqCst))
            });
            // Time for the taker to find the slot locked; the asserts below
            // hold whichever thread gets there first.
            for _ in 0..1000 {
                std::thread::yield_now();
            }
            *state = State::Done(input.0 + 1000);
            written.store(true, Ordering::SeqCst);
            drop(state);
            // The lane's answer, not a recomputation: 1020, not 21, and not
            // before it was written.
            assert_eq!(taker.join().unwrap(), (1020, true));
        });
        assert_eq!(runs(&input), 0);
        assert_eq!(handle.stats.stolen, 0);
        // The taker found the slot locked, unless it only got there after
        // the result was written.
        assert!(handle.stats.waits <= 1, "{:?}", handle.stats);
    }

    #[test]
    fn a_done_job_is_taken_without_waiting_or_recomputing() {
        let input = counted(1);
        std::thread::scope(|s| {
            let lane = Lane::start(s, plus_one, true);
            let mut handle = lane.handle();
            let ticket = handle.hand_over(input.clone());
            while !matches!(*lock(&ticket.slot), State::Done(_)) {
                std::thread::yield_now();
            }
            assert_eq!(handle.take(ticket), 2);
            let stats = lane.finish([handle]);
            assert_eq!((stats.jobs, stats.stolen, stats.waits), (1, 0, 0));
            assert!(stats.busy_s >= 0.0);
        });
        assert_eq!(runs(&input), 1, "computed once, on the lane");
    }

    #[test]
    fn a_job_that_panics_on_the_lane_is_recomputed_inline_and_nothing_hangs() {
        fn fragile(x: &Counted) -> u64 {
            x.1.fetch_add(1, Ordering::SeqCst);
            assert!(x.0 != 13, "unlucky input {}", x.0);
            x.0 + 1
        }
        let input = counted(13);
        let outcome = std::panic::catch_unwind(|| {
            std::thread::scope(|s| {
                let lane = Lane::start(s, fragile, true);
                let mut handle = lane.handle();
                let ticket = handle.hand_over(input.clone());
                while !matches!(*lock(&ticket.slot), State::Failed) {
                    std::thread::yield_now();
                }
                // The same panic, raised again on this thread.
                handle.take(ticket)
            })
        });
        let payload = outcome.expect_err("the inline recomputation panics");
        let message = payload.downcast_ref::<String>().map(String::as_str);
        assert_eq!(message, Some("unlucky input 13"));
        assert_eq!(runs(&input), 2, "once on the lane, once inline");
        // A lane whose job panicked keeps serving.
        std::thread::scope(|s| {
            let lane = Lane::start(s, fragile, true);
            let mut handle = lane.handle();
            let bad = handle.hand_over(counted(13));
            let good = handle.hand_over(counted(1));
            assert_eq!(handle.take(good), 2);
            drop(bad);
            assert_eq!(lane.finish([handle]).jobs, 2);
        });
    }

    #[test]
    fn jobs_whose_tickets_are_gone_are_skipped_at_close() {
        let (mut handle, queue) = by_hand();
        let input = counted(0);
        for _ in 0..8 {
            drop(handle.hand_over(input.clone()));
        }
        drop(handle);
        queue.close();
        assert_eq!(serve(&queue), 0.0);
        assert_eq!(runs(&input), 0);
    }

    #[test]
    fn a_closed_lane_takes_no_job_and_the_event_thread_computes_it() {
        let (mut handle, queue) = by_hand();
        queue.close();
        let input = counted(7);
        let ticket = handle.hand_over(input.clone());
        assert!(queue.try_pop().is_none());
        assert_eq!(handle.take(ticket), 8);
        assert_eq!((handle.stats.jobs, handle.stats.stolen), (0, 1));
        assert_eq!(runs(&input), 1);
    }

    #[test]
    fn the_spare_thread_and_two_helpers_compute_each_job_exactly_once() {
        const JOBS: u64 = 200;
        let inputs: Vec<Counted> = (0..JOBS).map(counted).collect();
        std::thread::scope(|s| {
            let lane = Lane::start(s, plus_one, true);
            let mut handle = lane.handle();
            let tickets: Vec<_> = inputs.iter().map(|x| handle.hand_over(x.clone())).collect();
            // Two workers waiting at a barrier, each serving until the
            // queue is empty.
            std::thread::scope(|helpers| {
                for _ in 0..2 {
                    helpers.spawn(|| while lane.help() {});
                }
            });
            for (x, ticket) in (0..JOBS).zip(tickets) {
                assert_eq!(handle.take(ticket), x + 1);
            }
            let stats = lane.finish([handle]);
            assert_eq!(stats.jobs, JOBS);
            assert!(stats.helped + stats.stolen <= JOBS, "{stats:?}");
        });
        for x in &inputs {
            assert_eq!(runs(x), 1, "job {} computed {} times", x.0, runs(x));
        }
    }

    #[test]
    fn helpers_alone_serve_a_lane_without_a_spare_thread() {
        let input = counted(5);
        std::thread::scope(|s| {
            let lane = Lane::start(s, plus_one, false);
            assert!(!lane.help(), "nothing queued");
            let mut handle = lane.handle();
            let ticket = handle.hand_over(input.clone());
            assert!(lane.help());
            assert!(!lane.help());
            assert_eq!(handle.take(ticket), 6);
            let stats = lane.finish([handle]);
            assert_eq!((stats.jobs, stats.helped), (1, 1));
            assert_eq!((stats.stolen, stats.waits), (0, 0));
            assert!(stats.busy_s >= 0.0);
        });
        assert_eq!(runs(&input), 1, "computed once, by the helper");
    }

    #[test]
    fn the_thread_budget_follows_sim_workers() {
        // One event-loop thread at the default, the spare thread beside it
        // on a host with a second core.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(thread_budget(0, 1), (1, cores >= 2));
        assert_eq!(thread_budget(0, 4), (1, cores >= 2));
        // Exactly one thread.
        assert_eq!(thread_budget(1, 1), (1, false));
        assert_eq!(thread_budget(1, 4), (1, false));
        // A spare thread only with threads to spare.
        assert_eq!(thread_budget(2, 1), (1, true));
        assert_eq!(thread_budget(2, 4), (2, false));
        assert_eq!(thread_budget(4, 4), (4, false));
        assert_eq!(thread_budget(5, 4), (4, true));
    }
}
