//! FIFO multi-server service stations with closed-form completion times.
//!
//! A [`Station`] models `c` identical servers in front of an unbounded FIFO
//! queue (an M/G/c-style station under FIFO). Because FIFO completion order for
//! work submitted in time order is fully determined by server-free times, the
//! station computes each job's completion instant *at submission* instead of
//! simulating per-job events — exact, and much faster for large sweeps.

use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A FIFO service station with `c` servers.
///
/// ```
/// use fabricsim_des::{Station, SimTime, SimDuration};
/// let mut cpu = Station::new("peer0.cpu", 2);
/// let t0 = SimTime::ZERO;
/// let d = SimDuration::from_millis(10);
/// assert_eq!(cpu.submit(t0, d), t0 + d);                 // server 1 free
/// assert_eq!(cpu.submit(t0, d), t0 + d);                 // server 2 free
/// assert_eq!(cpu.submit(t0, d), t0 + d + d);             // queued behind server 1
/// ```
#[derive(Debug, Clone)]
pub struct Station {
    name: String,
    /// Per-server next-free instants; kept as a small vec (c is small).
    free_at: Vec<SimTime>,
    busy: SimDuration,
    jobs: u64,
    total_wait: SimDuration,
    last_submit: SimTime,
    /// Completion instants of in-flight jobs, ascending; drained lazily at
    /// each submit so memory stays bounded by the in-flight population.
    completions: VecDeque<SimTime>,
}

impl Station {
    /// Creates a station with `servers` identical servers.
    ///
    /// # Panics
    /// Panics if `servers == 0`.
    pub fn new(name: impl Into<String>, servers: usize) -> Self {
        assert!(servers > 0, "a station needs at least one server");
        Station {
            name: name.into(),
            free_at: vec![SimTime::ZERO; servers],
            busy: SimDuration::ZERO,
            jobs: 0,
            total_wait: SimDuration::ZERO,
            last_submit: SimTime::ZERO,
            completions: VecDeque::new(),
        }
    }

    /// The station's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.free_at.len()
    }

    /// Submits a job arriving at `now` needing `service` time; returns the
    /// completion instant under FIFO scheduling.
    ///
    /// # Panics
    /// Panics if submissions go backwards in time (the FIFO closed form relies
    /// on time-ordered submission).
    pub fn submit(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        self.submit_ready(now, now, service)
    }

    /// Submits a job that *arrives* (joins the FIFO queue) at `now` but only
    /// becomes *ready to run* at `ready >= now`; returns the completion
    /// instant. The server is chosen at arrival (FIFO order is preserved), yet
    /// service starts no earlier than `ready` — this models a downstream stage
    /// whose input is produced at a known future instant by an upstream stage
    /// (e.g. a commit stage fed by VSCC). Queueing delay is accounted from
    /// `ready`, not from `now`. `submit(now, s)` ≡ `submit_ready(now, now, s)`.
    ///
    /// # Panics
    /// Panics if *arrival* times go backwards (the FIFO closed form relies on
    /// arrival-ordered submission); `ready` instants need not be monotone.
    pub fn submit_ready(&mut self, now: SimTime, ready: SimTime, service: SimDuration) -> SimTime {
        assert!(
            now >= self.last_submit,
            "station {}: submissions must be time-ordered",
            self.name
        );
        self.last_submit = now;
        let ready = ready.max(now);
        // Earliest-free server takes the job.
        #[expect(
            clippy::expect_used,
            reason = "station construction validates at least one server"
        )]
        let (idx, &free) = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .expect("at least one server");
        let start = ready.max(free);
        let done = start + service;
        self.free_at[idx] = done;
        self.jobs += 1;
        self.busy += service;
        self.total_wait += start - ready;
        while self.completions.front().is_some_and(|&t| t <= now) {
            self.completions.pop_front();
        }
        // Multi-server completions are not monotone in submission order
        // (a short job on a free server overtakes a long one), so insert
        // sorted; the insertion point is almost always near the back.
        let idx = self.completions.partition_point(|&t| t <= done);
        self.completions.insert(idx, done);
        done
    }

    /// The instant at which a job submitted `now` would *start* service.
    pub fn would_start_at(&self, now: SimTime) -> SimTime {
        let free = self.free_at.iter().min().copied().unwrap_or(SimTime::ZERO);
        now.max(free)
    }

    /// Exact number of jobs in the system (in service *or* queued) at `now`,
    /// for `now` no earlier than the last submission. This is the queue-depth
    /// gauge sampled by the observability layer.
    pub fn jobs_in_system(&self, now: SimTime) -> usize {
        self.completions.len() - self.completions.partition_point(|&t| t <= now)
    }

    /// Total jobs submitted.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Aggregate busy time across all servers.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Aggregate queueing delay experienced by submitted jobs.
    pub fn total_wait(&self) -> SimDuration {
        self.total_wait
    }

    /// Mean utilization over `[0, now]` across the `c` servers (may slightly
    /// exceed 1.0 if work is still queued beyond `now`).
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        self.busy.as_secs_f64() / (now.as_secs_f64() * self.servers() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }
    fn at(x: u64) -> SimTime {
        SimTime::from_nanos(x * 1_000_000)
    }

    #[test]
    fn single_server_fifo() {
        let mut s = Station::new("cpu", 1);
        assert_eq!(s.submit(at(0), ms(10)), at(10));
        assert_eq!(s.submit(at(0), ms(10)), at(20));
        assert_eq!(s.submit(at(5), ms(10)), at(30));
        // A job arriving after the backlog drains starts immediately.
        assert_eq!(s.submit(at(100), ms(10)), at(110));
        assert_eq!(s.jobs(), 4);
        assert_eq!(s.busy_time(), ms(40));
        assert_eq!(s.total_wait(), ms(10) + ms(15));
    }

    #[test]
    fn multi_server_parallelism() {
        let mut s = Station::new("cpu", 3);
        for _ in 0..3 {
            assert_eq!(s.submit(at(0), ms(10)), at(10));
        }
        // Fourth job waits for the earliest server.
        assert_eq!(s.submit(at(0), ms(10)), at(20));
        assert_eq!(s.jobs_in_system(at(5)), 4);
        assert_eq!(s.jobs_in_system(at(15)), 1);
        assert_eq!(s.jobs_in_system(at(25)), 0);
    }

    #[test]
    fn jobs_in_system_counts_queued_and_serving() {
        let mut s = Station::new("cpu", 2);
        s.submit(at(0), ms(10)); // done at 10
        s.submit(at(0), ms(30)); // done at 30
        s.submit(at(0), ms(10)); // queued behind server 1, done at 20
        assert_eq!(s.jobs_in_system(at(0)), 3);
        assert_eq!(s.jobs_in_system(at(10)), 2); // first job finished at exactly 10
        assert_eq!(s.jobs_in_system(at(25)), 1);
        assert_eq!(s.jobs_in_system(at(30)), 0);
        // Lazy drain at submit keeps the window bounded and counts correct.
        s.submit(at(40), ms(5));
        assert_eq!(s.jobs_in_system(at(40)), 1);
        assert_eq!(s.jobs_in_system(at(45)), 0);
    }

    #[test]
    fn jobs_in_system_handles_out_of_order_completions() {
        let mut s = Station::new("cpu", 2);
        s.submit(at(0), ms(100)); // done at 100
        s.submit(at(1), ms(1)); // overtakes: done at 2
        assert_eq!(s.jobs_in_system(at(1)), 2);
        assert_eq!(s.jobs_in_system(at(5)), 1);
        assert_eq!(s.jobs_in_system(at(100)), 0);
    }

    #[test]
    fn utilization_accounts_all_servers() {
        let mut s = Station::new("cpu", 2);
        s.submit(at(0), ms(10));
        // One server busy 10ms of a 10ms window over 2 servers => 0.5.
        assert!((s.utilization(at(10)) - 0.5).abs() < 1e-9);
        assert_eq!(s.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn would_start_at_matches_submit() {
        let mut s = Station::new("cpu", 1);
        s.submit(at(0), ms(10));
        assert_eq!(s.would_start_at(at(3)), at(10));
        assert_eq!(s.would_start_at(at(30)), at(30));
    }

    #[test]
    fn submit_ready_defers_service_start() {
        let mut s = Station::new("commit", 1);
        // Arrives at 0, but input only ready at 10: service runs 10..15.
        assert_eq!(s.submit_ready(at(0), at(10), ms(5)), at(15));
        // No queueing was experienced: the job started the moment it was ready.
        assert_eq!(s.total_wait(), SimDuration::ZERO);
        // Next job arrives at 2, ready at 12, but the server is busy until 15.
        assert_eq!(s.submit_ready(at(2), at(12), ms(5)), at(20));
        assert_eq!(s.total_wait(), ms(3));
        assert_eq!(s.busy_time(), ms(10));
    }

    #[test]
    fn submit_ready_with_ready_now_matches_submit() {
        let mut a = Station::new("a", 2);
        let mut b = Station::new("b", 2);
        for (t, d) in [(0, 10), (0, 30), (5, 10), (40, 5)] {
            assert_eq!(a.submit(at(t), ms(d)), b.submit_ready(at(t), at(t), ms(d)));
        }
        assert_eq!(a.total_wait(), b.total_wait());
        assert_eq!(a.busy_time(), b.busy_time());
    }

    #[test]
    fn submit_ready_allows_non_monotone_ready_instants() {
        let mut s = Station::new("commit", 2);
        // Block A on server 1 is ready late; block B arrives later but is
        // ready earlier (its VSCC stage was shorter). Arrival order is
        // monotone, so this must not panic, and B may finish first.
        assert_eq!(s.submit_ready(at(0), at(50), ms(5)), at(55));
        assert_eq!(s.submit_ready(at(1), at(10), ms(5)), at(15));
    }

    #[test]
    fn submit_ready_clamps_ready_to_arrival() {
        let mut s = Station::new("cpu", 1);
        assert_eq!(s.submit_ready(at(10), at(0), ms(5)), at(15));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_submission_panics() {
        let mut s = Station::new("cpu", 1);
        s.submit(at(10), ms(1));
        s.submit(at(5), ms(1));
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_panics() {
        Station::new("cpu", 0);
    }
}
