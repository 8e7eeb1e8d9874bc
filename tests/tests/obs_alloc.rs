//! The allocation budgets: recording a phase event or a span, and rendering
//! either, costs no heap allocation of its own, and a whole Kafka run, a whole
//! AND5 run past the validate knee and the same AND5 run ordered by Raft each
//! stay under a fixed number of allocations per committed transaction — the
//! AND5 run at a modelled VSCC pool of 4 too, since that pool is charged in
//! simulated time, not spawned as host threads, and the AND5 run with its
//! blocks validated ahead on the lane, counting the event thread only.
//!
//! A run's retained memory is held the same way: the bytes its thread holds
//! at its high-water mark may grow by no more than a fixed number per extra
//! committed transaction when the run is four times as long, on Kafka small
//! blocks and on Raft/AND5 over four channels.
//!
//! A counting allocator over [`System`] tallies per thread, so the libtest
//! harness and the other case of this file cannot disturb a measurement; the
//! simulation runs on the calling thread (`sim_workers` 1, so no lane
//! thread frees what this one allocated, or the other way round).
//! Run it optimized in CI (`cargo test --release --test obs_alloc`): the
//! budget is the same either way, only the wall time differs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fabricsim::{OrdererType, PolicySpec, RunResult, SimConfig, Simulation, TxOutcome};

struct Counting;

thread_local! {
    /// Allocations (fresh, zeroed or grown) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated on this thread less the bytes freed on it.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` has been since [`peak_live`] last reset it.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left; nothing measured runs
    // there.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// This thread now holds `delta` more bytes (fewer, when negative).
fn hold(delta: i64) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a `const`-initialized
// thread-local `Cell` without a destructor, so touching it allocates nothing
// and cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        hold(layout.size() as i64);
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        hold(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        hold(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from this allocator, which only ever hands out
        // `System`'s blocks, with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as i64));
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations this thread made while it ran.
fn counting<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// `f`'s result and the most bytes this thread held above where it started
/// while `f` ran: its high-water mark of live heap bytes. Unlike the
/// process's RSS this is exact, and the same on every host.
fn peak_live<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let out = f();
    (out, (PEAK.with(Cell::get) - start) as u64)
}

/// The benchmark's `des_kafka_small_blocks` configuration — Kafka, two
/// transactions a block, below every knee — cut to 10 simulated seconds.
fn kafka_small_blocks() -> SimConfig {
    let mut cfg = SimConfig {
        orderer_type: OrdererType::Kafka,
        broker_count: 5,
        zk_count: 3,
        osn_count: 3,
        endorsing_peers: 2,
        policy: PolicySpec::OrN(2),
        arrival_rate_tps: 90.0,
        duration_secs: 10.0,
        warmup_secs: 4.0,
        cooldown_secs: 2.0,
        sim_workers: 1,
        ..SimConfig::default()
    };
    cfg.batch.max_message_count = 2;
    cfg.cost.validator_pool_size = 1;
    cfg
}

/// The same run with every plane on, as `des_kafka_small_blocks_obs` has it.
fn every_plane_on() -> SimConfig {
    let mut cfg = kafka_small_blocks();
    cfg.obs.trace_events = true;
    cfg.obs.span_events = true;
    cfg.obs.trace_sample = 1.0;
    cfg.obs.health_events = true;
    cfg.obs.profile = true;
    cfg
}

fn run(cfg: SimConfig) -> RunResult {
    let result = Simulation::new(cfg).run_detailed();
    assert!(result.chain_ok);
    result
}

#[test]
fn recording_an_observation_allocates_nothing() {
    let (off, allocs_off) = counting(|| run(kafka_small_blocks()));
    let (on, allocs_on) = counting(|| run(every_plane_on()));
    assert_eq!(
        off.summary.to_json(),
        on.summary.to_json(),
        "the planes are write-only"
    );
    let obs = &on.observability;
    assert_eq!((obs.dropped_events, obs.dropped_spans), (0, 0));
    let records = (obs.events.len() + obs.spans.len()) as u64;
    assert!(records > 20_000, "a run worth measuring: {records} records");
    // What is left is per run, not per record: the two rings, the merge's
    // sort buffers, the sampler's latency vector, the health report and the
    // profiler's label slots.
    let extra = allocs_on.saturating_sub(allocs_off);
    assert!(
        extra * 20 <= records,
        "{extra} allocations for {records} records ({:.3} each; budget 0.05): \
         planes on {allocs_on}, planes off {allocs_off}",
        extra as f64 / records as f64
    );
}

/// Allocations per committed transaction the Kafka small-blocks run may
/// make, planes off. Its three OSNs deliver one shared copy of each block,
/// and each decodes every consumed record with one decoder kept for the run.
/// The count is exact and host-independent, so this is a
/// ratchet like `lint-ratchet.txt`: lower it when a change makes fewer, and
/// never raise it.
const ALLOCS_PER_COMMITTED_TX: f64 = 99.0;

/// The same budget for the benchmark's `des_and5_past_knee` configuration —
/// Solo, AND5 over 10 endorsing and 4 validate-only peers, past the validate
/// knee — cut to 4 simulated seconds. Here the committers' VSCC, MVCC and
/// ledger writes dominate: fourteen ledgers commit every block. A ratchet
/// too.
const AND5_ALLOCS_PER_COMMITTED_TX: f64 = 135.0;

/// The same budget for [`and5_past_knee`] at a modelled VSCC pool of 4,
/// which commits more transactions in the same simulated time. The pool is
/// charged in simulated time only; a host thread spawned per block and
/// validator would add about 1.8 allocations per committed transaction on
/// this thread, and break this budget. A ratchet too, and under the
/// Solo/AND5 one.
const AND5_POOL4_ALLOCS_PER_COMMITTED_TX: f64 = 94.0;
const _: () = assert!(AND5_POOL4_ALLOCS_PER_COMMITTED_TX <= AND5_ALLOCS_PER_COMMITTED_TX);

/// The same budget for [`and5_past_knee`] ordered by a 3-node Raft group:
/// the leader encodes each block once, and every node's log, every
/// `AppendEntries` and every commit share those bytes; each node decodes
/// every committed block with one decoder kept for the run, which shares one
/// role string among all the endorsements it decodes. A ratchet too.
const RAFT_ALLOCS_PER_COMMITTED_TX: f64 = 168.0;

fn and5_past_knee() -> SimConfig {
    let mut cfg = SimConfig {
        orderer_type: OrdererType::Solo,
        endorsing_peers: 10,
        committing_peers: 4,
        policy: PolicySpec::AndX(5),
        arrival_rate_tps: 300.0,
        duration_secs: 4.0,
        warmup_secs: 1.0,
        cooldown_secs: 1.0,
        sim_workers: 1,
        ..SimConfig::default()
    };
    cfg.cost.validator_pool_size = 1;
    cfg
}

/// Runs `cfg`, then holds the allocations this thread made per committed
/// transaction to `budget`, with at least `min_commits` commits to measure.
/// Returns the run.
fn assert_within_budget(cfg: SimConfig, budget: f64, min_commits: usize) -> RunResult {
    let (result, allocs) = counting(|| run(cfg));
    let committed = result
        .traces
        .iter()
        .filter(|t| matches!(t.outcome, TxOutcome::Committed(_)))
        .count();
    assert!(
        committed > min_commits,
        "a run worth measuring: {committed} commits"
    );
    let per_tx = allocs as f64 / committed as f64;
    assert!(
        per_tx <= budget,
        "{allocs} allocations for {committed} committed transactions: {per_tx:.1} each, \
         budget {budget}"
    );
    eprintln!("{allocs} allocations, {committed} committed, {per_tx:.2} per tx");
    result
}

#[test]
fn a_committed_transaction_stays_within_its_allocation_budget() {
    assert_within_budget(kafka_small_blocks(), ALLOCS_PER_COMMITTED_TX, 500);
}

#[test]
fn an_and5_committed_transaction_stays_within_its_allocation_budget() {
    assert_within_budget(and5_past_knee(), AND5_ALLOCS_PER_COMMITTED_TX, 500);
}

#[test]
fn an_and5_transaction_at_a_modelled_pool_of_4_stays_within_the_solo_budget() {
    let mut cfg = and5_past_knee();
    cfg.cost.validator_pool_size = 4;
    assert_within_budget(cfg, AND5_POOL4_ALLOCS_PER_COMMITTED_TX, 500);
}

#[test]
fn an_and5_transaction_validated_beside_the_loop_stays_within_the_solo_budget() {
    // At two workers the one-channel run gets the lane: the event loop stays
    // on this thread and the pure half of each block's validation moves to
    // the lane's. A handoff is per block, so it must not add per-transaction
    // allocations here. A job the event thread steals back allocates here,
    // so the count depends on the host's scheduling: it is held to the
    // inline run's budget, not to one of its own.
    let cfg = SimConfig {
        sim_workers: 2,
        ..and5_past_knee()
    };
    let result = assert_within_budget(cfg, AND5_ALLOCS_PER_COMMITTED_TX, 500);
    let lane = result.observability.lane;
    assert!(lane.jobs > 0, "the lane ran: {lane:?}");
}

#[test]
fn a_raft_committed_transaction_stays_within_its_allocation_budget() {
    let cfg = SimConfig {
        orderer_type: OrdererType::Raft,
        osn_count: 3,
        ..and5_past_knee()
    };
    assert_within_budget(cfg, RAFT_ALLOCS_PER_COMMITTED_TX, 500);
}

#[test]
fn rendering_a_run_costs_a_buffer_per_document() {
    let on = run(every_plane_on());
    let obs = &on.observability;
    let ((events, spans), allocs) = counting(|| (obs.events_jsonl(), obs.spans_jsonl()));
    assert_eq!(events.lines().count(), obs.events.len());
    assert_eq!(spans.lines().count(), obs.spans.len());
    assert!(
        allocs <= 8,
        "{allocs} allocations to render {} lines",
        obs.events.len() + obs.spans.len()
    );
}

/// Bytes of high-water mark a Kafka small-blocks run may add per extra
/// committed transaction between 10 and 40 simulated seconds. What is left
/// grows with every transaction by design, because each `KvPut` writes a
/// new key: every peer's world state and transaction-id set, and the
/// observer's record of the transaction. A ratchet like the allocation
/// budgets: lower it, never raise it.
const KAFKA_RETAINED_BYTES_PER_EXTRA_TX: u64 = 900;

/// The same bound for Raft/AND5 over four channels.
const RAFT_CH4_RETAINED_BYTES_PER_EXTRA_TX: u64 = 2350;

/// Raft/AND5 over four channels: ten endorsing peers, three OSNs a channel.
fn raft_and5_four_channels() -> SimConfig {
    let mut cfg = SimConfig {
        orderer_type: OrdererType::Raft,
        osn_count: 3,
        endorsing_peers: 10,
        policy: PolicySpec::AndX(5),
        channels: 4,
        arrival_rate_tps: 160.0,
        warmup_secs: 1.0,
        cooldown_secs: 1.0,
        sim_workers: 1,
        ..SimConfig::default()
    };
    cfg.cost.validator_pool_size = 1;
    cfg
}

/// The high-water mark of `cfg` run for `secs` simulated seconds, and its
/// committed transactions.
fn retained(cfg: &SimConfig, secs: f64) -> (u64, u64) {
    let cfg = SimConfig {
        duration_secs: secs,
        ..cfg.clone()
    };
    let (result, peak) = peak_live(|| run(cfg));
    let committed = result
        .traces
        .iter()
        .filter(|t| matches!(t.outcome, TxOutcome::Committed(_)))
        .count() as u64;
    (peak, committed)
}

/// Holds the growth of `cfg`'s high-water mark from a run of `l` simulated
/// seconds to one of `4 l` to `bound` bytes per extra committed
/// transaction.
fn assert_retained_per_extra_tx(what: &str, cfg: &SimConfig, l: f64, bound: u64) {
    let (short, short_commits) = retained(cfg, l);
    let (long, long_commits) = retained(cfg, 4.0 * l);
    let extra = long_commits - short_commits;
    assert!(
        extra > 1_000,
        "{what}: a run worth measuring: {extra} more commits"
    );
    let per_tx = long.saturating_sub(short) / extra;
    eprintln!(
        "{what}: {short} B at {short_commits} commits, {long} B at {long_commits}: \
         {per_tx} B per extra committed transaction"
    );
    assert!(
        per_tx <= bound,
        "{what}: {per_tx} B retained per extra committed transaction, bound {bound}"
    );
}

#[test]
fn a_longer_kafka_run_retains_no_more_than_its_bound_per_extra_transaction() {
    let cfg = kafka_small_blocks();
    assert_retained_per_extra_tx("kafka", &cfg, 10.0, KAFKA_RETAINED_BYTES_PER_EXTRA_TX);
}

#[test]
fn a_longer_raft_four_channel_run_retains_no_more_than_its_bound_per_extra_transaction() {
    let cfg = raft_and5_four_channels();
    assert_retained_per_extra_tx("raft ch4", &cfg, 10.0, RAFT_CH4_RETAINED_BYTES_PER_EXTRA_TX);
}
