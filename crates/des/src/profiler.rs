//! Host-time self-profiling of the event loop.
//!
//! The kernel's virtual clock says nothing about where *host* CPU time goes
//! — which is exactly the data ROADMAP's parallel-kernel work needs: which
//! event families dominate the loop, how much the heap costs, and how much
//! the loop spends outside both. When profiling is enabled
//! ([`crate::Kernel::enable_profiler`]), the loop reads the host's monotonic
//! clock twice per event — after the heap pop and after the handler — and
//! each read attributes everything since the previous one ([`lap_ns`]): to
//! the heap, or to the event's static label ([`crate::Model::label`]).
//! "Heap" names the kernel's event queue, a radix queue since it replaced a
//! 4-ary heap; the name stays because `heap_ns` and `heap_ops` are fields of
//! every profile artifact.
//!
//! The profiler is **write-only with respect to the simulation**: it reads
//! the host clock but no simulation state ever reads the profiler, so an
//! enabled profiler cannot perturb virtual-time results — the determinism
//! suite locks byte-identical reports with the profiler on and off.
//!
//! Accounting invariant: `Σ label ns + heap ns + overhead ns == loop ns`
//! exactly — overhead is *defined* as the unattributed remainder of the
//! measured loop wall time, so the report always reconciles with what a
//! stopwatch around `run()` sees. Because the reads are chained, the
//! remainder is only what no lap covers: from the last handler's read to the
//! end of each `run_until` call.

use std::fmt::Write as _;
use std::time::Instant;

/// Mutable profiling state carried inside the kernel while it runs.
#[derive(Debug, Default)]
pub(crate) struct ProfilerState {
    /// One slot per label text, in first-seen order.
    slots: Vec<LabelSlot>,
    /// The slot the previous handler landed in, tried first.
    last: usize,
    heap_ns: u64,
    heap_ops: u64,
    loop_ns: u64,
}

#[derive(Debug)]
struct LabelSlot {
    label: &'static str,
    count: u64,
    ns: u64,
}

impl ProfilerState {
    pub(crate) fn record_handler(&mut self, label: &'static str, ns: u64) {
        let hit = match self.slots.get(self.last) {
            Some(slot) if std::ptr::eq(slot.label, label) => self.last,
            _ => self.slot_of(label),
        };
        self.last = hit;
        let slot = &mut self.slots[hit];
        slot.count += 1;
        slot.ns += ns;
    }

    /// The slot of `label`: a label is almost always the same `&'static str`
    /// it was last time, so addresses are compared first; two statics with
    /// equal text still share one slot.
    fn slot_of(&mut self, label: &'static str) -> usize {
        let slots = &self.slots;
        let found = slots
            .iter()
            .position(|s| std::ptr::eq(s.label, label))
            .or_else(|| slots.iter().position(|s| s.label == label));
        found.unwrap_or_else(|| {
            self.slots.push(LabelSlot {
                label,
                count: 0,
                ns: 0,
            });
            self.slots.len() - 1
        })
    }

    pub(crate) fn record_heap(&mut self, ns: u64) {
        self.heap_ops += 1;
        self.heap_ns += ns;
    }

    pub(crate) fn record_loop(&mut self, ns: u64) {
        self.loop_ns += ns;
    }

    pub(crate) fn finish(self) -> KernelProfile {
        let mut entries: Vec<LabelProfile> = self
            .slots
            .into_iter()
            .map(|slot| LabelProfile {
                label: slot.label.to_string(),
                count: slot.count,
                ns: slot.ns,
            })
            .collect();
        entries.sort_by(|a, b| b.ns.cmp(&a.ns).then(a.label.cmp(&b.label)));
        let dispatch: u64 = entries.iter().map(|e| e.ns).sum();
        KernelProfile {
            overhead_ns: self.loop_ns.saturating_sub(dispatch + self.heap_ns),
            entries,
            heap_ns: self.heap_ns,
            heap_ops: self.heap_ops,
            loop_ns: self.loop_ns,
        }
    }
}

/// Host nanoseconds since `since`.
#[inline]
pub(crate) fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Host nanoseconds since `mark`, which moves to now: one clock read, and
/// consecutive laps tile the time since the first mark without a gap.
#[inline]
pub(crate) fn lap_ns(mark: &mut Instant) -> u64 {
    #[expect(
        clippy::disallowed_methods,
        reason = "kernel self-profiler lap timing, write-only with respect to the simulation \
                  (see the module docs)"
    )]
    let now = Instant::now();
    let ns = now.duration_since(*mark).as_nanos();
    *mark = now;
    u64::try_from(ns).unwrap_or(u64::MAX)
}

/// Host-time cost of one event-label family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelProfile {
    /// The event family's static label, from [`crate::Model::label`] (e.g.
    /// `peer.endorse`).
    pub label: String,
    /// Handlers dispatched under this label.
    pub count: u64,
    /// Host nanoseconds from the end of the heap pop to the end of the
    /// handler: freeing the event's slot, reading its label, the dispatch
    /// and the handler itself (including any scheduling it performed).
    pub ns: u64,
}

/// The finished self-profile of one kernel run.
#[derive(Debug, Clone, Default)]
pub struct KernelProfile {
    /// Per-label costs, hottest first (ties by label).
    pub entries: Vec<LabelProfile>,
    /// Host nanoseconds from the end of one handler (or the start of the
    /// loop) to the end of the next heap pop: the peek, the pop and one of
    /// the two clock reads each event pays, so it overstates the heap
    /// itself.
    pub heap_ns: u64,
    /// Heap pops, one per executed event. The loop peeks before it pops, so
    /// finding the heap empty or the head past the limit is not a heap op.
    pub heap_ops: u64,
    /// Loop wall time not attributed to handlers or the heap. The clock
    /// reads are chained — each attributes everything since the previous
    /// one — so this is only the tail of each `run_until` call: the peek
    /// that ends the window and the closing clock read.
    pub overhead_ns: u64,
    /// Total host nanoseconds of event-loop wall time.
    pub loop_ns: u64,
}

impl KernelProfile {
    /// Total attributed nanoseconds: handlers + heap + overhead. Equal to
    /// [`KernelProfile::loop_ns`] by construction (overhead is the
    /// remainder), which is the reconciliation the acceptance tests check.
    #[must_use]
    pub fn attributed_ns(&self) -> u64 {
        self.entries.iter().map(|e| e.ns).sum::<u64>() + self.heap_ns + self.overhead_ns
    }

    /// The costliest label family, if any handlers ran.
    #[must_use]
    pub fn hottest(&self) -> Option<&LabelProfile> {
        self.entries.first()
    }

    /// Human-readable table, hottest label first.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let total = self.loop_ns.max(1) as f64;
        let _ = writeln!(
            out,
            "kernel self-profile: event loop {:.3} ms wall, {} handler label(s)",
            self.loop_ns as f64 / 1e6,
            self.entries.len()
        );
        let _ = writeln!(
            out,
            "  {:<24} {:>10} {:>12} {:>7}",
            "label", "count", "ns", "share"
        );
        for e in &self.entries {
            let _ = writeln!(
                out,
                "  {:<24} {:>10} {:>12} {:>6.1}%",
                e.label,
                e.count,
                e.ns,
                100.0 * e.ns as f64 / total
            );
        }
        let _ = writeln!(
            out,
            "  {:<24} {:>10} {:>12} {:>6.1}%",
            "[heap]",
            self.heap_ops,
            self.heap_ns,
            100.0 * self.heap_ns as f64 / total
        );
        let _ = writeln!(
            out,
            "  {:<24} {:>10} {:>12} {:>6.1}%",
            "[overhead]",
            "-",
            self.overhead_ns,
            100.0 * self.overhead_ns as f64 / total
        );
        if let Some(h) = self.hottest() {
            let _ = writeln!(
                out,
                "hottest: {} ({:.1}% of the loop)",
                h.label,
                100.0 * h.ns as f64 / total
            );
        }
        out
    }

    /// Merges `other` into `self`, label-wise: per-label counts and
    /// nanoseconds add, heap and overhead add, and the loop wall adds, so the
    /// accounting identity `attributed_ns() == loop_ns` survives merging.
    /// This is how the per-shard profiles of a sharded run are rolled into
    /// one whole-run profile: the merged loop wall is the *summed* per-shard
    /// loop wall (total host CPU inside event loops), not elapsed time.
    pub fn absorb(&mut self, other: &KernelProfile) {
        for e in &other.entries {
            match self.entries.iter_mut().find(|m| m.label == e.label) {
                Some(m) => {
                    m.count += e.count;
                    m.ns += e.ns;
                }
                None => self.entries.push(e.clone()),
            }
        }
        self.entries
            .sort_by(|a, b| b.ns.cmp(&a.ns).then(a.label.cmp(&b.label)));
        self.heap_ns += other.heap_ns;
        self.heap_ops += other.heap_ops;
        self.overhead_ns += other.overhead_ns;
        self.loop_ns += other.loop_ns;
    }

    /// Compact JSON rendering (stable key order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"loop_ns\":{},\"heap_ns\":{},\"heap_ops\":{},\"overhead_ns\":{},\"attributed_ns\":{},\"entries\":[",
            self.loop_ns,
            self.heap_ns,
            self.heap_ops,
            self.overhead_ns,
            self.attributed_ns()
        );
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"label\":\"{}\",\"count\":{},\"ns\":{}}}",
                e.label, e.count, e.ns
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_attributes_the_remainder_to_overhead() {
        let mut p = ProfilerState::default();
        p.record_handler("a", 100);
        p.record_handler("a", 50);
        p.record_handler("b", 300);
        p.record_heap(40);
        p.record_heap(10);
        p.record_loop(1000);
        let profile = p.finish();
        assert_eq!(profile.loop_ns, 1000);
        assert_eq!(profile.heap_ns, 50);
        assert_eq!(profile.heap_ops, 2);
        assert_eq!(profile.overhead_ns, 1000 - 450 - 50);
        assert_eq!(profile.attributed_ns(), profile.loop_ns);
        // Hottest first; count aggregation per label.
        assert_eq!(profile.entries[0].label, "b");
        assert_eq!(profile.entries[1].count, 2);
        assert_eq!(profile.hottest().map(|e| e.label.as_str()), Some("b"));
    }

    #[test]
    fn overhead_saturates_when_clock_reads_undershoot() {
        let mut p = ProfilerState::default();
        p.record_handler("a", 500);
        p.record_loop(100); // pathological: loop clock < handler clocks
        let profile = p.finish();
        assert_eq!(profile.overhead_ns, 0);
    }

    #[test]
    fn renderings_contain_the_accounting() {
        let mut p = ProfilerState::default();
        p.record_handler("peer.endorse", 2000);
        p.record_heap(100);
        p.record_loop(3000);
        let profile = p.finish();
        let table = profile.render_table();
        assert!(table.contains("peer.endorse"));
        assert!(table.contains("[heap]"));
        assert!(table.contains("[overhead]"));
        assert!(table.contains("hottest: peer.endorse"));
        let json = profile.to_json();
        assert!(json.starts_with("{\"loop_ns\":3000,"));
        assert!(json.contains("\"attributed_ns\":3000"));
        assert!(json.contains("{\"label\":\"peer.endorse\",\"count\":1,\"ns\":2000}"));
    }
}
