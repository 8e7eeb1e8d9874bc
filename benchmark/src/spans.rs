//! In-memory spans recorded by the benchmark around each call into a layer's
//! public function. Nothing inside the program is instrumented: the recorder
//! lives in the driver, holds its spans until the run ends, and is switched
//! off for the repetitions that produce end-to-end numbers.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its recorder; `ROOT` marks a span without a parent.
pub type SpanIx = u32;
pub const ROOT: SpanIx = u32::MAX;

/// One timed call: the layer function's name, the transaction or block it
/// worked on, and the span that caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: SpanIx,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanIx>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, id: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.open.push(self.spans.len() as SpanIx);
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let ix = self.open.pop().expect("exit without a matching enter");
        self.spans[ix as usize].end_ns = end_ns;
    }

    /// Times one call into a layer.
    pub fn time<T>(&mut self, name: &'static str, id: u64, call: impl FnOnce() -> T) -> T {
        self.enter(name, id);
        let out = call();
        self.exit();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "a span was left open");
        self.spans
    }
}

/// Calls and self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub calls: u64,
    pub self_ns: u64,
}

/// Self time per span name: a span's duration minus the part its direct
/// children cover. Every nanosecond of a root span is counted exactly once,
/// so the self times of a tree sum to its root's duration.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.ns();
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.self_ns += s.ns().saturating_sub(children);
    }
    out
}

/// One JSON object per span, for `--spans-out`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (ix, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"span\":{ix},\"name\":\"{}\",\"id\":{},",
            s.name, s.id
        );
        match s.parent {
            ROOT => out.push_str("\"parent\":null,"),
            p => {
                let _ = write!(out, "\"parent\":{p},");
            }
        }
        let _ = writeln!(out, "\"start_ns\":{},\"end_ns\":{}}}", s.start_ns, s.end_ns);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: SpanIx, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn children_subtract_once_and_the_tree_sums_to_its_root() {
        // rep [0,100) ─ commit [10,70) ─ vscc [20,50) ─ verify [25,35)
        //             │               └ mvcc [50,60)
        //             └ endorse [70,90)
        let spans = vec![
            span("rep", ROOT, 0, 100),
            span("commit", 0, 10, 70),
            span("vscc", 1, 20, 50),
            span("verify", 2, 25, 35),
            span("mvcc", 1, 50, 60),
            span("endorse", 0, 70, 90),
        ];
        let st = self_times(&spans);
        assert_eq!(st["rep"].self_ns, 100 - 60 - 20);
        // The grandchild `verify` is subtracted from `vscc`, not again from `commit`.
        assert_eq!(st["commit"].self_ns, 60 - 30 - 10);
        assert_eq!(st["vscc"].self_ns, 30 - 10);
        assert_eq!(st["verify"].self_ns, 10);
        let total: u64 = st.values().map(|s| s.self_ns).sum();
        assert_eq!(total, spans[0].ns());
    }

    #[test]
    fn recorder_nests_by_call_order_and_is_inert_when_off() {
        let mut rec = Recorder::new(true);
        rec.enter("rep", 0);
        let v = rec.time("outer", 7, || 1 + 1);
        rec.enter("block", 3);
        rec.time("inner", 3, || ());
        rec.exit();
        rec.exit();
        assert_eq!(v, 2);
        let spans = rec.into_spans();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.id, s.parent)).collect();
        assert_eq!(
            shape,
            vec![
                ("rep", 0, ROOT),
                ("outer", 7, 0),
                ("block", 3, 0),
                ("inner", 3, 2)
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(to_jsonl(&spans).lines().count() == 4);

        let mut off = Recorder::new(false);
        off.enter("rep", 0);
        assert_eq!(off.time("outer", 1, || 5), 5);
        off.exit();
        assert!(off.into_spans().is_empty());
    }
}
