//! Distributed critical-path analysis over the causal span graph.
//!
//! The flat trace analyzer ([`crate::TraceAnalysis`]) decomposes latency
//! along the *observer peer's* view of the pipeline. This module answers the
//! distributed version of the question: walking the span DAG backwards from
//! each transaction's commit span, it reconstructs the chain of work — and
//! the explicit *wait* gaps between work — that actually bounded the
//! transaction's end-to-end latency, across every actor involved
//! (endorsing peers, client pools, OSNs, gossip hops, validating peers).
//!
//! The walk telescopes: each step accounts the interval `[t0, cursor]` of
//! the current span and the `[pred.t1, t0]` gap before it, so the segment
//! sum over a path is **exactly** `committed − created` (up to float
//! addition error, orders of magnitude under the 1e-6 reconciliation bound
//! the repo's tests enforce). Predecessor choice is deterministic: the
//! candidate span with the greatest `t1 ≤ cursor`, ties broken by id.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::json::escape;
use crate::spangraph::{SpanEvent, SpanKind};

/// One segment of a transaction's distributed critical path: either a span
/// (label = the span kind) or an idle gap (`wait:<kind-it-delayed>` /
/// `wait:source` when no predecessor exists).
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalSegment {
    /// Span kind label, or `wait:…` for gaps.
    pub label: String,
    /// The actor the time is attributed to.
    pub actor: String,
    /// Seconds on the critical path.
    pub seconds: f64,
}

/// A committed transaction's reconstructed critical path.
#[derive(Debug, Clone)]
pub struct TxCriticalPath {
    /// The transaction id.
    pub trace: String,
    /// Root time (client-prep span start = tx creation).
    pub created_s: f64,
    /// Commit-span end (= commit time).
    pub committed_s: f64,
    /// Segments in causal order; their sum tiles `committed − created`.
    pub segments: Vec<CriticalSegment>,
}

impl TxCriticalPath {
    /// Sum of segment durations (== e2e latency by construction).
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.segments.iter().map(|s| s.seconds).sum()
    }
}

/// Aggregated results of the span-graph critical-path analysis.
#[derive(Debug, Clone, Default)]
pub struct SpanGraphAnalysis {
    /// Spans in the input (after dedup by id).
    pub spans: usize,
    /// Committed transactions analyzed (client-prep + commit spans present).
    pub txs: usize,
    /// Per-transaction critical paths, in trace-id order.
    pub paths: Vec<TxCriticalPath>,
    /// Critical-path seconds per actor, sorted descending.
    pub actor_share: Vec<(String, f64)>,
    /// Critical-path seconds per segment label (spans and waits), sorted
    /// descending.
    pub segment_share: Vec<(String, f64)>,
    /// How often each endorsing actor was the *last* to finish endorsing a
    /// transaction (the straggler), sorted descending by count.
    pub slowest_endorser: Vec<(String, u64)>,
    /// Block deliveries by gossip depth, one per (block, peer) at the depth
    /// of the first copy the peer received: hop 0 = direct OSN delivery (a
    /// `deliver` span whose parent is the block cut), hop h = h-th gossip
    /// push.
    pub gossip_depth: Vec<(u32, u64)>,
    /// Max over transactions of |Σ segments − (committed − created)|.
    pub max_residual_s: f64,
    /// Mean critical-path (= e2e) seconds across analyzed transactions.
    pub mean_path_s: f64,
}

impl SpanGraphAnalysis {
    /// Runs the analysis over a span set (any order; duplicates by id — the
    /// emitter's redundant fallback deliver spans — are collapsed).
    #[must_use]
    #[expect(
        clippy::too_many_lines,
        reason = "one walk + its aggregations; splitting obscures the telescoping invariant"
    )]
    pub fn from_spans(input: &[SpanEvent]) -> SpanGraphAnalysis {
        // Canonical order + dedup by span id (keep the earliest-sorted copy).
        let mut spans: Vec<&SpanEvent> = input.iter().collect();
        spans.sort_by(|a, b| {
            a.t0_s
                .total_cmp(&b.t0_s)
                .then(a.t1_s.total_cmp(&b.t1_s))
                .then(a.span_id.cmp(&b.span_id))
        });
        let mut seen: HashSet<u64> = HashSet::new();
        spans.retain(|s| seen.insert(s.span_id));

        let id_map: HashMap<u64, usize> = spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.span_id, i))
            .collect();
        let mut by_trace: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            by_trace.entry(&s.trace).or_default().push(i);
        }

        let mut paths = Vec::new();
        let mut actor_share: BTreeMap<String, f64> = BTreeMap::new();
        let mut segment_share: BTreeMap<String, f64> = BTreeMap::new();
        let mut slowest: BTreeMap<String, u64> = BTreeMap::new();
        let mut depth: BTreeMap<u32, u64> = BTreeMap::new();
        let mut max_residual: f64 = 0.0;
        let mut path_sum = 0.0;

        // The first copy of each block at each peer, by arrival then hop. A
        // `deliver` anchor (no parent) marks a delivery by gossip or replay,
        // not a copy; an orderer delivery names its OSN's recorded cut.
        let mut first: BTreeMap<(&str, &str), (f64, u32)> = BTreeMap::new();
        for s in &spans {
            let hop = match s.kind {
                SpanKind::Deliver
                    if s.parent_id != 0
                        && id_map
                            .get(&s.parent_id)
                            .is_some_and(|&p| spans[p].kind == SpanKind::BlockCut) =>
                {
                    0
                }
                SpanKind::GossipHop => s.hop,
                _ => continue,
            };
            let copy = (s.t1_s, hop);
            first
                .entry((s.trace.as_str(), s.actor.as_str()))
                .and_modify(|kept| {
                    if copy.0.total_cmp(&kept.0).then(copy.1.cmp(&kept.1)).is_lt() {
                        *kept = copy;
                    }
                })
                .or_insert(copy);
        }
        for &(_, hop) in first.values() {
            *depth.entry(hop).or_insert(0) += 1;
        }

        for (trace, group) in &by_trace {
            let find_kind = |kind: SpanKind| -> Option<usize> {
                group
                    .iter()
                    .copied()
                    .filter(|&i| spans[i].kind == kind)
                    .max_by(|&a, &b| {
                        spans[a]
                            .t1_s
                            .total_cmp(&spans[b].t1_s)
                            .then(spans[b].span_id.cmp(&spans[a].span_id))
                    })
            };
            let (Some(commit_i), Some(prep_i)) =
                (find_kind(SpanKind::Commit), find_kind(SpanKind::ClientPrep))
            else {
                continue; // not a committed (or not a sampled) transaction
            };

            // Straggler endorser: the endorse span finishing last.
            if let Some(e) = find_kind(SpanKind::Endorse) {
                *slowest.entry(spans[e].actor.to_string()).or_insert(0) += 1;
            }

            // The block trace reached through commit → vscc → deliver.
            let mut candidates: Vec<usize> = group.clone();
            if let Some(vscc_i) = find_kind(SpanKind::Vscc) {
                if let Some(&deliver_i) = id_map.get(&spans[vscc_i].parent_id) {
                    if let Some(block_group) = by_trace.get(spans[deliver_i].trace.as_str()) {
                        candidates.extend(block_group.iter().copied());
                    }
                }
            }
            candidates.sort_unstable();
            candidates.dedup();

            let created = spans[prep_i].t0_s;
            let committed = spans[commit_i].t1_s;
            let mut cursor = committed;
            let mut cur = commit_i;
            let mut visited: HashSet<u64> = HashSet::new();
            let mut rev: Vec<CriticalSegment> = Vec::new();
            loop {
                visited.insert(spans[cur].span_id);
                let t0 = spans[cur].t0_s.max(created).min(cursor);
                rev.push(CriticalSegment {
                    label: spans[cur].kind.label().to_string(),
                    actor: spans[cur].actor.to_string(),
                    seconds: cursor - t0,
                });
                cursor = t0;
                if cursor <= created {
                    break;
                }
                let pred = candidates
                    .iter()
                    .copied()
                    .filter(|&j| spans[j].t1_s <= cursor && !visited.contains(&spans[j].span_id))
                    .max_by(|&a, &b| {
                        spans[a]
                            .t1_s
                            .total_cmp(&spans[b].t1_s)
                            .then(spans[b].span_id.cmp(&spans[a].span_id))
                    });
                match pred {
                    Some(j) => {
                        let t1 = spans[j].t1_s.min(cursor).max(created);
                        if cursor > t1 {
                            rev.push(CriticalSegment {
                                label: format!("wait:{}", spans[cur].kind.label()),
                                actor: spans[cur].actor.to_string(),
                                seconds: cursor - t1,
                            });
                            cursor = t1;
                        }
                        if cursor <= created {
                            break;
                        }
                        cur = j;
                    }
                    None => {
                        rev.push(CriticalSegment {
                            label: "wait:source".to_string(),
                            actor: spans[cur].actor.to_string(),
                            seconds: cursor - created,
                        });
                        break;
                    }
                }
            }
            rev.reverse();

            let path = TxCriticalPath {
                trace: (*trace).to_string(),
                created_s: created,
                committed_s: committed,
                segments: rev,
            };
            max_residual = max_residual.max((path.total_s() - (committed - created)).abs());
            path_sum += committed - created;
            for seg in &path.segments {
                *actor_share.entry(seg.actor.clone()).or_insert(0.0) += seg.seconds;
                *segment_share.entry(seg.label.clone()).or_insert(0.0) += seg.seconds;
            }
            paths.push(path);
        }

        let sort_desc = |m: BTreeMap<String, f64>| -> Vec<(String, f64)> {
            let mut v: Vec<(String, f64)> = m.into_iter().collect();
            v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            v
        };
        let mut slowest: Vec<(String, u64)> = slowest.into_iter().collect();
        slowest.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let txs = paths.len();
        SpanGraphAnalysis {
            spans: spans.len(),
            txs,
            mean_path_s: if txs > 0 { path_sum / txs as f64 } else { 0.0 },
            paths,
            actor_share: sort_desc(actor_share),
            segment_share: sort_desc(segment_share),
            slowest_endorser: slowest,
            gossip_depth: depth.into_iter().collect(),
            max_residual_s: max_residual,
        }
    }

    /// Human-readable summary table.
    #[must_use]
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "span graph: {} spans, {} committed tx(s) analyzed",
            self.spans, self.txs
        );
        let _ = writeln!(
            out,
            "critical path: mean {:.3} ms (max residual vs e2e {:.3e} s)",
            self.mean_path_s * 1e3,
            self.max_residual_s
        );
        let total: f64 = self.segment_share.iter().map(|(_, s)| s).sum();
        let pct = |s: f64| if total > 0.0 { 100.0 * s / total } else { 0.0 };
        out.push_str("segment dominance (critical-path seconds):\n");
        for (label, secs) in &self.segment_share {
            let _ = writeln!(out, "  {label:<22} {secs:>10.4}  {:>5.1}%", pct(*secs));
        }
        out.push_str("actor dominance (critical-path seconds):\n");
        for (actor, secs) in self.actor_share.iter().take(12) {
            let _ = writeln!(out, "  {actor:<22} {secs:>10.4}  {:>5.1}%", pct(*secs));
        }
        if !self.slowest_endorser.is_empty() {
            out.push_str("slowest endorser (txs where this peer finished last):\n");
            for (actor, n) in &self.slowest_endorser {
                let _ = writeln!(out, "  {actor:<22} {n:>6}");
            }
        }
        if !self.gossip_depth.is_empty() {
            out.push_str("block delivery depth (0 = direct from OSN):");
            for (hop, n) in &self.gossip_depth {
                let _ = write!(out, "  {hop}:{n}");
            }
            out.push('\n');
        }
        out
    }

    /// Compact JSON rendering (stable key order).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"spans\":{},\"txs\":{},\"mean_path_s\":{},\"max_residual_s\":{}",
            self.spans, self.txs, self.mean_path_s, self.max_residual_s
        );
        let kv_list = |out: &mut String, key: &str, items: &[(String, f64)]| {
            let _ = write!(out, ",\"{key}\":[");
            for (i, (name, secs)) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"name\":\"{}\",\"seconds\":{secs}}}", escape(name));
            }
            out.push(']');
        };
        kv_list(&mut out, "segments", &self.segment_share);
        kv_list(&mut out, "actors", &self.actor_share);
        let _ = write!(out, ",\"slowest_endorser\":[");
        for (i, (actor, n)) in self.slowest_endorser.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"actor\":\"{}\",\"txs\":{n}}}", escape(actor));
        }
        let _ = write!(out, "],\"gossip_depth\":[");
        for (i, (hop, n)) in self.gossip_depth.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"hop\":{hop},\"count\":{n}}}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spangraph::span_id;

    fn span(
        trace: &str,
        kind: SpanKind,
        actor: &str,
        t0: f64,
        t1: f64,
        parent: u64,
        hop: u32,
    ) -> SpanEvent {
        SpanEvent {
            span_id: span_id(trace, kind, actor, hop),
            parent_id: parent,
            trace: trace.into(),
            kind,
            actor: actor.into(),
            t0_s: t0,
            t1_s: t1,
            hop,
        }
    }

    /// One tx through a two-peer endorsement, a block, and validation, with
    /// a deliberate idle gap between assembly and OSN admission.
    fn graph() -> Vec<SpanEvent> {
        let prep = span("tx1", SpanKind::ClientPrep, "pool0", 0.0, 0.010, 0, 0);
        let e0 = span(
            "tx1",
            SpanKind::Endorse,
            "peer0",
            0.012,
            0.020,
            prep.span_id,
            0,
        );
        let e1 = span(
            "tx1",
            SpanKind::Endorse,
            "peer1",
            0.012,
            0.030,
            prep.span_id,
            0,
        );
        let asm = span(
            "tx1",
            SpanKind::Assemble,
            "pool0",
            0.032,
            0.040,
            e1.span_id,
            0,
        );
        let osn = span(
            "tx1",
            SpanKind::OsnBroadcast,
            "osn0",
            0.050,
            0.055,
            asm.span_id,
            0,
        );
        let cut = span("b0.0", SpanKind::BlockCut, "osn0", 0.100, 0.100, 0, 0);
        let del = span(
            "b0.0",
            SpanKind::Deliver,
            "peer0",
            0.100,
            0.110,
            cut.span_id,
            0,
        );
        let hop = span(
            "b0.0",
            SpanKind::GossipHop,
            "peer2",
            0.110,
            0.115,
            del.span_id,
            1,
        );
        let vscc = span("tx1", SpanKind::Vscc, "peer0", 0.110, 0.120, del.span_id, 0);
        let commit = span(
            "tx1",
            SpanKind::Commit,
            "peer0",
            0.120,
            0.130,
            vscc.span_id,
            0,
        );
        vec![prep, e0, e1, asm, osn, cut, del, hop, vscc, commit]
    }

    #[test]
    fn path_tiles_e2e_exactly() {
        let a = SpanGraphAnalysis::from_spans(&graph());
        assert_eq!(a.txs, 1);
        assert_eq!(a.spans, 10);
        let p = &a.paths[0];
        assert!((p.total_s() - (p.committed_s - p.created_s)).abs() < 1e-12);
        assert!(a.max_residual_s < 1e-9, "residual {}", a.max_residual_s);
        assert!((a.mean_path_s - 0.130).abs() < 1e-9);
    }

    #[test]
    fn path_walks_through_block_and_slow_endorser() {
        let a = SpanGraphAnalysis::from_spans(&graph());
        let labels: Vec<&str> = a.paths[0]
            .segments
            .iter()
            .map(|s| s.label.as_str())
            .collect();
        assert!(labels.contains(&"client_prep"), "{labels:?}");
        assert!(labels.contains(&"endorse"), "{labels:?}");
        assert!(
            labels.contains(&"block_cut") || labels.contains(&"deliver"),
            "{labels:?}"
        );
        assert!(labels.contains(&"commit"), "{labels:?}");
        // The walk picks peer1 (finishes at 0.030, latest ≤ assemble start).
        let endorse = a.paths[0]
            .segments
            .iter()
            .find(|s| s.label == "endorse")
            .expect("endorse on path");
        assert_eq!(endorse.actor, "peer1", "straggler endorser is on the path");
        assert_eq!(a.slowest_endorser, vec![("peer1".to_string(), 1)]);
        // The assembled→admission gap surfaces as an explicit wait.
        assert!(
            labels.iter().any(|l| l.starts_with("wait:")),
            "idle gaps must be explicit: {labels:?}"
        );
    }

    #[test]
    fn gossip_depth_counts_direct_and_hops() {
        let a = SpanGraphAnalysis::from_spans(&graph());
        assert_eq!(a.gossip_depth, vec![(0, 1), (1, 1)]);
    }

    #[test]
    fn a_delivery_whose_cut_is_absent_is_not_hop_zero() {
        let mut g = graph();
        let cut = g.remove(5);
        assert_eq!(cut.kind, SpanKind::BlockCut);
        let a = SpanGraphAnalysis::from_spans(&g);
        assert_eq!(a.gossip_depth, vec![(1, 1)]);
    }

    /// Ten peers, two of them gossip leaders fed by the OSN, five blocks:
    /// fifty deliveries, ten of them direct. Every peer also records a
    /// zero-width anchor, and some get a second copy later or deeper.
    #[test]
    fn gossip_depth_counts_each_block_at_each_peer_once() {
        let mut spans = Vec::new();
        for b in 0..5 {
            let trace = format!("b0.{b}");
            let t = f64::from(b);
            let cut = span(&trace, SpanKind::BlockCut, "osn0", t, t, 0, 0);
            let cut_id = cut.span_id;
            spans.push(cut);
            // (receiver, arrival after the cut, hop); hop 0 is the OSN's.
            let copies = [
                ("peer0", 0.010, 0),
                ("peer1", 0.010, 0),
                ("peer1", 0.020, 1),
                ("peer2", 0.020, 1),
                ("peer3", 0.020, 1),
                ("peer4", 0.021, 1),
                ("peer5", 0.021, 1),
                ("peer6", 0.030, 2),
                ("peer7", 0.030, 2),
                ("peer3", 0.031, 2),
                ("peer8", 0.040, 3),
                ("peer9", 0.040, 3),
                ("peer9", 0.050, 2),
            ];
            for (peer, after, hop) in copies {
                let (kind, parent) = if hop == 0 {
                    (SpanKind::Deliver, cut_id)
                } else {
                    (SpanKind::GossipHop, 1)
                };
                spans.push(span(&trace, kind, peer, t, t + after, parent, hop));
            }
            for p in 0..10 {
                let at = t + 0.060;
                let peer = format!("peer{p}");
                spans.push(span(&trace, SpanKind::Deliver, &peer, at, at, 0, 0));
            }
        }
        let a = SpanGraphAnalysis::from_spans(&spans);
        assert_eq!(a.gossip_depth, vec![(0, 10), (1, 20), (2, 10), (3, 10)]);
        let deliveries: u64 = a.gossip_depth.iter().map(|(_, n)| n).sum();
        assert_eq!(deliveries, 50);
    }

    #[test]
    fn duplicate_span_ids_collapse() {
        let mut g = graph();
        let dup = g[6].clone(); // the deliver span, re-emitted by a fallback site
        g.push(dup);
        let a = SpanGraphAnalysis::from_spans(&g);
        assert_eq!(a.spans, 10, "duplicates by id must collapse");
        assert_eq!(a.gossip_depth, vec![(0, 1), (1, 1)]);
    }

    #[test]
    fn unsampled_txs_are_skipped() {
        let mut g = graph();
        // A second tx with only block-side spans (head-sampled away).
        g.push(span("tx2", SpanKind::Vscc, "peer0", 0.2, 0.21, 0, 0));
        let a = SpanGraphAnalysis::from_spans(&g);
        assert_eq!(a.txs, 1);
    }

    #[test]
    fn json_and_table_render() {
        let a = SpanGraphAnalysis::from_spans(&graph());
        let json = a.to_json();
        assert!(json.starts_with("{\"spans\":10,\"txs\":1,"));
        assert!(json.contains("\"slowest_endorser\":[{\"actor\":\"peer1\",\"txs\":1}]"));
        assert!(json.contains("\"gossip_depth\":[{\"hop\":0,\"count\":1},{\"hop\":1,\"count\":1}]"));
        let table = a.render_table();
        assert!(table.contains("1 committed tx(s)"));
        assert!(table.contains("slowest endorser"));
        assert!(table.contains("block delivery depth"));
    }

    #[test]
    fn empty_input_yields_empty_analysis() {
        let a = SpanGraphAnalysis::from_spans(&[]);
        assert_eq!((a.spans, a.txs), (0, 0));
        assert_eq!(a.mean_path_s, 0.0);
        assert!(a.render_table().contains("0 spans"));
    }
}
