//! Causal span graph: distributed units of work with deterministic ids.
//!
//! The flat [`crate::PhaseEvent`] trace answers *when* a transaction crossed
//! each pipeline boundary as seen from the observer peer — but not *which*
//! endorsing peer straggled, *which* gossip hop dominated block propagation,
//! or where a Raft/Kafka round stalled. A [`SpanEvent`] answers those: every
//! unit of distributed work (one peer's endorsement, one OSN's broadcast
//! handling, one Raft append leg, one gossip hop, one peer's VSCC pass)
//! becomes a `[t0, t1]` interval with a **deterministic** `span_id` and a
//! `parent_id` naming its causal predecessor, so two identical-seed runs
//! produce byte-identical span graphs and offline tooling can join spans
//! across files.
//!
//! ## Id derivation
//!
//! `span_id = fnv1a(trace ‖ 0xff ‖ kind ‖ 0xff ‖ actor ‖ 0xff ‖ hop) | 1`
//! — a pure function of the span's coordinates, no global counter, so the
//! emitter never has to thread ids through the event graph: a site that
//! knows its parent's coordinates can compute `parent_id` locally.
//! `parent_id == 0` marks a root. Repeated-shape infrastructure messages
//! (Raft/Kafka rounds, where the same (trace, kind, actor) recurs) mix the
//! span's virtual-time endpoints into the hash ([`message_span_id`]) —
//! virtual time is deterministic, so the ids still are.
//!
//! ## Sampling
//!
//! [`tx_sampled`] is the deterministic head-sampling decision: a seeded
//! xorshift-finalized hash of the transaction id against `rate × 2⁶⁴`.
//! Stateless — no RNG stream is consumed, so turning sampling on, off, or
//! to any rate cannot perturb the simulation. Thresholding also makes
//! sampled sets *nested*: every tx kept at 1% is kept at 50%.

use std::fmt;

use crate::json::{escape_into, push_hex, push_secs9, push_uint, read_jsonl, Json};
use crate::name::Name;

/// The kind of distributed work a [`SpanEvent`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Client pool: tx prep + SDK pre-latency (root of the tx trace).
    ClientPrep,
    /// One endorsing peer simulating + signing the proposal.
    Endorse,
    /// Client: endorsement set satisfied, envelope assembled + signed.
    Assemble,
    /// One OSN's CPU handling of the client broadcast (admission).
    OsnBroadcast,
    /// One Raft message leg between OSNs (append/vote round).
    RaftMsg,
    /// One produce leg from an OSN to a Kafka broker.
    KafkaProduce,
    /// One consume/fetch leg from a Kafka broker back to an OSN.
    KafkaConsume,
    /// The ordering service cutting the block (root of the block trace).
    BlockCut,
    /// Block transfer from an OSN to one subscriber peer.
    Deliver,
    /// One gossip push hop of the block between peers.
    GossipHop,
    /// One peer's VSCC (signature + policy) pass over the tx.
    Vscc,
    /// One peer's MVCC + ledger-write for the tx (commit point).
    Commit,
}

impl SpanKind {
    /// Every kind, in pipeline order.
    pub const ALL: [SpanKind; 12] = [
        SpanKind::ClientPrep,
        SpanKind::Endorse,
        SpanKind::Assemble,
        SpanKind::OsnBroadcast,
        SpanKind::RaftMsg,
        SpanKind::KafkaProduce,
        SpanKind::KafkaConsume,
        SpanKind::BlockCut,
        SpanKind::Deliver,
        SpanKind::GossipHop,
        SpanKind::Vscc,
        SpanKind::Commit,
    ];

    /// Stable snake_case label used on the wire.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::ClientPrep => "client_prep",
            SpanKind::Endorse => "endorse",
            SpanKind::Assemble => "assemble",
            SpanKind::OsnBroadcast => "osn_broadcast",
            SpanKind::RaftMsg => "raft_msg",
            SpanKind::KafkaProduce => "kafka_produce",
            SpanKind::KafkaConsume => "kafka_consume",
            SpanKind::BlockCut => "block_cut",
            SpanKind::Deliver => "deliver",
            SpanKind::GossipHop => "gossip_hop",
            SpanKind::Vscc => "vscc",
            SpanKind::Commit => "commit",
        }
    }

    /// Inverse of [`SpanKind::label`].
    #[must_use]
    pub fn from_label(s: &str) -> Option<SpanKind> {
        SpanKind::ALL.into_iter().find(|k| k.label() == s)
    }

    /// True for kinds whose trace is a transaction id and which the head
    /// sampler therefore gates; block-scoped kinds (ordering internals,
    /// delivery, gossip) are always recorded so any sampled transaction
    /// still has its complete causal chain back through its block.
    #[must_use]
    pub fn tx_scoped(self) -> bool {
        matches!(
            self,
            SpanKind::ClientPrep
                | SpanKind::Endorse
                | SpanKind::Assemble
                | SpanKind::OsnBroadcast
                | SpanKind::Vscc
                | SpanKind::Commit
        )
    }
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One unit of distributed work: a closed interval of virtual time on one
/// actor, causally linked to its predecessor by `parent_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Deterministic id (see module docs). Never 0.
    pub span_id: u64,
    /// `span_id` of the causal predecessor; 0 for roots.
    pub parent_id: u64,
    /// Trace this span belongs to: a tx id (hash prefix) or a block id
    /// (`b{channel}.{number}`).
    pub trace: Name,
    /// What work the span covers.
    pub kind: SpanKind,
    /// Who did it (`pool0`, `peer3`, `osn1`, `broker0`, `zk0`).
    pub actor: Name,
    /// Start of the work, virtual seconds.
    pub t0_s: f64,
    /// End of the work, virtual seconds (`>= t0_s`).
    pub t1_s: f64,
    /// Gossip hop depth (1 = first push away from the delivery peer);
    /// 0 for every non-gossip span.
    pub hop: u32,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Deterministic span id for a span uniquely named by its coordinates.
/// The result is never 0 (the root-parent sentinel).
#[must_use]
pub fn span_id(trace: &str, kind: SpanKind, actor: &str, hop: u32) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, trace.as_bytes());
    h = fnv1a(h, &[0xff]);
    h = fnv1a(h, kind.label().as_bytes());
    h = fnv1a(h, &[0xff]);
    h = fnv1a(h, actor.as_bytes());
    h = fnv1a(h, &[0xff]);
    h = fnv1a(h, &hop.to_le_bytes());
    h | 1
}

/// Deterministic id for repeated-shape infrastructure spans (Raft/Kafka
/// message legs), where the same (trace, kind, actor) recurs: the virtual
/// time endpoints — themselves deterministic — disambiguate the rounds.
#[must_use]
pub fn message_span_id(trace: &str, kind: SpanKind, actor: &str, t0_s: f64, t1_s: f64) -> u64 {
    let mut h = span_id(trace, kind, actor, 0);
    h = fnv1a(h, &t0_s.to_bits().to_le_bytes());
    h = fnv1a(h, &t1_s.to_bits().to_le_bytes());
    h | 1
}

/// The deterministic head-sampling decision for a transaction: keep the
/// whole tx trace iff a seeded hash of its id falls under `rate × 2⁶⁴`.
/// Pure — identical across runs, platforms and sink states.
#[must_use]
pub fn tx_sampled(tx: &str, seed: u64, rate: f64) -> bool {
    if rate >= 1.0 {
        return true;
    }
    if rate <= 0.0 {
        return false;
    }
    let h = fnv1a(FNV_OFFSET ^ seed, tx.as_bytes());
    // xorshift* finalizer: FNV alone avalanches poorly in the high bits,
    // which are exactly what the threshold compare reads.
    let mut x = h | 1;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    let x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    (x as f64) < rate * (u64::MAX as f64)
}

impl SpanEvent {
    /// Serializes the span as one JSON object (no trailing newline). Ids are
    /// fixed-width hex strings — JSON numbers are doubles and would corrupt
    /// ids above 2⁵³.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends the span to `out` as one JSON object (no trailing newline),
    /// allocating nothing beyond `out`'s own growth.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"span\":\"");
        push_hex(out, self.span_id, 16);
        out.push_str("\",\"parent\":\"");
        push_hex(out, self.parent_id, 16);
        out.push_str("\",\"trace\":\"");
        escape_into(out, &self.trace);
        out.push_str("\",\"kind\":\"");
        out.push_str(self.kind.label());
        out.push_str("\",\"actor\":\"");
        escape_into(out, &self.actor);
        out.push_str("\",\"t0_s\":");
        push_secs9(out, self.t0_s);
        out.push_str(",\"t1_s\":");
        push_secs9(out, self.t1_s);
        out.push_str(",\"hop\":");
        push_uint(out, u64::from(self.hop), 1);
        out.push('}');
    }

    /// Parses one JSONL line produced by [`SpanEvent::to_json`].
    ///
    /// # Errors
    /// A description of the first syntax or schema problem found.
    pub fn from_json(line: &str) -> Result<SpanEvent, String> {
        SpanEvent::from_value(&Json::parse(line)?)
    }

    pub(crate) fn from_value(v: &Json) -> Result<SpanEvent, String> {
        let hex_id = |k: &str| {
            let s = v.string(k)?;
            u64::from_str_radix(s, 16).map_err(|e| format!("bad {k} {s:?}: {e}"))
        };
        let kind = v.string("kind")?;
        Ok(SpanEvent {
            span_id: hex_id("span")?,
            parent_id: hex_id("parent")?,
            trace: v.string("trace")?.into(),
            kind: SpanKind::from_label(kind)
                .ok_or_else(|| format!("unknown span kind {kind:?}"))?,
            actor: v.string("actor")?.into(),
            t0_s: v.num("t0_s")?,
            t1_s: v.num("t1_s")?,
            hop: v.uint("hop")?,
        })
    }
}

/// Parses a whole span JSONL document (one span per non-empty line),
/// returning the embedded
/// [`crate::RunProvenance`] (if any) alongside the spans — the span twin of
/// [`crate::parse_jsonl_with_provenance`], with the same duplicate-line
/// rejection.
///
/// # Errors
/// The line number and description of the first bad line.
pub fn parse_spans_jsonl_with_provenance(
    text: &str,
) -> Result<(Option<crate::RunProvenance>, Vec<SpanEvent>), String> {
    read_jsonl(text, SpanEvent::from_value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind) -> SpanEvent {
        SpanEvent {
            span_id: span_id("ab12cd34", kind, "peer3", 0),
            parent_id: 0,
            trace: "ab12cd34".into(),
            kind,
            actor: "peer3".into(),
            t0_s: 1.25,
            t1_s: 1.5,
            hop: 0,
        }
    }

    #[test]
    fn jsonl_round_trips_every_kind() {
        for kind in SpanKind::ALL {
            let s = span(kind);
            let back = SpanEvent::from_json(&s.to_json()).expect("parses");
            assert_eq!(back, s, "round-trip for {kind}");
        }
    }

    #[test]
    fn ids_are_pure_functions_of_coordinates() {
        let a = span_id("tx1", SpanKind::Endorse, "peer0", 0);
        let b = span_id("tx1", SpanKind::Endorse, "peer0", 0);
        assert_eq!(a, b);
        assert_ne!(a, 0, "0 is reserved for roots");
        // Any coordinate change changes the id.
        assert_ne!(a, span_id("tx2", SpanKind::Endorse, "peer0", 0));
        assert_ne!(a, span_id("tx1", SpanKind::Vscc, "peer0", 0));
        assert_ne!(a, span_id("tx1", SpanKind::Endorse, "peer1", 0));
        assert_ne!(a, span_id("tx1", SpanKind::Endorse, "peer0", 1));
    }

    #[test]
    fn message_ids_distinguish_repeated_rounds() {
        let a = message_span_id("b0.3", SpanKind::RaftMsg, "osn1", 1.0, 1.1);
        let b = message_span_id("b0.3", SpanKind::RaftMsg, "osn1", 1.2, 1.3);
        assert_ne!(a, b, "rounds at different virtual times must differ");
        assert_eq!(
            a,
            message_span_id("b0.3", SpanKind::RaftMsg, "osn1", 1.0, 1.1)
        );
    }

    #[test]
    fn sampling_is_deterministic_and_nested() {
        let txs: Vec<String> = (0..2000).map(|i| format!("{i:08x}")).collect();
        let kept = |rate: f64| -> Vec<&String> {
            txs.iter().filter(|t| tx_sampled(t, 42, rate)).collect()
        };
        assert_eq!(kept(0.0).len(), 0);
        assert_eq!(kept(1.0).len(), txs.len());
        let low = kept(0.01);
        let mid = kept(0.5);
        // Rate is honored within statistical slack.
        assert!(low.len() < 100, "1% kept {} of 2000", low.len());
        assert!(
            mid.len() > 800 && mid.len() < 1200,
            "50% kept {} of 2000",
            mid.len()
        );
        // Threshold sampling nests: everything at 1% is also at 50%.
        for t in &low {
            assert!(mid.contains(t), "{t} sampled at 1% but not 50%");
        }
        // Decision is a pure function — same answer on every call.
        for t in &txs {
            assert_eq!(tx_sampled(t, 7, 0.3), tx_sampled(t, 7, 0.3));
        }
        // Different seeds choose different subsets.
        let other: Vec<&String> = txs.iter().filter(|t| tx_sampled(t, 43, 0.01)).collect();
        assert_ne!(low, other);
    }

    #[test]
    fn kind_labels_round_trip() {
        for k in SpanKind::ALL {
            assert_eq!(SpanKind::from_label(k.label()), Some(k));
        }
        assert_eq!(SpanKind::from_label("nope"), None);
    }

    #[test]
    fn tx_scoping_partitions_the_kinds() {
        let tx: Vec<SpanKind> = SpanKind::ALL
            .into_iter()
            .filter(|k| k.tx_scoped())
            .collect();
        let block: Vec<SpanKind> = SpanKind::ALL
            .into_iter()
            .filter(|k| !k.tx_scoped())
            .collect();
        assert_eq!(
            tx,
            vec![
                SpanKind::ClientPrep,
                SpanKind::Endorse,
                SpanKind::Assemble,
                SpanKind::OsnBroadcast,
                SpanKind::Vscc,
                SpanKind::Commit,
            ]
        );
        assert_eq!(
            block,
            vec![
                SpanKind::RaftMsg,
                SpanKind::KafkaProduce,
                SpanKind::KafkaConsume,
                SpanKind::BlockCut,
                SpanKind::Deliver,
                SpanKind::GossipHop,
            ]
        );
    }

    #[test]
    fn parser_rejects_bad_lines() {
        assert!(SpanEvent::from_json("not json").is_err());
        assert!(SpanEvent::from_json("{}").is_err());
        assert!(SpanEvent::from_json(
            r#"{"span":"zz","parent":"0","trace":"t","kind":"endorse","actor":"a","t0_s":0,"t1_s":1,"hop":0}"#
        )
        .is_err());
        assert!(SpanEvent::from_json(
            r#"{"span":"1","parent":"0","trace":"t","kind":"warp","actor":"a","t0_s":0,"t1_s":1,"hop":0}"#
        )
        .is_err());
    }
}
