//! The block cutter: Fabric's batching rules.
//!
//! A batch is cut when (1) it reaches `max_message_count` transactions, (2)
//! adding a transaction would exceed `max_bytes`, or (3) the `BatchTimeout`
//! fires with a non-empty batch. The timeout timer starts when the first
//! transaction enters an empty batch; timer identities are sequence-numbered
//! so a late-firing stale timer never cuts a newer batch.

use fabricsim_types::encode::WireSize;
use fabricsim_types::{BatchConfig, Transaction};

/// Result of offering a transaction to the cutter.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CutOutcome {
    /// Batches cut by this offer, in order (0, 1 or 2 — two when an oversize
    /// transaction forces the previous batch out first).
    pub batches: Vec<Vec<Transaction>>,
    /// If set, the caller must arm the batch timer with this sequence number.
    pub arm_timer: Option<u64>,
}

/// The batching state machine.
#[derive(Debug, Clone)]
pub struct BlockCutter {
    config: BatchConfig,
    pending: Vec<Transaction>,
    pending_bytes: u64,
    timer_seq: u64,
}

impl BlockCutter {
    /// Creates a cutter with the given batch configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see [`BatchConfig::validate`]).
    pub fn new(config: BatchConfig) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "constructor fail-fast: an invalid config is a caller bug"
        )]
        config.validate().expect("invalid batch config");
        BlockCutter {
            config,
            pending: Vec::new(),
            pending_bytes: 0,
            timer_seq: 0,
        }
    }

    /// Number of transactions awaiting a cut.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// The batch timeout in milliseconds (for the caller's timer).
    pub fn timeout_ms(&self) -> u64 {
        self.config.batch_timeout_ms
    }

    /// Offers an ordered transaction; returns any cut batches and whether to
    /// arm the batch timer.
    pub fn ordered(&mut self, tx: Transaction) -> CutOutcome {
        let mut outcome = CutOutcome::default();
        let tx_bytes = tx.wire_size();

        // Rule 2a: the new transaction would overflow the byte budget — cut
        // what we have first.
        if !self.pending.is_empty() && self.pending_bytes + tx_bytes > self.config.max_bytes {
            outcome.batches.push(self.take_pending());
        }

        let was_empty = self.pending.is_empty();
        self.pending.push(tx);
        self.pending_bytes += tx_bytes;

        // Rule 1: message-count cut. Rule 2b: a single oversize transaction
        // also goes out immediately.
        if self.pending.len() >= self.config.max_message_count
            || self.pending_bytes >= self.config.max_bytes
        {
            outcome.batches.push(self.take_pending());
        } else if was_empty {
            // Rule 3 setup: first tx into an empty batch starts the timer.
            self.timer_seq += 1;
            outcome.arm_timer = Some(self.timer_seq);
        }
        outcome
    }

    /// The batch timer fired. Cuts the pending batch only if `seq` is still
    /// the live timer (stale timers are ignored).
    pub fn timeout(&mut self, seq: u64) -> Option<Vec<Transaction>> {
        if seq != self.timer_seq || self.pending.is_empty() {
            return None;
        }
        Some(self.take_pending())
    }

    /// True while `seq` is the live (most recently armed, not yet
    /// invalidated) batch timer. Kafka-mode OSNs consult this before posting
    /// a time-to-cut marker, since their cut happens via the stream rather
    /// than through [`BlockCutter::timeout`].
    pub fn timer_is_live(&self, seq: u64) -> bool {
        seq == self.timer_seq && !self.pending.is_empty()
    }

    /// Unconditionally cuts whatever is pending (used by Kafka-mode OSNs when
    /// a time-to-cut marker arrives in the stream).
    pub fn cut(&mut self) -> Option<Vec<Transaction>> {
        if self.pending.is_empty() {
            None
        } else {
            Some(self.take_pending())
        }
    }

    fn take_pending(&mut self) -> Vec<Transaction> {
        self.pending_bytes = 0;
        // Invalidate any armed timer: a fresh batch gets a fresh timer.
        self.timer_seq += 1;
        std::mem::take(&mut self.pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabricsim_crypto::KeyPair;
    use fabricsim_types::{ChannelId, ClientId, Proposal, RwSet};

    fn tx(nonce: u64, payload_len: usize) -> Transaction {
        Transaction {
            tx_id: Proposal::derive_tx_id(ClientId(0), nonce),
            channel: ChannelId::default_channel(),
            chaincode: "kv".into(),
            rw_set: RwSet::new(),
            payload: vec![0u8; payload_len],
            endorsements: Vec::new(),
            creator: ClientId(0),
            signature: KeyPair::from_seed(b"c").sign(b"t"),
        }
    }

    fn cfg(count: usize, timeout_ms: u64, max_bytes: u64) -> BatchConfig {
        BatchConfig {
            max_message_count: count,
            batch_timeout_ms: timeout_ms,
            max_bytes,
        }
    }

    #[test]
    fn cuts_at_message_count() {
        let mut c = BlockCutter::new(cfg(3, 1000, 1 << 20));
        assert!(c.ordered(tx(1, 0)).batches.is_empty());
        assert!(c.ordered(tx(2, 0)).batches.is_empty());
        let out = c.ordered(tx(3, 0));
        assert_eq!(out.batches.len(), 1);
        assert_eq!(out.batches[0].len(), 3);
        assert_eq!(c.pending_count(), 0);
    }

    #[test]
    fn first_tx_arms_timer_once_per_batch() {
        let mut c = BlockCutter::new(cfg(10, 1000, 1 << 20));
        let out1 = c.ordered(tx(1, 0));
        assert!(out1.arm_timer.is_some());
        let out2 = c.ordered(tx(2, 0));
        assert!(out2.arm_timer.is_none(), "timer armed only by the first tx");
    }

    #[test]
    fn timeout_cuts_partial_batch() {
        let mut c = BlockCutter::new(cfg(10, 1000, 1 << 20));
        let seq = c.ordered(tx(1, 0)).arm_timer.unwrap();
        c.ordered(tx(2, 0));
        let batch = c.timeout(seq).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(c.pending_count(), 0);
    }

    #[test]
    fn stale_timer_is_ignored() {
        let mut c = BlockCutter::new(cfg(2, 1000, 1 << 20));
        let seq = c.ordered(tx(1, 0)).arm_timer.unwrap();
        c.ordered(tx(2, 0)); // count-cut happens here
        assert_eq!(c.timeout(seq), None, "batch already cut");
        // A new batch arms a new timer; the old seq stays dead.
        let seq2 = c.ordered(tx(3, 0)).arm_timer.unwrap();
        assert_ne!(seq, seq2);
        assert_eq!(c.timeout(seq), None);
        assert!(c.timeout(seq2).is_some());
    }

    #[test]
    fn empty_timeout_is_none() {
        let mut c = BlockCutter::new(cfg(2, 1000, 1 << 20));
        assert_eq!(c.timeout(1), None);
        assert_eq!(c.cut(), None);
    }

    #[test]
    fn byte_budget_cuts_previous_batch_first() {
        // Budget fits about 2 small txs; the third (big) one forces a cut.
        let small = tx(1, 10).wire_size();
        let mut c = BlockCutter::new(cfg(100, 1000, small * 2 + 10));
        c.ordered(tx(1, 10));
        c.ordered(tx(2, 10));
        let out = c.ordered(tx(3, 5000));
        assert_eq!(
            out.batches.len(),
            2,
            "previous pair, then the oversize tx alone"
        );
        assert_eq!(out.batches[0].len(), 2);
        assert_eq!(out.batches[1].len(), 1);
    }

    #[test]
    fn oversize_single_tx_cuts_alone() {
        let mut c = BlockCutter::new(cfg(100, 1000, 500));
        let out = c.ordered(tx(1, 5000));
        assert_eq!(out.batches.len(), 1);
        assert_eq!(out.batches[0].len(), 1);
    }

    #[test]
    fn unconditional_cut() {
        let mut c = BlockCutter::new(cfg(100, 1000, 1 << 20));
        c.ordered(tx(1, 0));
        c.ordered(tx(2, 0));
        assert_eq!(c.cut().unwrap().len(), 2);
        assert_eq!(c.pending_count(), 0);
    }
}
