//! Seeded properties (`rng::cases`): the block cutter partitions the input stream, and
//! Solo-OSN block emission preserves the transaction sequence.

use fabricsim_crypto::KeyPair;
use fabricsim_des::rng::cases;
use fabricsim_ordering::{BlockCutter, OsnEffect, OsnInput, OsnNode};
use fabricsim_types::{BatchConfig, ChannelId, ClientId, Proposal, RwSet, Transaction, TxId};

fn tx(nonce: u64, payload: usize) -> Transaction {
    Transaction {
        tx_id: Proposal::derive_tx_id(ClientId(0), nonce),
        channel: ChannelId::default_channel(),
        chaincode: "kv".into(),
        rw_set: RwSet::new(),
        payload: vec![0u8; payload],
        endorsements: Vec::new(),
        creator: ClientId(0),
        signature: KeyPair::from_seed(b"c").sign(b"t"),
    }
}

#[test]
fn cutter_partitions_the_stream() {
    cases("cutter_partitions_the_stream", 500, |rng| {
        let max_count = 1 + rng.pick_index(19);
        // (payload bytes, whether the batch timer fires after this transaction)
        let arrivals: Vec<(usize, bool)> = (0..1 + rng.next_below(79))
            .map(|_| (rng.pick_index(600), rng.chance(0.5)))
            .collect();
        let cfg = BatchConfig {
            max_message_count: max_count,
            batch_timeout_ms: 1000,
            max_bytes: 2_000,
        };
        let mut cutter = BlockCutter::new(cfg);
        let mut emitted: Vec<TxId> = Vec::new();
        let mut input: Vec<TxId> = Vec::new();
        let mut live_timer = None;

        for (i, &(payload, fire)) in arrivals.iter().enumerate() {
            let t = tx(i as u64, payload);
            input.push(t.tx_id);
            let out = cutter.ordered(t);
            if let Some(seq) = out.arm_timer {
                live_timer = Some(seq);
            }
            for batch in out.batches {
                assert!(batch.len() <= max_count, "batch exceeds BatchSize");
                assert!(!batch.is_empty());
                emitted.extend(batch.iter().map(|t| t.tx_id));
            }
            if fire {
                if let Some(seq) = live_timer {
                    if let Some(batch) = cutter.timeout(seq) {
                        assert!(batch.len() <= max_count);
                        emitted.extend(batch.iter().map(|t| t.tx_id));
                    }
                }
            }
        }
        if let Some(batch) = cutter.cut() {
            emitted.extend(batch.iter().map(|t| t.tx_id));
        }
        // Every transaction appears exactly once, in arrival order.
        assert_eq!(emitted, input);
    });
}

#[test]
fn solo_osn_preserves_sequence_and_chains() {
    cases("solo_osn_preserves_sequence_and_chains", 300, |rng| {
        let payloads: Vec<usize> = (0..1 + rng.next_below(119))
            .map(|_| rng.pick_index(64))
            .collect();
        let batch_size = 1 + rng.pick_index(29);
        let cfg = BatchConfig {
            max_message_count: batch_size,
            ..BatchConfig::default()
        };
        let mut osn = OsnNode::solo(0, ChannelId::default_channel(), cfg);
        let mut delivered: Vec<TxId> = Vec::new();
        let mut submitted: Vec<TxId> = Vec::new();
        let mut prev_hash = None;
        let mut acked = 0usize;

        for (i, &payload) in payloads.iter().enumerate() {
            let t = tx(i as u64, payload);
            submitted.push(t.tx_id);
            for e in osn.handle(OsnInput::Broadcast(t)) {
                match e {
                    OsnEffect::Ack { .. } => acked += 1,
                    OsnEffect::BlockReady(b) => {
                        if let Some(ph) = prev_hash {
                            assert_eq!(b.header.previous_hash, ph, "hash chain");
                        }
                        prev_hash = Some(b.header.hash());
                        delivered.extend(b.transactions.iter().map(|t| t.tx_id));
                    }
                    _ => {}
                }
            }
        }
        assert_eq!(acked, payloads.len(), "every broadcast is acked");
        // Delivered so far is a prefix of the submissions, in order.
        assert!(delivered.len() <= submitted.len());
        assert_eq!(&delivered[..], &submitted[..delivered.len()]);
    });
}
