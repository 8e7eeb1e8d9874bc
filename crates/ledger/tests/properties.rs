//! Seeded properties (`rng::cases`): MVCC commit equals serial execution of the accepted
//! transactions, and the chain stays verifiable under arbitrary block shapes.

use std::collections::BTreeMap;
use std::sync::Arc;

use fabricsim_crypto::{Hash256, KeyPair};
use fabricsim_des::rng::cases;
use fabricsim_ledger::Ledger;
use fabricsim_types::{
    Block, ChannelId, ClientId, Proposal, RwSet, Transaction, ValidationCode, Version,
};

/// A synthetic read-modify-write transaction over a tiny keyspace, carrying
/// the read versions observed in `observed` (the endorsement-time snapshot).
fn rmw_tx(nonce: u64, key: &str, value: u8, observed: &BTreeMap<String, Version>) -> Transaction {
    let mut rw = RwSet::new();
    rw.record_read(key, observed.get(key).copied());
    rw.record_write(key, Some(&[value]));
    Transaction {
        tx_id: Proposal::derive_tx_id(ClientId(0), nonce),
        channel: ChannelId::default_channel(),
        chaincode: "kv".into(),
        rw_set: rw,
        payload: Vec::new(),
        endorsements: Vec::new(),
        creator: ClientId(0),
        signature: KeyPair::from_seed(b"c").sign(b"t"),
    }
}

/// Model-check MVCC: replaying only the transactions the ledger flagged
/// VALID — serially, against a plain map with version bookkeeping — must
/// produce exactly the ledger's world state.
#[test]
fn committed_state_equals_serial_replay_of_valid_txs() {
    let name = "committed_state_equals_serial_replay_of_valid_txs";
    cases(name, 300, |rng| {
        // Each op: (key 0..4, value, staleness: how many blocks old its
        // endorsement snapshot is).
        let ops: Vec<(u8, u8, usize)> = (0..1 + rng.next_below(59))
            .map(|_| {
                (
                    rng.next_below(4) as u8,
                    rng.next_u64() as u8,
                    rng.pick_index(3),
                )
            })
            .collect();
        let block_size = 1 + rng.pick_index(7);
        let mut ledger = Ledger::new("prop");
        // Snapshots of (key -> version) at each committed height.
        let mut snapshots: Vec<BTreeMap<String, Version>> = vec![BTreeMap::new()];
        let mut nonce = 0u64;

        for chunk in ops.chunks(block_size) {
            let txs: Vec<Transaction> = chunk
                .iter()
                .map(|&(k, v, staleness)| {
                    nonce += 1;
                    let key = format!("k{k}");
                    // Pick an endorsement snapshot a few blocks old.
                    let snap_idx = snapshots.len().saturating_sub(1 + staleness);
                    rmw_tx(nonce, &key, v, &snapshots[snap_idx])
                })
                .collect();
            let block = Block::assemble(
                ChannelId::default_channel(),
                ledger.height(),
                ledger.blocks().tip_hash().unwrap_or(Hash256::ZERO),
                txs,
            );
            let n = block.transactions.len();
            let checked = ledger.blocks().admit(block).unwrap();
            ledger.validate_and_commit(checked, &vec![None; n]).unwrap();
            // Record the new committed snapshot.
            let snap: BTreeMap<String, Version> = (0..4)
                .filter_map(|k| {
                    let key = format!("k{k}");
                    ledger.state().version_of(&key).map(|v| (key, v))
                })
                .collect();
            snapshots.push(snap);
        }

        // Serial replay of VALID transactions only.
        let mut model: BTreeMap<Arc<str>, Arc<[u8]>> = BTreeMap::new();
        for block in ledger.blocks().iter() {
            for (i, tx) in block.transactions.iter().enumerate() {
                if block.metadata.flags[i] == ValidationCode::Valid {
                    for w in &tx.rw_set.writes {
                        model.insert(w.key.clone(), w.value.clone().unwrap());
                    }
                }
            }
        }
        for (key, want) in &model {
            let got = ledger.state().get(key).map(|v| v.value.clone());
            assert_eq!(got.as_ref(), Some(want), "key {}", key);
        }
        // And the chain verifies end to end.
        assert!(ledger.blocks().verify_chain().is_ok());

        // Fundamental MVCC guarantee: within the accepted (VALID) sequence,
        // every read observed the version of the immediately preceding
        // accepted write of that key.
        let mut last_writer: BTreeMap<Arc<str>, Version> = BTreeMap::new();
        for block in ledger.blocks().iter() {
            for (i, tx) in block.transactions.iter().enumerate() {
                if block.metadata.flags[i] != ValidationCode::Valid {
                    continue;
                }
                for r in &tx.rw_set.reads {
                    assert_eq!(
                        r.version,
                        last_writer.get(&r.key).copied(),
                        "valid tx read a stale version of {}",
                        r.key
                    );
                }
                let version = Version::new(block.header.number, i as u32);
                for w in &tx.rw_set.writes {
                    last_writer.insert(w.key.clone(), version);
                }
            }
        }
    });
}
