//! Multi-version concurrency control: the committer's read-set revalidation.
//!
//! For each transaction (in block order), every read's observed version must
//! equal the key's current committed version, where "current" includes writes
//! of *earlier valid transactions in the same block*. A mismatch flags the
//! transaction `MVCC_READ_CONFLICT`; this is how Fabric prevents double
//! spends and enforces serializability of the execute-order-validate flow.

use std::collections::{HashMap, HashSet};

use fabricsim_types::{Block, FxBuildHasher, TxId, ValidationCode, Version};

use crate::blockstore::BlockStore;
use crate::statedb::StateDb;

/// Validates all transactions of a block against `state`, honoring
/// `pre_flags` (failures already assigned by VSCC/signature checks: those
/// transactions keep their code and do not contribute writes).
///
/// Returns one [`ValidationCode`] per transaction.
///
/// # Panics
/// Panics if `pre_flags.len() != block.transactions.len()`.
pub fn validate_block(
    state: &StateDb,
    committed: &BlockStore,
    block: &Block,
    pre_flags: &[Option<ValidationCode>],
) -> Vec<ValidationCode> {
    assert_eq!(pre_flags.len(), block.transactions.len());
    let n = block.transactions.len();
    // Writes applied by earlier valid txs *within this block*.
    let mut intra_block: HashMap<&str, Version, FxBuildHasher> =
        HashMap::with_capacity_and_hasher(n, FxBuildHasher);
    let mut seen_txids: HashSet<TxId, FxBuildHasher> =
        HashSet::with_capacity_and_hasher(n, FxBuildHasher);
    let mut flags = Vec::with_capacity(n);

    for (i, tx) in block.transactions.iter().enumerate() {
        if let Some(code) = pre_flags[i] {
            flags.push(code);
            continue;
        }
        // Replay guard: the same tx id must not commit twice — neither across
        // blocks nor within one block.
        if committed.contains_tx(&tx.tx_id) || seen_txids.contains(&tx.tx_id) {
            flags.push(ValidationCode::DuplicateTxId);
            continue;
        }

        let conflict = tx.rw_set.reads.iter().any(|r| {
            let current = intra_block
                .get(&*r.key)
                .copied()
                .or_else(|| state.version_of(&r.key));
            current != r.version
        });
        if conflict {
            flags.push(ValidationCode::MvccReadConflict);
            continue;
        }

        // Valid: expose its writes to later transactions in this block.
        let version = Version::new(block.header.number, i as u32);
        for w in &tx.rw_set.writes {
            intra_block.insert(&w.key, version);
        }
        seen_txids.insert(tx.tx_id);
        flags.push(ValidationCode::Valid);
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabricsim_crypto::{Hash256, KeyPair};
    use fabricsim_types::{ChannelId, ClientId, KvWrite, Proposal, RwSet, Transaction};

    fn tx(nonce: u64, reads: &[(&str, Option<Version>)], writes: &[&str]) -> Transaction {
        let mut rw = RwSet::new();
        for (k, v) in reads {
            rw.record_read(k, *v);
        }
        for k in writes {
            rw.record_write(k, Some(b"v"));
        }
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

    fn block_of(txs: Vec<Transaction>, number: u64) -> Block {
        Block::assemble(ChannelId::default_channel(), number, Hash256::ZERO, txs)
    }

    fn no_flags(n: usize) -> Vec<Option<ValidationCode>> {
        vec![None; n]
    }

    #[test]
    fn fresh_reads_are_valid() {
        let state = StateDb::new();
        let store = BlockStore::new();
        let b = block_of(vec![tx(1, &[("k", None)], &["k"])], 0);
        let flags = validate_block(&state, &store, &b, &no_flags(1));
        assert_eq!(flags, vec![ValidationCode::Valid]);
    }

    #[test]
    fn stale_version_conflicts() {
        let mut state = StateDb::new();
        state.apply_write(&KvWrite::new("k", Some(b"v")), Version::new(3, 0));
        let store = BlockStore::new();
        // The tx observed version (1,0) but committed is (3,0).
        let b = block_of(vec![tx(1, &[("k", Some(Version::new(1, 0)))], &[])], 4);
        let flags = validate_block(&state, &store, &b, &no_flags(1));
        assert_eq!(flags, vec![ValidationCode::MvccReadConflict]);
    }

    #[test]
    fn intra_block_conflict_first_wins() {
        // Two txs both read k@None and write k: the classic double-spend race.
        let state = StateDb::new();
        let store = BlockStore::new();
        let b = block_of(
            vec![tx(1, &[("k", None)], &["k"]), tx(2, &[("k", None)], &["k"])],
            0,
        );
        let flags = validate_block(&state, &store, &b, &no_flags(2));
        assert_eq!(
            flags,
            vec![ValidationCode::Valid, ValidationCode::MvccReadConflict]
        );
    }

    #[test]
    fn invalid_txs_do_not_shadow_writes() {
        // tx0 fails pre-check; tx1 reads the key tx0 would have written.
        let state = StateDb::new();
        let store = BlockStore::new();
        let b = block_of(
            vec![tx(1, &[("k", None)], &["k"]), tx(2, &[("k", None)], &["k"])],
            0,
        );
        let flags = validate_block(
            &state,
            &store,
            &b,
            &[Some(ValidationCode::EndorsementPolicyFailure), None],
        );
        assert_eq!(
            flags,
            vec![
                ValidationCode::EndorsementPolicyFailure,
                ValidationCode::Valid
            ]
        );
    }

    #[test]
    fn duplicate_txid_within_block_rejected() {
        let state = StateDb::new();
        let store = BlockStore::new();
        let t = tx(1, &[], &["a"]);
        let b = block_of(vec![t.clone(), t], 0);
        let flags = validate_block(&state, &store, &b, &no_flags(2));
        assert_eq!(
            flags,
            vec![ValidationCode::Valid, ValidationCode::DuplicateTxId]
        );
    }

    #[test]
    fn duplicate_txid_across_blocks_rejected() {
        let state = StateDb::new();
        let mut store = BlockStore::new();
        let t = tx(1, &[], &["a"]);
        let mut b0 = block_of(vec![t.clone()], 0);
        b0.metadata.flags = vec![ValidationCode::Valid];
        store.append(b0).unwrap();
        let b1 = Block::assemble(
            ChannelId::default_channel(),
            1,
            store.tip_hash().unwrap(),
            vec![t],
        );
        let flags = validate_block(&state, &store, &b1, &no_flags(1));
        assert_eq!(flags, vec![ValidationCode::DuplicateTxId]);
    }

    #[test]
    fn genesis_read_conflicts_with_block_zero_write() {
        // Regression: a read of bootstrap state (GENESIS sentinel) must go
        // stale when block 0 / tx 0 rewrites the key — the sentinel must not
        // collide with Version::new(0, 0).
        let mut state = StateDb::new();
        state.seed("k", b"boot".to_vec());
        let mut store = BlockStore::new();
        let b0 = {
            let mut b = block_of(vec![tx(1, &[("k", Some(Version::GENESIS))], &["k"])], 0);
            b.metadata.flags = vec![ValidationCode::Valid];
            b
        };
        state.apply_write(&KvWrite::new("k", Some(b"new")), Version::new(0, 0));
        store.append(b0).unwrap();
        // A stale endorsement still carrying the GENESIS read must conflict.
        let b1 = Block::assemble(
            ChannelId::default_channel(),
            1,
            store.tip_hash().unwrap(),
            vec![tx(2, &[("k", Some(Version::GENESIS))], &["k"])],
        );
        let flags = validate_block(&state, &store, &b1, &no_flags(1));
        assert_eq!(flags, vec![ValidationCode::MvccReadConflict]);
    }

    #[test]
    fn read_write_chain_within_block_is_serializable() {
        // tx0 writes k; tx1 reads k at tx0's version — valid only if the
        // read version matches tx0's intra-block write.
        let state = StateDb::new();
        let store = BlockStore::new();
        let b = block_of(
            vec![
                tx(1, &[], &["k"]),
                tx(2, &[("k", Some(Version::new(0, 0)))], &[]),
            ],
            0,
        );
        let flags = validate_block(&state, &store, &b, &no_flags(2));
        assert_eq!(flags, vec![ValidationCode::Valid, ValidationCode::Valid]);
    }
}
