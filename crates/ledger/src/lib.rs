//! # fabricsim-ledger — block store, world state and MVCC
//!
//! The peer-side storage stack:
//!
//! * [`BlockStore`] — the hash-chained append-only chain of blocks, indexed by
//!   number and by transaction id (the replay guard). Both valid and invalid
//!   transactions live here, with the flags the committer stamped, exactly as
//!   in Fabric.
//! * [`StateDb`] — the *world state*: a versioned key/value store where each
//!   value carries the [`fabricsim_types::Version`] of the transaction that
//!   wrote it. Only valid transactions touch it.
//! * [`mvcc`] — the committer's multi-version concurrency-control check: each
//!   transaction's read set is revalidated against current state (plus earlier
//!   writes in the same block), which is what turns stale reads into
//!   `MVCC_READ_CONFLICT` and prevents double spends.
//!
//! There is no history database. Nothing on the commit path reads one, so a
//! committer does not write one. A key's history (Fabric's
//! `GetHistoryForKey`) is rebuilt from the retained blocks and their flags,
//! which is how Fabric itself rebuilds its history DB: walk
//! [`Ledger::blocks`] in order and keep the writes to the key of every
//! transaction whose stamped flag is valid, at version (block number, index
//! in block).
//!
//! ```
//! use fabricsim_ledger::{Ledger, StateDb};
//! let mut ledger = Ledger::new("mychannel");
//! assert_eq!(ledger.height(), 0);
//! assert!(ledger.state().get("k").is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blockstore;
pub mod mvcc;
mod statedb;

pub use blockstore::{BlockStore, ChainError};
pub use statedb::{StateDb, VersionedValue};

use fabricsim_types::{Block, CheckedBlock, ValidationCode, Version};

/// A channel's complete ledger: block store + world state, with the commit
/// path that glues them together.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    channel: String,
    blocks: BlockStore,
    state: StateDb,
}

impl Ledger {
    /// Creates an empty ledger for a channel.
    pub fn new(channel: impl Into<String>) -> Self {
        Ledger {
            channel: channel.into(),
            blocks: BlockStore::new(),
            state: StateDb::new(),
        }
    }

    /// The channel name.
    pub fn channel(&self) -> &str {
        &self.channel
    }

    /// Current chain height (number of blocks).
    pub fn height(&self) -> u64 {
        self.blocks.height()
    }

    /// Read access to the world state.
    pub fn state(&self) -> &StateDb {
        &self.state
    }

    /// Mutable world-state access for *bootstrap seeding only* (chaincode
    /// `init` before any block is committed). All post-genesis writes must go
    /// through [`Ledger::validate_and_commit`].
    pub fn state_mut_for_bootstrap(&mut self) -> &mut StateDb {
        &mut self.state
    }

    /// Read access to the block store.
    pub fn blocks(&self) -> &BlockStore {
        &self.blocks
    }

    /// Validates (MVCC) and commits a block whose per-transaction pre-checks
    /// (signatures, endorsement policy) have already produced `pre_flags`
    /// entries of `Some(code)` for failed transactions and `None` for ones
    /// still eligible. The type already proves the block's data hash (get
    /// one from [`BlockStore::admit`]), so the Merkle root is not computed
    /// again; number and previous-hash are checked against the tip when the
    /// block is appended, before anything is written. This is the path
    /// `Peer::validate_and_commit` takes, so each envelope is hashed once per
    /// committer.
    ///
    /// Returns the final validation flags. The block — including invalid
    /// transactions — is appended to the chain; only valid transactions update
    /// the world state.
    ///
    /// # Errors
    /// Returns [`ChainError`] if the block does not link onto the current tip.
    ///
    /// # Panics
    /// Panics if `pre_flags.len() != checked.block().transactions.len()`.
    pub fn validate_and_commit(
        &mut self,
        checked: CheckedBlock,
        pre_flags: &[Option<ValidationCode>],
    ) -> Result<Vec<ValidationCode>, ChainError> {
        assert_eq!(
            pre_flags.len(),
            checked.block().transactions.len(),
            "one pre-flag per transaction"
        );
        let flags = mvcc::validate_block(&self.state, &self.blocks, checked.block(), pre_flags);
        self.append_and_apply(checked, flags.clone())?;
        Ok(flags)
    }

    /// The MVCC stage of the validation pipeline: checks that `block` chains
    /// onto the current tip and revalidates every still-eligible transaction's
    /// read set against the world state (plus earlier writes in the same
    /// block). Pure with respect to the ledger — nothing is written.
    ///
    /// # Errors
    /// Returns [`ChainError`] if the block does not chain onto the current tip.
    ///
    /// # Panics
    /// Panics if `pre_flags.len() != block.transactions.len()`.
    pub fn mvcc_flags(
        &self,
        block: &Block,
        pre_flags: &[Option<ValidationCode>],
    ) -> Result<Vec<ValidationCode>, ChainError> {
        assert_eq!(
            pre_flags.len(),
            block.transactions.len(),
            "one pre-flag per transaction"
        );
        self.blocks.check_chains(block)?;
        Ok(mvcc::validate_block(
            &self.state,
            &self.blocks,
            block,
            pre_flags,
        ))
    }

    /// The commit stage of the validation pipeline: applies the writes of
    /// transactions flagged valid (in block order), stamps `flags` into the
    /// block metadata, and appends the block — including invalid transactions
    /// — to the chain. `flags` must come from [`Ledger::mvcc_flags`] on this
    /// same block at this same height; the stage itself is serial, exactly as
    /// in Fabric 1.4. The stage trusts nothing it is handed: number,
    /// previous-hash and data hash are verified again before anything is
    /// written.
    ///
    /// # Panics
    /// Panics if `flags.len() != block.transactions.len()` or if the block
    /// does not chain (the MVCC stage checked it already).
    pub fn commit(&mut self, block: Block, flags: Vec<ValidationCode>) {
        assert_eq!(
            flags.len(),
            block.transactions.len(),
            "one flag per transaction"
        );
        #[expect(
            clippy::expect_used,
            reason = "the MVCC stage verified chain linkage before this commit"
        )]
        self.blocks
            .admit(block)
            .and_then(|checked| self.append_and_apply(checked, flags))
            .expect("chain checked by the MVCC stage");
    }

    /// Appends `checked` with `flags` stamped in, then applies the writes of
    /// the transactions flagged valid, in block order. Nothing is written if
    /// the block does not link onto the tip.
    fn append_and_apply(
        &mut self,
        mut checked: CheckedBlock,
        flags: Vec<ValidationCode>,
    ) -> Result<(), ChainError> {
        checked.stamp_flags(flags);
        let block = self.blocks.append_checked(checked)?;
        for (i, tx) in block.transactions.iter().enumerate() {
            if block.metadata.flags[i].is_valid() {
                let version = Version::new(block.header.number, i as u32);
                for w in &tx.rw_set.writes {
                    self.state.apply_write(&w.key, w.value.clone(), version);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabricsim_crypto::{Hash256, KeyPair};
    use fabricsim_types::{
        ChannelId, ClientId, Endorsement, OrgId, Principal, Proposal, RwSet, Transaction, TxId,
        Version,
    };

    fn tx(nonce: u64, writes: &[(&str, &[u8])], reads: &[(&str, Option<Version>)]) -> Transaction {
        let creator = ClientId(0);
        let mut rw = RwSet::new();
        for (k, v) in reads {
            rw.record_read(k, *v);
        }
        for (k, v) in writes {
            rw.record_write(k, Some(v.to_vec()));
        }
        Transaction {
            tx_id: Proposal::derive_tx_id(creator, nonce),
            channel: ChannelId::default_channel(),
            chaincode: "kv".into(),
            rw_set: rw,
            payload: Vec::new(),
            endorsements: Vec::new(),
            creator,
            signature: KeyPair::from_seed(b"c").sign(b"t"),
        }
    }

    fn block(ledger: &Ledger, txs: Vec<Transaction>) -> Block {
        let prev = ledger.blocks().tip_hash().unwrap_or(Hash256::ZERO);
        Block::assemble(ChannelId::default_channel(), ledger.height(), prev, txs)
    }

    /// Admits `block` onto the tip, then validates and commits it.
    fn admit_and_commit(
        l: &mut Ledger,
        block: Block,
        pre_flags: &[Option<ValidationCode>],
    ) -> Result<Vec<ValidationCode>, ChainError> {
        let checked = l.blocks().admit(block)?;
        l.validate_and_commit(checked, pre_flags)
    }

    #[test]
    fn commit_applies_valid_writes() {
        let mut l = Ledger::new("ch");
        let b = block(&l, vec![tx(1, &[("a", b"1")], &[])]);
        let flags = admit_and_commit(&mut l, b, &[None]).unwrap();
        assert_eq!(flags, vec![ValidationCode::Valid]);
        assert_eq!(l.state().get("a").unwrap().value, b"1");
        assert_eq!(l.height(), 1);
    }

    #[test]
    fn stale_read_is_invalidated_but_stored() {
        let mut l = Ledger::new("ch");
        let b0 = block(&l, vec![tx(1, &[("a", b"1")], &[])]);
        admit_and_commit(&mut l, b0, &[None]).unwrap();
        // This tx read "a" before the write above landed (version None = absent).
        let stale = tx(2, &[("b", b"x")], &[("a", None)]);
        let b1 = block(&l, vec![stale]);
        let flags = admit_and_commit(&mut l, b1, &[None]).unwrap();
        assert_eq!(flags, vec![ValidationCode::MvccReadConflict]);
        assert!(l.state().get("b").is_none(), "invalid tx must not write");
        assert_eq!(l.height(), 2, "invalid txs are still recorded on chain");
    }

    #[test]
    fn pre_flagged_failures_pass_through() {
        let mut l = Ledger::new("ch");
        let b = block(&l, vec![tx(1, &[("a", b"1")], &[])]);
        let flags =
            admit_and_commit(&mut l, b, &[Some(ValidationCode::EndorsementPolicyFailure)]).unwrap();
        assert_eq!(flags, vec![ValidationCode::EndorsementPolicyFailure]);
        assert!(l.state().get("a").is_none());
    }

    #[test]
    fn staged_and_fused_paths_produce_the_identical_ledger() {
        let mut staged = Ledger::new("ch");
        let mut fused = Ledger::new("ch");
        let txs = || {
            vec![
                tx(1, &[("a", b"1")], &[]),
                tx(2, &[("b", b"2")], &[("a", None)]), // stale once tx 1 lands
                tx(3, &[("c", b"3")], &[]),            // pre-flagged by VSCC
            ]
        };
        let pre = [None, None, Some(ValidationCode::BadCreatorSignature)];
        for round in 0..2 {
            let b = block(&staged, txs());
            let flags = staged.mvcc_flags(&b, &pre).unwrap();
            assert_eq!(staged.height(), round, "mvcc stage must not write");
            staged.commit(b, flags.clone());

            let checked = CheckedBlock::new(block(&fused, txs())).expect("consistent block");
            let got = fused.validate_and_commit(checked, &pre).unwrap();
            assert_eq!(got, flags);
        }
        assert_eq!(staged.height(), fused.height());
        assert_eq!(
            staged.blocks().tip_hash(),
            fused.blocks().tip_hash(),
            "both paths must produce the identical chain"
        );
        assert!(staged.state().range("", "").eq(fused.state().range("", "")));
        assert!(staged.blocks().iter().eq(fused.blocks().iter()));
        assert!(fused.blocks().verify_chain().is_ok());
    }

    /// A block whose transactions were altered after `Block::assemble`.
    fn altered_block(l: &Ledger) -> Block {
        altered_blocks(l).swap_remove(0)
    }

    /// The same block altered four ways: in the payload and in the rw-set
    /// (which reach the envelope hash only through the nested response
    /// digest), in one endorsement and in the creator (which reach it
    /// directly).
    fn altered_blocks(l: &Ledger) -> Vec<Block> {
        let mut endorsed = tx(8, &[("b", b"2")], &[]);
        endorsed.endorsements.push(Endorsement {
            endorser: Principal::peer(OrgId(1)),
            endorser_key: KeyPair::from_seed(b"e").public,
            signature: KeyPair::from_seed(b"e").sign(b"r"),
        });
        let good = block(l, vec![tx(7, &[("a", b"1")], &[]), endorsed]);
        let alter = |f: &dyn Fn(&mut Transaction)| {
            let mut txs = good.transactions.to_vec();
            f(&mut txs[1]);
            Block {
                transactions: txs.into(),
                ..good.clone()
            }
        };
        vec![
            alter(&|t| t.payload = b"evil".to_vec()),
            alter(&|t| t.rw_set.record_write("a", Some(b"evil".to_vec()))),
            alter(&|t| t.endorsements[0].signature.s ^= 1),
            alter(&|t| t.creator = ClientId(9)),
        ]
    }

    #[test]
    fn altered_block_is_rejected_by_every_entry_point_and_nothing_is_written() {
        let mut l = Ledger::new("ch");
        let b0 = block(&l, vec![tx(1, &[("z", b"0")], &[])]);
        admit_and_commit(&mut l, b0, &[None]).unwrap();
        let before = (
            l.height(),
            l.blocks().tip_hash(),
            l.state().writes_applied(),
        );

        for bad in altered_blocks(&l) {
            assert_eq!(
                l.mvcc_flags(&bad, &[None, None]),
                Err(ChainError::BadDataHash)
            );
            assert_eq!(
                l.blocks().admit(bad.clone()).map(|_| ()),
                Err(ChainError::BadDataHash)
            );
            assert_eq!(l.blocks().check_chains(&bad), Err(ChainError::BadDataHash));
            assert_eq!(CheckedBlock::new(bad.clone()), None);
            let mut store = l.blocks().clone();
            assert_eq!(store.append(bad), Err(ChainError::BadDataHash));
            assert_eq!(store.height(), l.height());
            assert_eq!(
                (
                    l.height(),
                    l.blocks().tip_hash(),
                    l.state().writes_applied()
                ),
                before
            );
            assert!(l.state().get("a").is_none());
        }
    }

    #[test]
    fn commit_stage_panics_on_an_altered_block_before_writing_anything() {
        let mut l = Ledger::new("ch");
        let b = altered_block(&l);
        let flags = vec![ValidationCode::Valid, ValidationCode::Valid];
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| l.commit(b, flags)))
            .expect_err("an altered block must not commit");
        let message = panic.downcast_ref::<String>().expect("a formatted panic");
        assert_eq!(message, "chain checked by the MVCC stage: BadDataHash");
        assert_eq!(l.height(), 0);
        assert_eq!(l.state().writes_applied(), 0);
    }

    #[test]
    fn error_precedence_is_number_then_link_then_data_hash() {
        let mut l = Ledger::new("ch");
        let b0 = block(&l, vec![tx(1, &[("z", b"0")], &[])]);
        admit_and_commit(&mut l, b0, &[None]).unwrap();
        // Wrong in all three ways, then in two, then in one.
        let mut all = altered_block(&l);
        all.header.number = 9;
        all.header.previous_hash = Hash256::ZERO;
        let mut link_and_hash = altered_block(&l);
        link_and_hash.header.previous_hash = Hash256::ZERO;
        let cases = [
            (all, ChainError::WrongNumber { got: 9, want: 1 }),
            (link_and_hash, ChainError::BrokenChain),
            (altered_block(&l), ChainError::BadDataHash),
        ];
        for (bad, want) in cases {
            let pre = vec![None; bad.len()];
            assert_eq!(l.mvcc_flags(&bad, &pre), Err(want.clone()));
            assert_eq!(l.blocks().check_chains(&bad), Err(want.clone()));
            assert_eq!(l.blocks().clone().append(bad.clone()), Err(want.clone()));
            assert_eq!(admit_and_commit(&mut l, bad, &pre), Err(want));
        }
        assert_eq!(l.height(), 1);
    }

    #[test]
    fn fused_path_rechecks_links_at_the_height_it_commits_at() {
        // A proof of the data hash says nothing about where the block goes:
        // one built against an older tip must still be refused.
        let mut l = Ledger::new("ch");
        let at_genesis = CheckedBlock::new(block(&l, vec![tx(1, &[("a", b"1")], &[])]))
            .expect("consistent block");
        let sibling = CheckedBlock::new(block(&l, vec![tx(2, &[("b", b"2")], &[])]))
            .expect("consistent block");
        l.validate_and_commit(at_genesis, &[None]).unwrap();
        assert_eq!(
            l.validate_and_commit(sibling.clone(), &[None]),
            Err(ChainError::WrongNumber { got: 0, want: 1 })
        );
        assert_eq!(
            l.blocks().clone().append_checked(sibling).map(|_| ()),
            Err(ChainError::WrongNumber { got: 0, want: 1 })
        );
        let mut unlinked = block(&l, vec![tx(3, &[("c", b"3")], &[])]);
        unlinked.header.previous_hash = Hash256::ZERO;
        let unlinked = CheckedBlock::new(unlinked).expect("data hash still consistent");
        assert_eq!(
            l.validate_and_commit(unlinked, &[None]),
            Err(ChainError::BrokenChain)
        );
        assert_eq!(l.height(), 1);
        assert!(l.state().get("b").is_none() && l.state().get("c").is_none());
    }

    #[test]
    fn mvcc_stage_rejects_non_chaining_block() {
        let mut l = Ledger::new("ch");
        let b0 = block(&l, vec![tx(1, &[("a", b"1")], &[])]);
        admit_and_commit(&mut l, b0, &[None]).unwrap();
        // A block built against the pre-commit tip no longer chains.
        let stale_block = Block::assemble(
            ChannelId::default_channel(),
            0,
            Hash256::ZERO,
            vec![tx(2, &[("b", b"2")], &[])],
        );
        assert!(l.mvcc_flags(&stale_block, &[None]).is_err());
    }

    /// Every committed write to `key`, oldest first, rebuilt from the blocks
    /// and the flags stamped into them, as the crate docs describe.
    fn key_history(l: &Ledger, key: &str) -> Vec<(TxId, Version, bool)> {
        let mut out = Vec::new();
        for b in l.blocks().iter() {
            for (i, (tx, flag)) in b.transactions.iter().zip(&b.metadata.flags).enumerate() {
                let version = Version::new(b.header.number, i as u32);
                let writes = tx.rw_set.writes.iter().filter(|w| w.key == key);
                if flag.is_valid() {
                    out.extend(writes.map(|w| (tx.tx_id, version, w.is_delete())));
                }
            }
        }
        out
    }

    #[test]
    fn history_records_writes() {
        let mut l = Ledger::new("ch");
        let b0 = block(&l, vec![tx(1, &[("a", b"1")], &[])]);
        admit_and_commit(&mut l, b0, &[None]).unwrap();
        // Block 1: a stale read of "a" (not in the history), then a write.
        let stale = tx(2, &[("a", b"x")], &[("a", None)]);
        let b1 = block(&l, vec![stale, tx(3, &[("a", b"2")], &[])]);
        admit_and_commit(&mut l, b1, &[None, None]).unwrap();
        let mut delete = tx(4, &[], &[]);
        delete.rw_set.record_write("a", None);
        let b2 = block(&l, vec![delete]);
        admit_and_commit(&mut l, b2, &[None]).unwrap();
        let hist = key_history(&l, "a");
        let ids = |nonce| Proposal::derive_tx_id(ClientId(0), nonce);
        assert_eq!(
            hist,
            vec![
                (ids(1), Version::new(0, 0), false),
                (ids(3), Version::new(1, 1), false),
                (ids(4), Version::new(2, 0), true),
            ]
        );
        assert!(key_history(&l, "nope").is_empty());
    }
}
