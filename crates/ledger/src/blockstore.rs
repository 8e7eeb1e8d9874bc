//! The append-only, hash-chained block store with its transaction-id index.

use std::collections::{HashSet, VecDeque};
use std::error::Error;
use std::fmt;

use fabricsim_crypto::Hash256;
use fabricsim_types::{Block, BlockHeader, CheckedBlock, FxBuildHasher, TxId};

/// Errors appending to the chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// The block's number is not the current height.
    WrongNumber {
        /// Number carried by the block.
        got: u64,
        /// Expected next height.
        want: u64,
    },
    /// The block's previous-hash does not match the tip.
    BrokenChain,
    /// The block's data hash does not match its transactions.
    BadDataHash,
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::WrongNumber { got, want } => {
                write!(f, "block number {got} does not match height {want}")
            }
            ChainError::BrokenChain => f.write_str("previous-hash does not match chain tip"),
            ChainError::BadDataHash => f.write_str("block data hash inconsistent with payload"),
        }
    }
}

impl Error for ChainError {}

/// The chain of committed blocks plus the index by transaction id that the
/// replay guard reads. Blocks are found by number; a lookup by header hash
/// or a key's history is a walk over [`BlockStore::iter`].
///
/// [`BlockStore::retire_through`] lets go of the oldest bodies: the height,
/// the tip hash and every transaction id stay, so linking, the replay guard
/// and [`BlockStore::verify_chain`] over what is left work as before.
#[derive(Debug, Clone, Default)]
pub struct BlockStore {
    /// The retained blocks, numbered from `retired`.
    blocks: VecDeque<Block>,
    /// How many blocks were retired: the number of the first retained one.
    retired: u64,
    /// Header hash of the last retired block; `None` while none is.
    retired_tip: Option<Hash256>,
    /// Every committed transaction id, valid or not.
    tx_ids: HashSet<TxId, FxBuildHasher>,
    /// Header hash of the last block; `None` on an empty chain.
    tip: Option<Hash256>,
}

impl BlockStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Chain height (number of committed blocks, retired ones included).
    pub fn height(&self) -> u64 {
        self.retired + self.blocks.len() as u64
    }

    /// Hash of the tip block's header; `None` on an empty chain.
    pub fn tip_hash(&self) -> Option<Hash256> {
        self.tip
    }

    /// Verifies that a block with this header would link onto the tip: its
    /// number is the height and its previous-hash is the tip's header hash.
    ///
    /// # Errors
    /// [`ChainError::WrongNumber`], then [`ChainError::BrokenChain`].
    pub fn check_links(&self, header: &BlockHeader) -> Result<(), ChainError> {
        if header.number != self.height() {
            return Err(ChainError::WrongNumber {
                got: header.number,
                want: self.height(),
            });
        }
        if header.previous_hash != self.tip.unwrap_or(Hash256::ZERO) {
            return Err(ChainError::BrokenChain);
        }
        Ok(())
    }

    /// Verifies — without mutating — that `block` would chain onto the tip.
    ///
    /// # Errors
    /// The specific [`ChainError`] describing the mismatch: number, then
    /// previous-hash, then data hash.
    pub fn check_chains(&self, block: &Block) -> Result<(), ChainError> {
        self.check_links(&block.header)?;
        if !block.data_hash_is_consistent() {
            return Err(ChainError::BadDataHash);
        }
        Ok(())
    }

    /// [`BlockStore::check_chains`] by value: the same three checks in the
    /// same order, returning the proof of the third so that whoever holds it
    /// need not hash the block again.
    ///
    /// # Errors
    /// See [`BlockStore::check_chains`].
    pub fn admit(&self, block: Block) -> Result<CheckedBlock, ChainError> {
        self.check_links(&block.header)?;
        CheckedBlock::new(block).ok_or(ChainError::BadDataHash)
    }

    /// Appends a block after chain checks.
    ///
    /// # Errors
    /// See [`BlockStore::check_chains`].
    pub fn append(&mut self, block: Block) -> Result<(), ChainError> {
        let checked = self.admit(block)?;
        self.append_checked(checked).map(|_| ())
    }

    /// Appends a block whose data hash the type already proves, re-checking
    /// only that it links onto the tip as it stands now. Returns the block as
    /// stored.
    ///
    /// # Errors
    /// See [`BlockStore::check_links`].
    pub fn append_checked(&mut self, checked: CheckedBlock) -> Result<&Block, ChainError> {
        let block = checked.into_block();
        self.check_links(&block.header)?;
        self.tip = Some(block.header.hash());
        for tx in block.transactions.iter() {
            self.tx_ids.insert(tx.tx_id);
        }
        let at = self.blocks.len();
        self.blocks.push_back(block);
        Ok(&self.blocks[at])
    }

    /// Lets go of the bodies and flags of every block numbered `number` or
    /// lower. The height, the tip hash and the transaction ids stay; a
    /// retired block is no longer found by [`BlockStore::by_number`] or
    /// walked by [`BlockStore::iter`].
    pub fn retire_through(&mut self, number: u64) {
        while self.retired <= number {
            let Some(block) = self.blocks.pop_front() else {
                break;
            };
            self.retired_tip = Some(block.header.hash());
            self.retired += 1;
        }
    }

    /// Fetches a retained block by number.
    pub fn by_number(&self, number: u64) -> Option<&Block> {
        let at = number.checked_sub(self.retired)?;
        self.blocks.get(usize::try_from(at).ok()?)
    }

    /// Whether a transaction id has ever been committed (replay guard).
    pub fn contains_tx(&self, tx_id: &TxId) -> bool {
        self.tx_ids.contains(tx_id)
    }

    /// Iterates the retained blocks in order.
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter()
    }

    /// Verifies the retained chain: numbering, hash links and data hashes,
    /// the first retained block linking onto the last retired one.
    pub fn verify_chain(&self) -> Result<(), ChainError> {
        let mut prev = self.retired_tip.unwrap_or(Hash256::ZERO);
        for (want, b) in (self.retired..).zip(self.blocks.iter()) {
            if b.header.number != want {
                return Err(ChainError::WrongNumber {
                    got: b.header.number,
                    want,
                });
            }
            if b.header.previous_hash != prev {
                return Err(ChainError::BrokenChain);
            }
            if !b.data_hash_is_consistent() {
                return Err(ChainError::BadDataHash);
            }
            prev = b.header.hash();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabricsim_crypto::KeyPair;
    use fabricsim_types::{ChannelId, ClientId, Proposal, RwSet, Transaction};

    fn tx(nonce: u64) -> Transaction {
        Transaction {
            tx_id: Proposal::derive_tx_id(ClientId(0), nonce),
            channel: ChannelId::default_channel(),
            chaincode: "kv".into(),
            rw_set: RwSet::new(),
            payload: Vec::new(),
            endorsements: Vec::new(),
            creator: ClientId(0),
            signature: KeyPair::from_seed(b"c").sign(b"t"),
        }
    }

    fn next_block(store: &BlockStore, txs: Vec<Transaction>) -> Block {
        Block::assemble(
            ChannelId::default_channel(),
            store.height(),
            store.tip_hash().unwrap_or(Hash256::ZERO),
            txs,
        )
    }

    #[test]
    fn append_and_lookup() {
        let mut s = BlockStore::new();
        let b0 = next_block(&s, vec![tx(1), tx(2)]);
        s.append(b0).unwrap();
        let b1 = next_block(&s, vec![tx(3)]);
        s.append(b1).unwrap();

        assert_eq!(s.height(), 2);
        assert_eq!(s.by_number(0).unwrap().len(), 2);
        assert!(s.contains_tx(&Proposal::derive_tx_id(ClientId(0), 3)));
        assert!(s.contains_tx(&Proposal::derive_tx_id(ClientId(0), 1)));
        assert!(!s.contains_tx(&Proposal::derive_tx_id(ClientId(0), 99)));
        assert!(s.verify_chain().is_ok());
    }

    #[test]
    fn rejects_wrong_number() {
        let mut s = BlockStore::new();
        let mut b = next_block(&s, vec![tx(1)]);
        b.header.number = 5;
        assert_eq!(
            s.append(b),
            Err(ChainError::WrongNumber { got: 5, want: 0 })
        );
    }

    #[test]
    fn rejects_broken_link() {
        let mut s = BlockStore::new();
        s.append(next_block(&s, vec![tx(1)])).unwrap();
        let mut b = next_block(&s, vec![tx(2)]);
        b.header.previous_hash = Hash256::ZERO;
        assert_eq!(s.append(b), Err(ChainError::BrokenChain));
    }

    #[test]
    fn rejects_bad_data_hash() {
        let mut s = BlockStore::new();
        let mut b = next_block(&s, vec![tx(1)]);
        b.transactions = vec![tx(1), tx(2)].into(); // tamper after assembly
        assert_eq!(s.append(b), Err(ChainError::BadDataHash));
    }

    #[test]
    fn verify_chain_detects_corruption() {
        let mut s = BlockStore::new();
        s.append(next_block(&s, vec![tx(1)])).unwrap();
        s.append(next_block(&s, vec![tx(2)])).unwrap();
        assert!(s.verify_chain().is_ok());
        // Corrupt a stored block's body.
        let mut txs = s.blocks[0].transactions.to_vec();
        txs[0].payload = b"evil".to_vec();
        s.blocks[0].transactions = txs.into();
        assert!(s.verify_chain().is_err());
    }

    /// A store of `n` blocks, one transaction each (nonces 0..n).
    fn chain_of(n: u64) -> BlockStore {
        let mut s = BlockStore::new();
        for nonce in 0..n {
            s.append(next_block(&s, vec![tx(nonce)])).unwrap();
        }
        s
    }

    #[test]
    fn a_retired_prefix_keeps_height_tip_links_and_tx_ids() {
        let full = chain_of(5);
        let mut s = full.clone();
        s.retire_through(2);
        assert_eq!((s.height(), s.tip_hash()), (full.height(), full.tip_hash()));
        let nums: Vec<u64> = s.iter().map(|b| b.header.number).collect();
        assert_eq!(nums, vec![3, 4]);
        assert!(s.by_number(2).is_none());
        assert_eq!(s.by_number(3), full.by_number(3));
        assert!(
            s.verify_chain().is_ok(),
            "the suffix links onto the retired tip"
        );
        // The replay guard still refuses a retired id.
        assert!(s.contains_tx(&Proposal::derive_tx_id(ClientId(0), 0)));
        // A block that links onto the tip still appends; a stale one does not.
        let next = next_block(&s, vec![tx(5)]);
        assert_eq!(s.check_links(&next.header), Ok(()));
        let mut stale = next.clone();
        stale.header.number = 2;
        assert_eq!(
            s.check_links(&stale.header),
            Err(ChainError::WrongNumber { got: 2, want: 5 })
        );
        s.append(next).unwrap();
        assert_eq!(s.height(), 6);
        // Retiring past the height keeps nothing and loses nothing.
        s.retire_through(99);
        assert_eq!((s.height(), s.iter().count()), (6, 0));
        assert!(s.verify_chain().is_ok());
        assert!(s.append(next_block(&s, vec![tx(6)])).is_ok());
    }

    #[test]
    fn a_retired_store_still_finds_corruption_in_what_it_keeps() {
        let mut s = chain_of(4);
        s.retire_through(1);
        s.blocks[0].header.previous_hash = Hash256::ZERO;
        assert_eq!(s.verify_chain(), Err(ChainError::BrokenChain));
    }

    #[test]
    fn iter_walks_in_order() {
        let mut s = BlockStore::new();
        s.append(next_block(&s, vec![tx(1)])).unwrap();
        s.append(next_block(&s, vec![tx(2)])).unwrap();
        let nums: Vec<u64> = s.iter().map(|b| b.header.number).collect();
        assert_eq!(nums, vec![0, 1]);
    }
}
