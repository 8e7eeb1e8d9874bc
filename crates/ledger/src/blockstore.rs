//! The append-only, hash-chained block store with its transaction-id index.

use std::collections::HashSet;
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
#[derive(Debug, Clone, Default)]
pub struct BlockStore {
    blocks: Vec<Block>,
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

    /// Chain height (number of committed blocks).
    pub fn height(&self) -> u64 {
        self.blocks.len() as u64
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
        let num = block.header.number;
        self.tip = Some(block.header.hash());
        for tx in block.transactions.iter() {
            self.tx_ids.insert(tx.tx_id);
        }
        self.blocks.push(block);
        Ok(&self.blocks[num as usize])
    }

    /// Fetches a block by number.
    pub fn by_number(&self, number: u64) -> Option<&Block> {
        self.blocks.get(number as usize)
    }

    /// Whether a transaction id has ever been committed (replay guard).
    pub fn contains_tx(&self, tx_id: &TxId) -> bool {
        self.tx_ids.contains(tx_id)
    }

    /// Iterates committed blocks in order.
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter()
    }

    /// Verifies the whole chain: numbering, hash links and data hashes.
    pub fn verify_chain(&self) -> Result<(), ChainError> {
        let mut prev = Hash256::ZERO;
        for (i, b) in self.blocks.iter().enumerate() {
            if b.header.number != i as u64 {
                return Err(ChainError::WrongNumber {
                    got: b.header.number,
                    want: i as u64,
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

    #[test]
    fn iter_walks_in_order() {
        let mut s = BlockStore::new();
        s.append(next_block(&s, vec![tx(1)])).unwrap();
        s.append(next_block(&s, vec![tx(2)])).unwrap();
        let nums: Vec<u64> = s.iter().map(|b| b.header.number).collect();
        assert_eq!(nums, vec![0, 1]);
    }
}
