//! Blocks: header, data, metadata and transaction validation codes.

use std::ops::Deref;
use std::sync::Arc;

use fabricsim_crypto::{sha256, Hash256, MerkleTree};

use crate::encode::{Encoder, WireSize, MSG_OVERHEAD};
use crate::ids::ChannelId;
use crate::transaction::Transaction;

/// Why a transaction was accepted or rejected by the committer. Mirrors
/// Fabric's `TxValidationCode`; both valid and invalid transactions are stored
/// in the block, but only [`ValidationCode::Valid`] ones update world state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValidationCode {
    /// The transaction passed VSCC and MVCC and updated the state.
    Valid,
    /// A read version no longer matches current state (double-spend guard).
    MvccReadConflict,
    /// The endorsement set does not satisfy the channel's policy.
    EndorsementPolicyFailure,
    /// An endorsement signature failed to verify.
    BadEndorserSignature,
    /// The creator's envelope signature failed to verify.
    BadCreatorSignature,
    /// The same tx id was already committed (replay guard).
    DuplicateTxId,
    /// The envelope was malformed (empty rw-set and payload, wrong channel…).
    BadPayload,
}

impl ValidationCode {
    /// True only for [`ValidationCode::Valid`].
    pub fn is_valid(self) -> bool {
        self == ValidationCode::Valid
    }

    /// Short stable label for metrics and CSV output.
    pub fn label(self) -> &'static str {
        match self {
            ValidationCode::Valid => "VALID",
            ValidationCode::MvccReadConflict => "MVCC_READ_CONFLICT",
            ValidationCode::EndorsementPolicyFailure => "ENDORSEMENT_POLICY_FAILURE",
            ValidationCode::BadEndorserSignature => "BAD_ENDORSER_SIGNATURE",
            ValidationCode::BadCreatorSignature => "BAD_CREATOR_SIGNATURE",
            ValidationCode::DuplicateTxId => "DUPLICATE_TXID",
            ValidationCode::BadPayload => "BAD_PAYLOAD",
        }
    }
}

/// The block header: number, previous-hash chain link, and data hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHeader {
    /// Height of this block (genesis = 0).
    pub number: u64,
    /// Hash of the previous block's header ([`Hash256::ZERO`] for genesis).
    pub previous_hash: Hash256,
    /// Merkle root over the transaction envelopes.
    pub data_hash: Hash256,
}

impl BlockHeader {
    /// The header hash that the next block chains to.
    pub fn hash(&self) -> Hash256 {
        let mut e = Encoder::new("fabricsim-block-header");
        e.u64(self.number)
            .bytes(self.previous_hash.as_bytes())
            .bytes(self.data_hash.as_bytes());
        sha256(&e.finish())
    }
}

/// Post-validation metadata: one validation code per transaction, filled in by
/// the committing peer (empty until validation).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BlockMetadata {
    /// `flags[i]` is the validation code of `transactions[i]`.
    pub flags: Vec<ValidationCode>,
}

/// A block's ordered transactions: immutable once built and shared by
/// reference, so cloning a [`Block`] copies its header and flags but never
/// a transaction. Read it as a slice; to alter a block (tests tampering
/// with one do), build a new body from a `Vec` and assign it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Txs(Arc<[Transaction]>);

impl Deref for Txs {
    type Target = [Transaction];

    fn deref(&self) -> &[Transaction] {
        &self.0
    }
}

impl From<Vec<Transaction>> for Txs {
    fn from(transactions: Vec<Transaction>) -> Self {
        Txs(transactions.into())
    }
}

impl<'a> IntoIterator for &'a Txs {
    type Item = &'a Transaction;
    type IntoIter = std::slice::Iter<'a, Transaction>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// A block: header + ordered transactions + (post-validation) metadata.
///
/// Every ledger that commits a block keeps its own header and flags and
/// shares the transactions with the orderer that cut it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The channel this block belongs to.
    pub channel: ChannelId,
    /// Block header.
    pub header: BlockHeader,
    /// The ordered transactions.
    pub transactions: Txs,
    /// Validation flags (empty until the committer validates the block).
    pub metadata: BlockMetadata,
}

impl Block {
    /// Assembles a block from ordered transactions, computing the data hash.
    pub fn assemble(
        channel: ChannelId,
        number: u64,
        previous_hash: Hash256,
        transactions: Vec<Transaction>,
    ) -> Self {
        let data_hash = Self::compute_data_hash(&transactions);
        Block {
            channel,
            header: BlockHeader {
                number,
                previous_hash,
                data_hash,
            },
            transactions: transactions.into(),
            metadata: BlockMetadata::default(),
        }
    }

    /// Merkle root over the envelope hashes.
    pub fn compute_data_hash(transactions: &[Transaction]) -> Hash256 {
        let leaves = transactions
            .iter()
            .map(Transaction::envelope_hash)
            .collect();
        MerkleTree::from_leaf_hashes(leaves).root()
    }

    /// Verifies the stored data hash against the transactions.
    pub fn data_hash_is_consistent(&self) -> bool {
        Self::compute_data_hash(&self.transactions) == self.header.data_hash
    }

    /// Number of transactions in the block.
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// Whether the block carries zero transactions.
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }
}

/// A block whose data hash has been verified: proof, in the type, that every
/// envelope was encoded and hashed and that the Merkle root over those hashes
/// equals `header.data_hash`.
///
/// The only constructor is [`CheckedBlock::new`], which does exactly that
/// work once. The block is owned privately and never handed out mutably, so
/// the proof cannot go stale; both per-transaction digests computed on the
/// way are kept, because the committer needs them again: the creator signed
/// the envelope digest, and every endorser signed the response digest nested
/// inside it — which is where the read/write set was hashed, once. Validation
/// flags live in the metadata, which the data hash does not cover, so
/// stamping them is the one mutation allowed.
///
/// ```
/// use fabricsim_crypto::Hash256;
/// use fabricsim_types::{Block, ChannelId, CheckedBlock};
/// let block = Block::assemble(ChannelId::default_channel(), 0, Hash256::ZERO, Vec::new());
/// let checked = CheckedBlock::new(block).expect("assembled blocks are consistent");
/// assert!(checked.block().transactions.is_empty());
/// ```
///
/// The same with a write through the accessor does not compile — there is no
/// path from a `CheckedBlock` to a `&mut Block`:
///
/// ```compile_fail,E0594
/// use fabricsim_crypto::Hash256;
/// use fabricsim_types::{Block, ChannelId, CheckedBlock};
/// let block = Block::assemble(ChannelId::default_channel(), 0, Hash256::ZERO, Vec::new());
/// let mut checked = CheckedBlock::new(block).expect("assembled blocks are consistent");
/// checked.block().transactions = Vec::new().into();
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckedBlock {
    block: Block,
    response_digests: Vec<Hash256>,
    envelope_hashes: Vec<Hash256>,
}

impl CheckedBlock {
    /// Hashes every envelope of `block` and verifies the Merkle root over the
    /// hashes against the header. `None` if they disagree.
    pub fn new(block: Block) -> Option<Self> {
        // Per transaction, in order: the digest its endorsers signed and the
        // envelope hash that is its Merkle leaf.
        let (response_digests, envelope_hashes): (Vec<_>, Vec<_>) =
            block.transactions.iter().map(Transaction::digests).unzip();
        let root = MerkleTree::from_leaf_hashes(envelope_hashes.clone()).root();
        (root == block.header.data_hash).then_some(CheckedBlock {
            block,
            response_digests,
            envelope_hashes,
        })
    }

    /// The verified block.
    pub fn block(&self) -> &Block {
        &self.block
    }

    /// `response_digests()[i]` is `sha256(block().transactions[i].response_bytes())`.
    pub fn response_digests(&self) -> &[Hash256] {
        &self.response_digests
    }

    /// `envelope_hashes()[i]` is `block().transactions[i].envelope_hash()`.
    pub fn envelope_hashes(&self) -> &[Hash256] {
        &self.envelope_hashes
    }

    /// Stamps the committer's validation flags into the block metadata.
    pub fn stamp_flags(&mut self, flags: Vec<ValidationCode>) {
        self.block.metadata.flags = flags;
    }

    /// Gives up the proof and returns the block.
    pub fn into_block(self) -> Block {
        self.block
    }
}

impl WireSize for Block {
    fn wire_size(&self) -> u64 {
        let txs: u64 = self.transactions.iter().map(|t| t.wire_size()).sum();
        MSG_OVERHEAD + 8 + 32 + 32 + txs + self.metadata.flags.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClientId, OrgId, Principal};
    use crate::proposal::{Endorsement, Proposal};
    use crate::rwset::RwSet;
    use fabricsim_crypto::KeyPair;

    fn tx(n: u64) -> Transaction {
        let creator = ClientId(0);
        let tx_id = Proposal::derive_tx_id(creator, n);
        let mut rw = RwSet::new();
        rw.record_write(&format!("k{n}"), Some(vec![n as u8]));
        Transaction {
            tx_id,
            channel: ChannelId::default_channel(),
            chaincode: "kvwrite".into(),
            rw_set: rw,
            payload: Vec::new(),
            endorsements: vec![Endorsement {
                endorser: Principal::peer(OrgId(1)),
                endorser_key: KeyPair::from_seed(b"e").public,
                signature: KeyPair::from_seed(b"e").sign(b"x"),
            }],
            creator,
            signature: KeyPair::from_seed(b"c").sign(b"x"),
        }
    }

    #[test]
    fn assemble_computes_consistent_data_hash() {
        let b = Block::assemble(
            ChannelId::default_channel(),
            1,
            Hash256::ZERO,
            vec![tx(0), tx(1)],
        );
        assert!(b.data_hash_is_consistent());
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
    }

    /// `block` with its body rebuilt after `f` altered a copy of it.
    fn rebuilt(block: &Block, f: impl FnOnce(&mut Vec<Transaction>)) -> Block {
        let mut txs = block.transactions.to_vec();
        f(&mut txs);
        Block {
            transactions: txs.into(),
            ..block.clone()
        }
    }

    #[test]
    fn tampering_breaks_data_hash() {
        let b = Block::assemble(
            ChannelId::default_channel(),
            1,
            Hash256::ZERO,
            vec![tx(0), tx(1)],
        );
        let b = rebuilt(&b, |t| t[0].rw_set.record_write("evil", Some(vec![9])));
        assert!(!b.data_hash_is_consistent());
    }

    #[test]
    fn clones_share_the_body_and_keep_their_own_flags() {
        let b = Block::assemble(
            ChannelId::default_channel(),
            1,
            Hash256::ZERO,
            vec![tx(0), tx(1)],
        );
        let mut checked = CheckedBlock::new(b.clone()).expect("consistent block");
        checked.stamp_flags(vec![
            ValidationCode::Valid,
            ValidationCode::MvccReadConflict,
        ]);
        let stamped = checked.into_block();
        assert!(std::ptr::eq(
            b.transactions.as_ptr(),
            stamped.transactions.as_ptr()
        ));
        assert_eq!(
            stamped.metadata.flags,
            [ValidationCode::Valid, ValidationCode::MvccReadConflict]
        );
        assert!(
            b.metadata.flags.is_empty(),
            "the original's flags are its own"
        );
    }

    #[test]
    fn checked_block_proves_the_data_hash_and_keeps_the_digests() {
        let b = Block::assemble(
            ChannelId::default_channel(),
            1,
            Hash256::ZERO,
            vec![tx(0), tx(1), tx(2)],
        );
        let checked = CheckedBlock::new(b.clone()).expect("consistent block");
        assert_eq!(checked.block(), &b);
        let want: Vec<Hash256> = b.transactions.iter().map(|t| t.envelope_hash()).collect();
        assert_eq!(checked.envelope_hashes(), want);
        let want: Vec<Hash256> = b
            .transactions
            .iter()
            .map(|t| sha256(&t.response_bytes()))
            .collect();
        assert_eq!(checked.response_digests(), want);
        assert_eq!(checked.into_block(), b);

        let empty = Block::assemble(ChannelId::default_channel(), 0, Hash256::ZERO, Vec::new());
        assert!(CheckedBlock::new(empty).is_some_and(|c| c.envelope_hashes().is_empty()));
    }

    #[test]
    fn checked_block_refuses_every_kind_of_tampering() {
        let good = Block::assemble(
            ChannelId::default_channel(),
            1,
            Hash256::ZERO,
            vec![tx(0), tx(1)],
        );
        let altered = rebuilt(&good, |t| t[1].payload = b"evil".to_vec());
        let rewritten = rebuilt(&good, |t| t[0].rw_set.record_write("evil", Some(vec![9])));
        let reendorsed = rebuilt(&good, |t| t[0].endorsements[0].signature.e ^= 1);
        let recreated = rebuilt(&good, |t| t[1].creator = ClientId(7));
        let dropped = rebuilt(&good, |t| drop(t.pop()));
        let appended = rebuilt(&good, |t| t.push(tx(2)));
        let reordered = rebuilt(&good, |t| t.swap(0, 1));
        let mut rehashed = good.clone();
        rehashed.header.data_hash = Hash256::ZERO;
        for bad in [
            altered, rewritten, reendorsed, recreated, dropped, appended, reordered, rehashed,
        ] {
            assert!(!bad.data_hash_is_consistent());
            assert_eq!(CheckedBlock::new(bad), None);
        }
    }

    #[test]
    fn stamping_flags_touches_only_the_metadata() {
        let b = Block::assemble(ChannelId::default_channel(), 1, Hash256::ZERO, vec![tx(0)]);
        let mut checked = CheckedBlock::new(b.clone()).expect("consistent block");
        checked.stamp_flags(vec![ValidationCode::Valid]);
        let stamped = checked.into_block();
        assert_eq!(stamped.metadata.flags, vec![ValidationCode::Valid]);
        assert_eq!(stamped.header, b.header);
        assert_eq!(stamped.transactions, b.transactions);
        assert!(stamped.data_hash_is_consistent());
    }

    #[test]
    fn header_hash_chains() {
        let b1 = Block::assemble(ChannelId::default_channel(), 1, Hash256::ZERO, vec![tx(0)]);
        let b2 = Block::assemble(
            ChannelId::default_channel(),
            2,
            b1.header.hash(),
            vec![tx(1)],
        );
        assert_eq!(b2.header.previous_hash, b1.header.hash());
        assert_ne!(b1.header.hash(), b2.header.hash());
    }

    #[test]
    fn validation_codes() {
        assert!(ValidationCode::Valid.is_valid());
        assert!(!ValidationCode::MvccReadConflict.is_valid());
        let b = Block::assemble(
            ChannelId::default_channel(),
            1,
            Hash256::ZERO,
            vec![tx(0), tx(1)],
        );
        assert!(b.metadata.flags.is_empty(), "no flags before validation");
        assert_eq!(ValidationCode::DuplicateTxId.label(), "DUPLICATE_TXID");
    }

    #[test]
    fn empty_block_data_hash_is_stable() {
        let a = Block::assemble(ChannelId::default_channel(), 1, Hash256::ZERO, Vec::new());
        let b = Block::assemble(ChannelId::default_channel(), 1, Hash256::ZERO, Vec::new());
        assert_eq!(a.header.data_hash, b.header.data_hash);
        assert!(a.is_empty());
    }
}
