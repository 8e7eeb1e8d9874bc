//! The pure half of block validation: everything a committer checks that
//! reads nothing from its ledger.
//!
//! Validating a block splits in two. The **pure half** — hashing every
//! envelope to prove the data hash, intra-block dedup and VSCC — depends
//! only on the block and on what the peer trusts, so it can run on any
//! thread, ahead of the commit. The **stateful half** — the link check
//! against the tip, MVCC, the block append and the state writes — reads and
//! writes the ledger and stays with the peer
//! ([`crate::Peer::commit_prevalidated`]).

use std::collections::HashMap;

use fabricsim_crypto::VerifyingKey;
use fabricsim_types::{Block, BlockHeader, CheckedBlock, FxBuildHasher, Principal, ValidationCode};

use crate::committer::{CreatorKeys, Trust};
use crate::peer::PeerConfig;
use crate::pipeline::ValidationPipeline;

/// What a peer checks a block's signatures and endorsements against: its
/// channel configuration, each registered client's resolved key and each
/// registered endorser's expanded keys.
///
/// A peer shares it as an `Arc` ([`crate::Peer::validator`]); registering a
/// client or an endorser afterwards writes a fresh copy, so a snapshot taken
/// earlier keeps the keys it was taken with.
#[derive(Debug, Clone)]
pub struct BlockValidator {
    pub(crate) config: PeerConfig,
    /// Each registered client's key, resolved through the MSP once when it
    /// was registered: `None` for a certificate the MSP refused.
    pub(crate) client_keys: CreatorKeys,
    /// Each registered endorser key, expanded once when it was registered.
    pub(crate) endorser_keys: HashMap<Principal, Vec<VerifyingKey>, FxBuildHasher>,
}

/// A block whose pure half of validation is done: either its data hash held
/// and it carries the pre-commit flags, or it did not.
#[derive(Debug)]
pub struct Prevalidated(Outcome);

#[derive(Debug)]
enum Outcome {
    /// The data hash held: the proof and the flags of dedup and VSCC
    /// (`None` = still eligible for MVCC).
    Checked {
        block: CheckedBlock,
        pre_flags: Vec<Option<ValidationCode>>,
    },
    /// The Merkle root over the envelopes is not the header's data hash.
    BadDataHash(BlockHeader),
}

impl Prevalidated {
    /// The header of the block that was checked.
    pub(crate) fn header(&self) -> &BlockHeader {
        match &self.0 {
            Outcome::Checked { block, .. } => &block.block().header,
            Outcome::BadDataHash(header) => header,
        }
    }

    /// The proof and the pre-commit flags, or `None` when the data hash did
    /// not hold.
    pub(crate) fn into_checked(self) -> Option<(CheckedBlock, Vec<Option<ValidationCode>>)> {
        match self.0 {
            Outcome::Checked { block, pre_flags } => Some((block, pre_flags)),
            Outcome::BadDataHash(_) => None,
        }
    }
}

impl BlockValidator {
    pub(crate) fn new(config: PeerConfig) -> Self {
        BlockValidator {
            config,
            client_keys: CreatorKeys::default(),
            endorser_keys: HashMap::default(),
        }
    }

    /// The pure half of validating `block`: each envelope is encoded and
    /// hashed once to prove the data hash, then the block checks and VSCC run
    /// against the digests that proof kept. A block whose data hash does not
    /// hold is not looked at further.
    pub fn check(&self, block: Block) -> Prevalidated {
        let header = block.header;
        let Some(checked) = CheckedBlock::new(block) else {
            return Prevalidated(Outcome::BadDataHash(header));
        };
        let pipeline = ValidationPipeline::new(self.config.validator_pool_size);
        let trust = Trust::new(&self.config, &self.client_keys, &self.endorser_keys);
        let pre_flags = pipeline.pre_commit_flags_checked(&checked, &trust);
        Prevalidated(Outcome::Checked {
            block: checked,
            pre_flags,
        })
    }
}
