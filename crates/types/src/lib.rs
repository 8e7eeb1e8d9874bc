//! # fabricsim-types — the Hyperledger Fabric domain model
//!
//! Shared, dependency-light types describing everything that flows through a
//! Fabric network: identities and principals, transaction proposals and
//! endorsements, read/write sets with MVCC versions, envelopes, blocks, and
//! block-cutting configuration.
//!
//! Two cross-cutting concerns live here:
//!
//! * **Canonical encoding** ([`encode::Encoder`]): every signed artifact has a
//!   deterministic byte encoding (`signed_bytes`) so signatures are
//!   well-defined, and every wire message reports an [`encode::WireSize`] used
//!   by the network model to charge bandwidth.
//! * **Validation codes** ([`ValidationCode`]): the committer tags every
//!   transaction exactly like Fabric does (valid, MVCC conflict, endorsement
//!   policy failure, …); both valid and invalid transactions are recorded in
//!   the block, but only valid ones touch the world state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
pub mod codec;
mod config;
pub mod encode;
mod fxhash;
mod ids;
mod proposal;
mod rwset;
mod transaction;

pub use block::{Block, BlockHeader, BlockMetadata, CheckedBlock, Txs, ValidationCode};
pub use config::{BatchConfig, OrdererType};
pub use fxhash::{FxBuildHasher, FxHasher};
pub use ids::{ChannelId, ClientId, MspId, NodeId, OrgId, Principal, TxId};
pub use proposal::{Endorsement, Proposal, ProposalResponse};
pub use rwset::{KvRead, KvWrite, RwSet, Version};
pub use transaction::Transaction;
