//! # fabricsim-peer — peer nodes: endorsement and validation/commit
//!
//! Peers do two jobs (paper §II):
//!
//! 1. **Endorse** transaction proposals (execute phase). The endorser performs
//!    the paper's four checks — the proposal is well-formed, has not been
//!    submitted before, carries a valid client signature, and its submitter is
//!    authorized on the channel — then executes the chaincode against
//!    committed state and signs the resulting read/write set (ESCC).
//! 2. **Validate and commit** blocks (validate phase). The committer runs the
//!    staged [`ValidationPipeline`]: block checks + dedup, then VSCC per
//!    transaction (creator signature, every endorsement signature,
//!    endorsement-policy satisfaction) fanned out over a deterministic worker
//!    pool, then the serial MVCC read-set check and ledger commit. This is
//!    the pipeline the paper identifies as the system bottleneck — and the
//!    VSCC stage is the part that parallelizes.
//!
//! [`Peer`] is a plain synchronous object; the simulation layer (`fabricsim`
//! core) charges calibrated CPU time around these calls.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod committer;
pub mod gossip;
mod peer;
mod pipeline;
#[cfg(test)]
mod testutil;

pub use gossip::{GossipEffect, GossipMsg, GossipNode};
pub use peer::{Peer, PeerConfig};
pub use pipeline::ValidationPipeline;
