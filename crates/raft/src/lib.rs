//! # fabricsim-raft — Raft consensus as a deterministic state machine
//!
//! A complete implementation of the Raft consensus algorithm (leader election,
//! log replication, commitment, crash/restart with persistent state) in the
//! "pure state machine" style: the node never touches a clock, a socket or a
//! thread. The host drives it with [`RaftNode::tick`], [`RaftNode::step`] and
//! [`RaftNode::propose`], and receives [`Effect`]s (messages to send, entries
//! committed, role changes) to act on.
//!
//! This is the consensus engine backing the `Raft` ordering service (paper
//! §III): the leader appends transactions, replicates to followers, and a
//! transaction is committed once a majority has written it — after which the
//! ordering service node cuts blocks from the committed sequence.
//!
//! An entry's payload ([`Entry::data`]) is an `Arc<[u8]>`, stored once by
//! [`RaftNode::propose`]: the leader's log, every `AppendEntries` carrying the
//! entry, every follower's log and every [`Effect::Commit`] share that one
//! allocation, as replicas on one host can. What each node does with the
//! bytes (the ordering service decodes every committed block on every node)
//! is the host's work, not a copy made by the protocol.
//!
//! ```
//! use fabricsim_raft::{RaftNode, Role};
//!
//! // A single-node cluster elects itself and commits immediately.
//! let mut node = RaftNode::new(1, vec![1], 42);
//! let mut effects = Vec::new();
//! while node.role() != Role::Leader {
//!     effects.extend(node.tick());
//! }
//! let (_, mut more) = node.propose(b"tx".to_vec()).unwrap();
//! effects.append(&mut more);
//! assert!(effects.iter().any(|e| matches!(e, fabricsim_raft::Effect::Commit(_))));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod node;
mod types;

pub use node::{NotLeader, RaftNode};
pub use types::{Effect, Entry, Message, PersistentState, Role, Snapshot};
