//! # fabricsim-ordering — the ordering service
//!
//! The ordering service receives endorsed transaction envelopes from clients,
//! orders them chronologically per channel, packages them into blocks (cut on
//! `BatchSize` / `BatchTimeout`, paper §III) and delivers the blocks to peers
//! for validation. Consensus is pluggable, exactly as in Fabric:
//!
//! * **Solo** — a single node cuts blocks directly.
//! * **Kafka** — every OSN produces envelopes to a replicated Kafka partition
//!   ([`fabricsim_kafka`]) and consumes the partition back; block cutting runs
//!   deterministically over the consumed stream, with time-based cuts driven
//!   by *time-to-cut* marker records (Fabric's `TTC-X` messages), so all OSNs
//!   cut bit-identical blocks.
//! * **Raft** — the leader OSN cuts blocks and replicates whole encoded blocks
//!   through [`fabricsim_raft`]; followers deliver on commit.
//!
//! [`OsnNode`] is a deterministic state machine in the same drive-it-yourself
//! style as the consensus crates: feed it [`OsnInput`]s, act on [`OsnEffect`]s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assembler;
mod cutter;
mod osn;

pub use assembler::BlockAssembler;
pub use cutter::{BlockCutter, CutOutcome};
pub use osn::{OsnEffect, OsnInput, OsnMsg, OsnNode};
