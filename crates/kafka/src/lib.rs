//! # fabricsim-kafka — a Kafka-like replicated log with ZooKeeper coordination
//!
//! The Kafka ordering service of Hyperledger Fabric (paper §III) rests on two
//! components: **brokers** hosting a partitioned, replicated log, and a
//! **ZooKeeper ensemble** providing leader election, membership management and
//! session tracking. This crate implements both as deterministic state
//! machines in the same style as [`fabricsim-raft`]: the host calls
//! [`Broker::step`] / [`Broker::tick`] / [`ZkEnsemble::tick`] and acts on the
//! returned effects.
//!
//! Modelled faithfully (because the paper's findings depend on them):
//!
//! * one partition per channel (the paper's default `partition = 1`);
//! * the partition's replicas are the brokers the host hands
//!   [`ZkEnsemble::new`]; the ordering service hands it every broker, so the
//!   paper's replication factor of 3 is not yet honoured beyond 3 brokers;
//! * **in-sync replicas** (ISR): followers *pull* via fetch requests, the
//!   leader advances the high watermark once every ISR member has replicated,
//!   and laggards are shrunk out of the ISR;
//! * a record is visible to consumers only up to the high watermark — this is
//!   the "in-sync replica latency" the paper discusses;
//! * broker sessions expire at ZooKeeper, which then appoints a new partition
//!   leader from the ISR (leader failover), but only while a majority of the
//!   ensemble is alive.
//!
//! [`fabricsim-raft`]: ../fabricsim_raft/index.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod broker;
mod zookeeper;

pub use broker::{Broker, BrokerEffect, BrokerMsg, BrokerRole, ClientEvent, Record};
pub use zookeeper::{ZkEffect, ZkEnsemble, ZkMsg};

/// Broker identifier within the cluster.
pub type BrokerId = u32;
/// Opaque reply-to token identifying a producer/consumer client.
pub type ClientToken = u64;
/// Offset into the partition log (0-based).
pub type Offset = u64;
/// Leadership epoch, bumped by ZooKeeper on every leader change.
pub type Epoch = u64;
