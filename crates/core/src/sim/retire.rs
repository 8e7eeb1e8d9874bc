//! Retention: once a channel's low-water mark has advanced by a chunk, each
//! store lets go of what no later event can read. The step reads simulated
//! state only, so it runs at the same events at every worker count and no
//! output depends on it.

use std::collections::VecDeque;
use std::sync::Arc;

use fabricsim_kafka::{BrokerMsg, Offset};
use fabricsim_types::Block;

use super::world::World;

/// How many block numbers a channel's low-water mark advances between two
/// retention steps: each store holds at most what is in flight plus about
/// this many blocks.
pub(super) const RETIRE_CHUNK: u64 = 4;

/// The partition offset `message` reads from at the broker it is bound
/// for: a consume or a fetch reads from its offset (a consume from the
/// serving broker's high watermark, if that is lower), and a fetch reply
/// cuts its follower's log back to its base offset and its high watermark
/// back to the leader's.
fn reads_from(message: &BrokerMsg) -> Option<Offset> {
    match message {
        BrokerMsg::Consume { offset, .. } | BrokerMsg::Fetch { offset, .. } => Some(*offset),
        BrokerMsg::FetchResponse {
            base_offset,
            high_watermark,
            ..
        } => Some((*base_offset).min(*high_watermark)),
        _ => None,
    }
}

/// The number after the last block `log` holds; `retired_below` when it
/// holds none, since a log is only ever emptied below the low-water mark.
pub(super) fn height(log: &VecDeque<Arc<Block>>, retired_below: u64) -> u64 {
    log.back().map_or(retired_below, |b| b.header.number + 1)
}

impl World {
    /// `message` is on its way to a broker: what it reads stays held until
    /// the broker takes it.
    pub(super) fn note_broker_read(&mut self, message: &BrokerMsg) {
        if let Some(offset) = reads_from(message) {
            self.kafka_reads.push(offset);
        }
    }

    /// A broker took `message` (or dropped it, crashed).
    pub(super) fn broker_read_done(&mut self, message: &BrokerMsg) {
        let Some(offset) = reads_from(message) else {
            return;
        };
        if let Some(at) = self.kafka_reads.iter().position(|&o| o == offset) {
            self.kafka_reads.swap_remove(at);
        }
    }

    /// The lowest block number a later event can ask an OSN log for: every
    /// live OSN has delivered everything below it, so no later delivery
    /// looks a lower number up, and every peer expects a number at or
    /// above it, so no re-subscription replays a lower one.
    pub(super) fn low_water_mark(&self) -> u64 {
        let osns = self.osns.iter().filter(|a| a.alive);
        let delivered = osns.map(|a| height(&a.delivered, self.retired_below));
        let expected = self.peers.iter().map(|p| p.next_expected_block);
        delivered.chain(expected).min().unwrap_or(0)
    }

    /// Runs [`World::retire`] once the low-water mark has advanced by
    /// [`RETIRE_CHUNK`] since the last step.
    pub(super) fn maybe_retire(&mut self) {
        let mark = self.low_water_mark();
        if mark >= self.retired_below + RETIRE_CHUNK {
            self.retire(mark);
        }
    }

    /// The lowest partition offset a later event can read from a broker
    /// log: a live OSN's next consume, a live broker's high watermark (a
    /// follower that becomes leader serves consumes from it) and every read
    /// in flight to a broker. `None` outside Kafka mode.
    fn kafka_floor(&self) -> Option<Offset> {
        if self.brokers.is_empty() {
            return None;
        }
        let consumers = self.osns.iter().filter(|a| a.alive);
        let next = consumers.filter_map(|a| a.node.kafka_next_offset());
        let replicas = self.brokers.iter().filter(|b| b.alive);
        let watermarks = replicas.map(|b| b.partition.high_watermark());
        let in_flight = self.kafka_reads.iter().copied();
        next.chain(watermarks).chain(in_flight).min()
    }

    /// The lowest Raft index every live node has applied. `None` outside
    /// Raft mode.
    fn raft_floor(&self) -> Option<u64> {
        let replicas = self.osns.iter().filter(|a| a.alive);
        replicas
            .filter_map(|a| a.node.raft_node().map(|r| r.last_applied()))
            .min()
    }

    /// Tells every store to let go of what no later event can read, given
    /// the channel's low-water mark `mark`. Crashed nodes are told too:
    /// nothing reads them again, and nothing restarts them yet.
    ///
    /// - OSN replay logs drop every number below `mark`.
    /// - Broker logs drop every offset below [`World::kafka_floor`].
    /// - Raft logs compact through [`World::raft_floor`]; a leader keeps,
    ///   on its own, what it may still send a follower, a crashed one too.
    ///
    /// Peer block stores retire each block as it commits
    /// (`peer::commit_block`).
    pub(super) fn retire(&mut self, mark: u64) {
        for osn in &mut self.osns {
            while osn
                .delivered
                .front()
                .is_some_and(|b| b.header.number < mark)
            {
                osn.delivered.pop_front();
            }
        }
        if let Some(below) = self.kafka_floor() {
            for broker in &mut self.brokers {
                broker.partition.compact_below(below);
            }
        }
        if let Some(through) = self.raft_floor() {
            for osn in &mut self.osns {
                osn.node.compact_raft_log(through);
            }
        }
        self.retired_below = mark;
    }
}

#[cfg(test)]
mod tests {
    use fabricsim_des::{Kernel, SimDuration, SimTime};
    use fabricsim_types::OrdererType;

    use super::super::world::{bootstrap, build_world, K};
    use super::*;
    use crate::workload::{PolicySpec, SimConfig};

    /// One channel's world, run to its horizon on a plain kernel.
    fn run_world(cfg: &SimConfig) -> World {
        let mut world = build_world(cfg, 0);
        let mut k: K = Kernel::new();
        bootstrap(&mut world, &mut k);
        let horizon = SimTime::from_secs_f64(cfg.duration_secs);
        k.run_until(&mut world, horizon + SimDuration::from_nanos(1));
        world
    }

    /// The benchmark's Kafka small-blocks shape: two transactions a block.
    fn kafka_small_blocks(duration_secs: f64) -> SimConfig {
        let mut cfg = SimConfig {
            orderer_type: OrdererType::Kafka,
            broker_count: 5,
            zk_count: 3,
            osn_count: 3,
            endorsing_peers: 2,
            policy: PolicySpec::OrN(2),
            arrival_rate_tps: 90.0,
            duration_secs,
            ..SimConfig::default()
        };
        cfg.batch.max_message_count = 2;
        cfg
    }

    /// Raft on three OSNs, ten transactions a block.
    fn raft_small_blocks(duration_secs: f64) -> SimConfig {
        let mut cfg = SimConfig {
            orderer_type: OrdererType::Raft,
            osn_count: 3,
            endorsing_peers: 3,
            committing_peers: 1,
            policy: PolicySpec::OrN(3),
            arrival_rate_tps: 120.0,
            duration_secs,
            ..SimConfig::default()
        };
        cfg.batch.max_message_count = 10;
        cfg
    }

    /// Every store holds at most what a later event can still read plus
    /// one chunk's worth. Returns how many blocks the channel cut.
    fn assert_holds_what_is_in_flight_plus_a_chunk(world: &World) -> u64 {
        let what = world.cfg.orderer_type;
        let cut = world.block_cuts.len() as u64;
        let mark = world.low_water_mark();
        for (o, osn) in world.osns.iter().enumerate() {
            let held = osn.delivered.len() as u64;
            let in_flight = height(&osn.delivered, world.retired_below) - mark;
            assert!(
                held <= in_flight + RETIRE_CHUNK,
                "{what} OSN {o}: {held} blocks"
            );
        }
        for (p, node) in world.peers.iter().enumerate() {
            let blocks = node.peer.ledger().blocks();
            assert!(blocks.height() <= node.next_expected_block);
            assert!(
                blocks.height() + RETIRE_CHUNK >= cut,
                "{what} peer {p} kept up"
            );
            assert_eq!(blocks.iter().count(), 0, "{what} peer {p} holds no body");
        }
        // A chunk of blocks is at most this many records or entries: each
        // block's transactions plus a time-to-cut marker per OSN, or one
        // entry per block plus a leader's no-op.
        let per_block = (world.cfg.batch.max_message_count + world.osns.len()) as u64;
        if let Some(floor) = world.kafka_floor() {
            for (b, broker) in world.brokers.iter().enumerate() {
                let (start, end) = (broker.partition.log_start(), broker.partition.log_end());
                let in_flight = end.saturating_sub(floor);
                let held = end - start;
                assert!(start > 0, "broker {b} compacted");
                assert!(
                    held <= in_flight + RETIRE_CHUNK * per_block,
                    "broker {b}: {held} records, {in_flight} above the floor"
                );
            }
        }
        if let Some(floor) = world.raft_floor() {
            for (o, osn) in world.osns.iter().enumerate() {
                let Some(raft) = osn.node.raft_node() else {
                    continue;
                };
                let held = raft.last_log_index() - raft.snapshot().index;
                assert!(raft.snapshot().index > 0, "raft node {o} compacted");
                let in_flight = raft.last_log_index() - floor;
                assert!(
                    held <= in_flight + RETIRE_CHUNK + 1,
                    "raft node {o}: {held} entries, {in_flight} above the floor"
                );
            }
        }
        cut
    }

    #[test]
    fn after_a_long_run_every_store_holds_what_is_in_flight_plus_a_chunk() {
        for cfg in [kafka_small_blocks(40.0), raft_small_blocks(40.0)] {
            let world = run_world(&cfg);
            let cut = assert_holds_what_is_in_flight_plus_a_chunk(&world);
            assert!(cut > 8 * RETIRE_CHUNK, "{}: {cut} blocks", cfg.orderer_type);
            assert!(world.retired_below > cut - 2 * RETIRE_CHUNK);
        }
    }
}
