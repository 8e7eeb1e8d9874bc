//! The ordering service: OSNs, block delivery, and the Kafka substrate
//! (brokers and ZooKeeper).

use std::collections::VecDeque;
use std::sync::Arc;

use fabricsim_kafka::{BrokerEffect, BrokerMsg, ClientEvent, ZkEffect, ZkMsg};
use fabricsim_obs::{SpanKind, StationClass, TracePhase};
use fabricsim_ordering::{OsnEffect, OsnInput, OsnMsg};
use fabricsim_types::encode::WireSize;
use fabricsim_types::{Block, OrdererType, TxId};

use super::observe::{Actor, SpanKey};
use super::world::{Ev, World, K};

/// Routes any input through the OSN's CPU station, then applies effects to
/// the channel's ordering instance. `client` is the pool a client broadcast
/// came from (charged admission, and attributed to its transaction); `None`
/// for intra-cluster traffic (Raft/Kafka relays, ticks).
pub(super) fn osn_receive(
    world: &mut World,
    k: &mut K,
    o: usize,
    input: OsnInput,
    client: Option<usize>,
) {
    if !world.osns[o].alive {
        return;
    }
    let now = k.now();
    let m = &world.cfg.cost;
    let per_tx = match world.cfg.orderer_type {
        OrdererType::Solo => m.solo_order_ms,
        OrdererType::Kafka => m.kafka_broker_op_ms,
        OrdererType::Raft => m.raft_op_ms,
    };
    let cost = if client.is_some() {
        m.osn_admission_ms + per_tx
    } else {
        per_tx * 0.5
    };
    let service = world.ms(cost);
    let queued = world.osns[o].station.would_start_at(now) - now;
    let done = world.osns[o].station.submit(now, service);
    if let (OsnInput::Broadcast(tx), Some(p)) = (&input, client) {
        let tx_id = tx.tx_id;
        world
            .obs
            .visit(tx_id, StationClass::OsnCpu, queued, service);
        let assembly = SpanKey::tx(tx_id, SpanKind::Assemble, Actor::Pool(p));
        let span = SpanKey::tx(tx_id, SpanKind::OsnBroadcast, Actor::Osn(o));
        world.obs.span(span, Some(assembly), now, done);
    }
    k.schedule(done, Ev::OsnHandle { osn: o, input });
}

/// OSN `o`'s CPU station finished `input`: the ordering instance handles it.
pub(super) fn osn_handle(world: &mut World, k: &mut K, o: usize, input: OsnInput) {
    if !world.osns[o].alive {
        return;
    }
    let effects = world.osns[o].node.handle(input);
    apply_osn_effects(world, k, o, effects);
}

pub(super) fn osn_tick(world: &mut World, k: &mut K, o: usize) {
    if world.osns[o].alive {
        let effects = world.osns[o].node.handle(OsnInput::Tick);
        apply_osn_effects(world, k, o, effects);
    }
    let period = world.ms(world.cfg.cost.osn_tick_ms);
    k.schedule_in(period, Ev::OsnTick { osn: o });
}

fn apply_osn_effects(world: &mut World, k: &mut K, o: usize, effects: Vec<OsnEffect>) {
    let now = k.now();
    for effect in effects {
        match effect {
            OsnEffect::Ack { tx_id } => {
                let Some(p) = world.obs.record(tx_id).map(|r| r.pool) else {
                    continue;
                };
                let arrival = world.osns[o].egress.transfer(now, 200);
                let ack = Ev::OsnAck {
                    osn: o,
                    pool: p,
                    tx: tx_id,
                };
                k.schedule(arrival, ack);
            }
            OsnEffect::SendOsn { to, message } => {
                let bytes = osn_msg_bytes(&message);
                let arrival = world.osns[o].egress.transfer(now, bytes);
                let from = o as u32;
                let (src, dst) = (Actor::Osn(o), Actor::Osn(to as usize));
                world
                    .obs
                    .msg_span(SpanKind::RaftMsg, src, dst, now, arrival);
                let to = to as usize;
                k.schedule(arrival, Ev::OsnRelay { to, from, message });
            }
            OsnEffect::SendBroker { to, message } => {
                world.note_broker_read(&message);
                let bytes = broker_msg_bytes(&message);
                let arrival = world.osns[o].egress.transfer(now, bytes);
                let (src, dst) = (Actor::Osn(o), Actor::Broker(to as usize));
                world
                    .obs
                    .msg_span(SpanKind::KafkaProduce, src, dst, now, arrival);
                let broker = to as usize;
                k.schedule(arrival, Ev::BrokerProduce { broker, message });
            }
            OsnEffect::ArmBatchTimer { after_ms, seq } => {
                let delay = world.ms(after_ms as f64);
                k.schedule_in(delay, Ev::OsnTimer { osn: o, seq });
            }
            OsnEffect::BlockReady(block) => {
                deliver_block(world, k, o, block);
            }
        }
    }
}

/// OSN `o`'s acknowledgment of `tx_id` reached pool `p`: the client forgets
/// the transaction, and its ordering timeout, when it fires, sees the ack.
pub(super) fn osn_ack(world: &mut World, k: &mut K, o: usize, p: usize, tx_id: TxId) {
    let now = k.now();
    world.pools[p].pending.remove(&tx_id);
    let station = &world.osns[o].station;
    let depth = station.jobs_in_system(now);
    world
        .obs
        .phase(now, tx_id, TracePhase::OrderAcked, station.name(), depth);
}

fn osn_msg_bytes(message: &OsnMsg) -> u64 {
    match message {
        OsnMsg::Relay(tx) => tx.wire_size(),
        OsnMsg::Raft(m) => match m {
            fabricsim_raft::Message::AppendEntries { entries, .. } => {
                200 + entries.iter().map(|e| e.data.len() as u64).sum::<u64>()
            }
            _ => 150,
        },
    }
}

fn broker_msg_bytes(message: &BrokerMsg) -> u64 {
    match message {
        BrokerMsg::Produce { record, .. } => 150 + record.data.len() as u64,
        BrokerMsg::FetchResponse { records, .. } => {
            150 + records.iter().map(|r| r.data.len() as u64).sum::<u64>()
        }
        _ => 150,
    }
}

fn deliver_block(world: &mut World, k: &mut K, o: usize, block: Block) {
    if world.check_channel(&block.channel).is_err() {
        return;
    }
    // The OSN logs are the channel's record of what it ordered, a crashed
    // OSN's included: a number no log holds is cut here, once, and a block
    // equal to one logged under its number is delivered as that body.
    let number = block.header.number;
    let mut logged = world
        .osns
        .iter()
        .filter_map(|a| logged_body(&a.delivered, number))
        .peekable();
    let first_cut = logged.peek().is_none();
    // Shared from here to each committer: subscribers, the replay log and
    // the gossip mesh all hold the one allocation, and a ledger that takes
    // ownership copies only the header and flags — never the transactions.
    let block = match logged.find(|known| ***known == block) {
        Some(known) => Arc::clone(known),
        None => Arc::new(block),
    };
    let now = k.now();
    let cut = SpanKey::block(number, SpanKind::BlockCut, Actor::Osn(o));
    if first_cut {
        world.block_cuts.push((now, block.len()));
        let station = &world.osns[o].station;
        let depth = station.jobs_in_system(now);
        for tx in &block.transactions {
            world
                .obs
                .phase(now, tx.tx_id, TracePhase::Ordered, station.name(), depth);
        }
    }
    // Zero-width anchor: the instant the block exists at this OSN. Every OSN
    // cuts it from the same consensus stream, and its deliveries name its
    // own cut as their parent.
    world.obs.span(cut, None, now, now);
    let bytes = block.wire_size();
    let (osn, obs) = (&mut world.osns[o], &mut world.obs);
    for &peer in &osn.subscribers {
        let arrival = osn.egress.transfer(now, bytes);
        let delivery = SpanKey::block(number, SpanKind::Deliver, Actor::Peer(peer));
        obs.span(delivery, Some(cut), now, arrival);
        let block = Arc::clone(&block);
        k.schedule(arrival, Ev::OsnDeliver { peer, block });
    }
    osn.delivered.push_back(block);
}

/// The body `log` holds under `number`; an OSN logs in number order.
fn logged_body(log: &VecDeque<Arc<Block>>, number: u64) -> Option<&Arc<Block>> {
    let at = log.binary_search_by_key(&number, |b| b.header.number);
    log.get(at.ok()?)
}

pub(super) fn broker_receive(world: &mut World, k: &mut K, b: usize, message: BrokerMsg) {
    if !world.brokers[b].alive {
        world.broker_read_done(&message);
        return;
    }
    let now = k.now();
    let service = world.ms(world.cfg.cost.kafka_broker_op_ms);
    let done = world.brokers[b].station.submit(now, service);
    k.schedule(done, Ev::BrokerStep { broker: b, message });
}

/// Broker `b`'s CPU station finished `message`: the partition steps on it.
pub(super) fn broker_step(world: &mut World, k: &mut K, b: usize, message: BrokerMsg) {
    world.broker_read_done(&message);
    if !world.brokers[b].alive {
        return;
    }
    let mut effects = std::mem::take(&mut world.broker_effects);
    world.brokers[b].partition.step(message, &mut effects);
    apply_broker_effects(world, k, b, &mut effects);
    world.broker_effects = effects;
}

pub(super) fn broker_tick(world: &mut World, k: &mut K, b: usize) {
    if world.brokers[b].alive {
        let mut effects = std::mem::take(&mut world.broker_effects);
        world.brokers[b].partition.tick(&mut effects);
        apply_broker_effects(world, k, b, &mut effects);
        world.broker_effects = effects;
    }
    let period = world.ms(world.cfg.cost.broker_tick_ms);
    k.schedule_in(period, Ev::BrokerTick { broker: b });
}

pub(super) fn broker_heartbeat(world: &mut World, k: &mut K, b: usize) {
    if world.brokers[b].alive {
        let from = world.brokers[b].partition.id();
        zk_receive(world, k, ZkMsg::Heartbeat { from });
    }
    let period = world.ms(world.cfg.cost.zk_heartbeat_ms);
    k.schedule_in(period, Ev::BrokerHeartbeat { broker: b });
}

/// Applies and drains the effects broker `b` just emitted.
fn apply_broker_effects(world: &mut World, k: &mut K, b: usize, effects: &mut Vec<BrokerEffect>) {
    let now = k.now();
    for effect in effects.drain(..) {
        match effect {
            BrokerEffect::Send { to, message } => {
                world.note_broker_read(&message);
                let bytes = broker_msg_bytes(&message);
                let arrival = world.brokers[b].egress.transfer(now, bytes);
                let broker = to as usize;
                k.schedule(arrival, Ev::BrokerSend { broker, message });
            }
            BrokerEffect::Reply { to, event } => {
                let bytes = client_event_bytes(&event);
                let arrival = world.brokers[b].egress.transfer(now, bytes);
                let o = to as usize;
                if let ClientEvent::ConsumeBatch { .. } = &event {
                    let (src, dst) = (Actor::Broker(b), Actor::Osn(o));
                    world
                        .obs
                        .msg_span(SpanKind::KafkaConsume, src, dst, now, arrival);
                }
                k.schedule(arrival, Ev::OsnConsume { osn: o, event });
            }
            BrokerEffect::IsrUpdate { isr } => {
                let from = world.brokers[b].partition.id();
                zk_receive(world, k, ZkMsg::IsrUpdate { from, isr });
            }
        }
    }
}

fn client_event_bytes(event: &ClientEvent) -> u64 {
    match event {
        ClientEvent::ConsumeBatch { records, .. } => {
            150 + records.iter().map(|r| r.data.len() as u64).sum::<u64>()
        }
        _ => 150,
    }
}

fn zk_receive(world: &mut World, k: &mut K, message: ZkMsg) {
    let Some(zk) = world.zk.as_mut() else {
        return;
    };
    let effects = zk.step(message);
    apply_zk_effects(world, k, effects);
}

pub(super) fn zk_tick(world: &mut World, k: &mut K) {
    if let Some(zk) = world.zk.as_mut() {
        let effects = zk.tick();
        apply_zk_effects(world, k, effects);
    }
    k.schedule_in(world.ms(500.0), Ev::ZkTick);
}

fn apply_zk_effects(world: &mut World, k: &mut K, effects: Vec<ZkEffect>) {
    for effect in effects {
        // Kafka clients learn leadership through metadata refresh; model it as
        // a prompt notification to every OSN when ZooKeeper appoints a leader.
        if let ZkEffect::AppointLeader { broker, .. } = &effect {
            let leader = *broker;
            for osn in 0..world.osns.len() {
                let delay = world.ms(world.cfg.cost.link_propagation_ms + 1.0);
                k.schedule_in(delay, Ev::OsnMetadata { osn, leader });
            }
        }
        let (target, message) = match effect {
            ZkEffect::AppointLeader {
                broker,
                epoch,
                replicas,
            } => (broker, BrokerMsg::AppointLeader { epoch, replicas }),
            ZkEffect::AppointFollower {
                broker,
                leader,
                epoch,
            } => (broker, BrokerMsg::AppointFollower { epoch, leader }),
        };
        // Coordination messages travel the same LAN.
        let delay = world.ms(world.cfg.cost.link_propagation_ms + 0.5);
        let broker = target as usize;
        k.schedule_in(delay, Ev::BrokerAppoint { broker, message });
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use fabricsim_crypto::Hash256;
    use fabricsim_des::{Kernel, SimDuration, SimTime};
    use fabricsim_types::ChannelId;

    use super::super::client;
    use super::super::faults::{inject, schedule_faults, Fault};
    use super::super::retire;
    use super::super::world::{bootstrap, build_world};
    use super::*;
    use crate::metrics::TxOutcome;
    use crate::workload::{PolicySpec, SimConfig};

    /// The benchmark's Kafka small-blocks shape, 10 simulated seconds.
    fn kafka() -> SimConfig {
        let mut cfg = SimConfig {
            orderer_type: OrdererType::Kafka,
            broker_count: 5,
            zk_count: 3,
            osn_count: 3,
            endorsing_peers: 2,
            policy: PolicySpec::OrN(2),
            arrival_rate_tps: 90.0,
            duration_secs: 10.0,
            ..SimConfig::default()
        };
        cfg.batch.max_message_count = 2;
        cfg
    }

    fn raft(rate: f64, duration_secs: f64) -> SimConfig {
        SimConfig {
            orderer_type: OrdererType::Raft,
            osn_count: 3,
            endorsing_peers: 5,
            policy: PolicySpec::AndX(3),
            arrival_rate_tps: rate,
            duration_secs,
            ..SimConfig::default()
        }
    }

    /// One channel's world, run to its horizon on a plain kernel.
    fn run_world(cfg: &SimConfig, faults: &[(f64, Fault)]) -> World {
        let mut world = build_world(cfg, 0);
        let mut k: K = Kernel::new();
        bootstrap(&mut world, &mut k);
        schedule_faults(faults, &mut k);
        let horizon = SimTime::from_secs_f64(cfg.duration_secs);
        k.run_until(&mut world, horizon + SimDuration::from_nanos(1));
        world
    }

    /// Asserts that every OSN logs one body per number, in number order
    /// and without a gap, and that all its OSNs' deliveries of a number are
    /// one allocation. Returns how many numbers were delivered: the highest
    /// OSN height.
    fn assert_one_body_per_number(world: &World) -> usize {
        let mut first: BTreeMap<u64, &Arc<Block>> = BTreeMap::new();
        for (o, osn) in world.osns.iter().enumerate() {
            let numbers: Vec<u64> = osn.delivered.iter().map(|b| b.header.number).collect();
            let contiguous = numbers.windows(2).all(|w| w[1] == w[0] + 1);
            assert!(contiguous, "OSN {o} logs in number order");
            for block in &osn.delivered {
                let shared = *first.entry(block.header.number).or_insert(block);
                let number = block.header.number;
                assert!(Arc::ptr_eq(shared, block), "OSN {o}, block {number}");
            }
        }
        (0..world.osns.len())
            .map(|o| height(world, o))
            .max()
            .unwrap_or(0)
    }

    /// One past the highest number OSN `o` delivered.
    fn height(world: &World, o: usize) -> usize {
        retire::height(&world.osns[o].delivered, world.retired_below) as usize
    }

    #[test]
    fn every_osn_of_a_kafka_or_raft_channel_delivers_one_body() {
        for cfg in [kafka(), raft(120.0, 12.0)] {
            let world = run_world(&cfg, &[]);
            let what = cfg.orderer_type;
            assert_eq!(world.osns.len(), 3, "{what}");
            let numbers = assert_one_body_per_number(&world);
            assert!(numbers > 8, "{what}: only {numbers} blocks");
            for o in 0..world.osns.len() {
                assert_eq!(height(&world, o), numbers, "{what}");
            }
            // Each number is cut once, by the first OSN that logged it.
            assert_eq!(world.block_cuts.len(), numbers, "{what}");
        }
    }

    #[test]
    fn each_number_is_cut_once_across_an_osn_crash() {
        let mut cfg = raft(100.0, 28.0);
        cfg.policy = PolicySpec::OrN(5);
        let world = run_world(&cfg, &[(6.0, Fault::CrashOsn(0))]);
        assert!(!world.osns[0].alive);
        let crash = SimTime::from_secs_f64(6.0);
        let before_crash = world.block_cuts.iter().filter(|c| c.0 <= crash).count();
        let mut crashed_log = world.osns[0].delivered.iter();
        assert!(crashed_log.all(|b| (b.header.number as usize) < before_crash));
        let numbers = assert_one_body_per_number(&world);
        assert!(numbers > before_crash + 20, "{numbers} blocks");
        assert_eq!(world.block_cuts.len(), numbers);
    }

    /// An empty block 0 of the default channel, linked to `previous`.
    fn block_zero(previous: Hash256) -> Block {
        Block::assemble(ChannelId::default_channel(), 0, previous, Vec::new())
    }

    #[test]
    fn a_crashed_osns_log_still_counts() {
        let mut world = build_world(&raft(120.0, 6.0), 0);
        let mut k: K = Kernel::new();
        deliver_block(&mut world, &mut k, 0, block_zero(Hash256::ZERO));
        inject(&mut world, &mut k, Fault::CrashOsn(0));
        deliver_block(&mut world, &mut k, 1, block_zero(Hash256::ZERO));
        let [logged, shared] = [0, 1].map(|o| &world.osns[o].delivered[0]);
        assert!(Arc::ptr_eq(logged, shared), "the crashed OSN's body");
        assert_eq!(world.block_cuts.len(), 1, "number 0 is cut once");
    }

    #[test]
    fn a_different_block_under_a_known_number_gets_its_own_body() {
        let mut world = build_world(&raft(120.0, 6.0), 0);
        let mut k: K = Kernel::new();
        deliver_block(&mut world, &mut k, 0, block_zero(Hash256::ZERO));
        let forked = Hash256::from_bytes([7; 32]);
        deliver_block(&mut world, &mut k, 1, block_zero(forked));
        deliver_block(&mut world, &mut k, 2, block_zero(Hash256::ZERO));
        let [first, fork, again] = [0, 1, 2].map(|o| &world.osns[o].delivered[0]);
        assert!(!Arc::ptr_eq(first, fork));
        assert_eq!(fork.header.previous_hash, forked);
        assert!(Arc::ptr_eq(first, again), "the first stays shared");
        assert_eq!(world.block_cuts.len(), 1, "number 0 is cut once");
    }

    /// The ordering timeout is never cancelled: after the ack it still
    /// fires, and its handler must leave the transaction alone.
    #[test]
    fn an_ordering_timeout_after_the_ack_changes_nothing() {
        let cfg = raft(120.0, 8.0);
        let mut world = build_world(&cfg, 0);
        let mut k: K = Kernel::new();
        bootstrap(&mut world, &mut k);
        // A transaction the orderer acknowledged and the observer has not
        // committed yet, whose record a wrongly applied timeout would end:
        // one of a block just delivered. Looked for in 1 ms steps, short of
        // the 3 s timeout, so that none has fired yet.
        let in_flight_acked = |world: &World, tx: TxId| {
            world.obs.record(tx).is_some_and(|r| {
                r.trace.order_acked.is_some() && matches!(r.trace.outcome, TxOutcome::InFlight)
            })
        };
        let acked = (1..2_500u64)
            .find_map(|ms| {
                k.run_until(&mut world, SimTime::from_nanos(ms * 1_000_000));
                let delivered = world.osns.iter().flat_map(|osn| osn.delivered.iter());
                delivered
                    .flat_map(|block| block.transactions.iter())
                    .map(|tx| tx.tx_id)
                    .find(|&tx| in_flight_acked(&world, tx))
            })
            .expect("an acknowledged transaction in flight");
        let record = world.obs.record(acked).expect("recorded");
        let (p, before) = (record.pool, format!("{record:?}"));
        let pending = world.pools[p].pending.len();
        client::ordering_timeout(&mut world, &mut k, p, acked);
        let after = world.obs.record(acked).expect("recorded");
        assert_eq!(format!("{after:?}"), before, "nothing is recorded");
        assert_eq!(world.pools[p].pending.len(), pending);
        // Through the kernel: every timer fires after its ack, none expires.
        k.run_until(&mut world, SimTime::from_secs_f64(8.0));
        let after = world.obs.record(acked).expect("recorded");
        assert!(matches!(after.trace.outcome, TxOutcome::Committed(_)));
        let records = world.obs.harvest().records;
        let expired = records
            .iter()
            .filter(|r| matches!(r.trace.outcome, TxOutcome::OrderingTimeout));
        assert_eq!(expired.count(), 0);
    }
}
