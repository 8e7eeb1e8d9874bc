//! The ordering service: OSNs, block delivery, and the Kafka substrate
//! (brokers and ZooKeeper).

use std::sync::Arc;

use fabricsim_kafka::{BrokerEffect, BrokerMsg, ClientEvent, ZkEffect, ZkMsg};
use fabricsim_obs::{SpanKind, StationClass, TracePhase};
use fabricsim_ordering::{OsnEffect, OsnInput, OsnMsg};
use fabricsim_types::encode::WireSize;
use fabricsim_types::{Block, OrdererType};

use super::observe::{Actor, SpanKey};
use super::peer::peer_receive_block;
use super::world::{World, K};

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
    k.schedule_labeled(done, "osn.receive", move |w, k| {
        if !w.osns[o].alive {
            return;
        }
        let effects = w.osns[o].node.handle(input);
        apply_osn_effects(w, k, o, effects);
    });
}

pub(super) fn osn_tick(world: &mut World, k: &mut K, o: usize) {
    if world.osns[o].alive {
        let effects = world.osns[o].node.handle(OsnInput::Tick);
        apply_osn_effects(world, k, o, effects);
    }
    let period = world.ms(world.cfg.cost.osn_tick_ms);
    k.schedule_in_labeled(period, "osn.tick", move |w, k| osn_tick(w, k, o));
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
                k.schedule_labeled(arrival, "osn.ack", move |w: &mut World, k2| {
                    let now = k2.now();
                    if let Some(pending) = w.pools[p].pending.remove(&tx_id) {
                        if let Some(ev) = pending.timeout_event {
                            k2.cancel(ev);
                        }
                    }
                    let station = &w.osns[o].station;
                    let depth = station.jobs_in_system(now);
                    w.obs
                        .phase(now, tx_id, TracePhase::OrderAcked, station.name(), depth);
                });
            }
            OsnEffect::SendOsn { to, message } => {
                let bytes = osn_msg_bytes(&message);
                let arrival = world.osns[o].egress.transfer(now, bytes);
                let from = o as u32;
                let (src, dst) = (Actor::Osn(o), Actor::Osn(to as usize));
                world
                    .obs
                    .msg_span(SpanKind::RaftMsg, src, dst, now, arrival);
                k.schedule_labeled(arrival, "osn.relay", move |w, k| {
                    osn_receive(w, k, to as usize, OsnInput::Osn { from, message }, None);
                });
            }
            OsnEffect::SendBroker { to, message } => {
                let bytes = broker_msg_bytes(&message);
                let arrival = world.osns[o].egress.transfer(now, bytes);
                let (src, dst) = (Actor::Osn(o), Actor::Broker(to as usize));
                world
                    .obs
                    .msg_span(SpanKind::KafkaProduce, src, dst, now, arrival);
                k.schedule_labeled(arrival, "broker.produce", move |w, k| {
                    broker_receive(w, k, to as usize, message);
                });
            }
            OsnEffect::ArmBatchTimer { after_ms, seq } => {
                let delay = world.ms(after_ms as f64);
                k.schedule_in_labeled(delay, "osn.timer", move |w, k| {
                    osn_receive(w, k, o, OsnInput::BatchTimer { seq }, None);
                });
            }
            OsnEffect::BlockReady(block) => {
                deliver_block(world, k, o, block);
            }
        }
    }
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
    // Shared from here to each committer: subscribers, the replay log and
    // the gossip mesh all hold the one allocation, and a peer deep-copies it
    // only when its ledger takes ownership.
    let block = Arc::new(block);
    let now = k.now();
    if world.check_channel(&block.channel).is_err() {
        return;
    }
    let cut = SpanKey::block(block.header.number, SpanKind::BlockCut, Actor::Osn(o));
    // Record the cut and per-tx ordering timestamps once (Kafka/Raft OSNs all
    // emit the same blocks; the first emission wins).
    if block.header.number >= world.next_cut_number {
        world.next_cut_number = block.header.number + 1;
        world.block_cuts.push((now, block.len()));
        let station = &world.osns[o].station;
        let depth = station.jobs_in_system(now);
        for tx in &block.transactions {
            world
                .obs
                .phase(now, tx.tx_id, TracePhase::Ordered, station.name(), depth);
        }
        // Zero-width anchor: the instant the block exists as an artifact.
        world.obs.span(cut, None, now, now);
    }
    let bytes = block.wire_size();
    let subscribers = world.osns[o].subscribers.clone();
    for peer_idx in subscribers {
        let arrival = world.osns[o].egress.transfer(now, bytes);
        let delivery = SpanKey::block(
            block.header.number,
            SpanKind::Deliver,
            Actor::Peer(peer_idx),
        );
        world.obs.span(delivery, Some(cut), now, arrival);
        let b = Arc::clone(&block);
        k.schedule_labeled(arrival, "osn.deliver", move |w, k| {
            peer_receive_block(w, k, peer_idx, b);
        });
    }
    world.osns[o].delivered.push(block);
}

fn broker_receive(world: &mut World, k: &mut K, b: usize, message: BrokerMsg) {
    if !world.brokers[b].alive {
        return;
    }
    let now = k.now();
    let service = world.ms(world.cfg.cost.kafka_broker_op_ms);
    let done = world.brokers[b].station.submit(now, service);
    k.schedule_labeled(done, "broker.step", move |w, k| {
        if !w.brokers[b].alive {
            return;
        }
        let effects = w.brokers[b].partition.step(message);
        apply_broker_effects(w, k, b, effects);
    });
}

pub(super) fn broker_tick(world: &mut World, k: &mut K, b: usize) {
    if world.brokers[b].alive {
        let effects = world.brokers[b].partition.tick();
        apply_broker_effects(world, k, b, effects);
    }
    let period = world.ms(world.cfg.cost.broker_tick_ms);
    k.schedule_in_labeled(period, "broker.tick", move |w, k| broker_tick(w, k, b));
}

pub(super) fn broker_heartbeat(world: &mut World, k: &mut K, b: usize) {
    if world.brokers[b].alive {
        let from = world.brokers[b].partition.id();
        zk_receive(world, k, ZkMsg::Heartbeat { from });
    }
    let period = world.ms(world.cfg.cost.zk_heartbeat_ms);
    k.schedule_in_labeled(period, "broker.heartbeat", move |w, k| {
        broker_heartbeat(w, k, b);
    });
}

fn apply_broker_effects(world: &mut World, k: &mut K, b: usize, effects: Vec<BrokerEffect>) {
    let now = k.now();
    for effect in effects {
        match effect {
            BrokerEffect::Send { to, message } => {
                let bytes = broker_msg_bytes(&message);
                let arrival = world.brokers[b].egress.transfer(now, bytes);
                k.schedule_labeled(arrival, "broker.send", move |w, k| {
                    broker_receive(w, k, to as usize, message);
                });
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
                k.schedule_labeled(arrival, "osn.consume", move |w, k| {
                    osn_receive(w, k, o, OsnInput::Kafka(event), None);
                });
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
    k.schedule_in_labeled(world.ms(500.0), "zk.tick", zk_tick);
}

fn apply_zk_effects(world: &mut World, k: &mut K, effects: Vec<ZkEffect>) {
    for effect in effects {
        // Kafka clients learn leadership through metadata refresh; model it as
        // a prompt notification to every OSN when ZooKeeper appoints a leader.
        if let ZkEffect::AppointLeader { broker, .. } = &effect {
            let leader = *broker;
            for o in 0..world.osns.len() {
                let delay = world.ms(world.cfg.cost.link_propagation_ms + 1.0);
                k.schedule_in_labeled(delay, "osn.metadata", move |w, k| {
                    osn_receive(w, k, o, OsnInput::KafkaMetadata { leader }, None);
                });
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
        k.schedule_in_labeled(delay, "broker.appoint", move |w, k| {
            broker_receive(w, k, target as usize, message);
        });
    }
}
