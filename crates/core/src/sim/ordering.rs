//! The ordering service: OSNs, block delivery, and the Kafka substrate
//! (brokers and ZooKeeper).

use std::sync::Arc;

use fabricsim_kafka::{BrokerEffect, BrokerMsg, ClientEvent, ZkEffect, ZkMsg};
use fabricsim_obs::{span_id, SpanKind, StationClass, TracePhase};
use fabricsim_ordering::{OsnEffect, OsnInput, OsnMsg};
use fabricsim_types::encode::WireSize;
use fabricsim_types::{Block, OrdererType, TxId};

use super::peer::peer_receive_block;
use super::world::{World, K};

/// Routes any input through the OSN's CPU station, then applies effects to
/// the channel's ordering instance.
pub(super) fn osn_receive(
    world: &mut World,
    k: &mut K,
    o: usize,
    input: OsnInput,
    charge_admission: bool,
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
    let cost = if charge_admission {
        m.osn_admission_ms + per_tx
    } else {
        per_tx * 0.5
    };
    let service = world.ms(cost);
    // Client broadcasts carry a tx identity to attribute CPU time against;
    // intra-cluster traffic (Raft/Kafka relays, ticks) does not.
    let attributed_tx = match &input {
        OsnInput::Broadcast(tx) if charge_admission => Some(tx.tx_id),
        _ => None,
    };
    let queued = world.osns[o].station.would_start_at(now) - now;
    let done = world.osns[o].station.submit(now, service);
    if let Some(tx_id) = attributed_tx {
        world.attribute(tx_id, StationClass::OsnCpu, queued, service);
        if world.obs.spans.enabled() {
            let tx = tx_id.short();
            let actor = format!("osn{o}");
            let parent = world.tx_pool.get(&tx_id).map_or(0, |&p| {
                span_id(&tx, SpanKind::Assemble, &format!("pool{p}"), 0)
            });
            world.emit_span(&tx, SpanKind::OsnBroadcast, &actor, now, done, 0, parent);
        }
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
                let Some(&p) = world.tx_pool.get(&tx_id) else {
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
                    let mut first_ack = false;
                    if let Some(t) = w.trace_mut(tx_id) {
                        if t.order_acked.is_none() {
                            t.order_acked = Some(now);
                            first_ack = true;
                        }
                    }
                    if first_ack && w.obs.sink.enabled() {
                        let station = w.osns[o].station.name().to_string();
                        let depth = w.osns[o].station.jobs_in_system(now);
                        w.emit_tx(now, tx_id, TracePhase::OrderAcked, station, depth);
                    }
                });
            }
            OsnEffect::SendOsn { to, message } => {
                let bytes = osn_msg_bytes(&message);
                let arrival = world.osns[o].egress.transfer(now, bytes);
                let from = o as u32;
                if world.obs.spans.enabled() {
                    let trace = format!("ch{}", world.shard.shard_id);
                    let actor = format!("osn{o}>osn{to}");
                    world.emit_msg_span(&trace, SpanKind::RaftMsg, &actor, now, arrival);
                }
                k.schedule_labeled(arrival, "osn.relay", move |w, k| {
                    osn_receive(w, k, to as usize, OsnInput::Osn { from, message }, false);
                });
            }
            OsnEffect::SendBroker { to, message } => {
                let bytes = broker_msg_bytes(&message);
                let arrival = world.osns[o].egress.transfer(now, bytes);
                if world.obs.spans.enabled() {
                    let trace = format!("ch{}", world.shard.shard_id);
                    let actor = format!("osn{o}>broker{to}");
                    world.emit_msg_span(&trace, SpanKind::KafkaProduce, &actor, now, arrival);
                }
                k.schedule_labeled(arrival, "broker.produce", move |w, k| {
                    broker_receive(w, k, to as usize, message);
                });
            }
            OsnEffect::ArmBatchTimer { after_ms, seq } => {
                let delay = world.ms(after_ms as f64);
                k.schedule_in_labeled(delay, "osn.timer", move |w, k| {
                    osn_receive(w, k, o, OsnInput::BatchTimer { seq }, false);
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
    // Record the cut and per-tx ordering timestamps once (Kafka/Raft OSNs all
    // emit the same blocks; the first emission wins).
    if block.header.number >= world.next_cut_number {
        world.next_cut_number = block.header.number + 1;
        world.block_cuts.push((now, block.len()));
        if let Some(live) = &world.obs.live {
            live.blocks_cut.inc();
            live.block_txs.add(block.len() as u64);
        }
        let station = world
            .obs
            .sink
            .enabled()
            .then(|| world.osns[o].station.name().to_string());
        let depth = world.osns[o].station.jobs_in_system(now);
        for tx in &block.transactions {
            let tx_id = tx.tx_id;
            if let Some(t) = world.trace_mut(tx_id) {
                if t.ordered.is_none() {
                    t.ordered = Some(now);
                }
            }
        }
        if let Some(station) = station {
            let tx_ids: Vec<TxId> = block.transactions.iter().map(|t| t.tx_id).collect();
            for tx_id in tx_ids {
                world.emit_tx(now, tx_id, TracePhase::Ordered, station.clone(), depth);
            }
        }
        if world.obs.spans.enabled() {
            // Zero-width anchor: the instant the block exists as an artifact.
            let trace = world.block_trace(block.header.number);
            let actor = format!("osn{o}");
            world.emit_span(&trace, SpanKind::BlockCut, &actor, now, now, 0, 0);
        }
    }
    let bytes = block.wire_size();
    let subscribers = world.osns[o].subscribers.clone();
    let btrace = world
        .obs
        .spans
        .enabled()
        .then(|| world.block_trace(block.header.number));
    for peer_idx in subscribers {
        let arrival = world.osns[o].egress.transfer(now, bytes);
        if let Some(trace) = &btrace {
            let parent = span_id(trace, SpanKind::BlockCut, &format!("osn{o}"), 0);
            let actor = format!("peer{peer_idx}");
            world.emit_span(trace, SpanKind::Deliver, &actor, now, arrival, 0, parent);
        }
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
                if world.obs.spans.enabled() {
                    if let ClientEvent::ConsumeBatch { .. } = &event {
                        let trace = format!("ch{}", world.shard.shard_id);
                        let actor = format!("broker{b}>osn{o}");
                        world.emit_msg_span(&trace, SpanKind::KafkaConsume, &actor, now, arrival);
                    }
                }
                k.schedule_labeled(arrival, "osn.consume", move |w, k| {
                    osn_receive(w, k, o, OsnInput::Kafka(event), false);
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
                    osn_receive(w, k, o, OsnInput::KafkaMetadata { leader }, false);
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
