//! Peers: endorsement, block delivery (direct or gossip) and the staged
//! validate/commit pipeline.

use std::sync::Arc;

use fabricsim_des::{SimDuration, SimTime};
use fabricsim_obs::{SpanKind, StationClass, TracePhase};
use fabricsim_peer::{GossipEffect, GossipMsg};
use fabricsim_types::encode::WireSize;
use fabricsim_types::{Block, Proposal, ProposalResponse};

use crate::metrics::TxOutcome;

use super::client::pool_receive_response;
use super::observe::{Actor, SpanKey};
use super::world::{World, K};

pub(super) fn peer_receive_proposal(
    world: &mut World,
    k: &mut K,
    peer_idx: usize,
    p: usize,
    proposal: Arc<Proposal>,
) {
    let now = k.now();
    let m = &world.cfg.cost;
    let service = world.ms(m.endorse_tx_ms());
    let queued = world.peers[peer_idx].endorse.would_start_at(now) - now;
    let done = world.peers[peer_idx].endorse.submit(now, service);
    // Endorsement fans out: only the slowest endorser is on the critical path.
    let tx_id = proposal.tx_id;
    world
        .obs
        .visit_max(tx_id, StationClass::PeerEndorse, queued, service);
    let prep = SpanKey::tx(tx_id, SpanKind::ClientPrep, Actor::Pool(p));
    let span = SpanKey::tx(tx_id, SpanKind::Endorse, Actor::Peer(peer_idx));
    world.obs.span(span, Some(prep), now, done);
    k.schedule_labeled(done, "peer.endorse", move |w, k| {
        if w.check_channel(&proposal.channel).is_err() {
            return;
        }
        let response = w.peers[peer_idx].peer.endorse(&proposal);
        send_response(w, k, peer_idx, p, response);
    });
}

fn send_response(
    world: &mut World,
    k: &mut K,
    peer_idx: usize,
    p: usize,
    response: ProposalResponse,
) {
    let now = k.now();
    let bytes = response.wire_size();
    let jitter_ms = world.peers[peer_idx]
        .jitter
        .exp(world.cfg.cost.endorse_path_jitter_ms);
    let arrival = world.peers[peer_idx].egress.transfer(now, bytes) + world.ms(jitter_ms);
    k.schedule_labeled(arrival, "pool.recv", move |w, k| {
        pool_receive_response(w, k, p, response);
    });
}

/// Entry point for blocks arriving from the ordering service (or from a
/// failover replay). Routes through the gossip layer when enabled.
pub(super) fn peer_receive_block(world: &mut World, k: &mut K, peer_idx: usize, block: Arc<Block>) {
    if let Some(gossip) = world.peers[peer_idx].gossip.as_mut() {
        let effects = gossip.on_block_from_orderer(block);
        apply_gossip_effects(world, k, peer_idx, effects);
    } else {
        enqueue_block_validation(world, k, peer_idx, block);
    }
}

fn gossip_msg_bytes(message: &GossipMsg) -> u64 {
    match message {
        GossipMsg::Push { block, .. } => block.wire_size(),
        GossipMsg::PullRequest { .. } => 60,
        GossipMsg::PullResponse { blocks } => {
            100 + blocks.iter().map(|b| b.wire_size()).sum::<u64>()
        }
    }
}

fn apply_gossip_effects(world: &mut World, k: &mut K, peer_idx: usize, effects: Vec<GossipEffect>) {
    for effect in effects {
        match effect {
            GossipEffect::Send { to, message } => {
                let now = k.now();
                let bytes = gossip_msg_bytes(&message);
                let arrival = world.peers[peer_idx].egress.transfer(now, bytes);
                let from = peer_idx as u32;
                if let GossipMsg::Push { block, hop } = &message {
                    // One span per mesh hop: actor is the *receiving*
                    // peer, parent the hop (or orderer delivery) that
                    // brought the block to the sender.
                    if world.check_channel(&block.channel).is_ok() {
                        let number = block.header.number;
                        let sender = Actor::Peer(peer_idx);
                        let parent = if *hop > 1 {
                            SpanKey::block(number, SpanKind::GossipHop, sender).at_hop(hop - 1)
                        } else {
                            SpanKey::block(number, SpanKind::Deliver, sender)
                        };
                        let receiver = Actor::Peer(to as usize);
                        let span =
                            SpanKey::block(number, SpanKind::GossipHop, receiver).at_hop(*hop);
                        world.obs.span(span, Some(parent), now, arrival);
                    }
                }
                k.schedule_labeled(arrival, "gossip.send", move |w, k| {
                    peer_receive_gossip(w, k, to as usize, from, message);
                });
            }
            GossipEffect::Deliver(block) => {
                enqueue_block_validation(world, k, peer_idx, block);
            }
        }
    }
}

fn peer_receive_gossip(
    world: &mut World,
    k: &mut K,
    peer_idx: usize,
    from: u32,
    message: GossipMsg,
) {
    let Some(gossip) = world.peers[peer_idx].gossip.as_mut() else {
        return;
    };
    let effects = gossip.step(from, message);
    apply_gossip_effects(world, k, peer_idx, effects);
}

pub(super) fn gossip_tick(world: &mut World, k: &mut K, peer_idx: usize) {
    // Peers carry a gossip layer only when cfg.gossip is Some; requiring
    // both here removes the unwrap without changing when the tick re-arms.
    let Some(gossip_cfg) = world.cfg.gossip else {
        return;
    };
    if let Some(gossip) = world.peers[peer_idx].gossip.as_mut() {
        let effects = gossip.tick();
        apply_gossip_effects(world, k, peer_idx, effects);
        let period = world.ms(gossip_cfg.anti_entropy_ms as f64);
        k.schedule_in_labeled(period, "gossip.tick", move |w, k| {
            gossip_tick(w, k, peer_idx)
        });
    }
}

fn enqueue_block_validation(world: &mut World, k: &mut K, peer_idx: usize, block: Arc<Block>) {
    let now = k.now();
    if world.check_channel(&block.channel).is_err() {
        return;
    }
    // Drop duplicate deliveries (failover replay overlapping in-flight blocks).
    if block.header.number < world.peers[peer_idx].next_expected_block {
        return;
    }
    debug_assert_eq!(
        block.header.number, world.peers[peer_idx].next_expected_block,
        "delivery gap at peer {peer_idx}"
    );
    world.peers[peer_idx].next_expected_block = block.header.number + 1;
    // Zero-width delivery anchor for gossip-fed peers (no orderer Deliver
    // span). Orderer subscribers already have a real one with the same
    // deterministic id — the analyzer dedups, keeping the earlier real span.
    let anchor = SpanKey::block(
        block.header.number,
        SpanKind::Deliver,
        Actor::Peer(peer_idx),
    );
    world.obs.span(anchor, None, now, now);
    let is_observer = peer_idx == world.observer;
    if is_observer {
        let vscc = &world.peers[peer_idx].vscc;
        let depth = vscc.jobs_in_system(now);
        for tx in &block.transactions {
            world
                .obs
                .phase(now, tx.tx_id, TracePhase::Delivered, vscc.name(), depth);
        }
    }
    let m = &world.cfg.cost;
    let pool = m.validator_pool_size.max(1);
    // Per-transaction stage costs (progressive within the block).
    let vscc_tx_ms: Vec<f64> = block
        .transactions
        .iter()
        .map(|tx| m.vscc_tx_ms(tx.endorsements.len().max(1)))
        .collect();
    let commit_tx_ms = m.commit_tx_ms();
    let overhead_ms = m.validate_block_overhead_ms;
    // Blocks are serviced in delivery order and VSCC cannot overtake an
    // earlier block's commit, so the serial commit station is the queueing
    // backbone of the staged pipeline: the block's VSCC stage begins when a
    // committer slot frees up, and the commit stage follows immediately.
    let start = world.peers[peer_idx].commit.would_start_at(now);
    type StageTimes = (SimDuration, SimDuration, Vec<SimTime>, Vec<SimTime>);
    let (vscc_service, commit_service, commit_times, vscc_times): StageTimes = if pool <= 1 {
        // Serial stock-Fabric path. Timing reproduces the single-station
        // model exactly: the block's total service is one f64 sum, and the
        // split point is carved out by *integer* subtraction so
        // vscc_service + commit_service == total_service bit-for-bit.
        let per_tx_ms: Vec<f64> = block
            .transactions
            .iter()
            .map(|tx| m.validate_tx_ms(tx.endorsements.len().max(1)))
            .collect();
        let total_ms: f64 = overhead_ms + per_tx_ms.iter().sum::<f64>();
        let total_service = world.ms(total_ms);
        let vscc_service = world.ms(vscc_tx_ms.iter().sum::<f64>()).min(total_service);
        let commit_service = total_service - vscc_service;
        // Each tx's VSCC check runs at the head of its own serial slice, so
        // its vscc-done instant sits inside the slice, clamped to never land
        // after the commit record it precedes.
        let mut acc = overhead_ms;
        let mut commit_times = Vec::with_capacity(per_tx_ms.len());
        let mut vscc_times = Vec::with_capacity(per_tx_ms.len());
        for (c, &v) in per_tx_ms.iter().zip(&vscc_tx_ms) {
            let committed = start + SimDuration::from_millis_f64(acc + c);
            vscc_times.push((start + SimDuration::from_millis_f64(acc + v)).min(committed));
            acc += c;
            commit_times.push(committed);
        }
        (vscc_service, commit_service, commit_times, vscc_times)
    } else {
        // Pooled path: the VSCC stage's makespan is a deterministic
        // earliest-free-worker schedule of the per-tx costs over `pool`
        // workers; MVCC + ledger write stay serial behind it. The stage is a
        // barrier, so every tx's vscc-done instant is the stage end.
        let vscc_service = world.ms(crate::model::CostModel::vscc_makespan_ms(&vscc_tx_ms, pool));
        let commit_service = world.ms(overhead_ms + commit_tx_ms * block.transactions.len() as f64);
        let vscc_end = start + vscc_service;
        let commit_times = {
            let mut acc = overhead_ms;
            (0..block.transactions.len())
                .map(|_| {
                    acc += commit_tx_ms;
                    vscc_end + SimDuration::from_millis_f64(acc)
                })
                .collect()
        };
        let vscc_times = vec![vscc_end; block.transactions.len()];
        (vscc_service, commit_service, commit_times, vscc_times)
    };
    // Observational per-tx VSCC visits: the station's busy time is the pool's
    // real CPU demand, so its utilization reads as aggregate core usage.
    let vscc_services: Vec<SimDuration> = vscc_tx_ms.iter().map(|&ms| world.ms(ms)).collect();
    for s in vscc_services {
        world.peers[peer_idx].vscc.submit_ready(now, start, s);
    }
    let vscc_end = start + vscc_service;
    let done = world.peers[peer_idx]
        .commit
        .submit_ready(now, vscc_end, commit_service);
    debug_assert_eq!(done, vscc_end + commit_service);
    if is_observer {
        // Attribute each stage per tx: block-level queueing lands on the VSCC
        // stage (it is what the block waits to enter); the commit stage then
        // runs back-to-back, charged this tx's serial share plus its slice of
        // the block overhead.
        let queued = start - now;
        let overhead_share_ms = overhead_ms / block.transactions.len().max(1) as f64;
        let commit_s = SimDuration::from_millis_f64(commit_tx_ms + overhead_share_ms);
        for (tx, &vscc_ms) in block.transactions.iter().zip(&vscc_tx_ms) {
            let vscc_s = SimDuration::from_millis_f64(vscc_ms);
            world
                .obs
                .visit(tx.tx_id, StationClass::PeerVscc, queued, vscc_s);
            world.obs.visit(
                tx.tx_id,
                StationClass::PeerCommit,
                SimDuration::ZERO,
                commit_s,
            );
        }
    }

    k.schedule_labeled(done, "validate.commit", move |w, k| {
        commit_block(w, k, peer_idx, block, start, vscc_times, commit_times);
    });
}

fn commit_block(
    world: &mut World,
    k: &mut K,
    peer_idx: usize,
    block: Arc<Block>,
    start: SimTime,
    vscc_times: Vec<SimTime>,
    commit_times: Vec<SimTime>,
) {
    let _ = k;
    if world.check_channel(&block.channel).is_err() {
        return;
    }
    let number = block.header.number;
    let tx_ids: Vec<_> = block.transactions.iter().map(|t| t.tx_id).collect();
    let is_observer = peer_idx == world.observer;
    // The one deep copy: this peer's ledger must own its block.
    #[expect(
        clippy::expect_used,
        reason = "ordering delivers blocks in order; a chain break is a simulator bug"
    )]
    let stats = world.peers[peer_idx]
        .peer
        .validate_and_commit(Arc::unwrap_or_clone(block))
        .expect("delivered blocks must chain");
    let _ = stats;
    if is_observer {
        #[expect(
            clippy::expect_used,
            reason = "reads back the block committed two statements above"
        )]
        let flags = {
            let ledger = world.peers[peer_idx].peer.ledger();
            let height = ledger.height();
            ledger
                .blocks()
                .by_number(height - 1)
                .expect("just committed")
                .metadata
                .flags
                .clone()
        };
        // Per-tx validation spans bridge the tx-scoped graph back onto the
        // block-scoped delivery chain via the Vscc parent edge. Recorded here
        // — at commit time, not when validation was enqueued — so the span
        // graph only ever contains finished work and every Commit span has a
        // matching TxTrace commit stamp.
        let actor = Actor::Peer(peer_idx);
        let delivery = SpanKey::block(number, SpanKind::Deliver, actor);
        let node = &world.peers[peer_idx];
        for (i, &tx_id) in tx_ids.iter().enumerate() {
            let vscc = SpanKey::tx(tx_id, SpanKind::Vscc, actor);
            let commit = SpanKey::tx(tx_id, SpanKind::Commit, actor);
            let (vscc_done, committed) = (vscc_times[i], commit_times[i]);
            world.obs.span(vscc, Some(delivery), start, vscc_done);
            world.obs.span(commit, Some(vscc), vscc_done, committed);
            let phase = TracePhase::VsccDone;
            world
                .obs
                .phase(vscc_done, tx_id, phase, node.vscc.name(), 0);
            let outcome = TxOutcome::Committed(flags[i]);
            world
                .obs
                .terminal(committed, tx_id, outcome, node.commit.name(), 0);
        }
    }
}
