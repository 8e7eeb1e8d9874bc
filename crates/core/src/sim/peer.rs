//! Peers: endorsement, block delivery (direct or gossip) and the staged
//! validate/commit pipeline.

use std::sync::Arc;

use fabricsim_des::{SimDuration, SimTime};
use fabricsim_obs::{SpanKind, StationClass, TracePhase};
use fabricsim_peer::{GossipEffect, GossipMsg, Prevalidated};
use fabricsim_types::encode::WireSize;
use fabricsim_types::{Block, Proposal, ProposalResponse, Transaction};

use crate::metrics::TxOutcome;

use super::lane;
use super::observe::{Actor, SpanKey};
use super::world::{ChainBreak, Ev, World, K};

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
    let endorsed = Ev::Endorsed {
        peer: peer_idx,
        pool: p,
        proposal,
    };
    k.schedule(done, endorsed);
}

/// Peer `peer_idx`'s endorsement station finished `proposal`: it endorses
/// and answers pool `p`.
pub(super) fn peer_endorse(
    world: &mut World,
    k: &mut K,
    peer_idx: usize,
    p: usize,
    proposal: &Proposal,
) {
    if world.check_channel(&proposal.channel).is_err() {
        return;
    }
    let response = world.peers[peer_idx].peer.endorse(proposal);
    send_response(world, k, peer_idx, p, response);
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
    k.schedule(arrival, Ev::PoolRecv { pool: p, response });
}

/// Entry point for blocks arriving from the ordering service (or from a
/// failover replay). Routes through the gossip layer when enabled.
/// `from_osn` says whether the delivering OSN recorded this peer's
/// `deliver` span for the block; a replay did not.
pub(super) fn peer_receive_block(
    world: &mut World,
    k: &mut K,
    peer_idx: usize,
    block: Arc<Block>,
    from_osn: bool,
) {
    if let Some(gossip) = world.peers[peer_idx].gossip.as_mut() {
        let spanned = from_osn.then_some(block.header.number);
        let effects = gossip.on_block_from_orderer(block);
        apply_gossip_effects(world, k, peer_idx, effects, spanned);
    } else {
        enqueue_block_validation(world, k, peer_idx, block, !from_osn);
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

/// Applies peer `peer_idx`'s gossip effects; `spanned` is the number of the
/// block whose `deliver` span its OSN recorded, if one just arrived.
fn apply_gossip_effects(
    world: &mut World,
    k: &mut K,
    peer_idx: usize,
    effects: Vec<GossipEffect>,
    spanned: Option<u64>,
) {
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
                let to = to as usize;
                k.schedule(arrival, Ev::GossipSend { to, from, message });
            }
            GossipEffect::Deliver(block) => {
                let anchor = spanned != Some(block.header.number);
                enqueue_block_validation(world, k, peer_idx, block, anchor);
            }
        }
    }
}

pub(super) fn peer_receive_gossip(
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
    apply_gossip_effects(world, k, peer_idx, effects, None);
}

pub(super) fn gossip_tick(world: &mut World, k: &mut K, peer_idx: usize) {
    // Peers carry a gossip layer only when cfg.gossip is Some; requiring
    // both here removes the unwrap without changing when the tick re-arms.
    let Some(gossip_cfg) = world.cfg.gossip else {
        return;
    };
    if let Some(gossip) = world.peers[peer_idx].gossip.as_mut() {
        let effects = gossip.tick();
        apply_gossip_effects(world, k, peer_idx, effects, None);
        let period = world.ms(gossip_cfg.anti_entropy_ms as f64);
        k.schedule_in(period, Ev::GossipTick { peer: peer_idx });
    }
}

/// The validation cost of one transaction: its signature count.
fn sigs(tx: &Transaction) -> usize {
    tx.endorsements.len().max(1)
}

/// Queues `block` for validation at peer `peer_idx`. `anchor` asks for a
/// zero-width `deliver` span at this instant, for a block that arrived
/// without the OSN's: by gossip or by a failover replay. It is what the
/// block's `vscc` spans name as their parent.
fn enqueue_block_validation(
    world: &mut World,
    k: &mut K,
    peer_idx: usize,
    block: Arc<Block>,
    anchor: bool,
) {
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
    world.maybe_retire();
    if world.lane.is_some() {
        world.peers[peer_idx].awaiting.push_back(Arc::clone(&block));
        hand_over_head(world, peer_idx);
    }
    if anchor {
        let number = block.header.number;
        let delivery = SpanKey::block(number, SpanKind::Deliver, Actor::Peer(peer_idx));
        world.obs.span(delivery, None, now, now);
    }
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
    let txs = &block.transactions;
    let (vscc_service, commit_service, _) =
        m.validate_schedule(txs.iter().map(sigs), &mut world.vscc_workers);
    // Blocks are serviced in delivery order and VSCC cannot overtake an
    // earlier block's commit, so the serial commit station is the queueing
    // backbone of the staged pipeline: the block's VSCC stage begins when a
    // committer slot frees up, and the commit stage follows immediately.
    let node = &mut world.peers[peer_idx];
    let start = node.commit.would_start_at(now);
    let vscc_end = start + vscc_service;
    let done = node.commit.submit_ready(now, vscc_end, commit_service);
    debug_assert_eq!(done, vscc_end + commit_service);
    // Attribute each stage per tx at the observer: block-level queueing
    // lands on the VSCC stage (it is what the block waits to enter); the
    // commit stage then runs back-to-back, charged this tx's serial share
    // plus its slice of the block overhead.
    let queued = start - now;
    let overhead_share_ms = m.validate_block_overhead_ms / txs.len().max(1) as f64;
    let commit_s = SimDuration::from_millis_f64(m.commit_tx_ms() + overhead_share_ms);
    for tx in txs {
        let vscc_ms = m.vscc_tx_ms(sigs(tx));
        // Observational per-tx VSCC visits: the station's busy time is the
        // pool's real CPU demand, so its utilization reads as aggregate
        // core usage.
        node.vscc
            .submit_ready(now, start, SimDuration::from_millis_f64(vscc_ms.max(0.0)));
        if is_observer {
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
    let commit = Ev::ValidateCommit {
        peer: peer_idx,
        block,
        start,
    };
    k.schedule(done, commit);
}

/// Peer `peer_idx` finished validating `block`, whose VSCC stage started at
/// `start`: its ledger commits the block and lets go of its body, and at
/// the observer every transaction's validation spans and commit are
/// recorded. A block the ledger refuses to append is recorded
/// as a [`ChainBreak`] and dropped.
pub(super) fn commit_block(world: &mut World, peer_idx: usize, block: Arc<Block>, start: SimTime) {
    if world.check_channel(&block.channel).is_err() {
        return;
    }
    let number = block.header.number;
    // The ledger keeps its own header and flags; the transactions stay
    // shared with every OSN of the channel, and at the observer with
    // the loop below, which reads them beside the flags the commit hands
    // back.
    let observed = (peer_idx == world.observer).then(|| block.transactions.clone());
    let committed = match take_ahead(world, peer_idx, &block) {
        Some(checked) => world.peers[peer_idx].peer.commit_prevalidated(checked),
        None => world.peers[peer_idx]
            .peer
            .validate_and_commit(Arc::unwrap_or_clone(block)),
    };
    hand_over_head(world, peer_idx);
    let flags = match committed {
        Ok(flags) => flags,
        Err(error) => {
            let peer = peer_idx;
            world.chain_breaks.push(ChainBreak {
                peer,
                number,
                error,
            });
            return;
        }
    };
    world.peers[peer_idx].peer.retire_blocks_through(number);
    let Some(txs) = observed else {
        return;
    };
    let node = &world.peers[peer_idx];
    // Per-tx validation spans bridge the tx-scoped graph back onto the
    // block-scoped delivery chain via the Vscc parent edge. Recorded here
    // — at commit time, not when validation was enqueued — so the span
    // graph only ever contains finished work and every Commit span has a
    // matching TxTrace commit stamp. The per-tx instants come from the
    // same schedule `enqueue_block_validation` charged.
    let m = &world.cfg.cost;
    let (_, _, offsets) = m.validate_schedule(txs.iter().map(sigs), &mut world.vscc_workers);
    let actor = Actor::Peer(peer_idx);
    let delivery = SpanKey::block(number, SpanKind::Deliver, actor);
    for ((tx, flag), (vscc_done, done)) in txs.iter().zip(flags).zip(offsets) {
        let (vscc_done, done) = (start + vscc_done, start + done);
        let vscc = SpanKey::tx(tx.tx_id, SpanKind::Vscc, actor);
        let commit = SpanKey::tx(tx.tx_id, SpanKind::Commit, actor);
        world.obs.span(vscc, Some(delivery), start, vscc_done);
        world.obs.span(commit, Some(vscc), vscc_done, done);
        let phase = TracePhase::VsccDone;
        world
            .obs
            .phase(vscc_done, tx.tx_id, phase, node.vscc.name(), 0);
        let outcome = TxOutcome::Committed(flag);
        world
            .obs
            .terminal(done, tx.tx_id, outcome, node.commit.name(), 0);
    }
}

/// Hands the head of peer `peer_idx`'s validation queue to the run's lane,
/// unless it is there already or carries too few signatures to be worth a
/// handoff. Only the head goes: each peer holds at most one prevalidated
/// block.
fn hand_over_head(world: &mut World, peer_idx: usize) {
    let Some(lane) = world.lane.as_mut() else {
        return;
    };
    let node = &mut world.peers[peer_idx];
    let Some(head) = node.awaiting.front() else {
        return;
    };
    if node.ahead.is_none() && lane::worth_handing_over(head) {
        let job = (node.peer.validator(), Arc::clone(head));
        node.ahead = Some(lane.hand_over(job));
    }
}

/// Takes `block` off peer `peer_idx`'s validation queue and returns the
/// lane's pure half of its validation, if the lane has it under the trust
/// the peer holds now. `None` means the caller validates the block inline.
fn take_ahead(world: &mut World, peer_idx: usize, block: &Arc<Block>) -> Option<Prevalidated> {
    let lane = world.lane.as_mut()?;
    let node = &mut world.peers[peer_idx];
    if let Some(i) = node.awaiting.iter().position(|b| Arc::ptr_eq(b, block)) {
        node.awaiting.remove(i);
    }
    let ticket = node.ahead.take_if(|t| Arc::ptr_eq(&t.input().1, block))?;
    Arc::ptr_eq(&ticket.input().0, &node.peer.validator()).then(|| lane.take(ticket))
}

#[cfg(test)]
mod tests {
    use fabricsim_crypto::Hash256;
    use fabricsim_ledger::ChainError;
    use fabricsim_types::{ChannelId, OrdererType};

    use super::super::world::build_world;
    use super::*;
    use crate::workload::SimConfig;

    #[test]
    fn an_unlinked_block_is_recorded_as_a_chain_break_and_dropped() {
        let cfg = SimConfig {
            orderer_type: OrdererType::Solo,
            ..SimConfig::default()
        };
        let mut world = build_world(&cfg, 0);
        let observer = world.observer;
        let unlinked = Block::assemble(
            ChannelId::default_channel(),
            0,
            Hash256::from_bytes([7; 32]),
            Vec::new(),
        );
        let at = SimTime::ZERO;
        commit_block(&mut world, observer, Arc::new(unlinked), at);
        let want = ChainBreak {
            peer: observer,
            number: 0,
            error: ChainError::BrokenChain,
        };
        assert_eq!(world.chain_breaks, vec![want]);
        assert_eq!(world.peers[observer].peer.ledger().height(), 0);
    }
}
