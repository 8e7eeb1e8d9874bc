//! Client pools: arrivals, proposal prep and send (local or exported to
//! another channel's world), endorsement collection, assembly and submission.

use std::cmp::Reverse;
use std::sync::Arc;

use fabricsim_chaincode::samples::AssetTransfer;
use fabricsim_des::{ShardWorld, SimDuration, SimTime};
use fabricsim_obs::{SpanKind, StationClass, TracePhase};
use fabricsim_types::encode::WireSize;
use fabricsim_types::{ProposalResponse, Transaction, TxId};

use fabricsim_client::{CollectState, EndorsementCollector};

use crate::metrics::TxOutcome;
use crate::workload::WorkloadKind;

use super::observe::{Actor, SpanKey};
use super::world::{Ev, PendingTx, ShardMsg, World, K};

pub(super) fn schedule_next_arrival(world: &mut World, k: &mut K, p: usize) {
    let per_pool_rate = world.cfg.arrival_rate_tps / world.pools.len() as f64;
    let gap = world.pools[p].arrivals.exp(1.0 / per_pool_rate);
    k.schedule_in(SimDuration::from_secs_f64(gap), Ev::PoolArrival { pool: p });
}

fn workload_args(world: &mut World, p: usize, seq: usize) -> (String, Vec<Vec<u8>>) {
    match world.cfg.workload.clone() {
        WorkloadKind::KvPut { payload_bytes } => (
            "kvwrite".into(),
            vec![
                b"put".to_vec(),
                format!("k{p}_{seq}").into_bytes(),
                vec![b'x'; payload_bytes],
            ],
        ),
        WorkloadKind::KvRmw {
            keyspace,
            payload_bytes,
        } => {
            let key = world.pools[p].keys.next_below(keyspace as u64);
            (
                "kvwrite".into(),
                vec![
                    b"rmw".to_vec(),
                    format!("hot{key}").into_bytes(),
                    vec![b'x'; payload_bytes],
                ],
            )
        }
        WorkloadKind::Transfer { accounts } => {
            let from = world.pools[p].keys.next_below(accounts as u64) as u32;
            let mut to = world.pools[p].keys.next_below(accounts as u64) as u32;
            if to == from {
                to = (to + 1) % accounts;
            }
            (
                "asset-transfer".into(),
                vec![
                    b"transfer".to_vec(),
                    AssetTransfer::account_key(from).into_bytes(),
                    AssetTransfer::account_key(to).into_bytes(),
                    b"1".to_vec(),
                ],
            )
        }
        WorkloadKind::Smallbank { customers } => {
            let rng = &mut world.pools[p].keys;
            let a = rng.next_below(customers as u64).to_string().into_bytes();
            let mut b = rng.next_below(customers as u64) as u32;
            let op = rng.next_below(100);
            let args = match op {
                // Blockbench mix: 25 % send_payment, 15 % each of the rest.
                0..=24 => {
                    if b.to_string().as_bytes() == a.as_slice() {
                        b = (b + 1) % customers;
                    }
                    vec![
                        b"send_payment".to_vec(),
                        a,
                        b.to_string().into_bytes(),
                        b"5".to_vec(),
                    ]
                }
                25..=39 => vec![b"transact_savings".to_vec(), a, b"20".to_vec()],
                40..=54 => vec![b"deposit_checking".to_vec(), a, b"20".to_vec()],
                55..=69 => vec![b"write_check".to_vec(), a, b"10".to_vec()],
                70..=84 => vec![b"amalgamate".to_vec(), a],
                _ => vec![b"query".to_vec(), a],
            };
            ("smallbank".into(), args)
        }
    }
}

pub(super) fn pool_arrival(world: &mut World, k: &mut K, p: usize) {
    let now = k.now();
    let seq = world.obs.arrivals();

    // Overload guard: queue cap on the submission station.
    let pool = &world.pools[p];
    if pool.in_prep >= world.cfg.cost.client_queue_cap {
        let outcome = TxOutcome::OverloadDropped;
        world
            .obs
            .refuse(now, p, None, outcome, pool.prep.name(), pool.in_prep);
        return;
    }

    let (chaincode, args) = workload_args(world, p, seq);
    // Round-robin over every channel of the run: a pool's home world spreads
    // its transactions over all of them, exporting the ones bound for
    // another world at proposal-send time.
    let n_channels = world.shard.channels.len() as u32;
    let gc = (world.pools[p].next_channel % n_channels) as usize;
    let channel = world.shard.channels[gc].clone();
    let pool = &mut world.pools[p];
    pool.next_channel = pool.next_channel.wrapping_add(1);
    let proposal = pool.sdk.create_proposal(channel, &chaincode, args);
    let tx_id = proposal.tx_id;
    let targets = Arc::clone(&pool.target_sets[pool.next_set]);
    pool.next_set = (pool.next_set + 1) % pool.target_sets.len();
    if targets.is_empty() {
        let outcome = TxOutcome::EndorsementFailed;
        world
            .obs
            .refuse(now, p, Some(tx_id), outcome, pool.prep.name(), 0);
        return;
    }
    let expected = targets.len();

    world.obs.admit(now, tx_id, p);
    let collector = EndorsementCollector::new(tx_id, Arc::clone(&world.policy), expected);
    world.pools[p].pending.insert(
        tx_id,
        PendingTx {
            proposal: Arc::new(proposal),
            collector,
        },
    );

    // Submission-thread service.
    let m = &world.cfg.cost;
    let jitter = world.pools[p]
        .arrivals
        .uniform(-m.client_prep_jitter_ms, m.client_prep_jitter_ms);
    let service = world.ms(m.client_prep_ms + jitter);
    let sdk_pre = world.ms(m.sdk_pre_ms);
    world.pools[p].in_prep += 1;
    let queued = world.pools[p].prep.would_start_at(now) - now;
    let done = world.pools[p].prep.submit(now, service);
    let prep = &world.pools[p].prep;
    world
        .obs
        .visit(tx_id, StationClass::ClientPrep, queued, service);
    world.obs.phase(
        now,
        tx_id,
        TracePhase::Created,
        prep.name(),
        prep.jobs_in_system(now),
    );
    let span = SpanKey::tx(tx_id, SpanKind::ClientPrep, Actor::Pool(p));
    world.obs.span(span, None, now, done + sdk_pre);
    world.shard.pending_sends.push(Reverse(done + sdk_pre));
    let send = Ev::PoolSend {
        pool: p,
        tx: tx_id,
        targets,
    };
    k.schedule(done + sdk_pre, send);
}

/// Proposal `tx_id` leaves pool `p`'s submission thread for the endorsing
/// peers `targets`.
pub(super) fn send_proposals(
    world: &mut World,
    k: &mut K,
    p: usize,
    tx_id: TxId,
    targets: Arc<[usize]>,
) {
    let now = k.now();
    world.pools[p].in_prep -= 1;
    // Retire this send from the emission-bound heap; every scheduled
    // `pool.send` fires, so pops line up one-to-one with pushes.
    let popped = world.shard.pending_sends.pop();
    debug_assert_eq!(popped.map(|r| r.0), Some(now));
    let Some(pending) = world.pools[p].pending.get(&tx_id) else {
        return;
    };
    let proposal = Arc::clone(&pending.proposal);
    let pool = &world.pools[p];
    world.obs.phase(
        now,
        tx_id,
        TracePhase::ProposalSent,
        pool.egress.name(),
        pool.pending.len(),
    );
    let bytes = proposal.wire_size();
    if let Some(target) = world.export_target(&proposal.channel) {
        // Cross-shard transaction: fan the proposal out through the home
        // pool's egress link as usual, but hand the resulting arrivals (all
        // at least one link propagation — the lookahead — in the future) to
        // the shard that owns the target channel. That shard runs the rest
        // of the transaction's life; the home copy of the record becomes a
        // stub that the deterministic merge drops for the completed one.
        let deliveries: Vec<(usize, SimTime)> = targets
            .iter()
            .map(|&peer| (peer, world.pools[p].egress.transfer(now, bytes)))
            .collect();
        let Some(at) = deliveries.iter().map(|d| d.1).min() else {
            return;
        };
        let Some(record) = world.obs.export(tx_id) else {
            return;
        };
        world.pools[p].pending.remove(&tx_id);
        world.shard.outbox.push((
            target,
            at,
            ShardMsg::Proposal {
                pool: p,
                proposal,
                expected: targets.len(),
                deliveries,
                record,
            },
        ));
        return;
    }
    for &peer in targets.iter() {
        let arrival = world.pools[p].egress.transfer(now, bytes);
        let proposal = Arc::clone(&proposal);
        k.schedule(
            arrival,
            Ev::Endorse {
                peer,
                pool: p,
                proposal,
            },
        );
    }
}

impl ShardWorld for World {
    type Msg = ShardMsg;

    fn drain_outbox(&mut self) -> Vec<(usize, SimTime, ShardMsg)> {
        std::mem::take(&mut self.shard.outbox)
    }

    fn deliver(&mut self, kernel: &mut K, _at: SimTime, msg: ShardMsg) {
        // An imported proposal re-creates exactly the client-side state the
        // local path would have built — a pending entry keyed by tx id, the
        // transaction's record (still under its home identity, so the merge
        // can put the completed one back where the stub lives), and one
        // endorsement arrival per target peer.
        let ShardMsg::Proposal {
            pool: p,
            proposal,
            expected,
            deliveries,
            record,
        } = msg;
        let tx_id = proposal.tx_id;
        self.obs.import(tx_id, record);
        let collector = EndorsementCollector::new(tx_id, Arc::clone(&self.policy), expected);
        self.pools[p].pending.insert(
            tx_id,
            PendingTx {
                proposal: Arc::clone(&proposal),
                collector,
            },
        );
        for (peer, at) in deliveries {
            let proposal = Arc::clone(&proposal);
            kernel.schedule(
                at,
                Ev::Endorse {
                    peer,
                    pool: p,
                    proposal,
                },
            );
        }
    }

    fn emission_bound(&self, next_event: SimTime) -> Option<SimTime> {
        // Cross-shard messages leave this world only inside `pool.send`
        // handlers (see the outbox push in `send_proposals`), and a
        // `pool.send` is always scheduled at least `min_send_delay` after
        // the (home-pool arrival) event that creates it. Incoming proposals
        // only ever schedule endorsement work, which cannot emit — so the
        // bound holds against every future, which is what lets other shards
        // run `bound + lookahead` ahead instead of one link delay.
        let ctx = &self.shard;
        let pending = ctx
            .pending_sends
            .peek()
            .map_or(SimTime::MAX, |Reverse(t)| *t);
        let from_next = if next_event == SimTime::MAX {
            SimTime::MAX
        } else {
            next_event + ctx.min_send_delay
        };
        Some(pending.min(from_next))
    }
}

pub(super) fn pool_receive_response(
    world: &mut World,
    k: &mut K,
    p: usize,
    response: ProposalResponse,
) {
    let now = k.now();
    let tx_id = response.tx_id;
    let Some(pending) = world.pools[p].pending.get_mut(&tx_id) else {
        return; // already assembled or failed
    };
    // The response that satisfies the policy is the slowest endorsement the
    // client waited for — the span graph's causal parent of assembly.
    let endorser_peer = response
        .endorsement
        .as_ref()
        .map(|e| (e.endorser.org.0.saturating_sub(1)) as usize);
    match pending.collector.add(response) {
        CollectState::Pending => {}
        CollectState::Failed => {
            world.pools[p].pending.remove(&tx_id);
            let outcome = TxOutcome::EndorsementFailed;
            let station = world.pools[p].recv.name();
            world.obs.terminal(now, tx_id, outcome, station, 0);
        }
        CollectState::Satisfied => {
            let n = pending.collector.responses().len();
            let m = &world.cfg.cost;
            let cost = world
                .ms(m.client_assemble_base_ms + m.client_assemble_per_endorsement_ms * n as f64);
            let sdk_post = world.ms(m.sdk_post_ms);
            let queued = world.pools[p].recv.would_start_at(now) - now;
            let done = world.pools[p].recv.submit(now, cost);
            world
                .obs
                .visit(tx_id, StationClass::ClientRecv, queued, cost);
            let parent =
                endorser_peer.map(|e| SpanKey::tx(tx_id, SpanKind::Endorse, Actor::Peer(e)));
            let span = SpanKey::tx(tx_id, SpanKind::Assemble, Actor::Pool(p));
            world.obs.span(span, parent, now, done + sdk_post);
            k.schedule(done + sdk_post, Ev::ClientAssemble { pool: p, tx: tx_id });
        }
    }
}

pub(super) fn client_assemble(world: &mut World, k: &mut K, p: usize, tx_id: TxId) {
    let now = k.now();
    let pool = &world.pools[p];
    let Some(pending) = pool.pending.get(&tx_id) else {
        return;
    };
    let assembled = pool
        .sdk
        .assemble(&pending.proposal, pending.collector.responses());
    let tx = match assembled {
        Ok(tx) => tx,
        Err(_) => {
            world.pools[p].pending.remove(&tx_id);
            let outcome = TxOutcome::EndorsementFailed;
            let station = world.pools[p].recv.name();
            world.obs.terminal(now, tx_id, outcome, station, 0);
            return;
        }
    };
    let recv = &world.pools[p].recv;
    world.obs.signatures(tx_id, tx.endorsements.len());
    world.obs.phase(
        now,
        tx_id,
        TracePhase::Endorsed,
        recv.name(),
        recv.jobs_in_system(now),
    );
    submit_to_orderer(world, k, p, tx);
}

fn submit_to_orderer(world: &mut World, k: &mut K, p: usize, tx: Transaction) {
    let now = k.now();
    let tx_id = tx.tx_id;
    let pool = &world.pools[p];
    world.obs.phase(
        now,
        tx_id,
        TracePhase::Submitted,
        pool.egress.name(),
        pool.pending.len(),
    );
    // Round-robin over OSNs.
    let osn_count = world.osns.len() as u32;
    let o = (world.pools[p].next_osn % osn_count) as usize;
    world.pools[p].next_osn = world.pools[p].next_osn.wrapping_add(1);

    // Arm the 3 s ordering timeout; it fires even after the ack, and its
    // handler then does nothing.
    let timeout = world.ms(world.cfg.ordering_timeout_ms as f64);
    k.schedule(now + timeout, Ev::OrderingTimeout { pool: p, tx: tx_id });

    let bytes = tx.wire_size();
    let arrival = world.pools[p].egress.transfer(now, bytes);
    if world.check_channel(&tx.channel).is_err() {
        return;
    }
    k.schedule(
        arrival,
        Ev::OsnBroadcast {
            osn: o,
            pool: p,
            tx,
        },
    );
}

/// Transaction `tx_id`'s ordering timeout fired: the client gives up on it
/// unless the orderer acknowledged it, in which case the timer is stale and
/// nothing happens.
pub(super) fn ordering_timeout(world: &mut World, k: &mut K, p: usize, tx_id: TxId) {
    let acked = world
        .obs
        .record(tx_id)
        .is_some_and(|r| r.trace.order_acked.is_some());
    if acked {
        return;
    }
    world.pools[p].pending.remove(&tx_id);
    let outcome = TxOutcome::OrderingTimeout;
    world
        .obs
        .terminal(k.now(), tx_id, outcome, "ordering.timeout", 0);
}
