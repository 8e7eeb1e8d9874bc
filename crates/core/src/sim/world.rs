//! The per-channel world: its actors, the cross-shard context, the typed
//! events its kernel schedules, construction and bootstrap.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

use fabricsim_chaincode::samples::{AssetTransfer, KvWrite, Smallbank};
use fabricsim_des::{Kernel, Link, Model, RngStream, SimDuration, SimTime, Station};
use fabricsim_kafka::{Broker, BrokerEffect, BrokerId, BrokerMsg, ClientEvent, Offset, ZkEnsemble};
use fabricsim_ledger::ChainError;
use fabricsim_msp::{CertificateAuthority, Msp};
use fabricsim_ordering::{OsnInput, OsnMsg, OsnNode};
use fabricsim_peer::{GossipMsg, GossipNode, Peer, PeerConfig, Prevalidated};
use fabricsim_policy::Policy;
use fabricsim_types::{
    Block, ChannelId, ClientId, FxBuildHasher, OrdererType, OrgId, Principal, Proposal,
    ProposalResponse, Transaction, TxId,
};

use fabricsim_client::{ClientSdk, EndorsementCollector, TargetSelector};

use crate::workload::{SimConfig, WorkloadKind};

use super::faults::{self, Fault};
use super::lane::{BlockJob, BlockLane, Ticket};
use super::observe::{obs_sample, schedule_sampler, Observer, TxRecord};
use super::{client, ordering, peer};

pub(super) struct PendingTx {
    /// Shared with every endorser the proposal is in flight to.
    pub(super) proposal: Arc<Proposal>,
    pub(super) collector: EndorsementCollector,
}

pub(super) struct Pool {
    pub(super) sdk: ClientSdk,
    /// The policy's minimal satisfying sets as reachable endorser indices,
    /// computed once, in this pool's rotation order: each proposal shares
    /// the next one, round-robin.
    pub(super) target_sets: Vec<Arc<[usize]>>,
    pub(super) next_set: usize,
    pub(super) prep: Station,
    pub(super) recv: Station,
    pub(super) egress: Link,
    pub(super) pending: HashMap<TxId, PendingTx, FxBuildHasher>,
    pub(super) in_prep: usize,
    pub(super) next_osn: u32,
    pub(super) next_channel: u32,
    pub(super) arrivals: RngStream,
    pub(super) keys: RngStream,
}

pub(super) struct PeerNode {
    /// This world's channel instance of the peer (its own ledger).
    pub(super) peer: Peer,
    pub(super) endorse: Station,
    /// VSCC stage of the validation pipeline: per-tx signature/policy checks
    /// over `validator_pool_size` workers per committer pipeline.
    pub(super) vscc: Station,
    /// Serial MVCC + state/blockstore commit stage; one server per committer
    /// pipeline — this station is the queueing backbone of the validate phase.
    pub(super) commit: Station,
    pub(super) egress: Link,
    pub(super) jitter: RngStream,
    /// Number of the next block this peer expects from its delivery stream;
    /// duplicates (e.g. failover replays) are dropped.
    pub(super) next_expected_block: u64,
    /// Blocks delivered and not yet committed, in delivery order; kept only
    /// when the run has a lane.
    pub(super) awaiting: VecDeque<Arc<Block>>,
    /// The head of `awaiting`, handed to the lane for its pure half of
    /// validation: at most one block per peer.
    pub(super) ahead: Option<Ticket<BlockJob, Prevalidated>>,
    /// Gossip dissemination state (when the run uses gossip delivery;
    /// single-channel only).
    pub(super) gossip: Option<GossipNode>,
}

pub(super) struct OsnActor {
    /// This channel's consensus/ordering instance (its own Raft group /
    /// Kafka partition client), as in Fabric.
    pub(super) node: OsnNode,
    pub(super) station: Station,
    pub(super) egress: Link,
    pub(super) subscribers: Vec<usize>,
    pub(super) alive: bool,
    /// Blocks this OSN has emitted, in number order: kept for Deliver-style
    /// replay when a peer re-subscribes after its OSN crashed, and read by
    /// every OSN of the channel to find a block's first cut and its shared
    /// body. [`World::retire`] drops the numbers no later event can ask for.
    pub(super) delivered: VecDeque<Arc<Block>>,
}

pub(super) struct BrokerActor {
    /// This channel's partition (paper §III: a partition is a channel).
    pub(super) partition: Broker,
    pub(super) station: Station,
    pub(super) egress: Link,
    pub(super) alive: bool,
}

pub(super) struct World {
    pub(super) cfg: SimConfig,
    /// The channel's endorsement policy, shared by every collection in
    /// flight.
    pub(super) policy: Arc<Policy>,
    pub(super) pools: Vec<Pool>,
    pub(super) peers: Vec<PeerNode>,
    pub(super) osns: Vec<OsnActor>,
    pub(super) brokers: Vec<BrokerActor>,
    /// The partition's coordination ensemble (Kafka mode only).
    pub(super) zk: Option<ZkEnsemble>,
    pub(super) block_cuts: Vec<(SimTime, usize)>,
    pub(super) observer: usize,
    /// Every observability plane and the per-transaction records they share
    /// (one vector behind one `TxId` index), reached only through the
    /// typed seam in [`super::observe`].
    pub(super) obs: Observer,
    pub(super) shard: ShardCtx,
    /// Reused by every broker step and tick for the effects it emits.
    pub(super) broker_effects: Vec<BrokerEffect>,
    /// Reused by every block's validate schedule for the modelled VSCC
    /// pool's worker table.
    pub(super) vscc_workers: Vec<f64>,
    /// This world's end of the run's lane, when it has one.
    pub(super) lane: Option<BlockLane>,
    /// Every block a peer could not append, in the order they failed.
    pub(super) chain_breaks: Vec<ChainBreak>,
    /// The partition offsets that broker-bound messages in flight will
    /// read from, one entry per message (Kafka mode only).
    pub(super) kafka_reads: Vec<Offset>,
    /// The low-water mark of the last retention step: every OSN log holds
    /// no number below it.
    pub(super) retired_below: u64,
}

/// A block peer `peer` dropped because its ledger refused to append it.
#[derive(Debug, PartialEq, Eq)]
pub(super) struct ChainBreak {
    pub(super) peer: usize,
    pub(super) number: u64,
    pub(super) error: ChainError,
}

pub(super) type K = Kernel<World>;

/// Everything a world's kernel schedules: one variant per kind of scheduled
/// work, carrying what its handler needs. Variants that share a profiling
/// label ([`Model::label`]) are the arrival and the completion of one
/// station visit.
pub(super) enum Ev {
    /// Pool `pool`'s next Poisson arrival.
    PoolArrival { pool: usize },
    /// The proposal `tx` leaves pool `pool` for its endorsing peers.
    PoolSend {
        pool: usize,
        tx: TxId,
        targets: Arc<[usize]>,
    },
    /// A proposal arrives at endorsing peer `peer`.
    Endorse {
        peer: usize,
        pool: usize,
        proposal: Arc<Proposal>,
    },
    /// Peer `peer`'s endorsement station finishes the proposal.
    Endorsed {
        peer: usize,
        pool: usize,
        proposal: Arc<Proposal>,
    },
    /// An endorser's response arrives at pool `pool`.
    PoolRecv {
        pool: usize,
        response: ProposalResponse,
    },
    /// Pool `pool` finishes assembling transaction `tx`.
    ClientAssemble { pool: usize, tx: TxId },
    /// Transaction `tx`'s 3 s ordering timeout.
    OrderingTimeout { pool: usize, tx: TxId },
    /// A client broadcast arrives at OSN `osn`.
    OsnBroadcast {
        osn: usize,
        pool: usize,
        tx: Transaction,
    },
    /// OSN `osn`'s CPU station finishes an input.
    OsnHandle { osn: usize, input: OsnInput },
    /// OSN `osn`'s broadcast ack for `tx` reaches pool `pool`.
    OsnAck { osn: usize, pool: usize, tx: TxId },
    /// An OSN-to-OSN message arrives at OSN `to`.
    OsnRelay {
        to: usize,
        from: u32,
        message: OsnMsg,
    },
    /// OSN `osn`'s batch timer `seq` fires.
    OsnTimer { osn: usize, seq: u64 },
    /// A broker's reply arrives at OSN `osn`.
    OsnConsume { osn: usize, event: ClientEvent },
    /// OSN `osn` learns the partition's new leader.
    OsnMetadata { osn: usize, leader: BrokerId },
    /// OSN `osn`'s periodic tick.
    OsnTick { osn: usize },
    /// A block an OSN delivered arrives at peer `peer`.
    OsnDeliver { peer: usize, block: Arc<Block> },
    /// A block replayed after an OSN crash arrives at peer `peer`.
    PeerBlock { peer: usize, block: Arc<Block> },
    /// An OSN's produce request arrives at broker `broker`.
    BrokerProduce { broker: usize, message: BrokerMsg },
    /// A broker-to-broker message arrives at broker `broker`.
    BrokerSend { broker: usize, message: BrokerMsg },
    /// ZooKeeper's appointment arrives at broker `broker`.
    BrokerAppoint { broker: usize, message: BrokerMsg },
    /// Broker `broker`'s CPU station finishes a message.
    BrokerStep { broker: usize, message: BrokerMsg },
    /// Broker `broker`'s periodic tick.
    BrokerTick { broker: usize },
    /// Broker `broker`'s ZooKeeper session heartbeat.
    BrokerHeartbeat { broker: usize },
    /// ZooKeeper's periodic tick.
    ZkTick,
    /// A gossip message from peer `from` arrives at peer `to`.
    GossipSend {
        to: usize,
        from: u32,
        message: GossipMsg,
    },
    /// Peer `peer`'s anti-entropy pull.
    GossipTick { peer: usize },
    /// Peer `peer` finishes validating and committing `block`, whose VSCC
    /// stage started at `start`.
    ValidateCommit {
        peer: usize,
        block: Arc<Block>,
        start: SimTime,
    },
    /// The periodic gauge sweep.
    ObsSample,
    /// A scheduled fault takes effect.
    Fault(Fault),
}

impl Model for World {
    type Event = Ev;

    fn fire(&mut self, event: Ev, k: &mut K) {
        match event {
            Ev::PoolArrival { pool } => {
                client::pool_arrival(self, k, pool);
                client::schedule_next_arrival(self, k, pool);
            }
            Ev::PoolSend { pool, tx, targets } => {
                client::send_proposals(self, k, pool, tx, targets);
            }
            Ev::Endorse {
                peer,
                pool,
                proposal,
            } => peer::peer_receive_proposal(self, k, peer, pool, proposal),
            Ev::Endorsed {
                peer,
                pool,
                proposal,
            } => peer::peer_endorse(self, k, peer, pool, &proposal),
            Ev::PoolRecv { pool, response } => {
                client::pool_receive_response(self, k, pool, response);
            }
            Ev::ClientAssemble { pool, tx } => client::client_assemble(self, k, pool, tx),
            Ev::OrderingTimeout { pool, tx } => client::ordering_timeout(self, k, pool, tx),
            Ev::OsnBroadcast { osn, pool, tx } => {
                ordering::osn_receive(self, k, osn, OsnInput::Broadcast(tx), Some(pool));
            }
            Ev::OsnHandle { osn, input } => ordering::osn_handle(self, k, osn, input),
            Ev::OsnAck { osn, pool, tx } => ordering::osn_ack(self, k, osn, pool, tx),
            Ev::OsnRelay { to, from, message } => {
                ordering::osn_receive(self, k, to, OsnInput::Osn { from, message }, None);
            }
            Ev::OsnTimer { osn, seq } => {
                ordering::osn_receive(self, k, osn, OsnInput::BatchTimer { seq }, None);
            }
            Ev::OsnConsume { osn, event } => {
                ordering::osn_receive(self, k, osn, OsnInput::Kafka(event), None);
            }
            Ev::OsnMetadata { osn, leader } => {
                ordering::osn_receive(self, k, osn, OsnInput::KafkaMetadata { leader }, None);
            }
            Ev::OsnTick { osn } => ordering::osn_tick(self, k, osn),
            Ev::OsnDeliver { peer, block } => peer::peer_receive_block(self, k, peer, block, true),
            Ev::PeerBlock { peer, block } => peer::peer_receive_block(self, k, peer, block, false),
            Ev::BrokerProduce { broker, message }
            | Ev::BrokerSend { broker, message }
            | Ev::BrokerAppoint { broker, message } => {
                ordering::broker_receive(self, k, broker, message);
            }
            Ev::BrokerStep { broker, message } => ordering::broker_step(self, k, broker, message),
            Ev::BrokerTick { broker } => ordering::broker_tick(self, k, broker),
            Ev::BrokerHeartbeat { broker } => ordering::broker_heartbeat(self, k, broker),
            Ev::ZkTick => ordering::zk_tick(self, k),
            Ev::GossipSend { to, from, message } => {
                peer::peer_receive_gossip(self, k, to, from, message);
            }
            Ev::GossipTick { peer } => peer::gossip_tick(self, k, peer),
            Ev::ValidateCommit { peer, block, start } => {
                peer::commit_block(self, peer, block, start);
            }
            Ev::ObsSample => obs_sample(self, k),
            Ev::Fault(fault) => faults::inject(self, k, fault),
        }
    }

    fn label(event: &Ev) -> &'static str {
        match event {
            Ev::PoolArrival { .. } => "pool.arrival",
            Ev::PoolSend { .. } => "pool.send",
            Ev::Endorse { .. } | Ev::Endorsed { .. } => "peer.endorse",
            Ev::PoolRecv { .. } => "pool.recv",
            Ev::ClientAssemble { .. } => "client.assemble",
            Ev::OrderingTimeout { .. } => "ordering.timeout",
            Ev::OsnBroadcast { .. } | Ev::OsnHandle { .. } => "osn.receive",
            Ev::OsnAck { .. } => "osn.ack",
            Ev::OsnRelay { .. } => "osn.relay",
            Ev::OsnTimer { .. } => "osn.timer",
            Ev::OsnConsume { .. } => "osn.consume",
            Ev::OsnMetadata { .. } => "osn.metadata",
            Ev::OsnTick { .. } => "osn.tick",
            Ev::OsnDeliver { .. } => "osn.deliver",
            Ev::PeerBlock { .. } => "peer.block",
            Ev::BrokerProduce { .. } => "broker.produce",
            Ev::BrokerSend { .. } => "broker.send",
            Ev::BrokerAppoint { .. } => "broker.appoint",
            Ev::BrokerStep { .. } => "broker.step",
            Ev::BrokerTick { .. } => "broker.tick",
            Ev::BrokerHeartbeat { .. } => "broker.heartbeat",
            Ev::ZkTick => "zk.tick",
            Ev::GossipSend { .. } => "gossip.send",
            Ev::GossipTick { .. } => "gossip.tick",
            Ev::ValidateCommit { .. } => "validate.commit",
            Ev::ObsSample => "obs.sample",
            Ev::Fault(_) => "fault",
        }
    }
}

/// A channel id that is not this world's channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct UnknownChannel(ChannelId);

impl std::fmt::Display for UnknownChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown channel `{}`", self.0 .0)
    }
}

impl std::error::Error for UnknownChannel {}

/// A world's place among the run's per-channel worlds. A world owns one
/// channel's entire pipeline (peer instances, OSNs, brokers, one ZK ensemble,
/// and that channel's station lanes) plus the client pools *homed* on it
/// (`pool % n_channels == shard_id`): arrivals, prep and proposal egress run
/// on the home world, and a transaction bound for another channel is exported
/// to that channel's world through the conservative mailbox. A
/// single-channel run is the one world that homes every pool and never
/// exports.
pub(super) struct ShardCtx {
    /// This world's index == its channel's index in `channels`.
    pub(super) shard_id: usize,
    /// Every channel id of the run, indexed by channel index.
    pub(super) channels: Vec<ChannelId>,
    /// Cross-shard messages emitted this window: `(target shard, delivery
    /// time, message)`. Drained by the sharded kernel at the window barrier.
    pub(super) outbox: Vec<(usize, SimTime, ShardMsg)>,
    /// Virtual times of every scheduled-but-unexecuted `pool.send` event on
    /// this shard — the only events that can emit cross-shard messages.
    /// The heap minimum feeds [`ShardWorld::emission_bound`].
    pub(super) pending_sends: BinaryHeap<Reverse<SimTime>>,
    /// Guaranteed minimum delay between any event and a `pool.send` it
    /// schedules: client prep service floor (mean minus jitter bound) plus
    /// the SDK pre-processing delay. The emission bound extends to
    /// `next event + this` when no earlier send is already pending.
    pub(super) min_send_delay: SimDuration,
}

/// The one cross-shard interaction: a client pool on its home shard hands a
/// fully prepared proposal to the shard that owns the target channel. The
/// delivery times were already computed through the home pool's egress link,
/// so they respect the lookahead contract (`transfer ≥ now + propagation`);
/// everything after endorsement fan-in (responses, assembly, ordering,
/// validation, commit) is local to the receiving shard.
pub(super) enum ShardMsg {
    Proposal {
        /// Global client-pool index (every shard builds lanes for all pools).
        pool: usize,
        proposal: Arc<Proposal>,
        /// Endorsements the collector should expect (reachable targets).
        expected: usize,
        /// Per-endorser `(peer index, proposal arrival time)` fan-out.
        deliveries: Vec<(usize, SimTime)>,
        /// Everything recorded so far (created/proposal_sent, client prep
        /// attribution) under the transaction's home identity.
        record: TxRecord,
    },
}

impl World {
    pub(super) fn ms(&self, x: f64) -> SimDuration {
        SimDuration::from_millis_f64(x.max(0.0))
    }

    /// Peer index for a policy principal (`OrgN.peer` → endorsing peer N-1).
    pub(super) fn peer_of(principal: &Principal) -> usize {
        (principal.org.0 - 1) as usize
    }

    /// This world's channel.
    fn channel(&self) -> &ChannelId {
        &self.shard.channels[self.shard.shard_id]
    }

    /// Refuses work addressed to any channel but this world's own with a
    /// typed [`UnknownChannel`] (callers drop the event).
    pub(super) fn check_channel(&self, id: &ChannelId) -> Result<(), UnknownChannel> {
        if id == self.channel() {
            Ok(())
        } else {
            Err(UnknownChannel(id.clone()))
        }
    }

    /// `Some(target shard)` when `id` is another world's channel (the
    /// transaction must be exported); `None` when it is local.
    pub(super) fn export_target(&self, id: &ChannelId) -> Option<usize> {
        if id == self.channel() {
            return None;
        }
        self.shard.channels.iter().position(|c| c == id)
    }

    /// Whether client pool `p` runs its arrival process on this world
    /// (pool `p` is homed at world `p % n_channels`).
    fn pool_is_homed(&self, p: usize) -> bool {
        p % self.shard.channels.len() == self.shard.shard_id
    }
}

/// Builds the world of channel `shard_id`: that channel's whole pipeline,
/// with each station sized as one channel's lane of its entity, plus a lane
/// for every client pool.
pub(super) fn build_world(cfg: &SimConfig, shard_id: usize) -> World {
    let n_channels = cfg.channels as usize;
    let channels: Vec<ChannelId> = if n_channels == 1 {
        vec![ChannelId::default_channel()]
    } else {
        (0..n_channels)
            .map(|c| ChannelId(format!("channel{c}")))
            .collect()
    };
    let channel = &channels[shard_id];
    // Identity material is identical in every shard: same CA seed, same
    // enrollment sequence (independent of the channel restriction), so
    // signatures verify across shard boundaries.
    let policy = cfg.policy.resolve(cfg.endorsing_peers);
    let ca = CertificateAuthority::new("fabric-ca", cfg.seed);
    let root = RngStream::derive(cfg.seed, "world");
    // With several worlds the jitter streams are salted per shard so shards
    // don't draw correlated endorse-path jitter; pool streams are never
    // salted (they are only consumed on a pool's home shard).
    let jitter_salt = if n_channels > 1 {
        100_000 * (shard_id as u64 + 1)
    } else {
        0
    };
    let m = &cfg.cost;

    // Peers: endorsers 0..n-1 (Org i+1), then committers (observer first).
    let n_endorsers = cfg.endorsing_peers as usize;
    let n_peers = n_endorsers + cfg.committing_peers as usize;
    let mut peers = Vec::with_capacity(n_peers);
    let mut endorser_identities = Vec::new();
    for i in 0..n_peers {
        let is_endorser = i < n_endorsers;
        let org = if is_endorser {
            i as u32 + 1
        } else {
            100 + i as u32
        };
        let identity = ca.enroll(Principal::peer(OrgId(org)), &format!("peer{i}"));
        if is_endorser {
            endorser_identities.push(identity.clone());
        }
        let mut peer = Peer::new(
            identity,
            Msp::new(ca.root_of_trust()),
            PeerConfig {
                channel: channel.clone(),
                endorsement_policy: policy.clone(),
                is_endorser,
                // The modelled VSCC pool is `cost.validator_pool_size`, and
                // the stations below charge it; it is not a host thread
                // count. The flags are the same at any pool size, so the
                // host validates every block serially: on the event thread,
                // or ahead of it on the run's lane (`super::lane`).
                validator_pool_size: 1,
            },
        );
        match &cfg.workload {
            WorkloadKind::KvPut { .. } | WorkloadKind::KvRmw { .. } => {
                peer.install_chaincode(Box::new(KvWrite));
            }
            WorkloadKind::Transfer { accounts } => {
                peer.install_chaincode(Box::new(AssetTransfer {
                    accounts: *accounts,
                    initial_balance: 1_000_000,
                }));
            }
            WorkloadKind::Smallbank { customers } => {
                peer.install_chaincode(Box::new(Smallbank {
                    customers: *customers,
                    initial_balance: 10_000,
                }));
            }
        }
        let gossip = cfg.gossip.as_ref().map(|g| {
            let neighbours: Vec<u32> = (0..n_peers as u32).filter(|&j| j != i as u32).collect();
            GossipNode::new(
                i as u32,
                neighbours,
                g.fanout,
                cfg.seed ^ 0x60551 ^ i as u64,
            )
        });
        peers.push(PeerNode {
            peer,
            next_expected_block: 0,
            awaiting: VecDeque::new(),
            ahead: None,
            gossip,
            endorse: Station::new(format!("peer{i}.endorse"), m.peer_endorse_threads),
            // This channel's committer pipeline (Fabric runs a commit
            // goroutine per channel): it fans its VSCC checks out over the
            // validator pool while commit stays serial.
            vscc: Station::new(
                format!("peer{i}.vscc"),
                m.validator_pool_size.max(1) * m.validate_threads,
            ),
            commit: Station::new(format!("peer{i}.commit"), m.validate_threads),
            egress: Link::new(
                format!("peer{i}.nic"),
                m.link_bandwidth_bps,
                SimDuration::from_millis_f64(m.link_propagation_ms),
            ),
            jitter: root.child(1000 + i as u64 + jitter_salt),
        });
    }

    // Register endorser keys and client certificates on every peer.
    let mut clients = Vec::new();
    for p in 0..n_endorsers {
        let client_identity = ca.enroll(
            Principal {
                org: OrgId(p as u32 + 1),
                role: "client".into(),
            },
            &format!("client{p}"),
        );
        clients.push((ClientId(p as u32), client_identity));
    }
    for node in &mut peers {
        for endorser in &endorser_identities {
            node.peer.register_endorser(
                endorser.principal().clone(),
                endorser.certificate().public_key,
            );
        }
        for (cid, cident) in &clients {
            node.peer
                .register_client(*cid, cident.certificate().clone());
        }
    }

    // Client pools: one per endorsing peer.
    let mut pools = Vec::with_capacity(n_endorsers);
    for (p, (cid, cident)) in clients.into_iter().enumerate() {
        let mut selector = TargetSelector::new(&policy);
        // Stagger rotation so pools spread load from t=0.
        for _ in 0..p % selector.set_count().max(1) {
            selector.next_targets();
        }
        // Only deployed endorsing peers are reachable; a policy naming an
        // undeployed org can then fail at collection, as on a real network.
        let target_sets = (0..selector.set_count())
            .map(|_| {
                selector
                    .next_targets()
                    .iter()
                    .filter(|pr| pr.org.0 >= 1 && pr.org.0 <= cfg.endorsing_peers)
                    .map(World::peer_of)
                    .collect()
            })
            .collect();
        pools.push(Pool {
            sdk: ClientSdk::new(cid, cident),
            target_sets,
            next_set: 0,
            prep: Station::new(format!("pool{p}.prep"), 1),
            recv: Station::new(format!("pool{p}.recv"), m.client_recv_threads),
            egress: Link::new(
                format!("pool{p}.nic"),
                m.link_bandwidth_bps,
                SimDuration::from_millis_f64(m.link_propagation_ms),
            ),
            pending: HashMap::default(),
            in_prep: 0,
            next_osn: p as u32,
            next_channel: p as u32,
            arrivals: root.child(p as u64),
            keys: root.child(500 + p as u64),
        });
    }

    // OSNs.
    let osn_count = cfg.effective_osns() as usize;
    let mut osns = Vec::with_capacity(osn_count);
    for o in 0..osn_count {
        let node = match cfg.orderer_type {
            OrdererType::Solo => OsnNode::solo(o as u32, channel.clone(), cfg.batch),
            OrdererType::Raft => OsnNode::raft(
                o as u32,
                channel.clone(),
                cfg.batch,
                (0..osn_count as u32).collect(),
                // The Raft group seed keys off the channel index so every
                // channel's group elects independently.
                cfg.seed ^ 0xABCD ^ o as u64 ^ ((shard_id as u64) << 32),
            ),
            OrdererType::Kafka => OsnNode::kafka(
                o as u32,
                channel.clone(),
                cfg.batch,
                (0..cfg.broker_count).collect(),
            ),
        };
        osns.push(OsnActor {
            node,
            station: Station::new(format!("osn{o}.cpu"), m.osn_cpu_threads),
            egress: Link::new(
                format!("osn{o}.nic"),
                m.link_bandwidth_bps,
                SimDuration::from_millis_f64(m.link_propagation_ms),
            ),
            subscribers: match &cfg.gossip {
                None => (0..n_peers).filter(|p| p % osn_count == o).collect(),
                Some(g) => {
                    // Only leader peers subscribe; they spread across OSNs.
                    let leaders = (g.leader_peers as usize).min(n_peers);
                    (0..leaders).filter(|p| p % osn_count == o).collect()
                }
            },
            alive: true,
            delivered: VecDeque::new(),
        });
    }

    // Kafka substrate.
    let (brokers, zk) = if cfg.orderer_type == OrdererType::Kafka {
        let brokers = (0..cfg.broker_count)
            .map(|b| BrokerActor {
                partition: Broker::new(b),
                station: Station::new(format!("broker{b}.cpu"), m.broker_cpu_threads),
                egress: Link::new(
                    format!("broker{b}.nic"),
                    m.link_bandwidth_bps,
                    SimDuration::from_millis_f64(m.link_propagation_ms),
                ),
                alive: true,
            })
            .collect();
        let zk = ZkEnsemble::new(
            cfg.zk_count as usize,
            (0..cfg.broker_count).collect(),
            4, // sessions expire after 4 missed zk ticks (~2 s)
        );
        (brokers, Some(zk))
    } else {
        (Vec::new(), None)
    };

    World {
        policy: Arc::new(policy),
        pools,
        observer: n_endorsers,
        peers,
        osns,
        brokers,
        zk,
        block_cuts: Vec::new(),
        shard: ShardCtx {
            shard_id,
            channels,
            outbox: Vec::new(),
            pending_sends: BinaryHeap::new(),
            min_send_delay: SimDuration::from_millis_f64(
                (cfg.cost.client_prep_ms - cfg.cost.client_prep_jitter_ms).max(0.0)
                    + cfg.cost.sdk_pre_ms,
            ),
        },
        obs: Observer::new(cfg, shard_id),
        cfg: cfg.clone(),
        broker_effects: Vec::new(),
        vscc_workers: Vec::new(),
        lane: None,
        chain_breaks: Vec::new(),
        kafka_reads: Vec::new(),
        retired_below: 0,
    }
}

pub(super) fn bootstrap(world: &mut World, k: &mut K) {
    // Arrival processes, only for the pools homed on this world.
    for p in 0..world.pools.len() {
        if world.pool_is_homed(p) {
            client::schedule_next_arrival(world, k, p);
        }
    }
    schedule_sampler(world, k);
    // OSN ticks (Raft elections/heartbeats; Kafka consume polling).
    if world.cfg.orderer_type != OrdererType::Solo {
        let period = world.ms(world.cfg.cost.osn_tick_ms);
        for osn in 0..world.osns.len() {
            k.schedule_in(period, Ev::OsnTick { osn });
        }
    }
    // Gossip anti-entropy pulls.
    if let Some(g) = world.cfg.gossip {
        let period = world.ms(g.anti_entropy_ms as f64);
        for peer in 0..world.peers.len() {
            k.schedule_in(period, Ev::GossipTick { peer });
        }
    }
    // Kafka broker ticks + ZK heartbeats + ZK tick.
    if world.cfg.orderer_type == OrdererType::Kafka {
        let bt = world.ms(world.cfg.cost.broker_tick_ms);
        for broker in 0..world.brokers.len() {
            k.schedule_in(bt, Ev::BrokerTick { broker });
        }
        for broker in 0..world.brokers.len() {
            // First heartbeat immediately: bootstraps leader election.
            k.schedule_in(SimDuration::ZERO, Ev::BrokerHeartbeat { broker });
        }
        k.schedule_in(world.ms(500.0), Ev::ZkTick);
    }
}
