//! The ordering-service node (OSN) state machine.

use std::collections::VecDeque;

use fabricsim_kafka::{BrokerId, BrokerMsg, ClientEvent, Record};
use fabricsim_raft::{Effect as RaftEffect, Message as RaftMessage, RaftConfig, RaftNode, Role};
use fabricsim_types::codec::{encode_block, encode_tx, Decoder};
use fabricsim_types::{BatchConfig, ChannelId, OrdererType, Transaction, TxId};

use crate::assembler::BlockAssembler;
use crate::cutter::BlockCutter;

/// Inputs the host feeds into an OSN.
#[derive(Debug, Clone)]
pub enum OsnInput {
    /// A client broadcast (an endorsed transaction envelope).
    Broadcast(Transaction),
    /// An OSN-to-OSN message.
    Osn {
        /// Sending OSN index.
        from: u32,
        /// The message.
        message: OsnMsg,
    },
    /// A reply from a Kafka broker (Kafka mode only).
    Kafka(ClientEvent),
    /// Partition-metadata refresh: the cluster's leader changed (Kafka mode).
    KafkaMetadata {
        /// The new partition leader.
        leader: BrokerId,
    },
    /// The batch timer armed via [`OsnEffect::ArmBatchTimer`] fired.
    BatchTimer {
        /// The timer's sequence number.
        seq: u64,
    },
    /// Periodic tick (drives Raft elections/heartbeats and Kafka consumption).
    Tick,
}

/// OSN-to-OSN messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OsnMsg {
    /// A Raft RPC (Raft mode).
    Raft(RaftMessage),
    /// A follower relays a client broadcast to the Raft leader.
    Relay(Transaction),
}

/// Effects the host must perform after driving an OSN.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OsnEffect {
    /// Send an OSN-to-OSN message.
    SendOsn {
        /// Destination OSN index.
        to: u32,
        /// The message.
        message: OsnMsg,
    },
    /// Send a message to a Kafka broker (Kafka mode).
    SendBroker {
        /// Destination broker.
        to: BrokerId,
        /// The message.
        message: BrokerMsg,
    },
    /// Acknowledge a client broadcast (the client's 3 s ordering timeout
    /// watches for this).
    Ack {
        /// The acknowledged transaction.
        tx_id: TxId,
    },
    /// A freshly cut block is ready for delivery to this OSN's subscribers.
    BlockReady(fabricsim_types::Block),
    /// Arm the batch timer for `after_ms` with the given sequence number.
    ArmBatchTimer {
        /// Delay in milliseconds.
        after_ms: u64,
        /// Timer identity, echoed back via [`OsnInput::BatchTimer`].
        seq: u64,
    },
}

#[derive(Debug)]
enum Engine {
    Solo,
    Raft {
        node: Box<RaftNode>,
        /// Blocks delivered so far (to drop stale-leader duplicates).
        delivered_height: u64,
    },
    Kafka {
        /// Broker currently believed to lead the partition.
        leader: BrokerId,
        /// All brokers (for failover retargeting).
        brokers: Vec<BrokerId>,
        /// Next partition offset to consume.
        next_offset: u64,
        /// FIFO of produced-but-unacked transaction ids.
        unacked: VecDeque<TxId>,
        /// Envelopes awaiting (re)send, e.g. after a NotLeader bounce.
        resend: VecDeque<Transaction>,
        /// Block number the last posted time-to-cut marker was for.
        last_ttc_sent: Option<u64>,
    },
}

/// An ordering-service node.
///
/// Drive it with [`OsnNode::handle`]; apply the returned effects. All OSNs of
/// a channel deliver the same blocks in the same order regardless of mode.
#[derive(Debug)]
pub struct OsnNode {
    id: u32,
    cutter: BlockCutter,
    assembler: BlockAssembler,
    engine: Engine,
    /// Decodes every consumed Kafka record and committed Raft entry, so an
    /// endorser key is subgroup-checked and a role string allocated once
    /// per node, not once per record.
    decoder: Decoder,
}

impl OsnNode {
    /// Creates a Solo OSN (single-node ordering).
    pub fn solo(id: u32, channel: ChannelId, batch: BatchConfig) -> Self {
        OsnNode {
            id,
            cutter: BlockCutter::new(batch),
            assembler: BlockAssembler::new(channel),
            engine: Engine::Solo,
            decoder: Decoder::default(),
        }
    }

    /// Creates a Raft OSN within `cluster` (all OSN indices, including `id`).
    pub fn raft(
        id: u32,
        channel: ChannelId,
        batch: BatchConfig,
        cluster: Vec<u32>,
        seed: u64,
    ) -> Self {
        let raft_ids: Vec<u64> = cluster.iter().map(|&i| i as u64 + 1).collect();
        OsnNode {
            id,
            cutter: BlockCutter::new(batch),
            assembler: BlockAssembler::new(channel),
            engine: Engine::Raft {
                node: Box::new(RaftNode::new(
                    id as u64 + 1,
                    raft_ids,
                    RaftConfig::default(),
                    seed,
                )),
                delivered_height: 0,
            },
            decoder: Decoder::default(),
        }
    }

    /// Creates a Kafka OSN producing to / consuming from `brokers`.
    ///
    /// # Panics
    /// Panics if `brokers` is empty.
    pub fn kafka(id: u32, channel: ChannelId, batch: BatchConfig, brokers: Vec<BrokerId>) -> Self {
        assert!(!brokers.is_empty(), "kafka mode needs brokers");
        OsnNode {
            id,
            cutter: BlockCutter::new(batch),
            assembler: BlockAssembler::new(channel),
            engine: Engine::Kafka {
                leader: brokers[0],
                brokers,
                next_offset: 0,
                unacked: VecDeque::new(),
                resend: VecDeque::new(),
                last_ttc_sent: None,
            },
            decoder: Decoder::default(),
        }
    }

    /// This OSN's index.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Which consensus this node runs.
    pub fn orderer_type(&self) -> OrdererType {
        match self.engine {
            Engine::Solo => OrdererType::Solo,
            Engine::Raft { .. } => OrdererType::Raft,
            Engine::Kafka { .. } => OrdererType::Kafka,
        }
    }

    /// True when this OSN is currently the consensus leader (Solo nodes and
    /// every Kafka OSN count as leaders for admission purposes).
    pub fn is_leader(&self) -> bool {
        match &self.engine {
            Engine::Solo | Engine::Kafka { .. } => true,
            Engine::Raft { node, .. } => node.role() == Role::Leader,
        }
    }

    /// This node's Raft replica (Raft mode only).
    pub fn raft_node(&self) -> Option<&RaftNode> {
        match &self.engine {
            Engine::Raft { node, .. } => Some(node),
            Engine::Solo | Engine::Kafka { .. } => None,
        }
    }

    /// Compacts this node's Raft log through `index`
    /// ([`RaftNode::compact_through`]); nothing outside Raft mode.
    pub fn compact_raft_log(&mut self, index: u64) {
        if let Engine::Raft { node, .. } = &mut self.engine {
            node.compact_through(index);
        }
    }

    /// The next partition offset this node consumes (Kafka mode only).
    pub fn kafka_next_offset(&self) -> Option<u64> {
        match &self.engine {
            Engine::Kafka { next_offset, .. } => Some(*next_offset),
            Engine::Solo | Engine::Raft { .. } => None,
        }
    }

    /// Processes one input, returning the effects to apply.
    pub fn handle(&mut self, input: OsnInput) -> Vec<OsnEffect> {
        match input {
            OsnInput::Broadcast(tx) => self.on_broadcast(tx),
            OsnInput::Osn { from, message } => self.on_osn(from, message),
            OsnInput::Kafka(event) => self.on_kafka(event),
            OsnInput::KafkaMetadata { leader } => {
                if let Engine::Kafka { leader: l, .. } = &mut self.engine {
                    *l = leader;
                }
                Vec::new()
            }
            OsnInput::BatchTimer { seq } => self.on_batch_timer(seq),
            OsnInput::Tick => self.on_tick(),
        }
    }

    // ---- broadcast admission ------------------------------------------------

    fn on_broadcast(&mut self, tx: Transaction) -> Vec<OsnEffect> {
        match &mut self.engine {
            Engine::Solo => {
                let mut effects = vec![OsnEffect::Ack { tx_id: tx.tx_id }];
                self.enqueue_local(tx, &mut effects);
                effects
            }
            Engine::Raft { node, .. } => {
                if node.role() == Role::Leader {
                    let mut effects = vec![OsnEffect::Ack { tx_id: tx.tx_id }];
                    self.enqueue_local(tx, &mut effects);
                    effects
                } else if let Some(leader) = node.leader_hint() {
                    vec![OsnEffect::SendOsn {
                        to: (leader - 1) as u32,
                        message: OsnMsg::Relay(tx),
                    }]
                } else {
                    Vec::new() // no leader known: drop; client times out
                }
            }
            Engine::Kafka {
                leader, unacked, ..
            } => {
                unacked.push_back(tx.tx_id);
                vec![OsnEffect::SendBroker {
                    to: *leader,
                    message: BrokerMsg::Produce {
                        reply_to: self.id as u64,
                        record: Record::payload(encode_tx(&tx)),
                    },
                }]
            }
        }
    }

    /// Runs the cutter on one ordered transaction and emits the blocks it
    /// cuts: a broadcast on Solo or the Raft leader, a consumed record on
    /// Kafka.
    fn enqueue_local(&mut self, tx: Transaction, effects: &mut Vec<OsnEffect>) {
        let timeout_ms = self.cutter.timeout_ms();
        let outcome = self.cutter.ordered(tx);
        if let Some(seq) = outcome.arm_timer {
            effects.push(OsnEffect::ArmBatchTimer {
                after_ms: timeout_ms,
                seq,
            });
        }
        for batch in outcome.batches {
            self.emit_block(batch, effects);
        }
    }

    /// Assembles a cut batch. Solo and Kafka deliver it at once — a Kafka
    /// OSN cuts only from the consumed stream, so every Kafka OSN cuts the
    /// same batches. A Raft leader replicates the encoded block and delivers
    /// it on commit.
    fn emit_block(&mut self, batch: Vec<Transaction>, effects: &mut Vec<OsnEffect>) {
        let block = self.assembler.assemble(batch);
        match &mut self.engine {
            Engine::Solo | Engine::Kafka { .. } => effects.push(OsnEffect::BlockReady(block)),
            Engine::Raft {
                node,
                delivered_height,
                ..
            } => {
                if let Ok((_, raft_effects)) = node.propose(encode_block(&block)) {
                    Self::absorb_raft(raft_effects, delivered_height, &mut self.decoder, effects);
                }
            }
        }
    }

    // ---- OSN-to-OSN ----------------------------------------------------------

    fn on_osn(&mut self, from: u32, message: OsnMsg) -> Vec<OsnEffect> {
        match message {
            OsnMsg::Relay(tx) => self.on_broadcast(tx),
            OsnMsg::Raft(raft_msg) => {
                let Engine::Raft {
                    node,
                    delivered_height,
                    ..
                } = &mut self.engine
                else {
                    return Vec::new();
                };
                let raft_effects = node.step(from as u64 + 1, raft_msg);
                let mut effects = Vec::new();
                Self::absorb_raft(
                    raft_effects,
                    delivered_height,
                    &mut self.decoder,
                    &mut effects,
                );
                self.observe_delivered(&effects);
                effects
            }
        }
    }

    fn absorb_raft(
        raft_effects: Vec<RaftEffect>,
        delivered_height: &mut u64,
        decoder: &mut Decoder,
        effects: &mut Vec<OsnEffect>,
    ) {
        for e in raft_effects {
            match e {
                RaftEffect::Send { to, message } => effects.push(OsnEffect::SendOsn {
                    to: (to - 1) as u32,
                    message: OsnMsg::Raft(message),
                }),
                RaftEffect::Commit(entries) => {
                    for entry in entries {
                        if entry.is_noop() {
                            continue;
                        }
                        match decoder.decode_block(&entry.data) {
                            Ok(block) if block.header.number == *delivered_height => {
                                *delivered_height += 1;
                                effects.push(OsnEffect::BlockReady(block));
                            }
                            Ok(_stale) => {} // duplicate number from a deposed leader
                            Err(_) => {}     // malformed entry: ignore
                        }
                    }
                }
                RaftEffect::BecameLeader(_) | RaftEffect::SteppedDown(_) => {}
            }
        }
    }

    /// A new Raft leader must chain onto the committed tip, not its own stale
    /// assembler state.
    fn observe_delivered(&mut self, effects: &[OsnEffect]) {
        for e in effects {
            if let OsnEffect::BlockReady(b) = e {
                self.assembler.observe(b);
            }
        }
    }

    // ---- Kafka ----------------------------------------------------------------

    fn on_kafka(&mut self, event: ClientEvent) -> Vec<OsnEffect> {
        let Engine::Kafka {
            leader,
            brokers,
            next_offset,
            unacked,
            resend,
            ..
        } = &mut self.engine
        else {
            return Vec::new();
        };
        let mut effects = Vec::new();
        match event {
            ClientEvent::ProduceAck { .. } => {
                if let Some(tx_id) = unacked.pop_front() {
                    effects.push(OsnEffect::Ack { tx_id });
                }
            }
            ClientEvent::NotLeader { leader_hint } => {
                // The bounced produce corresponds to the oldest unacked
                // envelope (broker replies are FIFO per producer); drop it so
                // later acks stay correlated. The client's 3 s timeout
                // rejects the dropped transaction.
                unacked.pop_front();
                // Retarget: follow the hint, or rotate through the broker list.
                *leader = leader_hint.unwrap_or_else(|| {
                    let pos = brokers.iter().position(|b| b == leader).unwrap_or(0);
                    brokers[(pos + 1) % brokers.len()]
                });
                // Unacked envelopes are re-produced by the host's client retry
                // path (the ack never fires, so the client's 3 s timeout and
                // the resend queue govern); resend what we queued locally.
                while let Some(tx) = resend.pop_front() {
                    unacked.push_back(tx.tx_id);
                    effects.push(OsnEffect::SendBroker {
                        to: *leader,
                        message: BrokerMsg::Produce {
                            reply_to: self.id as u64,
                            record: Record::payload(encode_tx(&tx)),
                        },
                    });
                }
            }
            ClientEvent::ConsumeBatch {
                base_offset,
                records,
                ..
            } => {
                if base_offset != *next_offset {
                    // Overlap or gap: only consume forward from our cursor.
                    if base_offset > *next_offset {
                        return effects; // gap: retry later
                    }
                }
                let skip = (*next_offset - base_offset) as usize;
                *next_offset += records.len().saturating_sub(skip) as u64;
                for record in records.into_iter().skip(skip) {
                    if record.is_timer_marker {
                        // Fabric's TTC-X: cut the pending batch if the marker
                        // targets the block we are currently accumulating.
                        let target = u64::from_le_bytes(
                            record
                                .data
                                .get(..8)
                                .unwrap_or(&[0; 8])
                                .try_into()
                                .unwrap_or([0; 8]),
                        );
                        // Marker data is absent for generic markers.
                        let applies =
                            record.data.is_empty() || target == self.assembler.next_number();
                        if applies {
                            if let Some(batch) = self.cutter.cut() {
                                self.emit_block(batch, &mut effects);
                            }
                        }
                    } else if let Ok(tx) = self.decoder.decode_tx(&record.data) {
                        self.enqueue_local(tx, &mut effects);
                    }
                }
            }
        }
        effects
    }

    // ---- timers & ticks ---------------------------------------------------------

    fn on_batch_timer(&mut self, seq: u64) -> Vec<OsnEffect> {
        match &mut self.engine {
            Engine::Solo | Engine::Raft { .. } => {
                // Only the consensus leader cuts on timeout.
                if !self.is_leader() {
                    return Vec::new();
                }
                let Some(batch) = self.cutter.timeout(seq) else {
                    return Vec::new();
                };
                let mut effects = Vec::new();
                self.emit_block(batch, &mut effects);
                effects
            }
            Engine::Kafka {
                leader,
                last_ttc_sent,
                ..
            } => {
                // Post a time-to-cut marker for the block we are accumulating;
                // all OSNs will cut when it arrives in the stream. Only post
                // once per block number (duplicate markers are ignored by
                // consumers, but we avoid the traffic), and only if this timer
                // is still the live one — a count-cut invalidates it.
                if !self.cutter.timer_is_live(seq) {
                    return Vec::new();
                }
                let target = self.assembler.next_number();
                if *last_ttc_sent == Some(target) {
                    return Vec::new();
                }
                *last_ttc_sent = Some(target);
                let mut marker = Record::timer_marker();
                marker.data = target.to_le_bytes().into();
                vec![OsnEffect::SendBroker {
                    to: *leader,
                    message: BrokerMsg::Produce {
                        reply_to: self.id as u64,
                        record: marker,
                    },
                }]
            }
        }
    }

    fn on_tick(&mut self) -> Vec<OsnEffect> {
        match &mut self.engine {
            Engine::Solo => Vec::new(),
            Engine::Raft {
                node,
                delivered_height,
                ..
            } => {
                let raft_effects = node.tick();
                let mut effects = Vec::new();
                Self::absorb_raft(
                    raft_effects,
                    delivered_height,
                    &mut self.decoder,
                    &mut effects,
                );
                self.observe_delivered(&effects);
                effects
            }
            Engine::Kafka {
                leader,
                next_offset,
                ..
            } => {
                vec![OsnEffect::SendBroker {
                    to: *leader,
                    message: BrokerMsg::Consume {
                        reply_to: self.id as u64,
                        offset: *next_offset,
                    },
                }]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabricsim_crypto::KeyPair;
    use fabricsim_types::{ClientId, Endorsement, OrgId, Principal, Proposal, RwSet};

    fn tx(nonce: u64) -> Transaction {
        Transaction {
            tx_id: Proposal::derive_tx_id(ClientId(0), nonce),
            channel: ChannelId::default_channel(),
            chaincode: "kv".into(),
            rw_set: RwSet::new(),
            payload: vec![0u8],
            endorsements: Vec::new(),
            creator: ClientId(0),
            signature: KeyPair::from_seed(b"c").sign(b"t"),
        }
    }

    fn batch_cfg(count: usize) -> BatchConfig {
        BatchConfig {
            max_message_count: count,
            ..BatchConfig::default()
        }
    }

    #[test]
    fn solo_acks_and_cuts() {
        let mut osn = OsnNode::solo(0, ChannelId::default_channel(), batch_cfg(2));
        let e1 = osn.handle(OsnInput::Broadcast(tx(1)));
        assert!(matches!(e1[0], OsnEffect::Ack { .. }));
        assert!(e1
            .iter()
            .any(|e| matches!(e, OsnEffect::ArmBatchTimer { .. })));
        let e2 = osn.handle(OsnInput::Broadcast(tx(2)));
        let block = e2
            .iter()
            .find_map(|e| match e {
                OsnEffect::BlockReady(b) => Some(b),
                _ => None,
            })
            .expect("count cut");
        assert_eq!(block.header.number, 0);
        assert_eq!(block.len(), 2);
    }

    #[test]
    fn solo_timeout_cuts_partial() {
        let mut osn = OsnNode::solo(0, ChannelId::default_channel(), batch_cfg(100));
        let effects = osn.handle(OsnInput::Broadcast(tx(1)));
        let seq = effects
            .iter()
            .find_map(|e| match e {
                OsnEffect::ArmBatchTimer { seq, .. } => Some(*seq),
                _ => None,
            })
            .unwrap();
        let effects = osn.handle(OsnInput::BatchTimer { seq });
        assert!(matches!(effects[0], OsnEffect::BlockReady(ref b) if b.len() == 1));
        // Stale re-fire does nothing.
        assert!(osn.handle(OsnInput::BatchTimer { seq }).is_empty());
    }

    #[test]
    fn solo_blocks_chain() {
        let mut osn = OsnNode::solo(0, ChannelId::default_channel(), batch_cfg(1));
        let b0 = match &osn.handle(OsnInput::Broadcast(tx(1)))[..] {
            [OsnEffect::Ack { .. }, OsnEffect::BlockReady(b)] => b.clone(),
            other => panic!("unexpected {other:?}"),
        };
        let b1 = match &osn.handle(OsnInput::Broadcast(tx(2)))[..] {
            [OsnEffect::Ack { .. }, OsnEffect::BlockReady(b)] => b.clone(),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(b1.header.previous_hash, b0.header.hash());
    }

    #[test]
    fn raft_single_node_orders() {
        let mut osn = OsnNode::raft(0, ChannelId::default_channel(), batch_cfg(1), vec![0], 7);
        // Tick until leadership.
        for _ in 0..100 {
            osn.handle(OsnInput::Tick);
            if osn.is_leader() {
                break;
            }
        }
        assert!(osn.is_leader());
        assert_eq!(osn.orderer_type(), OrdererType::Raft);
        let effects = osn.handle(OsnInput::Broadcast(tx(1)));
        assert!(matches!(effects[0], OsnEffect::Ack { .. }));
        let block = effects
            .iter()
            .find_map(|e| match e {
                OsnEffect::BlockReady(b) => Some(b),
                _ => None,
            })
            .expect("single-node raft commits immediately");
        assert_eq!(block.header.number, 0);
    }

    #[test]
    fn raft_follower_relays_to_leader() {
        let mut leader =
            OsnNode::raft(0, ChannelId::default_channel(), batch_cfg(1), vec![0, 1], 1);
        let mut follower =
            OsnNode::raft(1, ChannelId::default_channel(), batch_cfg(1), vec![0, 1], 2);
        // Elect OSN 0 by hand: tick it to candidacy, deliver vote.
        let mut msgs: Vec<(u32, u32, OsnMsg)> = Vec::new(); // (from, to, msg)
        'outer: for _ in 0..200 {
            for e in leader.handle(OsnInput::Tick) {
                if let OsnEffect::SendOsn { to, message } = e {
                    msgs.push((0, to, message));
                }
            }
            // Deliver everything both ways until quiet.
            while let Some((from, to, m)) = msgs.pop() {
                let node = if to == 0 { &mut leader } else { &mut follower };
                for e in node.handle(OsnInput::Osn { from, message: m }) {
                    if let OsnEffect::SendOsn { to: t2, message } = e {
                        msgs.push((to, t2, message));
                    }
                }
            }
            if leader.is_leader() {
                break 'outer;
            }
        }
        assert!(leader.is_leader());
        // A broadcast hitting the follower is relayed.
        let effects = follower.handle(OsnInput::Broadcast(tx(5)));
        assert!(matches!(
            &effects[..],
            [OsnEffect::SendOsn {
                to: 0,
                message: OsnMsg::Relay(_)
            }]
        ));
    }

    #[test]
    fn kafka_osn_produces_and_cuts_from_stream() {
        let mut osn = OsnNode::kafka(0, ChannelId::default_channel(), batch_cfg(2), vec![0, 1, 2]);
        assert_eq!(osn.orderer_type(), OrdererType::Kafka);
        // Broadcast: goes to the leader broker as a produce.
        let effects = osn.handle(OsnInput::Broadcast(tx(1)));
        assert!(matches!(
            &effects[..],
            [OsnEffect::SendBroker {
                to: 0,
                message: BrokerMsg::Produce { .. }
            }]
        ));
        // ProduceAck surfaces the client ack.
        let effects = osn.handle(OsnInput::Kafka(ClientEvent::ProduceAck { offset: 0 }));
        assert!(matches!(&effects[..], [OsnEffect::Ack { .. }]));
        // Tick polls the consumer.
        let effects = osn.handle(OsnInput::Tick);
        assert!(matches!(
            &effects[..],
            [OsnEffect::SendBroker {
                message: BrokerMsg::Consume { offset: 0, .. },
                ..
            }]
        ));
        // Consuming two records cuts a block (count = 2).
        let records = vec![
            Record::payload(encode_tx(&tx(1))),
            Record::payload(encode_tx(&tx(2))),
        ];
        let effects = osn.handle(OsnInput::Kafka(ClientEvent::ConsumeBatch {
            base_offset: 0,
            records,
            high_watermark: 2,
        }));
        let block = effects
            .iter()
            .find_map(|e| match e {
                OsnEffect::BlockReady(b) => Some(b),
                _ => None,
            })
            .expect("stream cut");
        assert_eq!(block.len(), 2);
    }

    /// The OSN's decoder keeps admissions across records, never refusals: a
    /// record whose endorser key is outside the group is dropped after
    /// records that admitted other keys, and again when it comes back.
    #[test]
    fn kafka_osn_refuses_a_non_member_key_after_admitted_ones() {
        let endorsed = |nonce: u64, seeds: &[&str]| {
            let mut t = tx(nonce);
            for (org, seed) in seeds.iter().enumerate() {
                let kp = KeyPair::from_seed(seed.as_bytes());
                t.endorsements.push(Endorsement {
                    endorser: Principal::peer(OrgId(org as u32 + 1)),
                    endorser_key: kp.public,
                    signature: kp.sign(b"response"),
                });
            }
            t
        };
        let non_member = (2..)
            .find(|&x| fabricsim_crypto::PublicKey::from_element(x).is_none())
            .expect("the group is a proper subgroup");
        let odd = KeyPair::from_seed(b"odd").public.element().to_le_bytes();
        let mut refused = encode_tx(&endorsed(2, &["p0", "odd"]));
        let at = refused
            .windows(8)
            .position(|w| w == odd)
            .expect("the key is on the wire");
        refused[at..at + 8].copy_from_slice(&non_member.to_le_bytes());
        let record = |nonce| Record::payload(encode_tx(&endorsed(nonce, &["p0", "p1"])));
        let mut osn = OsnNode::kafka(0, ChannelId::default_channel(), batch_cfg(2), vec![0]);
        let mut cut = |base_offset, records: Vec<Record>| {
            let effects = osn.handle(OsnInput::Kafka(ClientEvent::ConsumeBatch {
                base_offset,
                high_watermark: base_offset + records.len() as u64,
                records,
            }));
            let blocks: Vec<Vec<TxId>> = effects
                .iter()
                .filter_map(|e| match e {
                    OsnEffect::BlockReady(b) => {
                        Some(b.transactions.iter().map(|t| t.tx_id).collect())
                    }
                    _ => None,
                })
                .collect();
            blocks
        };
        let id = |nonce| tx(nonce).tx_id;
        let batch = vec![record(1), Record::payload(refused.clone()), record(3)];
        assert_eq!(cut(0, batch), vec![vec![id(1), id(3)]]);
        let batch = vec![Record::payload(refused), record(4), record(5)];
        assert_eq!(cut(3, batch), vec![vec![id(4), id(5)]]);
    }

    #[test]
    fn kafka_ttc_marker_cuts_pending() {
        let mut osn = OsnNode::kafka(0, ChannelId::default_channel(), batch_cfg(100), vec![0]);
        // One tx arrives in the stream; timer arms.
        let effects = osn.handle(OsnInput::Kafka(ClientEvent::ConsumeBatch {
            base_offset: 0,
            records: vec![Record::payload(encode_tx(&tx(1)))],
            high_watermark: 1,
        }));
        let seq = effects
            .iter()
            .find_map(|e| match e {
                OsnEffect::ArmBatchTimer { seq, .. } => Some(*seq),
                _ => None,
            })
            .expect("timer armed");
        // Timer fires: OSN posts a TTC marker (does not cut locally).
        let effects = osn.handle(OsnInput::BatchTimer { seq });
        let marker = match &effects[..] {
            [OsnEffect::SendBroker {
                message: BrokerMsg::Produce { record, .. },
                ..
            }] => record.clone(),
            other => panic!("unexpected {other:?}"),
        };
        assert!(marker.is_timer_marker);
        // Re-fire for the same block posts nothing (dedup).
        assert!(osn.handle(OsnInput::BatchTimer { seq }).is_empty());
        // The marker arrives in the stream: cut happens.
        let effects = osn.handle(OsnInput::Kafka(ClientEvent::ConsumeBatch {
            base_offset: 1,
            records: vec![marker],
            high_watermark: 2,
        }));
        assert!(matches!(&effects[..], [OsnEffect::BlockReady(b)] if b.len() == 1));
    }

    #[test]
    fn kafka_stale_ttc_marker_is_ignored() {
        let mut osn = OsnNode::kafka(0, ChannelId::default_channel(), batch_cfg(100), vec![0]);
        // Block 0 cut by a live marker.
        let mut marker0 = Record::timer_marker();
        marker0.data = 0u64.to_le_bytes().into();
        let effects = osn.handle(OsnInput::Kafka(ClientEvent::ConsumeBatch {
            base_offset: 0,
            records: vec![Record::payload(encode_tx(&tx(1))), marker0.clone()],
            high_watermark: 2,
        }));
        assert!(effects
            .iter()
            .any(|e| matches!(e, OsnEffect::BlockReady(b) if b.header.number == 0)));
        // A duplicate marker for block 0 arrives after a pending tx for block 1.
        let effects = osn.handle(OsnInput::Kafka(ClientEvent::ConsumeBatch {
            base_offset: 2,
            records: vec![Record::payload(encode_tx(&tx(2))), marker0],
            high_watermark: 4,
        }));
        assert!(
            !effects
                .iter()
                .any(|e| matches!(e, OsnEffect::BlockReady(_))),
            "stale marker must not cut block 1"
        );
        assert_eq!(osn.cutter.pending_count(), 1);
    }

    #[test]
    fn kafka_duplicate_consume_is_deduped() {
        let mut osn = OsnNode::kafka(0, ChannelId::default_channel(), batch_cfg(2), vec![0]);
        let recs = vec![Record::payload(encode_tx(&tx(1)))];
        osn.handle(OsnInput::Kafka(ClientEvent::ConsumeBatch {
            base_offset: 0,
            records: recs.clone(),
            high_watermark: 1,
        }));
        // The same offset delivered again (consumer retry) must not double-count.
        osn.handle(OsnInput::Kafka(ClientEvent::ConsumeBatch {
            base_offset: 0,
            records: recs,
            high_watermark: 1,
        }));
        assert_eq!(osn.cutter.pending_count(), 1);
    }
}
