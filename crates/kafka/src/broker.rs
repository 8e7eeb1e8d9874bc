//! Broker state machine: the partition log, leader/follower replication and
//! the in-sync-replica protocol.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::{BrokerId, ClientToken, Epoch, Offset};

/// One record in the partition log (an opaque transaction envelope for the
/// Fabric ordering service, plus a marker bit for timer records).
///
/// The payload is allocated once, when the record is produced; every
/// replica's log, fetch response and consume batch shares it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Payload bytes.
    pub data: Arc<[u8]>,
    /// True for the leader OSN's block-timeout marker records (Fabric posts a
    /// `TTC-X` message to Kafka so all OSNs cut time-based blocks identically).
    pub is_timer_marker: bool,
}

impl Record {
    /// A payload record.
    pub fn payload(data: Vec<u8>) -> Self {
        Record {
            data: data.into(),
            is_timer_marker: false,
        }
    }

    /// A block-timeout marker record.
    pub fn timer_marker() -> Self {
        Record {
            data: Arc::new([]),
            is_timer_marker: true,
        }
    }
}

/// Ticks a follower may lag (no fetch progress to log-end) before the
/// leader shrinks it out of the ISR.
const ISR_LAG_TICKS: u32 = 20;

/// Most records one fetch or consume returns.
const MAX_FETCH_RECORDS: Offset = 1024;

/// A broker's current role for the (single) partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrokerRole {
    /// Leader: accepts produce requests, tracks the ISR.
    Leader,
    /// Follower replicating from `leader`.
    Follower {
        /// The partition leader it fetches from.
        leader: BrokerId,
    },
    /// Not a replica of this partition (or awaiting appointment).
    Idle,
}

/// Messages between brokers and from clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrokerMsg {
    /// Client produce request.
    Produce {
        /// Reply-to token for the acknowledgment.
        reply_to: ClientToken,
        /// The record to append.
        record: Record,
    },
    /// Client consume request: records in `[offset, high watermark)`.
    Consume {
        /// Reply-to token.
        reply_to: ClientToken,
        /// First offset wanted.
        offset: Offset,
    },
    /// Follower pulls records starting at `offset` (its log end).
    Fetch {
        /// The fetching follower.
        from: BrokerId,
        /// Follower's log-end offset.
        offset: Offset,
    },
    /// Leader's reply to a fetch.
    FetchResponse {
        /// Leadership epoch (stale epochs are ignored).
        epoch: Epoch,
        /// Records starting at the follower's requested offset.
        records: Vec<Record>,
        /// Offset of the first record in `records`.
        base_offset: Offset,
        /// Leader's high watermark.
        high_watermark: Offset,
    },
    /// ZooKeeper appoints this broker leader (with the replica set).
    AppointLeader {
        /// New leadership epoch.
        epoch: Epoch,
        /// All replicas of the partition.
        replicas: Vec<BrokerId>,
    },
    /// ZooKeeper appoints this broker follower of `leader`.
    AppointFollower {
        /// New leadership epoch.
        epoch: Epoch,
        /// The leader to fetch from.
        leader: BrokerId,
    },
}

/// Events delivered back to producers/consumers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientEvent {
    /// Produce accepted; the record sits at `offset` (not yet necessarily
    /// replicated — consumability is gated by the high watermark).
    ProduceAck {
        /// Assigned offset.
        offset: Offset,
    },
    /// Produce refused because this broker is not the leader.
    NotLeader {
        /// Best-known leader.
        leader_hint: Option<BrokerId>,
    },
    /// Consume response: records from `base_offset`, bounded by the HW.
    ConsumeBatch {
        /// Offset of the first returned record.
        base_offset: Offset,
        /// The records.
        records: Vec<Record>,
        /// Current high watermark (consumers poll again from `base + len`).
        high_watermark: Offset,
    },
}

/// What the host must do after driving a broker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrokerEffect {
    /// Send a broker-to-broker message.
    Send {
        /// Destination broker.
        to: BrokerId,
        /// The message.
        message: BrokerMsg,
    },
    /// Deliver an event to a client.
    Reply {
        /// The client token from the request.
        to: ClientToken,
        /// The event.
        event: ClientEvent,
    },
    /// Tell ZooKeeper the ISR changed (leader only).
    IsrUpdate {
        /// The new in-sync replica set.
        isr: Vec<BrokerId>,
    },
}

/// A Kafka broker hosting (a replica of) the channel's partition.
#[derive(Debug, Clone)]
pub struct Broker {
    id: BrokerId,
    role: BrokerRole,
    epoch: Epoch,
    /// The retained records, from offset `base` on.
    log: Vec<Record>,
    /// Offset of `log[0]`: every record below it was compacted away.
    base: Offset,
    high_watermark: Offset,
    // Leader state: per-replica log-end offsets and lag timers.
    replica_log_end: BTreeMap<BrokerId, Offset>,
    replica_lag: BTreeMap<BrokerId, u32>,
    isr: BTreeSet<BrokerId>,
}

impl Broker {
    /// Creates an idle broker.
    pub fn new(id: BrokerId) -> Self {
        Broker {
            id,
            role: BrokerRole::Idle,
            epoch: 0,
            log: Vec::new(),
            base: 0,
            high_watermark: 0,
            replica_log_end: BTreeMap::new(),
            replica_lag: BTreeMap::new(),
            isr: BTreeSet::new(),
        }
    }

    /// This broker's id.
    pub fn id(&self) -> BrokerId {
        self.id
    }

    /// Current role.
    pub fn role(&self) -> &BrokerRole {
        &self.role
    }

    /// Current leadership epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Log-end offset (next offset to be assigned).
    pub fn log_end(&self) -> Offset {
        self.base + self.log.len() as Offset
    }

    /// Offset of the first record still held: every offset below it was
    /// compacted away.
    pub fn log_start(&self) -> Offset {
        self.base
    }

    /// Drops every record below `offset` (below the log end, when `offset`
    /// is past it). Offsets are absolute, so nothing above moves; a consume
    /// or fetch must never again ask for a dropped offset.
    pub fn compact_below(&mut self, offset: Offset) {
        let drop = offset.min(self.log_end()).saturating_sub(self.base);
        self.log.drain(..drop as usize);
        self.base += drop;
    }

    /// Copies of the held records in `[from, to)`.
    fn records(&self, from: Offset, to: Offset) -> Vec<Record> {
        debug_assert!(from >= self.base, "offset {from} was compacted away");
        let at = |offset: Offset| offset.saturating_sub(self.base) as usize;
        self.log.get(at(from)..at(to)).unwrap_or(&[]).to_vec()
    }

    /// Cuts the log back to end at `offset`. Below the compacted prefix
    /// the log ends up empty, starting at `offset`.
    fn truncate_to(&mut self, offset: Offset) {
        if offset >= self.base {
            self.log.truncate((offset - self.base) as usize);
        } else {
            self.log.clear();
            self.base = offset;
        }
    }

    /// The high watermark: records below it are replicated to every ISR
    /// member and visible to consumers.
    pub fn high_watermark(&self) -> Offset {
        self.high_watermark
    }

    /// The current in-sync replica set (meaningful on the leader).
    pub fn isr(&self) -> Vec<BrokerId> {
        self.isr.iter().copied().collect()
    }

    /// Drives time: followers issue fetches; the leader ages follower lag and
    /// shrinks the ISR. Effects are appended to `effects`.
    pub fn tick(&mut self, effects: &mut Vec<BrokerEffect>) {
        match &self.role {
            BrokerRole::Follower { leader } => {
                effects.push(BrokerEffect::Send {
                    to: *leader,
                    message: BrokerMsg::Fetch {
                        from: self.id,
                        offset: self.log_end(),
                    },
                });
            }
            BrokerRole::Leader => {
                let mut shrunk = false;
                let log_end = self.log_end();
                for (&replica, lag) in self.replica_lag.iter_mut() {
                    if replica == self.id {
                        continue;
                    }
                    let caught_up = self.replica_log_end.get(&replica) == Some(&log_end);
                    if caught_up {
                        *lag = 0;
                    } else {
                        *lag += 1;
                        if *lag > ISR_LAG_TICKS && self.isr.remove(&replica) {
                            shrunk = true;
                        }
                    }
                }
                if shrunk {
                    self.advance_high_watermark();
                    effects.push(BrokerEffect::IsrUpdate { isr: self.isr() });
                }
            }
            BrokerRole::Idle => {}
        }
    }

    /// Processes a message, appending its effects to `effects`.
    pub fn step(&mut self, message: BrokerMsg, effects: &mut Vec<BrokerEffect>) {
        match message {
            BrokerMsg::Produce { reply_to, record } => {
                if self.role != BrokerRole::Leader {
                    let leader_hint = match &self.role {
                        BrokerRole::Follower { leader } => Some(*leader),
                        _ => None,
                    };
                    effects.push(BrokerEffect::Reply {
                        to: reply_to,
                        event: ClientEvent::NotLeader { leader_hint },
                    });
                    return;
                }
                let offset = self.log_end();
                self.log.push(record);
                self.replica_log_end.insert(self.id, self.log_end());
                self.advance_high_watermark();
                effects.push(BrokerEffect::Reply {
                    to: reply_to,
                    event: ClientEvent::ProduceAck { offset },
                });
            }
            BrokerMsg::Consume { reply_to, offset } => {
                let hw = self.high_watermark;
                let base = offset.min(hw);
                let upper = hw.min(base + MAX_FETCH_RECORDS);
                let records = self.records(base, upper);
                effects.push(BrokerEffect::Reply {
                    to: reply_to,
                    event: ClientEvent::ConsumeBatch {
                        base_offset: base,
                        records,
                        high_watermark: hw,
                    },
                });
            }
            BrokerMsg::Fetch { from, offset } => {
                if self.role != BrokerRole::Leader {
                    return;
                }
                self.replica_log_end.insert(from, offset);
                self.replica_lag.entry(from).or_insert(0);
                // ISR expansion: a caught-up replica rejoins.
                if offset == self.log_end() && self.isr.insert(from) {
                    effects.push(BrokerEffect::IsrUpdate { isr: self.isr() });
                }
                self.advance_high_watermark();
                let upper = self.log_end().min(offset + MAX_FETCH_RECORDS);
                let records = self.records(offset, upper);
                effects.push(BrokerEffect::Send {
                    to: from,
                    message: BrokerMsg::FetchResponse {
                        epoch: self.epoch,
                        records,
                        base_offset: offset,
                        high_watermark: self.high_watermark,
                    },
                });
            }
            BrokerMsg::FetchResponse {
                epoch,
                records,
                base_offset,
                high_watermark,
            } => {
                if epoch < self.epoch || !matches!(self.role, BrokerRole::Follower { .. }) {
                    return;
                }
                // Only append contiguously.
                if base_offset == self.log_end() {
                    self.log.extend(records);
                } else if base_offset < self.log_end() {
                    // Overlap from a retried fetch: truncate and re-append to
                    // stay consistent with the leader.
                    self.truncate_to(base_offset);
                    self.log.extend(records);
                }
                self.high_watermark = high_watermark.min(self.log_end());
            }
            BrokerMsg::AppointLeader { epoch, replicas } => {
                if epoch <= self.epoch && self.role == BrokerRole::Leader {
                    return;
                }
                self.epoch = epoch;
                self.role = BrokerRole::Leader;
                self.replica_log_end = replicas.iter().map(|&r| (r, 0)).collect();
                self.replica_log_end.insert(self.id, self.log_end());
                self.replica_lag = replicas
                    .iter()
                    .filter(|&&r| r != self.id)
                    .map(|&r| (r, 0))
                    .collect();
                // A fresh leader starts with ISR = {self}; followers rejoin as
                // their fetches catch up.
                self.isr = BTreeSet::from([self.id]);
                self.advance_high_watermark();
                effects.push(BrokerEffect::IsrUpdate { isr: self.isr() });
            }
            BrokerMsg::AppointFollower { epoch, leader } => {
                if epoch < self.epoch {
                    return;
                }
                self.epoch = epoch;
                self.role = BrokerRole::Follower { leader };
            }
        }
    }

    fn advance_high_watermark(&mut self) {
        if self.role != BrokerRole::Leader {
            return;
        }
        // HW = min log-end across the ISR.
        let min_isr = self
            .isr
            .iter()
            .map(|r| self.replica_log_end.get(r).copied().unwrap_or(0))
            .min()
            .unwrap_or(0);
        if min_isr > self.high_watermark {
            self.high_watermark = min_isr;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The effects of one `step`.
    fn step(b: &mut Broker, message: BrokerMsg) -> Vec<BrokerEffect> {
        let mut effects = Vec::new();
        b.step(message, &mut effects);
        effects
    }

    /// The effects of one `tick`.
    fn tick(b: &mut Broker) -> Vec<BrokerEffect> {
        let mut effects = Vec::new();
        b.tick(&mut effects);
        effects
    }

    fn leader_with_replicas(replicas: &[BrokerId]) -> Broker {
        let mut b = Broker::new(replicas[0]);
        step(
            &mut b,
            BrokerMsg::AppointLeader {
                epoch: 1,
                replicas: replicas.to_vec(),
            },
        );
        b
    }

    #[test]
    fn idle_broker_rejects_produce() {
        let mut b = Broker::new(1);
        let effects = step(
            &mut b,
            BrokerMsg::Produce {
                reply_to: 7,
                record: Record::payload(b"tx".to_vec()),
            },
        );
        assert_eq!(
            effects,
            vec![BrokerEffect::Reply {
                to: 7,
                event: ClientEvent::NotLeader { leader_hint: None }
            }]
        );
    }

    #[test]
    fn single_replica_leader_commits_immediately() {
        let mut b = leader_with_replicas(&[1]);
        let effects = step(
            &mut b,
            BrokerMsg::Produce {
                reply_to: 7,
                record: Record::payload(b"tx".to_vec()),
            },
        );
        assert!(matches!(
            effects[0],
            BrokerEffect::Reply {
                event: ClientEvent::ProduceAck { offset: 0 },
                ..
            }
        ));
        assert_eq!(b.high_watermark(), 1);
    }

    #[test]
    fn hw_waits_for_isr_replication() {
        let mut leader = leader_with_replicas(&[1, 2, 3]);
        // Followers join the ISR by fetching at log-end 0.
        step(&mut leader, BrokerMsg::Fetch { from: 2, offset: 0 });
        step(&mut leader, BrokerMsg::Fetch { from: 3, offset: 0 });
        assert_eq!(leader.isr(), vec![1, 2, 3]);
        step(
            &mut leader,
            BrokerMsg::Produce {
                reply_to: 1,
                record: Record::payload(b"a".to_vec()),
            },
        );
        // Not consumable yet: followers haven't replicated offset 1.
        assert_eq!(leader.high_watermark(), 0);
        step(&mut leader, BrokerMsg::Fetch { from: 2, offset: 1 });
        assert_eq!(leader.high_watermark(), 0, "only one of two followers");
        step(&mut leader, BrokerMsg::Fetch { from: 3, offset: 1 });
        assert_eq!(leader.high_watermark(), 1, "all ISR replicated");
    }

    #[test]
    fn consume_is_bounded_by_hw() {
        let mut leader = leader_with_replicas(&[1, 2]);
        step(&mut leader, BrokerMsg::Fetch { from: 2, offset: 0 });
        step(
            &mut leader,
            BrokerMsg::Produce {
                reply_to: 1,
                record: Record::payload(b"a".to_vec()),
            },
        );
        let effects = step(
            &mut leader,
            BrokerMsg::Consume {
                reply_to: 9,
                offset: 0,
            },
        );
        match &effects[0] {
            BrokerEffect::Reply {
                event:
                    ClientEvent::ConsumeBatch {
                        records,
                        high_watermark,
                        ..
                    },
                ..
            } => {
                assert!(records.is_empty(), "record above HW must not be served");
                assert_eq!(*high_watermark, 0);
            }
            other => panic!("unexpected effect {other:?}"),
        }
        // After replication it becomes consumable.
        step(&mut leader, BrokerMsg::Fetch { from: 2, offset: 1 });
        let effects = step(
            &mut leader,
            BrokerMsg::Consume {
                reply_to: 9,
                offset: 0,
            },
        );
        match &effects[0] {
            BrokerEffect::Reply {
                event: ClientEvent::ConsumeBatch { records, .. },
                ..
            } => assert_eq!(records.len(), 1),
            other => panic!("unexpected effect {other:?}"),
        }
    }

    #[test]
    fn follower_replicates_via_fetch_response() {
        let mut f = Broker::new(2);
        step(
            &mut f,
            BrokerMsg::AppointFollower {
                epoch: 1,
                leader: 1,
            },
        );
        let fetches = tick(&mut f);
        assert_eq!(
            fetches,
            vec![BrokerEffect::Send {
                to: 1,
                message: BrokerMsg::Fetch { from: 2, offset: 0 }
            }]
        );
        step(
            &mut f,
            BrokerMsg::FetchResponse {
                epoch: 1,
                records: vec![
                    Record::payload(b"a".to_vec()),
                    Record::payload(b"b".to_vec()),
                ],
                base_offset: 0,
                high_watermark: 1,
            },
        );
        assert_eq!(f.log_end(), 2);
        assert_eq!(f.high_watermark(), 1);
    }

    #[test]
    fn stale_epoch_fetch_response_ignored() {
        let mut f = Broker::new(2);
        step(
            &mut f,
            BrokerMsg::AppointFollower {
                epoch: 5,
                leader: 1,
            },
        );
        step(
            &mut f,
            BrokerMsg::FetchResponse {
                epoch: 4,
                records: vec![Record::payload(b"stale".to_vec())],
                base_offset: 0,
                high_watermark: 1,
            },
        );
        assert_eq!(f.log_end(), 0);
    }

    #[test]
    fn laggard_is_shrunk_from_isr() {
        let mut leader = Broker::new(1);
        step(
            &mut leader,
            BrokerMsg::AppointLeader {
                epoch: 1,
                replicas: vec![1, 2],
            },
        );
        step(&mut leader, BrokerMsg::Fetch { from: 2, offset: 0 });
        assert_eq!(leader.isr(), vec![1, 2]);
        step(
            &mut leader,
            BrokerMsg::Produce {
                reply_to: 1,
                record: Record::payload(b"a".to_vec()),
            },
        );
        assert_eq!(leader.high_watermark(), 0, "follower 2 now lags");
        // Follower 2 never fetches again: it stays in the ISR for
        // ISR_LAG_TICKS ticks, is dropped on the next one, and the HW
        // advances without it.
        let mut isr_updates = 0;
        for t in 1..=ISR_LAG_TICKS + 2 {
            for e in tick(&mut leader) {
                if matches!(e, BrokerEffect::IsrUpdate { .. }) {
                    isr_updates += 1;
                }
            }
            if t == ISR_LAG_TICKS {
                assert_eq!((isr_updates, leader.isr()), (0, vec![1, 2]));
            }
        }
        assert_eq!(isr_updates, 1);
        assert_eq!(leader.isr(), vec![1]);
        assert_eq!(leader.high_watermark(), 1);
    }

    #[test]
    fn new_leader_keeps_its_log_and_rebuilds_isr() {
        // Follower 2 has replicated 2 records, then gets appointed leader.
        let mut f = Broker::new(2);
        step(
            &mut f,
            BrokerMsg::AppointFollower {
                epoch: 1,
                leader: 1,
            },
        );
        step(
            &mut f,
            BrokerMsg::FetchResponse {
                epoch: 1,
                records: vec![
                    Record::payload(b"a".to_vec()),
                    Record::payload(b"b".to_vec()),
                ],
                base_offset: 0,
                high_watermark: 2,
            },
        );
        step(
            &mut f,
            BrokerMsg::AppointLeader {
                epoch: 2,
                replicas: vec![2, 3],
            },
        );
        assert_eq!(f.role(), &BrokerRole::Leader);
        assert_eq!(f.log_end(), 2);
        assert_eq!(f.isr(), vec![2]);
        assert_eq!(f.high_watermark(), 2, "solo-ISR HW covers its own log");
    }

    fn produce(b: &mut Broker, data: &[u8]) {
        let record = Record::payload(data.to_vec());
        step(
            b,
            BrokerMsg::Produce {
                reply_to: 1,
                record,
            },
        );
    }

    /// The `(base offset, payloads)` of a consume or fetch reply.
    fn served(effects: &[BrokerEffect]) -> (Offset, Vec<&[u8]>) {
        match effects {
            [BrokerEffect::Reply {
                event:
                    ClientEvent::ConsumeBatch {
                        base_offset,
                        records,
                        ..
                    },
                ..
            }]
            | [BrokerEffect::Send {
                message:
                    BrokerMsg::FetchResponse {
                        base_offset,
                        records,
                        ..
                    },
                ..
            }] => (*base_offset, records.iter().map(|r| &r.data[..]).collect()),
            other => panic!("unexpected effects {other:?}"),
        }
    }

    /// A one-replica leader holding `n` records (`[i]` each), compacted
    /// below offset `below`.
    fn compacted_leader(n: u8, below: Offset) -> Broker {
        let mut b = leader_with_replicas(&[1]);
        for i in 0..n {
            produce(&mut b, &[i]);
        }
        b.compact_below(below);
        b
    }

    #[test]
    fn compaction_keeps_offsets_absolute() {
        let mut b = compacted_leader(6, 4);
        assert_eq!((b.log_start(), b.log_end(), b.high_watermark()), (4, 6, 6));
        // Compacting below an offset already gone, or past the end, is safe.
        b.compact_below(2);
        assert_eq!(b.log_start(), 4);
        produce(&mut b, &[6]);
        assert_eq!(b.log_end(), 7);
        b.compact_below(99);
        assert_eq!((b.log_start(), b.log_end()), (7, 7));
        produce(&mut b, &[7]);
        let consume = BrokerMsg::Consume {
            reply_to: 9,
            offset: 7,
        };
        assert_eq!(served(&step(&mut b, consume)), (7, vec![&[7u8][..]]));
    }

    #[test]
    fn consume_and_fetch_read_absolute_offsets_above_the_base() {
        let mut b = compacted_leader(6, 3);
        let consume = BrokerMsg::Consume {
            reply_to: 9,
            offset: 4,
        };
        let want: Vec<&[u8]> = vec![&[4], &[5]];
        assert_eq!(served(&step(&mut b, consume)), (4, want.clone()));
        let fetch = BrokerMsg::Fetch { from: 2, offset: 4 };
        assert_eq!(served(&step(&mut b, fetch)), (4, want));
        // At the high watermark a consume is empty and reports where it
        // stood.
        let consume = BrokerMsg::Consume {
            reply_to: 9,
            offset: 6,
        };
        assert_eq!(served(&step(&mut b, consume)), (6, vec![]));
    }

    /// A follower of leader 1 holding `records` from offset 0.
    fn follower_with(records: &[&[u8]]) -> Broker {
        let mut f = Broker::new(2);
        step(
            &mut f,
            BrokerMsg::AppointFollower {
                epoch: 1,
                leader: 1,
            },
        );
        step(
            &mut f,
            BrokerMsg::FetchResponse {
                epoch: 1,
                records: records
                    .iter()
                    .map(|r| Record::payload(r.to_vec()))
                    .collect(),
                base_offset: 0,
                high_watermark: records.len() as Offset,
            },
        );
        f
    }

    #[test]
    fn a_follower_truncates_and_extends_above_its_base() {
        let mut f = follower_with(&[b"a", b"b", b"c", b"d"]);
        f.compact_below(2);
        assert_eq!((f.log_start(), f.log_end()), (2, 4));
        // An overlapping reply from offset 3 replaces the tail from there.
        step(
            &mut f,
            BrokerMsg::FetchResponse {
                epoch: 1,
                records: vec![
                    Record::payload(b"D".to_vec()),
                    Record::payload(b"e".to_vec()),
                ],
                base_offset: 3,
                high_watermark: 5,
            },
        );
        assert_eq!((f.log_start(), f.log_end(), f.high_watermark()), (2, 5, 5));
        let held: Vec<&[u8]> = f.log.iter().map(|r| &r.data[..]).collect();
        assert_eq!(held, vec![&b"c"[..], b"D", b"e"]);
        // A reply from below the base replaces the whole held log.
        step(
            &mut f,
            BrokerMsg::FetchResponse {
                epoch: 1,
                records: vec![Record::payload(b"B".to_vec())],
                base_offset: 1,
                high_watermark: 5,
            },
        );
        assert_eq!((f.log_start(), f.log_end(), f.high_watermark()), (1, 2, 2));
    }

    #[test]
    fn a_leader_appointed_after_compaction_serves_from_its_offsets() {
        let mut f = follower_with(&[b"a", b"b", b"c", b"d"]);
        f.compact_below(3);
        step(
            &mut f,
            BrokerMsg::AppointLeader {
                epoch: 2,
                replicas: vec![2, 3],
            },
        );
        assert_eq!(f.role(), &BrokerRole::Leader);
        let ack = step(
            &mut f,
            BrokerMsg::Produce {
                reply_to: 1,
                record: Record::payload(b"e".to_vec()),
            },
        );
        assert!(matches!(
            ack[..],
            [BrokerEffect::Reply {
                event: ClientEvent::ProduceAck { offset: 4 },
                ..
            }]
        ));
        // The other replica catches up from its own log end.
        let want: Vec<&[u8]> = vec![b"d", b"e"];
        let fetch = BrokerMsg::Fetch { from: 3, offset: 3 };
        assert_eq!(served(&step(&mut f, fetch)), (3, want.clone()));
        // So does a consumer, up to the solo-ISR high watermark.
        let consume = BrokerMsg::Consume {
            reply_to: 9,
            offset: 3,
        };
        assert_eq!(served(&step(&mut f, consume)), (3, want));
    }

    #[test]
    fn timer_marker_records() {
        assert!(Record::timer_marker().is_timer_marker);
        assert!(!Record::payload(b"x".to_vec()).is_timer_marker);
    }
}
