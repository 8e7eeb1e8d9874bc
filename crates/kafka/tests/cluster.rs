//! Cluster-level simulation of brokers + ZooKeeper: replication, consumption
//! and failover driven through the public state-machine APIs, with message
//! routing performed by a miniature host harness.

use std::collections::VecDeque;

use fabricsim_kafka::{
    Broker, BrokerEffect, BrokerId, BrokerMsg, ClientEvent, Record, ZkEffect, ZkEnsemble, ZkMsg,
};

struct Cluster {
    brokers: Vec<Broker>,
    alive: Vec<bool>,
    zk: ZkEnsemble,
    broker_queue: VecDeque<(usize, BrokerMsg)>,
    client_events: Vec<(u64, ClientEvent)>,
}

impl Cluster {
    fn new(n: u32) -> Self {
        let ids: Vec<BrokerId> = (0..n).collect();
        let mut c = Cluster {
            brokers: ids.iter().map(|&i| Broker::new(i)).collect(),
            alive: vec![true; n as usize],
            zk: ZkEnsemble::new(3, ids, 3),
            broker_queue: VecDeque::new(),
            client_events: Vec::new(),
        };
        // Initial heartbeats elect a leader and appoint followers.
        for i in 0..n {
            c.zk_step(ZkMsg::Heartbeat { from: i });
        }
        c.settle(50);
        c
    }

    fn zk_step(&mut self, msg: ZkMsg) {
        for effect in self.zk.step(msg) {
            self.apply_zk(effect);
        }
    }

    fn apply_zk(&mut self, effect: ZkEffect) {
        match effect {
            ZkEffect::AppointLeader {
                broker,
                epoch,
                replicas,
            } => self.broker_queue.push_back((
                broker as usize,
                BrokerMsg::AppointLeader { epoch, replicas },
            )),
            ZkEffect::AppointFollower {
                broker,
                leader,
                epoch,
            } => self.broker_queue.push_back((
                broker as usize,
                BrokerMsg::AppointFollower { epoch, leader },
            )),
        }
    }

    fn apply_broker(&mut self, b: usize, effects: Vec<BrokerEffect>) {
        for effect in effects {
            match effect {
                BrokerEffect::Send { to, message } => {
                    self.broker_queue.push_back((to as usize, message));
                }
                BrokerEffect::Reply { to, event } => self.client_events.push((to, event)),
                BrokerEffect::IsrUpdate { isr } => {
                    let from = self.brokers[b].id();
                    self.zk_step(ZkMsg::IsrUpdate { from, isr });
                }
            }
        }
    }

    /// Drains queued messages and runs broker/zk ticks for `rounds`.
    fn settle(&mut self, rounds: usize) {
        for _ in 0..rounds {
            while let Some((to, msg)) = self.broker_queue.pop_front() {
                if !self.alive[to] {
                    continue;
                }
                let mut effects = Vec::new();
                self.brokers[to].step(msg, &mut effects);
                self.apply_broker(to, effects);
            }
            for b in 0..self.brokers.len() {
                if self.alive[b] {
                    let mut effects = Vec::new();
                    self.brokers[b].tick(&mut effects);
                    self.apply_broker(b, effects);
                    self.zk_step(ZkMsg::Heartbeat {
                        from: self.brokers[b].id(),
                    });
                }
            }
            for effect in self.zk.tick() {
                self.apply_zk(effect);
            }
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "test harness: a cluster with no leader fails the test that asked for one"
    )]
    fn leader(&self) -> usize {
        self.zk.leader().expect("a leader exists") as usize
    }

    fn produce(&mut self, data: &[u8]) {
        let l = self.leader();
        let mut effects = Vec::new();
        self.brokers[l].step(
            BrokerMsg::Produce {
                reply_to: 99,
                record: Record::payload(data.to_vec()),
            },
            &mut effects,
        );
        self.apply_broker(l, effects);
    }

    fn consume_all(&mut self) -> Vec<Record> {
        let l = self.leader();
        let mut effects = Vec::new();
        self.brokers[l].step(
            BrokerMsg::Consume {
                reply_to: 99,
                offset: 0,
            },
            &mut effects,
        );
        self.apply_broker(l, effects);
        match self.client_events.pop() {
            Some((_, ClientEvent::ConsumeBatch { records, .. })) => records,
            other => panic!("expected a consume batch, got {other:?}"),
        }
    }
}

#[test]
fn cluster_elects_replicates_and_serves() {
    let mut c = Cluster::new(3);
    assert_eq!(c.leader(), 0);
    for i in 0..10u8 {
        c.produce(&[i]);
    }
    c.settle(10);
    let records = c.consume_all();
    assert_eq!(records.len(), 10, "all records replicated past the HW");
    assert_eq!(*records[3].data, [3]);
    // Followers converged byte-for-byte.
    for b in 1..3 {
        assert_eq!(c.brokers[b].log_end(), 10);
        assert_eq!(c.brokers[b].high_watermark(), 10);
    }
}

#[test]
fn leader_crash_fails_over_without_losing_committed_records() {
    let mut c = Cluster::new(3);
    for i in 0..5u8 {
        c.produce(&[i]);
    }
    c.settle(10);
    assert_eq!(c.consume_all().len(), 5);

    // Kill the leader; ZK expires its session and appoints a follower.
    let dead = c.leader();
    c.alive[dead] = false;
    c.settle(10);
    let new_leader = c.leader();
    assert_ne!(new_leader, dead, "a new leader is appointed");

    // The committed prefix survives, and the partition accepts new records.
    for i in 5..8u8 {
        c.produce(&[i]);
    }
    c.settle(10);
    let records = c.consume_all();
    assert!(records.len() >= 8, "committed prefix + new records served");
    for (i, r) in records.iter().take(8).enumerate() {
        assert_eq!(*r.data, [i as u8], "record {i} preserved in order");
    }
}

#[test]
fn follower_crash_shrinks_isr_and_hw_advances() {
    let mut c = Cluster::new(3);
    for i in 0..3u8 {
        c.produce(&[i]);
    }
    c.settle(10);
    let leader = c.leader();
    let follower = (0..3).find(|&b| b != leader).unwrap();
    c.alive[follower] = false;

    // More production: the dead follower would block the HW until the ISR
    // shrinks it out.
    for i in 3..6u8 {
        c.produce(&[i]);
    }
    c.settle(40); // enough ticks for isr_lag_ticks to expire
    assert_eq!(
        c.brokers[leader].high_watermark(),
        6,
        "ISR shrink lets the high watermark advance"
    );
    assert!(!c.brokers[leader].isr().contains(&(follower as u32)));
    assert_eq!(c.consume_all().len(), 6);
}
