//! Randomized cluster simulation for the Raft state machine: drives N nodes
//! through message loss, reordering, partitions and crashes while checking the
//! core safety invariants.

use std::collections::VecDeque;

use fabricsim_raft::{Effect, Entry, Message, PersistentState, RaftNode, Role};

/// Deterministic xorshift RNG for the harness.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

struct Cluster {
    nodes: Vec<RaftNode>,
    inflight: VecDeque<(u64, u64, Message)>, // (from, to, msg)
    committed: Vec<Vec<Entry>>,              // per node, in commit order
    crashed: Vec<bool>,
    partitioned: Vec<bool>, // node unreachable when true
    leaders_by_term: std::collections::HashMap<u64, u64>,
    rng: Rng,
    proposals_made: u64,
}

impl Cluster {
    fn new(n: u64, seed: u64) -> Self {
        let ids: Vec<u64> = (1..=n).collect();
        Cluster {
            nodes: ids
                .iter()
                .map(|&id| RaftNode::new(id, ids.clone(), seed + id))
                .collect(),
            inflight: VecDeque::new(),
            committed: vec![Vec::new(); n as usize],
            crashed: vec![false; n as usize],
            partitioned: vec![false; n as usize],
            leaders_by_term: std::collections::HashMap::new(),
            rng: Rng(seed | 1),
            proposals_made: 0,
        }
    }

    fn absorb(&mut self, from: u64, effects: Vec<Effect>) {
        let idx = from as usize - 1;
        for e in effects {
            match e {
                Effect::Send { to, message } => self.inflight.push_back((from, to, message)),
                Effect::Commit(entries) => self.committed[idx].extend(entries),
                Effect::BecameLeader(term) => {
                    // ELECTION SAFETY: at most one leader per term, ever.
                    let prev = self.leaders_by_term.insert(term, from);
                    assert!(
                        prev.is_none() || prev == Some(from),
                        "two leaders in term {term}: {prev:?} and {from}"
                    );
                }
                Effect::SteppedDown(_) => {}
            }
        }
    }

    fn step_random(&mut self, drop_pct: u64) {
        // Tick a random node.
        let i = self.rng.below(self.nodes.len() as u64) as usize;
        if !self.crashed[i] {
            let effects = self.nodes[i].tick();
            self.absorb(i as u64 + 1, effects);
        }
        // Deliver a few messages, possibly dropping/reordering.
        for _ in 0..4 {
            if self.inflight.is_empty() {
                break;
            }
            let pick = self.rng.below(self.inflight.len() as u64) as usize;
            let Some((from, to, msg)) = self.inflight.remove(pick) else {
                break;
            };
            let (fi, ti) = (from as usize - 1, to as usize - 1);
            if self.rng.chance(drop_pct)
                || self.crashed[ti]
                || self.partitioned[fi]
                || self.partitioned[ti]
            {
                continue; // dropped
            }
            let effects = self.nodes[ti].step(from, msg);
            self.absorb(to, effects);
        }
    }

    fn leader(&self) -> Option<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(i, n)| !self.crashed[*i] && !self.partitioned[*i] && n.role() == Role::Leader)
            .map(|(i, _)| i)
            .max_by_key(|&i| self.nodes[i].term())
    }

    fn propose_if_possible(&mut self) {
        if let Some(l) = self.leader() {
            self.proposals_made += 1;
            let data = format!("tx{}", self.proposals_made).into_bytes();
            if let Ok((_, effects)) = self.nodes[l].propose(data) {
                self.absorb(l as u64 + 1, effects);
            }
        }
    }

    /// LOG MATCHING / STATE MACHINE SAFETY: committed sequences are prefixes
    /// of one another across all nodes.
    fn check_committed_prefixes(&self) {
        for a in 0..self.committed.len() {
            for b in a + 1..self.committed.len() {
                let (short, long) = if self.committed[a].len() <= self.committed[b].len() {
                    (&self.committed[a], &self.committed[b])
                } else {
                    (&self.committed[b], &self.committed[a])
                };
                for (i, e) in short.iter().enumerate() {
                    assert_eq!(
                        (e.index, e.term, &e.data),
                        (long[i].index, long[i].term, &long[i].data),
                        "nodes {a} and {b} disagree at commit position {i}"
                    );
                }
            }
        }
    }

    fn crash(&mut self, i: usize) {
        self.crashed[i] = true;
    }

    fn restart(&mut self, i: usize, seed: u64) {
        let persistent: PersistentState = self.nodes[i].persistent_state();
        let ids: Vec<u64> = (1..=self.nodes.len() as u64).collect();
        let id = i as u64 + 1;
        self.nodes[i] = RaftNode::restore(id, ids, seed, persistent);
        self.crashed[i] = false;
        // Restarted nodes re-deliver commits from scratch; reset its record so
        // the prefix check compares the fresh sequence.
        self.committed[i].clear();
    }
}

#[test]
fn healthy_cluster_elects_and_replicates() {
    let mut c = Cluster::new(5, 0xfab);
    for round in 0..20_000 {
        c.step_random(0);
        if round % 50 == 0 {
            c.propose_if_possible();
        }
    }
    c.check_committed_prefixes();
    let max_committed = c.committed.iter().map(Vec::len).max().unwrap();
    assert!(max_committed > 50, "only {max_committed} entries committed");
    // All live nodes eventually converge near the max.
    let min_committed = c.committed.iter().map(Vec::len).min().unwrap();
    assert!(
        min_committed * 10 >= max_committed * 5,
        "stragglers too far behind: {min_committed} vs {max_committed}"
    );
}

#[test]
fn lossy_network_preserves_safety() {
    for seed in [1u64, 2, 3, 4, 5] {
        let mut c = Cluster::new(3, seed);
        for round in 0..15_000 {
            c.step_random(20); // 20% message loss
            if round % 40 == 0 {
                c.propose_if_possible();
            }
        }
        c.check_committed_prefixes();
        assert!(
            c.committed.iter().map(Vec::len).max().unwrap() > 10,
            "seed {seed}: cluster made no progress under loss"
        );
    }
}

#[test]
fn leader_crash_and_recovery() {
    let mut c = Cluster::new(3, 0xdead);
    // Reach a stable leader and commit some entries.
    for round in 0..5_000 {
        c.step_random(0);
        if round % 50 == 0 {
            c.propose_if_possible();
        }
    }
    let before = c.committed.iter().map(Vec::len).max().unwrap();
    assert!(before > 5);
    let leader = c.leader().expect("a leader exists");
    c.crash(leader);
    // The survivors elect a new leader and keep committing.
    for round in 0..10_000 {
        c.step_random(0);
        if round % 50 == 0 {
            c.propose_if_possible();
        }
    }
    let after = c
        .committed
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != leader)
        .map(|(_, v)| v.len())
        .max()
        .unwrap();
    assert!(
        after > before,
        "no progress after leader crash: {after} <= {before}"
    );
    // Restart the crashed node: it must catch up without violating safety.
    c.restart(leader, 0xbeef);
    for _ in 0..10_000 {
        c.step_random(0);
    }
    c.check_committed_prefixes();
}

#[test]
fn partition_heals_without_divergence() {
    let mut c = Cluster::new(5, 0x51);
    for round in 0..4_000 {
        c.step_random(0);
        if round % 50 == 0 {
            c.propose_if_possible();
        }
    }
    // Partition two nodes away (leader may be among them).
    c.partitioned[0] = true;
    c.partitioned[1] = true;
    for round in 0..8_000 {
        c.step_random(0);
        if round % 60 == 0 {
            c.propose_if_possible();
        }
    }
    // Heal.
    c.partitioned[0] = false;
    c.partitioned[1] = false;
    for _ in 0..10_000 {
        c.step_random(0);
    }
    c.check_committed_prefixes();
}

#[test]
fn no_commits_without_majority() {
    let mut c = Cluster::new(5, 0x99);
    for round in 0..4_000 {
        c.step_random(0);
        if round % 50 == 0 {
            c.propose_if_possible();
        }
    }
    let before: usize = c.committed.iter().map(Vec::len).max().unwrap();
    // Cut off three of five nodes: no majority anywhere with the minority side.
    c.partitioned[2] = true;
    c.partitioned[3] = true;
    c.partitioned[4] = true;
    // Note: nodes 1,2 (indices 0,1) remain; they cannot commit new entries.
    for round in 0..8_000 {
        c.step_random(0);
        if round % 60 == 0 {
            // Propose only to minority-side leaders: index 0/1.
            if let Some(l) = c.leader() {
                if l <= 1 {
                    c.propose_if_possible();
                }
            }
        }
    }
    let minority_commits: usize = (0..2).map(|i| c.committed[i].len()).max().unwrap();
    assert!(
        minority_commits <= before,
        "minority committed new entries: {minority_commits} > {before}"
    );
    c.check_committed_prefixes();
}
