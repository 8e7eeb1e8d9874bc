//! The Raft node state machine.

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use crate::types::{
    Effect, Entry, Index, Message, PersistentState, RaftId, Role, Snapshot, Term,
    ELECTION_TIMEOUT_TICKS, HEARTBEAT_TICKS, MAX_ENTRIES_PER_APPEND,
};

/// Error returned when proposing to a node that is not the leader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotLeader {
    /// The leader this node believes exists, if known.
    pub leader_hint: Option<RaftId>,
}

impl fmt::Display for NotLeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.leader_hint {
            Some(l) => write!(f, "not the leader; try node {l}"),
            None => f.write_str("not the leader; no known leader"),
        }
    }
}

impl Error for NotLeader {}

/// A single Raft participant. See the crate docs for the driving contract.
#[derive(Debug, Clone)]
pub struct RaftNode {
    id: RaftId,
    peers: Vec<RaftId>,

    // Persistent state.
    current_term: Term,
    voted_for: Option<RaftId>,
    /// The compacted prefix: `log` holds entries `snapshot.index + 1`
    /// onwards.
    snapshot: Snapshot,
    log: Vec<Entry>,

    // Volatile state.
    role: Role,
    commit_index: Index,
    last_applied: Index,
    leader_hint: Option<RaftId>,
    election_elapsed: u32,
    heartbeat_elapsed: u32,
    randomized_timeout: u32,
    votes_granted: HashSet<RaftId>,

    // Leader state.
    next_index: HashMap<RaftId, Index>,
    match_index: HashMap<RaftId, Index>,

    // Deterministic timeout randomization.
    rng_state: u64,
}

impl RaftNode {
    /// Creates a fresh node. `peers` must contain `id` itself.
    ///
    /// # Panics
    /// Panics if `peers` is empty or does not contain `id`.
    pub fn new(id: RaftId, peers: Vec<RaftId>, seed: u64) -> Self {
        Self::restore(id, peers, seed, PersistentState::default())
    }

    /// Recreates a node from persisted state (crash recovery). Volatile state
    /// (role, commit index) resets, exactly as Raft prescribes, to the
    /// snapshot: what it compacted was committed and applied.
    ///
    /// # Panics
    /// Panics if `peers` is empty or does not contain `id`.
    pub fn restore(id: RaftId, peers: Vec<RaftId>, seed: u64, persistent: PersistentState) -> Self {
        assert!(!peers.is_empty(), "cluster must have at least one node");
        assert!(peers.contains(&id), "peers must include this node");
        let mut node = RaftNode {
            id,
            peers,
            current_term: persistent.current_term,
            voted_for: persistent.voted_for,
            snapshot: persistent.snapshot,
            log: persistent.log,
            role: Role::Follower,
            commit_index: persistent.snapshot.index,
            last_applied: persistent.snapshot.index,
            leader_hint: None,
            election_elapsed: 0,
            heartbeat_elapsed: 0,
            randomized_timeout: 0,
            votes_granted: HashSet::new(),
            next_index: HashMap::new(),
            match_index: HashMap::new(),
            rng_state: seed ^ (id.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1,
        };
        node.randomized_timeout = node.next_timeout();
        node
    }

    fn next_timeout(&mut self) -> u32 {
        // xorshift64* for deterministic jitter.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        let jitter = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as u32 % ELECTION_TIMEOUT_TICKS;
        ELECTION_TIMEOUT_TICKS + jitter
    }

    // ---- accessors -------------------------------------------------------

    /// This node's id.
    pub fn id(&self) -> RaftId {
        self.id
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Current term.
    pub fn term(&self) -> Term {
        self.current_term
    }

    /// The leader this node believes exists, if any.
    pub fn leader_hint(&self) -> Option<RaftId> {
        self.leader_hint
    }

    /// Highest committed log index.
    pub fn commit_index(&self) -> Index {
        self.commit_index
    }

    /// Highest log index handed to the host in an [`Effect::Commit`].
    pub fn last_applied(&self) -> Index {
        self.last_applied
    }

    /// Index of the last log entry (0 when empty).
    pub fn last_log_index(&self) -> Index {
        self.snapshot.index + self.log.len() as Index
    }

    /// The marker of the compacted prefix.
    pub fn snapshot(&self) -> Snapshot {
        self.snapshot
    }

    /// The persistent state to write to stable storage.
    pub fn persistent_state(&self) -> PersistentState {
        PersistentState {
            current_term: self.current_term,
            voted_for: self.voted_for,
            snapshot: self.snapshot,
            log: self.log.clone(),
        }
    }

    /// Drops the entries up to `index` and keeps a [`Snapshot`] marker of
    /// the last one. It goes only as far as this node can spare: no entry
    /// it has not applied, and on a leader none it may still send a
    /// follower (from that follower's next index on). There is no
    /// `InstallSnapshot`, so the host must not compact past what a follower
    /// that can still answer has applied.
    pub fn compact_through(&mut self, index: Index) {
        let mut through = index.min(self.last_applied);
        if self.role == Role::Leader {
            for peer in self.peers.iter().filter(|&&p| p != self.id) {
                let next = self.next_index.get(peer).copied().unwrap_or(1);
                through = through.min(next.saturating_sub(1));
            }
        }
        if through <= self.snapshot.index {
            return;
        }
        let Some(term) = self.term_at(through) else {
            return;
        };
        self.log.drain(..(through - self.snapshot.index) as usize);
        self.snapshot = Snapshot {
            index: through,
            term,
        };
    }

    fn last_log_term(&self) -> Term {
        self.log.last().map_or(self.snapshot.term, |e| e.term)
    }

    /// The term of the entry at `index`: the marker's at the snapshot
    /// index, `None` below it (compacted) and past the log end.
    fn term_at(&self, index: Index) -> Option<Term> {
        if index == self.snapshot.index {
            return Some(self.snapshot.term);
        }
        let at = index.checked_sub(self.snapshot.index + 1)?;
        self.log.get(at as usize).map(|e| e.term)
    }

    /// Whether this log holds an entry of `term` at `index`. A compacted
    /// entry was committed, so it matches any leader's.
    fn matches(&self, index: Index, term: Term) -> bool {
        index < self.snapshot.index || self.term_at(index) == Some(term)
    }

    /// Position in `log` of the entry at `index` (past the snapshot).
    fn position(&self, index: Index) -> usize {
        (index - self.snapshot.index - 1) as usize
    }

    fn majority(&self) -> usize {
        self.peers.len() / 2 + 1
    }

    // ---- host entry points ------------------------------------------------

    /// Advances logical time by one tick.
    pub fn tick(&mut self) -> Vec<Effect> {
        let mut effects = Vec::new();
        match self.role {
            Role::Leader => {
                self.heartbeat_elapsed += 1;
                if self.heartbeat_elapsed >= HEARTBEAT_TICKS {
                    self.heartbeat_elapsed = 0;
                    self.broadcast_append(&mut effects);
                }
            }
            Role::Follower | Role::Candidate => {
                self.election_elapsed += 1;
                if self.election_elapsed >= self.randomized_timeout {
                    self.start_election(&mut effects);
                }
            }
        }
        effects
    }

    /// Proposes a payload for replication. Returns the assigned log index and
    /// the replication effects. The payload is stored once: the log, every
    /// `AppendEntries` and every [`Effect::Commit`] share it.
    ///
    /// # Errors
    /// [`NotLeader`] when this node is not the current leader.
    pub fn propose(
        &mut self,
        data: impl Into<Arc<[u8]>>,
    ) -> Result<(Index, Vec<Effect>), NotLeader> {
        if self.role != Role::Leader {
            return Err(NotLeader {
                leader_hint: self.leader_hint,
            });
        }
        let index = self.last_log_index() + 1;
        self.log.push(Entry {
            term: self.current_term,
            index,
            data: data.into(),
        });
        let mut effects = Vec::new();
        self.maybe_advance_commit(&mut effects); // single-node clusters commit here
        self.broadcast_append(&mut effects);
        Ok((index, effects))
    }

    /// Processes an incoming RPC from `from`.
    pub fn step(&mut self, from: RaftId, message: Message) -> Vec<Effect> {
        let mut effects = Vec::new();
        // Any message with a newer term converts us to follower first.
        let msg_term = match &message {
            Message::RequestVote { term, .. }
            | Message::RequestVoteResponse { term, .. }
            | Message::AppendEntries { term, .. }
            | Message::AppendEntriesResponse { term, .. } => *term,
        };
        if msg_term > self.current_term {
            self.become_follower(msg_term, None, &mut effects);
        }

        match message {
            Message::RequestVote {
                term,
                last_log_index,
                last_log_term,
            } => self.on_request_vote(from, term, last_log_index, last_log_term, &mut effects),
            Message::RequestVoteResponse { term, granted } => {
                self.on_vote_response(from, term, granted, &mut effects)
            }
            Message::AppendEntries {
                term,
                prev_log_index,
                prev_log_term,
                entries,
                leader_commit,
            } => self.on_append_entries(
                from,
                term,
                prev_log_index,
                prev_log_term,
                entries,
                leader_commit,
                &mut effects,
            ),
            Message::AppendEntriesResponse {
                term,
                success,
                match_index,
            } => self.on_append_response(from, term, success, match_index, &mut effects),
        }
        effects
    }

    // ---- role transitions --------------------------------------------------

    fn become_follower(&mut self, term: Term, leader: Option<RaftId>, effects: &mut Vec<Effect>) {
        let was_leader = self.role == Role::Leader;
        if term > self.current_term {
            self.current_term = term;
            self.voted_for = None;
        }
        self.role = Role::Follower;
        self.leader_hint = leader;
        self.election_elapsed = 0;
        self.randomized_timeout = self.next_timeout();
        self.votes_granted.clear();
        if was_leader {
            effects.push(Effect::SteppedDown(self.current_term));
        }
    }

    fn start_election(&mut self, effects: &mut Vec<Effect>) {
        self.current_term += 1;
        self.role = Role::Candidate;
        self.voted_for = Some(self.id);
        self.leader_hint = None;
        self.votes_granted.clear();
        self.votes_granted.insert(self.id);
        self.election_elapsed = 0;
        self.randomized_timeout = self.next_timeout();

        if self.votes_granted.len() >= self.majority() {
            self.become_leader(effects);
            return;
        }
        let (lli, llt) = (self.last_log_index(), self.last_log_term());
        for &p in &self.peers {
            if p != self.id {
                effects.push(Effect::Send {
                    to: p,
                    message: Message::RequestVote {
                        term: self.current_term,
                        last_log_index: lli,
                        last_log_term: llt,
                    },
                });
            }
        }
    }

    fn become_leader(&mut self, effects: &mut Vec<Effect>) {
        self.role = Role::Leader;
        self.leader_hint = Some(self.id);
        self.heartbeat_elapsed = 0;
        let next = self.last_log_index() + 1;
        self.next_index = self.peers.iter().map(|&p| (p, next)).collect();
        self.match_index = self.peers.iter().map(|&p| (p, 0)).collect();
        self.match_index.insert(self.id, self.last_log_index());
        effects.push(Effect::BecameLeader(self.current_term));
        // Append a no-op so entries from prior terms can commit (Raft §5.4.2).
        let index = self.last_log_index() + 1;
        self.log.push(Entry {
            term: self.current_term,
            index,
            data: Arc::from([]),
        });
        self.match_index.insert(self.id, index);
        self.maybe_advance_commit(effects);
        self.broadcast_append(effects);
    }

    // ---- RPC handlers -------------------------------------------------------

    fn on_request_vote(
        &mut self,
        from: RaftId,
        term: Term,
        last_log_index: Index,
        last_log_term: Term,
        effects: &mut Vec<Effect>,
    ) {
        let up_to_date =
            (last_log_term, last_log_index) >= (self.last_log_term(), self.last_log_index());
        let grant = term == self.current_term
            && up_to_date
            && (self.voted_for.is_none() || self.voted_for == Some(from));
        if grant {
            self.voted_for = Some(from);
            self.election_elapsed = 0;
        }
        effects.push(Effect::Send {
            to: from,
            message: Message::RequestVoteResponse {
                term: self.current_term,
                granted: grant,
            },
        });
    }

    fn on_vote_response(
        &mut self,
        from: RaftId,
        term: Term,
        granted: bool,
        effects: &mut Vec<Effect>,
    ) {
        if self.role != Role::Candidate || term != self.current_term {
            return;
        }
        if granted {
            self.votes_granted.insert(from);
            if self.votes_granted.len() >= self.majority() {
                self.become_leader(effects);
            }
        }
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "one parameter per AppendEntries field, as in the Raft paper"
    )]
    fn on_append_entries(
        &mut self,
        from: RaftId,
        term: Term,
        prev_log_index: Index,
        prev_log_term: Term,
        entries: Vec<Entry>,
        leader_commit: Index,
        effects: &mut Vec<Effect>,
    ) {
        if term < self.current_term {
            effects.push(Effect::Send {
                to: from,
                message: Message::AppendEntriesResponse {
                    term: self.current_term,
                    success: false,
                    match_index: 0,
                },
            });
            return;
        }
        // Valid leader for our term: reset election timer, adopt leader.
        if self.role != Role::Follower {
            self.become_follower(term, Some(from), effects);
        }
        self.leader_hint = Some(from);
        self.election_elapsed = 0;

        // Log consistency check.
        if !self.matches(prev_log_index, prev_log_term) {
            effects.push(Effect::Send {
                to: from,
                message: Message::AppendEntriesResponse {
                    term: self.current_term,
                    success: false,
                    match_index: 0,
                },
            });
            return;
        }
        // Append, truncating conflicts.
        for e in entries {
            if e.index <= self.snapshot.index {
                continue; // compacted: committed, so already have it
            }
            match self.term_at(e.index) {
                Some(t) if t == e.term => {} // already have it
                Some(_) => {
                    // Conflict: truncate from here and append.
                    self.log.truncate(self.position(e.index));
                    self.log.push(e);
                }
                None => {
                    debug_assert_eq!(e.index, self.last_log_index() + 1, "log gap");
                    self.log.push(e);
                }
            }
        }
        let match_index = self.last_log_index();
        if leader_commit > self.commit_index {
            let new_commit = leader_commit.min(match_index);
            if new_commit > self.commit_index {
                self.commit_index = new_commit;
                self.emit_applied(effects);
            }
        }
        effects.push(Effect::Send {
            to: from,
            message: Message::AppendEntriesResponse {
                term: self.current_term,
                success: true,
                match_index,
            },
        });
    }

    fn on_append_response(
        &mut self,
        from: RaftId,
        term: Term,
        success: bool,
        match_index: Index,
        effects: &mut Vec<Effect>,
    ) {
        if self.role != Role::Leader || term != self.current_term {
            return;
        }
        if success {
            self.match_index.insert(from, match_index);
            self.next_index.insert(from, match_index + 1);
            self.maybe_advance_commit(effects);
            // Keep streaming if the follower is still behind.
            if self.next_index[&from] <= self.last_log_index() {
                self.send_append_to(from, effects);
            }
        } else {
            // Back off and retry.
            let ni = self.next_index.entry(from).or_insert(1);
            *ni = ni.saturating_sub(1).max(1);
            self.send_append_to(from, effects);
        }
    }

    // ---- replication helpers -------------------------------------------------

    fn broadcast_append(&mut self, effects: &mut Vec<Effect>) {
        let peers: Vec<RaftId> = self
            .peers
            .iter()
            .copied()
            .filter(|&p| p != self.id)
            .collect();
        for p in peers {
            self.send_append_to(p, effects);
        }
    }

    fn send_append_to(&mut self, to: RaftId, effects: &mut Vec<Effect>) {
        let next = *self.next_index.get(&to).unwrap_or(&1);
        let prev_log_index = next - 1;
        let prev_log_term = self.term_at(prev_log_index).unwrap_or(0);
        let from_idx = prev_log_index.saturating_sub(self.snapshot.index) as usize;
        let entries: Vec<Entry> = self
            .log
            .get(from_idx..)
            .unwrap_or(&[])
            .iter()
            .take(MAX_ENTRIES_PER_APPEND)
            .cloned()
            .collect();
        effects.push(Effect::Send {
            to,
            message: Message::AppendEntries {
                term: self.current_term,
                prev_log_index,
                prev_log_term,
                entries,
                leader_commit: self.commit_index,
            },
        });
    }

    fn maybe_advance_commit(&mut self, effects: &mut Vec<Effect>) {
        if self.role != Role::Leader {
            return;
        }
        self.match_index.insert(self.id, self.last_log_index());
        let mut candidates: Vec<Index> = self.peers.iter().map(|p| self.match_index[p]).collect();
        candidates.sort_unstable();
        // The majority-replicated index is the (n - majority)-th order statistic.
        let n = candidates[candidates.len() - self.majority()];
        if n > self.commit_index && self.term_at(n) == Some(self.current_term) {
            self.commit_index = n;
            self.emit_applied(effects);
        }
    }

    /// Reports the newly committed entries; cloning an entry clones the
    /// `Arc` of its payload, not the bytes.
    fn emit_applied(&mut self, effects: &mut Vec<Effect>) {
        if self.commit_index > self.last_applied {
            let from = self.position(self.last_applied + 1);
            let newly: Vec<Entry> = self.log[from..self.position(self.commit_index + 1)].to_vec();
            self.last_applied = self.commit_index;
            effects.push(Effect::Commit(newly));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive_to_leader(node: &mut RaftNode) -> Vec<Effect> {
        let mut effects = Vec::new();
        for _ in 0..100 {
            effects.extend(node.tick());
            if node.role() == Role::Leader {
                return effects;
            }
        }
        panic!("node never became leader");
    }

    #[test]
    fn single_node_elects_itself_and_commits() {
        let mut n = RaftNode::new(1, vec![1], 7);
        let effects = drive_to_leader(&mut n);
        assert!(effects.iter().any(|e| matches!(e, Effect::BecameLeader(_))));
        // The no-op commits immediately on a single node.
        assert_eq!(n.commit_index(), 1);
        let (idx, effects) = n.propose(b"tx1".to_vec()).unwrap();
        assert_eq!(idx, 2);
        let committed: Vec<Entry> = effects
            .into_iter()
            .filter_map(|e| match e {
                Effect::Commit(es) => Some(es),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(committed.len(), 1);
        assert_eq!(&committed[0].data[..], b"tx1");
    }

    #[test]
    fn follower_rejects_proposals() {
        let mut n = RaftNode::new(1, vec![1, 2, 3], 7);
        let err = n.propose(b"x".to_vec()).unwrap_err();
        assert_eq!(err.leader_hint, None);
        assert!(err.to_string().contains("not the leader"));
    }

    #[test]
    fn candidate_requests_votes_from_all_peers() {
        let mut n = RaftNode::new(1, vec![1, 2, 3], 7);
        let mut effects = Vec::new();
        for _ in 0..50 {
            effects.extend(n.tick());
            if n.role() == Role::Candidate {
                break;
            }
        }
        assert_eq!(n.role(), Role::Candidate);
        let targets: Vec<RaftId> = effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send {
                    to,
                    message: Message::RequestVote { .. },
                } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(targets.len(), 2);
        assert!(targets.contains(&2) && targets.contains(&3));
    }

    #[test]
    fn grants_one_vote_per_term() {
        let mut n = RaftNode::new(1, vec![1, 2, 3], 7);
        let vote = |n: &mut RaftNode, from| {
            n.step(
                from,
                Message::RequestVote {
                    term: 1,
                    last_log_index: 0,
                    last_log_term: 0,
                },
            )
        };
        let e2 = vote(&mut n, 2);
        let granted2 = matches!(
            e2[0],
            Effect::Send {
                message: Message::RequestVoteResponse { granted: true, .. },
                ..
            }
        );
        assert!(granted2);
        let e3 = vote(&mut n, 3);
        let granted3 = matches!(
            e3[0],
            Effect::Send {
                message: Message::RequestVoteResponse { granted: true, .. },
                ..
            }
        );
        assert!(!granted3, "second vote in the same term must be denied");
    }

    #[test]
    fn vote_denied_to_stale_log() {
        let mut n = RaftNode::new(1, vec![1, 2, 3], 7);
        // Give node 1 a log entry at term 1.
        n.step(
            9,
            Message::AppendEntries {
                term: 1,
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![Entry {
                    term: 1,
                    index: 1,
                    data: Arc::from(&b"x"[..]),
                }],
                leader_commit: 0,
            },
        );
        // Peers must include 9 for this test's purposes: it doesn't — but
        // AppendEntries from an unknown node still replicates; Raft
        // membership is fixed by config, and the orderer always uses full
        // membership, so this is acceptable for the state machine.
        let effects = n.step(
            2,
            Message::RequestVote {
                term: 2,
                last_log_index: 0,
                last_log_term: 0,
            },
        );
        let granted = effects.iter().any(|e| {
            matches!(
                e,
                Effect::Send {
                    message: Message::RequestVoteResponse { granted: true, .. },
                    ..
                }
            )
        });
        assert!(!granted, "stale candidate log must be refused");
    }

    #[test]
    fn three_node_replication_commits_on_majority() {
        let mut leader = RaftNode::new(1, vec![1, 2, 3], 1);
        // Manually elect node 1.
        let mut effects = Vec::new();
        while leader.role() != Role::Candidate {
            effects.extend(leader.tick());
        }
        let term = leader.term();
        effects.extend(leader.step(
            2,
            Message::RequestVoteResponse {
                term,
                granted: true,
            },
        ));
        assert_eq!(leader.role(), Role::Leader);

        let (idx, effects) = leader.propose(b"tx".to_vec()).unwrap();
        // Simulate follower 2 acking everything.
        let mut commit_seen = false;
        for e in effects {
            if let Effect::Send {
                to: 2,
                message: Message::AppendEntries { entries, .. },
            } = &e
            {
                let match_index = entries.last().map_or(0, |e| e.index);
                let resp = leader.step(
                    2,
                    Message::AppendEntriesResponse {
                        term,
                        success: true,
                        match_index,
                    },
                );
                commit_seen |= resp.iter().any(
                    |e| matches!(e, Effect::Commit(es) if es.iter().any(|en| en.index == idx)),
                );
            }
        }
        assert!(commit_seen, "entry should commit once follower 2 acks");
        assert!(leader.commit_index() >= idx);
    }

    /// One copy of each entry: the leader's `Effect::Commit`, the entries
    /// it sends and the follower's log all hold the proposed allocation.
    #[test]
    fn replicated_and_committed_entries_share_the_proposed_bytes() {
        let mut leader = RaftNode::new(1, vec![1, 2, 3], 1);
        let mut follower = RaftNode::new(2, vec![1, 2, 3], 2);
        while leader.role() != Role::Candidate {
            leader.tick();
        }
        let term = leader.term();
        let elected = leader.step(
            2,
            Message::RequestVoteResponse {
                term,
                granted: true,
            },
        );
        assert_eq!(leader.role(), Role::Leader);
        // Bring the follower up to the leader's no-op first.
        for e in elected {
            if let Effect::Send {
                to: 2,
                message: m @ Message::AppendEntries { .. },
            } = e
            {
                follower.step(1, m);
            }
        }

        let proposed: Arc<[u8]> = Arc::from(&b"block bytes"[..]);
        let (idx, effects) = leader.propose(Arc::clone(&proposed)).unwrap();
        let append = effects
            .into_iter()
            .find_map(|e| match e {
                Effect::Send {
                    to: 2,
                    message: m @ Message::AppendEntries { .. },
                } => Some(m),
                _ => None,
            })
            .expect("the leader replicates to node 2");
        let Message::AppendEntries { entries, .. } = &append else {
            panic!("found an AppendEntries above");
        };
        let sent = entries.iter().find(|e| e.index == idx).unwrap();
        assert!(Arc::ptr_eq(&sent.data, &proposed));

        let acks = follower.step(1, append);
        let stored = &follower.persistent_state().log[idx as usize - 1];
        assert!(Arc::ptr_eq(&stored.data, &proposed));
        let match_index = acks
            .iter()
            .find_map(|e| match e {
                Effect::Send {
                    message: Message::AppendEntriesResponse { match_index, .. },
                    ..
                } => Some(*match_index),
                _ => None,
            })
            .unwrap();
        assert_eq!(match_index, idx);
        let commit = leader.step(
            2,
            Message::AppendEntriesResponse {
                term,
                success: true,
                match_index,
            },
        );
        let committed = commit
            .iter()
            .find_map(|e| match e {
                Effect::Commit(es) => es.iter().find(|en| en.index == idx),
                _ => None,
            })
            .expect("a majority commits the entry");
        assert!(Arc::ptr_eq(&committed.data, &proposed));
    }

    #[test]
    fn leader_steps_down_on_higher_term() {
        let mut n = RaftNode::new(1, vec![1], 7);
        drive_to_leader(&mut n);
        let effects = n.step(
            2,
            Message::AppendEntries {
                term: 99,
                prev_log_index: 0,
                prev_log_term: 0,
                entries: Vec::new(),
                leader_commit: 0,
            },
        );
        assert!(effects.iter().any(|e| matches!(e, Effect::SteppedDown(_))));
        assert_eq!(n.role(), Role::Follower);
        assert_eq!(n.term(), 99);
    }

    #[test]
    fn follower_truncates_conflicting_suffix() {
        let mut n = RaftNode::new(1, vec![1, 2], 7);
        // Old leader at term 1 replicates two entries.
        n.step(
            2,
            Message::AppendEntries {
                term: 1,
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![
                    Entry {
                        term: 1,
                        index: 1,
                        data: Arc::from(&b"a"[..]),
                    },
                    Entry {
                        term: 1,
                        index: 2,
                        data: Arc::from(&b"b"[..]),
                    },
                ],
                leader_commit: 0,
            },
        );
        assert_eq!(n.last_log_index(), 2);
        // New leader at term 2 overwrites index 2.
        n.step(
            2,
            Message::AppendEntries {
                term: 2,
                prev_log_index: 1,
                prev_log_term: 1,
                entries: vec![Entry {
                    term: 2,
                    index: 2,
                    data: Arc::from(&b"c"[..]),
                }],
                leader_commit: 0,
            },
        );
        assert_eq!(n.last_log_index(), 2);
        assert_eq!(&n.persistent_state().log[1].data[..], b"c");
        assert_eq!(n.persistent_state().log[1].term, 2);
    }

    #[test]
    fn restart_preserves_log_and_term() {
        let mut n = RaftNode::new(1, vec![1], 7);
        drive_to_leader(&mut n);
        n.propose(b"tx".to_vec()).unwrap();
        let saved = n.persistent_state();
        let restored = RaftNode::restore(1, vec![1], 8, saved.clone());
        assert_eq!(restored.term(), saved.current_term);
        assert_eq!(restored.last_log_index(), 2); // noop + tx
        assert_eq!(restored.role(), Role::Follower);
        assert_eq!(restored.commit_index(), 0, "commit index is volatile");
    }

    #[test]
    fn stale_append_is_rejected() {
        let mut n = RaftNode::new(1, vec![1, 2], 7);
        n.step(
            2,
            Message::AppendEntries {
                term: 5,
                prev_log_index: 0,
                prev_log_term: 0,
                entries: Vec::new(),
                leader_commit: 0,
            },
        );
        let effects = n.step(
            2,
            Message::AppendEntries {
                term: 3, // stale
                prev_log_index: 0,
                prev_log_term: 0,
                entries: Vec::new(),
                leader_commit: 0,
            },
        );
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Send {
                message: Message::AppendEntriesResponse { success: false, .. },
                ..
            }
        )));
    }

    /// Nodes `1..=n` of one cluster, node 1 elected leader, with every
    /// message delivered until the cluster is quiet.
    fn elected_cluster(n: u64) -> Vec<RaftNode> {
        let ids: Vec<RaftId> = (1..=n).collect();
        let mut nodes: Vec<RaftNode> = ids
            .iter()
            .map(|&id| RaftNode::new(id, ids.clone(), id))
            .collect();
        elect(&mut nodes, 1, &[]);
        nodes
    }

    /// Ticks node `id` until it campaigns, then delivers until it leads.
    fn elect(nodes: &mut [RaftNode], id: RaftId, down: &[RaftId]) {
        let node = &mut nodes[id as usize - 1];
        let mut effects = Vec::new();
        while node.role() != Role::Candidate {
            effects = node.tick();
        }
        deliver(nodes, id, effects, down);
        assert_eq!(nodes[id as usize - 1].role(), Role::Leader);
    }

    /// Delivers `effects` emitted by node `from`, and everything they cause,
    /// in order until no message is left; nodes in `down` hear nothing.
    fn deliver(nodes: &mut [RaftNode], from: RaftId, effects: Vec<Effect>, down: &[RaftId]) {
        let mut queue = std::collections::VecDeque::new();
        let sends = |from: RaftId, effects: Vec<Effect>| {
            effects.into_iter().filter_map(move |e| match e {
                Effect::Send { to, message } => Some((from, to, message)),
                _ => None,
            })
        };
        queue.extend(sends(from, effects));
        while let Some((from, to, message)) = queue.pop_front() {
            if !down.contains(&to) {
                let effects = nodes[to as usize - 1].step(from, message);
                queue.extend(sends(to, effects));
            }
        }
    }

    /// Proposes `n` one-byte payloads at node `leader` and delivers, then
    /// delivers a heartbeat, so that followers learn the commit index.
    fn propose_all(nodes: &mut [RaftNode], leader: RaftId, n: u8, down: &[RaftId]) {
        let at = leader as usize - 1;
        for i in 0..n {
            let (_, effects) = nodes[at].propose(vec![i]).unwrap();
            deliver(nodes, leader, effects, down);
        }
        let mut heartbeat = Vec::new();
        while heartbeat.is_empty() {
            heartbeat = nodes[at].tick();
        }
        deliver(nodes, leader, heartbeat, down);
    }

    #[test]
    fn compaction_keeps_a_marker_and_stops_at_what_is_applied() {
        let mut nodes = elected_cluster(3);
        propose_all(&mut nodes, 1, 4, &[]); // the no-op and 4 payloads
        let leader = &mut nodes[0];
        assert_eq!((leader.last_applied(), leader.last_log_index()), (5, 5));
        let term = leader.term();
        leader.compact_through(3);
        assert_eq!(leader.snapshot(), Snapshot { index: 3, term });
        assert_eq!(leader.last_log_index(), 5);
        assert_eq!(leader.persistent_state().log.len(), 2);
        // Never past what is applied; never backwards.
        leader.compact_through(99);
        assert_eq!(leader.snapshot().index, 5);
        leader.compact_through(1);
        assert_eq!(leader.snapshot().index, 5);
        // A restart resumes from the snapshot.
        let saved = leader.persistent_state();
        let restored = RaftNode::restore(1, vec![1, 2, 3], 9, saved);
        assert_eq!((restored.commit_index(), restored.last_log_index()), (5, 5));
    }

    #[test]
    fn a_leader_keeps_what_a_follower_has_yet_to_receive() {
        let mut nodes = elected_cluster(3);
        propose_all(&mut nodes, 1, 2, &[]);
        // Node 3 hears nothing of the next three proposals.
        propose_all(&mut nodes, 1, 3, &[3]);
        let leader = &mut nodes[0];
        assert_eq!(leader.last_applied(), 6);
        leader.compact_through(6);
        assert_eq!(leader.snapshot().index, 3, "node 3's next index is 4");
    }

    #[test]
    fn an_append_at_the_snapshot_index_is_checked_against_the_marker_term() {
        let mut nodes = elected_cluster(2);
        propose_all(&mut nodes, 1, 3, &[]);
        let follower = &mut nodes[1];
        follower.compact_through(4);
        let marker = follower.snapshot();
        assert_eq!(marker.index, 4);
        let append = |prev_log_index, prev_log_term, index| Message::AppendEntries {
            term: marker.term,
            prev_log_index,
            prev_log_term,
            entries: vec![Entry {
                term: marker.term,
                index,
                data: Arc::from(&b"x"[..]),
            }],
            leader_commit: 4,
        };
        let success = |effects: &[Effect]| match effects {
            [Effect::Send {
                message: Message::AppendEntriesResponse { success, .. },
                ..
            }] => *success,
            other => panic!("unexpected effects {other:?}"),
        };
        let wrong_term = append(marker.index, marker.term + 1, marker.index + 1);
        assert!(!success(&follower.step(1, wrong_term)));
        assert_eq!(follower.last_log_index(), 4);
        let right_term = append(marker.index, marker.term, marker.index + 1);
        assert!(success(&follower.step(1, right_term)));
        assert_eq!(follower.last_log_index(), 5);
        // A replayed append from below the snapshot matches the committed
        // prefix and changes nothing.
        assert!(success(&follower.step(1, append(1, marker.term, 2))));
        assert_eq!(follower.last_log_index(), 5);
    }

    #[test]
    fn a_leader_elected_after_compaction_replicates_and_commits() {
        let mut nodes = elected_cluster(3);
        propose_all(&mut nodes, 1, 4, &[]);
        for node in nodes.iter_mut() {
            node.compact_through(5);
            assert_eq!(node.snapshot().index, 5);
        }
        // Node 1 is gone; node 2 campaigns and wins with node 3's vote.
        elect(&mut nodes, 2, &[1]);
        propose_all(&mut nodes, 2, 1, &[1]);
        assert_eq!(nodes[1].last_log_index(), 7, "the no-op and a payload");
        for node in &nodes[1..] {
            assert_eq!(node.commit_index(), 7, "node {}", node.id());
            assert_eq!(node.last_applied(), 7, "node {}", node.id());
        }
    }

    #[test]
    fn gap_append_is_rejected() {
        let mut n = RaftNode::new(1, vec![1, 2], 7);
        let effects = n.step(
            2,
            Message::AppendEntries {
                term: 1,
                prev_log_index: 5, // we have nothing
                prev_log_term: 1,
                entries: Vec::new(),
                leader_commit: 0,
            },
        );
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::Send {
                message: Message::AppendEntriesResponse { success: false, .. },
                ..
            }
        )));
    }
}
