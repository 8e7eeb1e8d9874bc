//! Raft wire types, configuration and host-visible effects.

use std::sync::Arc;

/// Node identifier within a Raft cluster.
pub type RaftId = u64;
/// A Raft term.
pub type Term = u64;
/// A 1-based log index (0 means "before the first entry").
pub type Index = u64;

/// One replicated log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Term in which the entry was appended by its leader.
    pub term: Term,
    /// Position in the log (1-based).
    pub index: Index,
    /// Opaque payload; empty for leader-change no-op entries. Shared: the
    /// leader's log, every `AppendEntries` that carries the entry, every
    /// follower's log and every [`Effect::Commit`] hold one allocation.
    pub data: Arc<[u8]>,
}

impl Entry {
    /// True for the no-op entry a new leader appends to commit its term.
    pub fn is_noop(&self) -> bool {
        self.data.is_empty()
    }
}

/// Raft RPCs, exchanged between nodes via the host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Candidate solicits a vote.
    RequestVote {
        /// Candidate's term.
        term: Term,
        /// Index of the candidate's last log entry.
        last_log_index: Index,
        /// Term of the candidate's last log entry.
        last_log_term: Term,
    },
    /// Reply to [`Message::RequestVote`].
    RequestVoteResponse {
        /// Responder's current term.
        term: Term,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Leader replicates entries (empty = heartbeat).
    AppendEntries {
        /// Leader's term.
        term: Term,
        /// Index of the entry preceding `entries`.
        prev_log_index: Index,
        /// Term of that preceding entry.
        prev_log_term: Term,
        /// Entries to append (may be empty).
        entries: Vec<Entry>,
        /// Leader's commit index.
        leader_commit: Index,
    },
    /// Reply to [`Message::AppendEntries`].
    AppendEntriesResponse {
        /// Responder's current term.
        term: Term,
        /// Whether the append matched.
        success: bool,
        /// Highest index known replicated on the responder (valid if success).
        match_index: Index,
    },
}

/// What the host must do after driving the node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    /// Send `message` to peer `to`.
    Send {
        /// Destination node.
        to: RaftId,
        /// The RPC to deliver.
        message: Message,
    },
    /// Entries newly committed, in log order. Each entry is reported once.
    Commit(Vec<Entry>),
    /// This node just became leader for `term`.
    BecameLeader(Term),
    /// This node ceased to be leader (stepped down or lost an election).
    SteppedDown(Term),
}

/// A node's role in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Passive replica, expecting heartbeats.
    Follower,
    /// Election in progress.
    Candidate,
    /// Cluster leader; accepts proposals.
    Leader,
}

/// Ticks without leader contact before a follower starts an election; each
/// election's timeout is drawn from `[ELECTION_TIMEOUT_TICKS,
/// 2 * ELECTION_TIMEOUT_TICKS)`. One tick is whatever wall or virtual
/// duration the host chooses (the fabricsim ordering service uses 10 ms).
pub(crate) const ELECTION_TIMEOUT_TICKS: u32 = 10;

/// Ticks between leader heartbeats.
pub(crate) const HEARTBEAT_TICKS: u32 = 3;

/// Most entries one AppendEntries message carries.
pub(crate) const MAX_ENTRIES_PER_APPEND: usize = 512;

/// The marker a compacted log keeps in place of its dropped prefix: the
/// index and term of the last entry it no longer holds. Every entry up to
/// it was committed and applied. The default marker stands before the
/// first entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Index of the last compacted entry (0: nothing is compacted).
    pub index: Index,
    /// Term of that entry.
    pub term: Term,
}

/// The durable state Raft must persist across crashes (term, vote, log).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PersistentState {
    /// Latest term this node has seen.
    pub current_term: Term,
    /// Candidate voted for in `current_term`, if any.
    pub voted_for: Option<RaftId>,
    /// What the log compacted away.
    pub snapshot: Snapshot,
    /// The replicated log after the snapshot: entries `snapshot.index + 1`
    /// onwards.
    pub log: Vec<Entry>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_detection() {
        let noop = Entry {
            term: 1,
            index: 1,
            data: Arc::from([]),
        };
        let real = Entry {
            term: 1,
            index: 2,
            data: Arc::from(&b"tx"[..]),
        };
        assert!(noop.is_noop());
        assert!(!real.is_noop());
    }

    #[test]
    fn default_config_is_sane() {
        const {
            assert!(ELECTION_TIMEOUT_TICKS > HEARTBEAT_TICKS);
            assert!(MAX_ENTRIES_PER_APPEND > 0);
        }
    }
}
