//! Read/write sets and MVCC versions.
//!
//! Chaincode execution during endorsement does not mutate state; it records a
//! *read set* (keys read, with the versions observed) and a *write set* (keys
//! to be written with their new values). The committer later re-checks every
//! read version against current state — Fabric's multi-version concurrency
//! control (MVCC) — and invalidates transactions whose reads went stale.
//!
//! Keys and values are shared immutable bytes (`Arc<str>`, `Arc<[u8]>`),
//! allocated once where they are produced: by [`RwSet::record_read`] and
//! [`RwSet::record_write`] during simulation, or by the codec's decoder.
//! Every later holder — the transaction inside a shared block, MVCC, each
//! peer's world state — takes a reference count, not a copy.

use std::sync::Arc;

use crate::encode::Encoder;

/// The MVCC version of a committed value: the coordinates of the transaction
/// that last wrote it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Version {
    /// Block number of the writing transaction.
    pub block_num: u64,
    /// Index of the writing transaction within its block.
    pub tx_num: u32,
}

impl Version {
    /// Version of bootstrap (pre-chain) state seeded at channel setup.
    ///
    /// Uses a reserved sentinel block number so it can never collide with the
    /// version of a real committed transaction — in particular not with
    /// `(block 0, tx 0)`, whose collision would let a stale genesis read pass
    /// the MVCC check.
    pub const GENESIS: Version = Version {
        block_num: u64::MAX,
        tx_num: 0,
    };

    /// Creates a version.
    pub fn new(block_num: u64, tx_num: u32) -> Self {
        Version { block_num, tx_num }
    }
}

/// A single key read, with the version observed at simulation time
/// (`None` when the key did not exist).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KvRead {
    /// The state key: the committed key's own bytes when the key existed.
    pub key: Arc<str>,
    /// Observed version; `None` if the key was absent.
    pub version: Option<Version>,
}

/// A single key write (a delete is a write of `None`).
///
/// The key and value bytes are shared, never copied, by everything that
/// holds the write after it is made: the transaction, every peer's MVCC
/// check and every peer's world state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KvWrite {
    /// The state key.
    pub key: Arc<str>,
    /// New value; `None` deletes the key.
    pub value: Option<Arc<[u8]>>,
}

impl KvWrite {
    /// A write of `value` (`None` deletes) to `key`, allocating both.
    pub fn new(key: &str, value: Option<&[u8]>) -> Self {
        KvWrite {
            key: key.into(),
            value: value.map(Arc::from),
        }
    }

    /// True when this write deletes the key.
    pub fn is_delete(&self) -> bool {
        self.value.is_none()
    }
}

/// The read/write set produced by simulating one transaction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RwSet {
    /// Keys read with observed versions, in read order (deduplicated).
    pub reads: Vec<KvRead>,
    /// Keys written with new values, in write order (last write per key wins).
    pub writes: Vec<KvWrite>,
}

impl RwSet {
    /// An empty read/write set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a read; repeated reads of the same key keep the first
    /// observation (as Fabric's tx simulator does). The key is allocated
    /// here, once.
    pub fn record_read(&mut self, key: &str, version: Option<Version>) {
        if !self.has_read(key) {
            self.reads.push(KvRead {
                key: key.into(),
                version,
            });
        }
    }

    /// [`RwSet::record_read`] of a key whose bytes already exist (a key of
    /// committed state): the read shares them.
    pub fn record_read_shared(&mut self, key: &Arc<str>, version: Option<Version>) {
        if !self.has_read(key) {
            self.reads.push(KvRead {
                key: Arc::clone(key),
                version,
            });
        }
    }

    fn has_read(&self, key: &str) -> bool {
        self.reads.iter().any(|r| &*r.key == key)
    }

    /// Records a write; a later write to the same key replaces the earlier
    /// one. The value is allocated here, once; the key too, unless this set
    /// already holds it from a read or an earlier write.
    pub fn record_write(&mut self, key: &str, value: Option<&[u8]>) {
        let value = value.map(Arc::from);
        if let Some(w) = self.writes.iter_mut().find(|w| &*w.key == key) {
            w.value = value;
            return;
        }
        let key = match self.reads.iter().find(|r| &*r.key == key) {
            Some(read) => Arc::clone(&read.key),
            None => key.into(),
        };
        self.writes.push(KvWrite { key, value });
    }

    /// Looks up a pending write for `key` (read-your-writes support).
    pub fn pending_write(&self, key: &str) -> Option<&KvWrite> {
        self.writes.iter().find(|w| &*w.key == key)
    }

    /// Total bytes of written values (drives transaction wire size).
    pub fn write_bytes(&self) -> u64 {
        self.writes
            .iter()
            .map(|w| w.key.len() as u64 + w.value.as_ref().map_or(0, |v| v.len() as u64))
            .sum()
    }

    /// Canonical encoding (part of the signed proposal response).
    pub fn encode_into(&self, e: &mut Encoder) {
        e.list(&self.reads, |e, r| {
            e.str(&r.key);
            match r.version {
                Some(v) => {
                    e.u8(1).u64(v.block_num).u32(v.tx_num);
                }
                None => {
                    e.u8(0);
                }
            }
        });
        e.list(&self.writes, |e, w| {
            e.str(&w.key);
            match &w.value {
                Some(v) => {
                    e.u8(1).bytes(v);
                }
                None => {
                    e.u8(0);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_are_deduplicated_first_wins() {
        let mut rw = RwSet::new();
        rw.record_read("k", Some(Version::new(1, 0)));
        rw.record_read("k", Some(Version::new(2, 0)));
        assert_eq!(rw.reads.len(), 1);
        assert_eq!(rw.reads[0].version, Some(Version::new(1, 0)));
    }

    #[test]
    fn writes_last_wins() {
        let mut rw = RwSet::new();
        rw.record_write("k", Some(b"a"));
        rw.record_write("k", Some(b"b"));
        assert_eq!(rw.writes.len(), 1);
        assert_eq!(rw.writes[0].value.as_deref(), Some(&b"b"[..]));
        rw.record_write("k", None);
        assert!(rw.writes[0].is_delete());
    }

    #[test]
    fn pending_write_lookup() {
        let mut rw = RwSet::new();
        assert!(rw.pending_write("k").is_none());
        rw.record_write("k", Some(b"v"));
        assert_eq!(
            rw.pending_write("k").unwrap().value.as_deref(),
            Some(&b"v"[..])
        );
    }

    #[test]
    fn write_bytes_counts_keys_and_values() {
        let mut rw = RwSet::new();
        rw.record_write("key", Some(&[0u8; 10]));
        rw.record_write("k2", None);
        assert_eq!(rw.write_bytes(), 3 + 10 + 2);
    }

    #[test]
    fn a_write_after_a_read_shares_the_read_key() {
        let mut rw = RwSet::new();
        let committed: Arc<str> = "k".into();
        rw.record_read_shared(&committed, Some(Version::new(1, 0)));
        rw.record_write("k", Some(b"v"));
        rw.record_write("k", Some(b"w"));
        assert!(Arc::ptr_eq(&rw.reads[0].key, &committed));
        assert!(Arc::ptr_eq(&rw.writes[0].key, &committed));
    }

    #[test]
    fn encoding_distinguishes_read_version_presence() {
        let mut a = RwSet::new();
        a.record_read("k", None);
        let mut b = RwSet::new();
        b.record_read("k", Some(Version::GENESIS));
        let enc = |rw: &RwSet| {
            let mut e = Encoder::new("rw");
            rw.encode_into(&mut e);
            e.finish()
        };
        assert_ne!(enc(&a), enc(&b));
    }

    #[test]
    fn version_ordering() {
        assert!(Version::new(1, 5) < Version::new(2, 0));
        assert!(Version::new(2, 0) < Version::new(2, 1));
        assert_ne!(
            Version::GENESIS,
            Version::new(0, 0),
            "sentinel must not collide with block 0 / tx 0"
        );
    }
}
