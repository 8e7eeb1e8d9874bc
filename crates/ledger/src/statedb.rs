//! The world state: a versioned key/value store.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use fabricsim_types::{KvWrite, Version};

/// A committed value with the version of its writing transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionedValue {
    /// The stored bytes: a committed write's own value, shared with the
    /// block that carried it and with every other peer that applied it.
    pub value: Arc<[u8]>,
    /// Coordinates of the writing transaction.
    pub version: Version,
}

/// The world state database. Keys are strings (as in Fabric's LevelDB default)
/// and iteration order is lexicographic, which makes range queries and the
/// simulation deterministic.
///
/// The database copies no committed key or value: a committed write's key
/// and value are reference counts on the bytes its rw-set allocated
/// ([`KvWrite`]), so every peer that commits the same block holds the same
/// bytes. Only bootstrap seeds ([`StateDb::seed`]) are allocated here. Each
/// peer still keeps its own map and versions.
#[derive(Debug, Clone, Default)]
pub struct StateDb {
    map: BTreeMap<Arc<str>, VersionedValue>,
    writes_applied: u64,
}

impl StateDb {
    /// Creates an empty state database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a key.
    pub fn get(&self, key: &str) -> Option<&VersionedValue> {
        self.map.get(key)
    }

    /// Looks up a key, with the stored key's shared bytes.
    pub fn get_key_value(&self, key: &str) -> Option<(&Arc<str>, &VersionedValue)> {
        self.map.get_key_value(key)
    }

    /// The committed version of a key, `None` if absent.
    pub fn version_of(&self, key: &str) -> Option<Version> {
        self.map.get(key).map(|v| v.version)
    }

    /// Applies one write (a `None` value deletes the key), sharing its key
    /// and value bytes. Called only by the ledger commit path for *valid*
    /// transactions.
    pub fn apply_write(&mut self, write: &KvWrite, version: Version) {
        self.writes_applied += 1;
        match &write.value {
            Some(value) => {
                let value = VersionedValue {
                    value: Arc::clone(value),
                    version,
                };
                // `BTreeMap::insert` keeps the stored key on an overwrite.
                self.map.insert(Arc::clone(&write.key), value);
            }
            None => {
                self.map.remove(&*write.key);
            }
        }
    }

    /// Seeds a key at the genesis version (bootstrap state before any blocks).
    pub fn seed(&mut self, key: &str, value: impl Into<Arc<[u8]>>) {
        self.map.insert(
            key.into(),
            VersionedValue {
                value: value.into(),
                version: Version::GENESIS,
            },
        );
    }

    /// Iterates keys in `[start, end)` in lexicographic order (Fabric's
    /// `GetStateByRange`). An empty `end` means "to the end of the keyspace";
    /// a non-empty `end` below `start` is an empty range, as in Fabric.
    pub fn range<'a>(
        &'a self,
        start: &str,
        end: &str,
    ) -> impl Iterator<Item = (&'a Arc<str>, &'a VersionedValue)> + 'a {
        let bounds: (Bound<&str>, Bound<&str>) = if end.is_empty() {
            (Bound::Included(start), Bound::Unbounded)
        } else {
            // `BTreeMap::range` panics on an inverted range; `start..start`
            // is the empty one.
            (Bound::Included(start), Bound::Excluded(end.max(start)))
        };
        self.map.range::<str, _>(bounds)
    }

    /// Every live key and its value, moved out in lexicographic order.
    pub fn into_entries(self) -> impl Iterator<Item = (Arc<str>, VersionedValue)> {
        self.map.into_iter()
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no keys are present.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total writes applied over the database's lifetime (deletes included).
    pub fn writes_applied(&self) -> u64 {
        self.writes_applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_delete() {
        let mut db = StateDb::new();
        assert!(db.get("k").is_none());
        db.apply_write(&KvWrite::new("k", Some(b"v")), Version::new(1, 0));
        assert_eq!(&*db.get("k").unwrap().value, b"v");
        assert_eq!(db.version_of("k"), Some(Version::new(1, 0)));
        db.apply_write(&KvWrite::new("k", None), Version::new(2, 0));
        assert!(db.get("k").is_none());
        assert_eq!(db.writes_applied(), 2);
    }

    #[test]
    fn entries_move_out_in_range_order() {
        let mut db = StateDb::new();
        for k in ["b", "a", "c"] {
            db.apply_write(&KvWrite::new(k, Some(k.as_bytes())), Version::new(1, 0));
        }
        let ranged: Vec<(Arc<str>, VersionedValue)> = db
            .range("", "")
            .map(|(k, v)| (Arc::clone(k), v.clone()))
            .collect();
        assert_eq!(db.into_entries().collect::<Vec<_>>(), ranged);
    }

    #[test]
    fn writes_share_their_bytes_and_an_overwrite_keeps_the_stored_key() {
        let mut db = StateDb::new();
        let first = KvWrite::new("k", Some(b"a"));
        let second = KvWrite::new("k", Some(b"b"));
        db.apply_write(&first, Version::new(1, 0));
        db.apply_write(&second, Version::new(2, 0));
        let (key, stored) = db.get_key_value("k").unwrap();
        assert!(Arc::ptr_eq(key, &first.key));
        assert!(Arc::ptr_eq(&stored.value, second.value.as_ref().unwrap()));
    }

    #[test]
    fn versions_track_writers() {
        let mut db = StateDb::new();
        db.apply_write(&KvWrite::new("k", Some(b"a")), Version::new(1, 3));
        db.apply_write(&KvWrite::new("k", Some(b"b")), Version::new(5, 0));
        assert_eq!(db.version_of("k"), Some(Version::new(5, 0)));
    }

    #[test]
    fn seed_uses_genesis_version() {
        let mut db = StateDb::new();
        db.seed("account:alice", b"100".to_vec());
        assert_eq!(db.version_of("account:alice"), Some(Version::GENESIS));
    }

    #[test]
    fn range_is_lexicographic_half_open() {
        let mut db = StateDb::new();
        for k in ["a", "b", "c", "d"] {
            db.seed(k, k.as_bytes().to_vec());
        }
        let got: Vec<&str> = db.range("b", "d").map(|(k, _)| &**k).collect();
        assert_eq!(got, vec!["b", "c"]);
        let all: Vec<&str> = db.range("b", "").map(|(k, _)| &**k).collect();
        assert_eq!(all, vec!["b", "c", "d"]);
        assert_eq!(db.len(), 4);
        assert!(!db.is_empty());
    }

    #[test]
    fn inverted_range_is_empty() {
        let mut db = StateDb::new();
        for k in ["a", "b", "c"] {
            db.seed(k, k.as_bytes().to_vec());
        }
        assert_eq!(db.range("c", "a").count(), 0);
        assert_eq!(db.range("b", "b").count(), 0);
        assert_eq!(db.range("zz", "").count(), 0);
    }
}
