//! The transaction simulator handed to running chaincode.

use std::sync::Arc;

use fabricsim_ledger::StateDb;
use fabricsim_types::RwSet;

/// The chaincode's window onto the ledger during endorsement: reads are
/// recorded with the MVCC version observed, writes are buffered into the
/// read/write set instead of touching state.
#[derive(Debug)]
pub struct ChaincodeStub<'a> {
    state: &'a StateDb,
    rw_set: RwSet,
}

impl<'a> ChaincodeStub<'a> {
    /// Creates a simulator over committed state.
    pub fn new(state: &'a StateDb) -> Self {
        ChaincodeStub {
            state,
            rw_set: RwSet::new(),
        }
    }

    /// Reads a key. Pending writes from this same simulation are visible
    /// (read-your-writes) and do *not* add a read record, matching Fabric's
    /// `TxSimulator` semantics. The value, and the read's key when the key
    /// exists, share the committed bytes.
    pub fn get_state(&mut self, key: &str) -> Option<Arc<[u8]>> {
        if let Some(w) = self.rw_set.pending_write(key) {
            return w.value.clone();
        }
        match self.state.get_key_value(key) {
            Some((stored, v)) => {
                self.rw_set.record_read_shared(stored, Some(v.version));
                Some(Arc::clone(&v.value))
            }
            None => {
                self.rw_set.record_read(key, None);
                None
            }
        }
    }

    /// Buffers a write; the rw-set allocates the value's bytes once.
    pub fn put_state(&mut self, key: &str, value: impl AsRef<[u8]>) {
        self.rw_set.record_write(key, Some(value.as_ref()));
    }

    /// Buffers a delete.
    pub fn del_state(&mut self, key: &str) {
        self.rw_set.record_write(key, None);
    }

    /// Finishes the simulation, yielding the read/write set.
    pub fn into_rw_set(self) -> RwSet {
        self.rw_set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabricsim_types::{KvWrite, Version};

    fn seeded() -> StateDb {
        let mut db = StateDb::new();
        db.seed("a", b"1".to_vec());
        db.apply_write(&KvWrite::new("b", Some(b"2")), Version::new(3, 1));
        db
    }

    #[test]
    fn reads_record_versions() {
        let db = seeded();
        let mut stub = ChaincodeStub::new(&db);
        assert_eq!(stub.get_state("a").as_deref(), Some(&b"1"[..]));
        assert_eq!(stub.get_state("b").as_deref(), Some(&b"2"[..]));
        assert_eq!(stub.get_state("missing"), None);
        let rw = stub.into_rw_set();
        assert_eq!(rw.reads.len(), 3);
        assert_eq!(rw.reads[0].version, Some(Version::GENESIS));
        assert_eq!(rw.reads[1].version, Some(Version::new(3, 1)));
        assert_eq!(rw.reads[2].version, None);
    }

    #[test]
    fn read_your_writes_without_read_record() {
        let db = seeded();
        let mut stub = ChaincodeStub::new(&db);
        stub.put_state("x", b"new");
        assert_eq!(stub.get_state("x").as_deref(), Some(&b"new"[..]));
        let rw = stub.into_rw_set();
        assert!(
            rw.reads.is_empty(),
            "own write must not create a read record"
        );
        assert_eq!(rw.writes.len(), 1);
    }

    #[test]
    fn delete_is_visible_to_later_reads() {
        let db = seeded();
        let mut stub = ChaincodeStub::new(&db);
        stub.del_state("a");
        assert_eq!(stub.get_state("a"), None);
        let rw = stub.into_rw_set();
        assert!(rw.writes[0].is_delete());
    }

    #[test]
    fn writes_do_not_touch_committed_state() {
        let db = seeded();
        {
            let mut stub = ChaincodeStub::new(&db);
            stub.put_state("a", b"mutated");
            let _ = stub.into_rw_set();
        }
        assert_eq!(&*db.get("a").unwrap().value, b"1");
    }

    #[test]
    fn reads_and_a_later_write_share_the_committed_bytes() {
        let db = seeded();
        let (key, committed) = db.get_key_value("b").unwrap();
        let mut stub = ChaincodeStub::new(&db);
        let value = stub.get_state("b").unwrap();
        assert!(Arc::ptr_eq(&value, &committed.value));
        stub.put_state("b", b"3");
        let rw = stub.into_rw_set();
        assert!(Arc::ptr_eq(&rw.reads[0].key, key));
        assert!(Arc::ptr_eq(&rw.writes[0].key, key));
    }
}
