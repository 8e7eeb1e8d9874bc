//! One deterministic hasher for the maps on the per-transaction path.
//!
//! The standard library's `RandomState` runs SipHash-1-3 under a per-process
//! random key: a defence against adversarial keys that costs a committer more
//! than the map work itself when the keys are transaction ids (already
//! SHA-256 digests) and state keys of a few words. [`FxHasher`] is the
//! multiply-rotate hash rustc uses for its own tables: one rotate, one xor
//! and one multiply per eight input bytes, with no seed, so every process
//! hashes the same key to the same value.
//!
//! A map's iteration order still depends on its insertion history, so a map
//! built with [`FxBuildHasher`] is no more iterable in sim-critical code than
//! one built with `RandomState`: the determinism lints treat both alike.

use std::hash::{BuildHasher, Hasher};

/// The odd multiplier of the Fx hash (⌊2⁶⁴ / φ⌋ rounded to odd).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Fx-style multiply-rotate hasher: deterministic, unseeded, not
/// collision-resistant. For keys the program makes, never for keys an
/// adversary picks.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut word = [0; 8];
            word.copy_from_slice(w);
            self.add(u64::from_le_bytes(word));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0; 8];
            word[..rest.len()].copy_from_slice(rest);
            // The length goes in the top byte, which a tail of at most seven
            // bytes never reaches, so `[0]` and `[0, 0]` hash apart.
            word[7] = rest.len() as u8;
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FxHasher`]s; `HashMap<K, V, FxBuildHasher>` is a map whose
/// hashes are the same in every process.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClientId, Proposal, TxId};
    use std::hash::Hash;

    fn hash_of(build: &FxBuildHasher, key: impl Hash) -> u64 {
        build.hash_one(key)
    }

    #[test]
    fn independently_built_hashers_agree_so_there_is_no_seed() {
        let tx: TxId = Proposal::derive_tx_id(ClientId(3), 17);
        let (mut a, mut b) = (FxBuildHasher.build_hasher(), FxHasher::default());
        tx.hash(&mut a);
        tx.hash(&mut b);
        assert_eq!(a.finish(), b.finish());
        let (mut a, mut b) = (FxBuildHasher.build_hasher(), FxHasher::default());
        "account:alice".hash(&mut a);
        "account:alice".hash(&mut b);
        assert_eq!(a.finish(), b.finish());
        // The hash is a pure function of the bytes: pinned, it cannot pick
        // up a per-process key without this test failing everywhere.
        assert_eq!(hash_of(&FxBuildHasher, 1u64), K);
        let next = Proposal::derive_tx_id(ClientId(3), 18);
        assert_ne!(hash_of(&FxBuildHasher, tx), hash_of(&FxBuildHasher, next));
    }

    #[test]
    fn short_tails_and_string_boundaries_hash_apart() {
        let h = FxBuildHasher;
        let mut seen = std::collections::BTreeSet::new();
        for len in [1, 2, 7, 8, 9] {
            let mut bytes = vec![0; len];
            bytes[0] = 7;
            let mut s = h.build_hasher();
            s.write(&bytes);
            assert!(seen.insert(s.finish()), "{bytes:?} collided");
        }
        assert_ne!(hash_of(&h, ("ab", "c")), hash_of(&h, ("a", "bc")));
    }
}
