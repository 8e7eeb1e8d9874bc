//! Seeded properties of the cryptographic primitives (`rng::cases`).
//!
//! Incremental-versus-one-shot hashing is not here: the unit suite of
//! `sha256.rs` already splits every length 0..=300 at nine step sizes.

use fabricsim_crypto::{hmac_sha256, sha256, Hash256, KeyPair, MerkleTree, Sha256};
use fabricsim_des::rng::cases;
use fabricsim_des::RngStream;

/// `min..=max` random bytes.
fn bytes(rng: &mut RngStream, min: usize, max: usize) -> Vec<u8> {
    let len = min + rng.pick_index(max - min + 1);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

#[test]
fn sha256_is_deterministic_and_sensitive() {
    cases("sha256_is_deterministic_and_sensitive", 1_000, |rng| {
        let mut data = bytes(rng, 1, 255);
        let original = sha256(&data);
        assert_eq!(original, sha256(&data));
        let idx = rng.pick_index(data.len());
        data[idx] ^= 1 << rng.next_below(8);
        assert_ne!(
            original,
            sha256(&data),
            "a single-bit flip changes the digest"
        );
    });
}

#[test]
fn hex_roundtrip() {
    cases("hex_roundtrip", 1_000, |rng| {
        let mut raw = [0u8; 32];
        raw.fill_with(|| rng.next_u64() as u8);
        let h = Hash256::from_bytes(raw);
        assert_eq!(Hash256::from_hex(&h.to_hex()), Some(h));
    });
}

/// HMAC zero-pads a key to the 64-byte block, so keys that differ only in
/// trailing zero bytes are the same key; any other two keys of at most a
/// block must give different tags.
#[test]
fn hmac_distinguishes_key_and_message() {
    assert_eq!(hmac_sha256(&[], b"m"), hmac_sha256(&[0], b"m"));
    cases("hmac_distinguishes_key_and_message", 1_000, |rng| {
        let padded = |rng: &mut RngStream| {
            let mut key = bytes(rng, 0, 64);
            key.resize(64, 0);
            key
        };
        let (key1, key2) = (padded(rng), padded(rng));
        let (msg1, msg2) = (bytes(rng, 0, 100), bytes(rng, 0, 100));
        if key1 != key2 {
            assert_ne!(hmac_sha256(&key1, &msg1), hmac_sha256(&key2, &msg1));
        }
        if msg1 != msg2 {
            assert_ne!(hmac_sha256(&key1, &msg1), hmac_sha256(&key1, &msg2));
        }
    });
}

#[test]
fn schnorr_roundtrip_arbitrary_messages() {
    cases("schnorr_roundtrip_arbitrary_messages", 500, |rng| {
        let kp = KeyPair::from_seed(&bytes(rng, 0, 40));
        let msg = bytes(rng, 0, 100);
        // Half the time a near miss: the message with one more byte.
        let other = if rng.chance(0.5) {
            bytes(rng, 0, 100)
        } else {
            [&msg[..], &[0]].concat()
        };
        let sig = kp.sign(&msg);
        assert!(kp.public.verify(&msg, &sig));
        if other != msg {
            assert!(!kp.public.verify(&other, &sig));
        }
    });
}

/// The root as the tree used to build it, level by level: every level is
/// a new vector of pair hashes (an odd last node pairs with itself) until
/// one node is left. The in-place fold must give the same root.
fn level_by_level_root(leaves: &[Vec<u8>]) -> Hash256 {
    let tagged = |tag: &[u8], parts: &[&[u8]]| {
        let mut h = Sha256::new();
        h.update(tag);
        for part in parts {
            h.update(part);
        }
        h.finalize()
    };
    let leaf = |data: &[u8]| tagged(b"fabricsim-merkle-leaf", &[data]);
    let mut level: Vec<Hash256> = if leaves.is_empty() {
        vec![leaf(b"")]
    } else {
        leaves.iter().map(|l| leaf(l)).collect()
    };
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| {
                let right = pair.get(1).unwrap_or(&pair[0]);
                tagged(
                    b"fabricsim-merkle-node",
                    &[pair[0].as_bytes(), right.as_bytes()],
                )
            })
            .collect();
    }
    level[0]
}

#[test]
fn merkle_root_equals_the_level_by_level_fold() {
    for n in 0..=257 {
        let leaves: Vec<Vec<u8>> = (0..n).map(|i| format!("tx{i}").into_bytes()).collect();
        assert_eq!(
            MerkleTree::from_leaves(leaves.iter()).root(),
            level_by_level_root(&leaves),
            "{n} leaves"
        );
    }
    cases("merkle_root_equals_the_level_by_level_fold", 500, |rng| {
        let n = rng.pick_index(40);
        let leaves: Vec<Vec<u8>> = (0..n).map(|_| bytes(rng, 0, 31)).collect();
        assert_eq!(
            MerkleTree::from_leaves(leaves.iter()).root(),
            level_by_level_root(&leaves)
        );
    });
}

#[test]
fn merkle_root_binds_order_and_content() {
    cases("merkle_root_binds_order_and_content", 500, |rng| {
        let n = 2 + rng.pick_index(18);
        let mut leaves: Vec<Vec<u8>> = (0..n).map(|_| bytes(rng, 1, 15)).collect();
        let original = MerkleTree::from_leaves(leaves.iter()).root();
        let a = rng.pick_index(leaves.len());
        let b = rng.pick_index(leaves.len());
        if leaves[a] != leaves[b] {
            leaves.swap(a, b);
            assert_ne!(MerkleTree::from_leaves(leaves.iter()).root(), original);
        }
    });
}
