//! Binary Merkle root over transaction hashes, used as the block data hash.
//!
//! Fabric's block header carries a hash of the block's transaction data; we
//! use a Bitcoin-style Merkle root (odd nodes are paired with themselves),
//! with the leaf and node hashes domain-separated.

use crate::hash::Hash256;
use crate::sha256::Sha256;

fn hash_pair(left: &Hash256, right: &Hash256) -> Hash256 {
    let mut h = Sha256::new();
    h.update(b"fabricsim-merkle-node");
    h.update(left.as_bytes());
    h.update(right.as_bytes());
    h.finalize()
}

fn hash_leaf(data: &[u8]) -> Hash256 {
    let mut h = Sha256::new();
    h.update(b"fabricsim-merkle-leaf");
    h.update(data);
    h.finalize()
}

/// The Merkle root of an ordered list of leaves. Only the root is kept: the
/// levels below it are folded away as it is built.
///
/// ```
/// use fabricsim_crypto::MerkleTree;
/// let a = MerkleTree::from_leaves([&b"tx0"[..], b"tx1", b"tx2"]);
/// let b = MerkleTree::from_leaves([&b"tx0"[..], b"tx2", b"tx1"]);
/// assert_ne!(a.root(), b.root());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleTree {
    root: Hash256,
}

impl MerkleTree {
    /// Builds the root over leaf byte strings. An empty input yields the hash
    /// of the empty leaf (a distinguished constant).
    pub fn from_leaves<I, B>(leaves: I) -> Self
    where
        I: IntoIterator<Item = B>,
        B: AsRef<[u8]>,
    {
        let leaf_hashes: Vec<Hash256> = leaves.into_iter().map(|l| hash_leaf(l.as_ref())).collect();
        Self::from_leaf_hashes(leaf_hashes)
    }

    /// Builds the root over precomputed leaf hashes, folding `level` in
    /// place: each pass hashes the pairs of the live prefix into its front
    /// half (an odd last node pairs with itself), until one node is left.
    pub fn from_leaf_hashes(mut level: Vec<Hash256>) -> Self {
        let mut len = level.len();
        if len == 0 {
            return MerkleTree {
                root: hash_leaf(b""),
            };
        }
        while len > 1 {
            for i in 0..len.div_ceil(2) {
                // Node `i` reads nodes `2i` and `2i + 1`, which no earlier
                // write of this pass has overwritten.
                let left = level[2 * i];
                let right = if 2 * i + 1 < len {
                    level[2 * i + 1]
                } else {
                    left
                };
                level[i] = hash_pair(&left, &right);
            }
            len = len.div_ceil(2);
        }
        MerkleTree { root: level[0] }
    }

    /// The Merkle root.
    pub fn root(&self) -> Hash256 {
        self.root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let t = MerkleTree::from_leaves([b"only"]);
        assert_eq!(t.root(), hash_leaf(b"only"));
    }

    #[test]
    fn empty_tree_has_distinguished_root() {
        let t = MerkleTree::from_leaves(Vec::<&[u8]>::new());
        assert_eq!(t.root(), hash_leaf(b""));
    }

    #[test]
    fn order_matters() {
        let a = MerkleTree::from_leaves([&b"x"[..], b"y"]);
        let b = MerkleTree::from_leaves([&b"y"[..], b"x"]);
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn leaf_and_node_domains_are_separated() {
        // A tree of two leaves must not equal hashing the concatenation as one leaf.
        let t = MerkleTree::from_leaves([&b"a"[..], b"b"]);
        assert_ne!(t.root(), hash_leaf(b"ab"));
    }
}
