//! Binary Merkle tree over transaction hashes, used as the block data hash.
//!
//! Fabric's block header carries a hash of the block's transaction data; we
//! use a Bitcoin-style Merkle root (odd nodes are paired with themselves) plus
//! membership proofs, which the peer uses in tests to audit delivered blocks.

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

/// A Merkle tree over an ordered list of leaves.
///
/// ```
/// use fabricsim_crypto::MerkleTree;
/// let tree = MerkleTree::from_leaves([&b"tx0"[..], b"tx1", b"tx2"]);
/// let proof = tree.proof(1).unwrap();
/// assert!(MerkleTree::verify_proof(tree.root(), b"tx1", 1, &proof));
/// assert!(!MerkleTree::verify_proof(tree.root(), b"txX", 1, &proof));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleTree {
    /// levels[0] = leaf hashes, last level = [root].
    levels: Vec<Vec<Hash256>>,
    root: Hash256,
}

impl MerkleTree {
    /// Builds a tree from leaf byte strings. An empty input yields a tree whose
    /// root is the hash of the empty leaf list (a distinguished constant).
    pub fn from_leaves<I, B>(leaves: I) -> Self
    where
        I: IntoIterator<Item = B>,
        B: AsRef<[u8]>,
    {
        let leaf_hashes: Vec<Hash256> = leaves.into_iter().map(|l| hash_leaf(l.as_ref())).collect();
        Self::from_leaf_hashes(leaf_hashes)
    }

    /// Builds a tree from precomputed leaf hashes.
    pub fn from_leaf_hashes(leaf_hashes: Vec<Hash256>) -> Self {
        let mut levels = Vec::new();
        let mut cur = if leaf_hashes.is_empty() {
            vec![hash_leaf(b"")]
        } else {
            leaf_hashes
        };
        while cur.len() > 1 {
            let mut next = Vec::with_capacity(cur.len().div_ceil(2));
            for pair in cur.chunks(2) {
                let right = pair.get(1).unwrap_or(&pair[0]);
                next.push(hash_pair(&pair[0], right));
            }
            levels.push(std::mem::replace(&mut cur, next));
        }
        // Never empty: it starts with at least one hash and halving rounds up.
        let root = cur[0];
        levels.push(cur);
        MerkleTree { levels, root }
    }

    /// The Merkle root.
    pub fn root(&self) -> Hash256 {
        self.root
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels[0].len()
    }

    /// Whether the tree was built from zero leaves.
    pub fn is_empty(&self) -> bool {
        self.levels.len() == 1 && self.levels[0][0] == hash_leaf(b"")
    }

    /// A membership proof (sibling hashes bottom-up) for leaf `index`.
    ///
    /// Returns `None` if `index` is out of range.
    pub fn proof(&self, index: usize) -> Option<Vec<Hash256>> {
        if index >= self.len() {
            return None;
        }
        let mut proof = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling = if idx.is_multiple_of(2) {
                *level.get(idx + 1).unwrap_or(&level[idx])
            } else {
                level[idx - 1]
            };
            proof.push(sibling);
            idx /= 2;
        }
        Some(proof)
    }

    /// Verifies a membership proof produced by [`MerkleTree::proof`].
    pub fn verify_proof(root: Hash256, leaf: &[u8], index: usize, proof: &[Hash256]) -> bool {
        let mut acc = hash_leaf(leaf);
        let mut idx = index;
        for sibling in proof {
            acc = if idx.is_multiple_of(2) {
                hash_pair(&acc, sibling)
            } else {
                hash_pair(sibling, &acc)
            };
            idx /= 2;
        }
        acc == root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let t = MerkleTree::from_leaves([b"only"]);
        assert_eq!(t.root(), hash_leaf(b"only"));
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn empty_tree_has_distinguished_root() {
        let t = MerkleTree::from_leaves(Vec::<&[u8]>::new());
        assert!(t.is_empty());
        assert_eq!(t.root(), hash_leaf(b""));
    }

    #[test]
    fn proofs_verify_for_all_sizes() {
        for n in 1..=17 {
            let leaves: Vec<Vec<u8>> = (0..n).map(|i| format!("tx{i}").into_bytes()).collect();
            let t = MerkleTree::from_leaves(leaves.iter());
            for (i, leaf) in leaves.iter().enumerate() {
                let proof = t.proof(i).unwrap();
                assert!(
                    MerkleTree::verify_proof(t.root(), leaf, i, &proof),
                    "n={n} i={i}"
                );
                // Wrong index fails (except in degenerate equal-sibling cases).
                assert!(!MerkleTree::verify_proof(t.root(), b"not-a-tx", i, &proof));
            }
        }
    }

    #[test]
    fn out_of_range_proof_is_none() {
        let t = MerkleTree::from_leaves([b"a", b"b"]);
        assert!(t.proof(2).is_none());
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
