//! Merkle trees with inclusion proofs.
//!
//! Used in two places, mirroring the paper (§3, §5.2): the transaction
//! Merkle root in each block header, and the state digest over the
//! versioned state database that gives smart-contract state (and therefore
//! view data) its tamper evidence.

use ledgerview_crypto::sha256::{sha256_concat, Digest};

/// Domain-separation prefixes so a leaf can never be reinterpreted as an
/// inner node (second-preimage defence).
const LEAF_PREFIX: &[u8] = &[0x00];
const NODE_PREFIX: &[u8] = &[0x01];

/// Hash a leaf value.
pub fn leaf_hash(value: &[u8]) -> Digest {
    sha256_concat(&[LEAF_PREFIX, value])
}

/// Hash an inner node over its two children.
pub(crate) fn node_hash(left: &Digest, right: &Digest) -> Digest {
    sha256_concat(&[NODE_PREFIX, left.as_bytes(), right.as_bytes()])
}

/// A Merkle tree built over a list of leaf values.
///
/// Odd nodes at each level are promoted unchanged (Bitcoin-style
/// duplication is avoided because it admits mutation attacks).
#[derive(Clone, Debug)]
pub struct MerkleTree {
    /// levels[0] = leaf hashes, last level = [root].
    levels: Vec<Vec<Digest>>,
    leaf_count: usize,
}

/// One step of a Merkle inclusion proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProofStep {
    /// The sibling hash to combine with.
    pub sibling: Digest,
    /// Whether the sibling is on the right of the running hash.
    pub sibling_on_right: bool,
}

/// An inclusion proof for one leaf.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct MerkleProof {
    /// Path from the leaf to the root.
    pub steps: Vec<ProofStep>,
}

impl MerkleTree {
    /// Build a tree over `leaves`. An empty input yields the conventional
    /// "empty root" (the hash of an empty string under the leaf prefix).
    pub fn build(leaves: &[Vec<u8>]) -> MerkleTree {
        let leaf_hashes: Vec<Digest> = leaves.iter().map(|l| leaf_hash(l)).collect();
        Self::from_leaf_hashes(leaf_hashes)
    }

    /// Build a tree from already-hashed leaves.
    pub fn from_leaf_hashes(leaf_hashes: Vec<Digest>) -> MerkleTree {
        let leaf_count = leaf_hashes.len();
        if leaf_hashes.is_empty() {
            return MerkleTree {
                levels: vec![vec![empty_root()]],
                leaf_count,
            };
        }
        let mut levels = Vec::new();
        let mut level = leaf_hashes;
        while level.len() > 1 {
            // An odd node out is carried up unchanged.
            let next = level
                .chunks(2)
                .map(|pair| match pair {
                    [l, r] => node_hash(l, r),
                    _ => pair[0],
                })
                .collect();
            levels.push(std::mem::replace(&mut level, next));
        }
        levels.push(level);
        MerkleTree { levels, leaf_count }
    }

    /// The root digest.
    pub fn root(&self) -> Digest {
        self.levels.last().expect("non-empty")[0]
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.leaf_count
    }

    /// Whether the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Produce an inclusion proof for the leaf at `index`.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn prove(&self, index: usize) -> MerkleProof {
        assert!(index < self.levels[0].len(), "leaf index out of range");
        let mut steps = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling_idx = idx ^ 1;
            if sibling_idx < level.len() {
                steps.push(ProofStep {
                    sibling: level[sibling_idx],
                    sibling_on_right: sibling_idx > idx,
                });
            }
            // If there is no sibling (odd node promoted), no step is added.
            idx /= 2;
        }
        MerkleProof { steps }
    }
}

/// The root of an empty tree.
pub fn empty_root() -> Digest {
    sha256_concat(&[LEAF_PREFIX, b"ledgerview-empty-merkle-tree"])
}

/// Verify that `value` is included under `root` via `proof`.
pub fn verify_inclusion(root: &Digest, value: &[u8], proof: &MerkleProof) -> bool {
    verify_inclusion_hash(root, leaf_hash(value), proof)
}

/// Verify inclusion given the already-hashed leaf.
pub fn verify_inclusion_hash(root: &Digest, leaf: Digest, proof: &MerkleProof) -> bool {
    let mut acc = leaf;
    for step in &proof.steps {
        acc = if step.sibling_on_right {
            node_hash(&acc, &step.sibling)
        } else {
            node_hash(&step.sibling, &acc)
        };
    }
    acc == *root
}

/// The root [`MerkleTree::from_leaf_hashes`] would report, folded in place
/// without retaining the levels — for callers that only need the root.
pub fn root_of(mut level: Vec<Digest>) -> Digest {
    if level.is_empty() {
        return empty_root();
    }
    let mut len = level.len();
    while len > 1 {
        for i in 0..len / 2 {
            level[i] = node_hash(&level[2 * i], &level[2 * i + 1]);
        }
        if len % 2 == 1 {
            level[len / 2] = level[len - 1];
        }
        len = len.div_ceil(2);
    }
    level[0]
}

/// Convenience: the Merkle root over serialized items.
pub fn root_over(items: &[Vec<u8>]) -> Digest {
    root_of(items.iter().map(|item| leaf_hash(item)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ledgerview_crypto::sha256::Sha256;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    fn empty_tree_has_stable_root() {
        let t = MerkleTree::build(&[]);
        assert_eq!(t.root(), empty_root());
        assert!(t.is_empty());
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let t = MerkleTree::build(&leaves(1));
        assert_eq!(t.root(), leaf_hash(b"leaf-0"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn proofs_verify_for_all_sizes() {
        for n in 1..=17 {
            let ls = leaves(n);
            let t = MerkleTree::build(&ls);
            for (i, leaf) in ls.iter().enumerate() {
                let proof = t.prove(i);
                assert!(
                    verify_inclusion(&t.root(), leaf, &proof),
                    "n={n} leaf={i} proof failed"
                );
            }
        }
    }

    #[test]
    fn root_of_matches_the_retained_tree() {
        for n in 0..=17 {
            let ls = leaves(n);
            let hashes: Vec<Digest> = ls.iter().map(|l| leaf_hash(l)).collect();
            assert_eq!(root_of(hashes), MerkleTree::build(&ls).root(), "n={n}");
            assert_eq!(root_over(&ls), MerkleTree::build(&ls).root(), "n={n}");
        }
    }

    #[test]
    fn wrong_value_fails_verification() {
        let ls = leaves(8);
        let t = MerkleTree::build(&ls);
        let proof = t.prove(3);
        assert!(!verify_inclusion(&t.root(), b"not-a-leaf", &proof));
    }

    #[test]
    fn wrong_position_fails_verification() {
        let ls = leaves(8);
        let t = MerkleTree::build(&ls);
        let proof_for_3 = t.prove(3);
        // Using leaf 4's value with leaf 3's proof must fail.
        assert!(!verify_inclusion(&t.root(), &ls[4], &proof_for_3));
    }

    #[test]
    fn tampered_proof_fails() {
        let ls = leaves(8);
        let t = MerkleTree::build(&ls);
        let mut proof = t.prove(0);
        proof.steps[1].sibling = leaf_hash(b"evil");
        assert!(!verify_inclusion(&t.root(), &ls[0], &proof));
        let mut flipped = t.prove(0);
        flipped.steps[0].sibling_on_right = !flipped.steps[0].sibling_on_right;
        assert!(!verify_inclusion(&t.root(), &ls[0], &flipped));
    }

    #[test]
    fn leaf_cannot_masquerade_as_node() {
        // Domain separation: a value equal to two concatenated digests with
        // the node prefix does not produce the parent hash as a leaf.
        let ls = leaves(2);
        let t = MerkleTree::build(&ls);
        let l0 = leaf_hash(&ls[0]);
        let l1 = leaf_hash(&ls[1]);
        let mut fake = Vec::new();
        fake.extend_from_slice(l0.as_bytes());
        fake.extend_from_slice(l1.as_bytes());
        assert_ne!(leaf_hash(&fake), t.root());
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let base = MerkleTree::build(&leaves(9)).root();
        for i in 0..9 {
            let mut ls = leaves(9);
            ls[i].push(b'!');
            assert_ne!(MerkleTree::build(&ls).root(), base, "leaf {i}");
        }
    }

    #[test]
    fn root_changes_with_order() {
        let mut ls = leaves(4);
        let base = MerkleTree::build(&ls).root();
        ls.swap(1, 2);
        assert_ne!(MerkleTree::build(&ls).root(), base);
    }

    #[test]
    fn incremental_sha_helper_consistent() {
        // leaf_hash must equal manual prefix-then-value hashing.
        let mut h = Sha256::new();
        h.update(&[0x00]);
        h.update(b"abc");
        assert_eq!(h.finalize(), leaf_hash(b"abc"));
    }
}
