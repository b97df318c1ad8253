//! Canonical per-clade Merkle hashing — the content address of a subtree.
//!
//! Every node of a tree gets a 128-bit [`CladeHash`] computed
//! bottom-up: a leaf's hash is derived from its taxon name, an internal
//! node's hash combines its children's hashes **after sorting them**, so two
//! clades that differ only in child order (or in the insertion order that
//! produced the arena) hash identically by construction. Equal hashes mean
//! "same unordered topology with the same leaf-name multiset" (up to the
//! negligible 2⁻¹²⁸ collision odds), which is exactly the equivalence the
//! comparison metrics (RF distance, rooted RF, triplet) are defined over —
//! branch lengths and internal-node names deliberately do not participate.
//!
//! The repository persists only the root hash, in each tree's `tree_stats`
//! row; it recomputes the other nodes' hashes from the stored topology and
//! leaf names when it needs them.

use phylo::traverse::Traverse;
use phylo::Tree;

/// Byte length of a serialized [`CladeHash`].
pub const CLADE_HASH_LEN: usize = 16;

const SEED_A: u64 = 0x9e37_79b9_7f4a_7c15;
const SEED_B: u64 = 0xc2b2_ae3d_27d4_eb4f;
const MULT_A: u64 = 0xff51_afd7_ed55_8ccd;
const MULT_B: u64 = 0xc4ce_b9fe_1a85_ec53;
const LEAF_TAG: u64 = 0x6c65_6166; // "leaf"
const UNNAMED_TAG: u64 = 0x616e_6f6e; // "anon"
const NODE_TAG: u64 = 0x6e6f_6465; // "node"

/// The splitmix64 finalizer — a full-avalanche 64-bit permutation.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Two independent 64-bit mixing lanes absorbing a word stream.
struct Mixer {
    a: u64,
    b: u64,
}

impl Mixer {
    fn new(tag: u64) -> Self {
        Mixer {
            a: mix64(tag ^ SEED_A),
            b: mix64(tag ^ SEED_B),
        }
    }

    #[inline]
    fn absorb(&mut self, word: u64) {
        self.a = mix64(self.a ^ word.wrapping_mul(MULT_A));
        self.b = mix64(self.b.rotate_left(23) ^ word.wrapping_mul(MULT_B));
    }

    fn finish(self) -> CladeHash {
        let mut bytes = [0u8; CLADE_HASH_LEN];
        bytes[..8].copy_from_slice(&mix64(self.a ^ self.b.rotate_left(32)).to_be_bytes());
        bytes[8..].copy_from_slice(&mix64(self.b ^ self.a.rotate_left(17)).to_be_bytes());
        CladeHash(bytes)
    }
}

/// A 128-bit canonical clade hash. Byte order is the sort order (the bytes
/// are a big-endian u128), so sorted hashes and sorted serialized keys
/// agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CladeHash(pub [u8; CLADE_HASH_LEN]);

impl CladeHash {
    /// The hash of a leaf carrying `name`. All unnamed leaves share one
    /// sentinel hash — callers that need hash equality to imply tree
    /// equality must separately require distinct leaf names (exactly the
    /// precondition the comparison metrics already impose).
    pub fn leaf(name: Option<&str>) -> CladeHash {
        let Some(name) = name else {
            return Mixer::new(UNNAMED_TAG).finish();
        };
        let bytes = name.as_bytes();
        let mut m = Mixer::new(LEAF_TAG);
        m.absorb(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            m.absorb(u64::from_le_bytes(word));
        }
        m.finish()
    }

    /// The hash of an internal node over its children's hashes. Sorts
    /// `children` in place (the canonicalization step: child order never
    /// influences the result) and folds in the arity, so a unary wrapper
    /// hashes differently from its single child.
    pub fn internal(children: &mut [CladeHash]) -> CladeHash {
        children.sort_unstable();
        let mut m = Mixer::new(NODE_TAG);
        m.absorb(children.len() as u64);
        for child in children.iter() {
            m.absorb(u64::from_be_bytes(child.0[..8].try_into().expect("16B")));
            m.absorb(u64::from_be_bytes(child.0[8..].try_into().expect("16B")));
        }
        m.finish()
    }

    /// The raw bytes, big-endian.
    #[inline]
    pub fn as_bytes(&self) -> &[u8; CLADE_HASH_LEN] {
        &self.0
    }

    /// Deserialize from a 16-byte slice; `None` on any other length.
    pub fn from_slice(bytes: &[u8]) -> Option<CladeHash> {
        Some(CladeHash(bytes.try_into().ok()?))
    }

    /// The hash as a u128 (big-endian interpretation of the bytes).
    pub fn to_u128(self) -> u128 {
        u128::from_be_bytes(self.0)
    }
}

/// Per-node canonical hashes for every node of `tree`, indexed by arena
/// index. One post-order pass; children are final before their parent.
pub fn tree_hashes(tree: &Tree) -> Vec<CladeHash> {
    let mut hashes = vec![CladeHash([0u8; CLADE_HASH_LEN]); tree.node_count()];
    let mut scratch: Vec<CladeHash> = Vec::new();
    for node in tree.postorder() {
        let children = tree.children(node);
        hashes[node.index()] = if children.is_empty() {
            CladeHash::leaf(tree.name(node))
        } else {
            scratch.clear();
            scratch.extend(children.iter().map(|c| hashes[c.index()]));
            CladeHash::internal(&mut scratch)
        };
    }
    hashes
}

/// The canonical hash of `tree`'s root clade — the whole-tree content
/// address. Empty trees have no root; returns `None`.
pub fn root_hash(tree: &Tree) -> Option<CladeHash> {
    let root = tree.root()?;
    Some(tree_hashes(tree)[root.index()])
}

/// `true` when every leaf is named and no two leaves share a name — the
/// precondition under which hash equality implies metric equality.
pub fn distinct_named_leaves(tree: &Tree) -> bool {
    let mut seen = std::collections::HashSet::new();
    for leaf in tree.leaf_ids() {
        match tree.name(leaf) {
            Some(name) => {
                if !seen.insert(name) {
                    return false;
                }
            }
            None => return false,
        }
    }
    true
}

/// Pack a `(pre, end)` span into the u64 value slot of a raw index.
#[inline]
pub fn pack_span(pre: u32, end: u32) -> u64 {
    ((pre as u64) << 32) | end as u64
}

/// Inverse of [`pack_span`].
#[inline]
pub fn unpack_span(value: u64) -> (u32, u32) {
    ((value >> 32) as u32, value as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo::builder::{balanced_binary, figure1_tree};
    use phylo::Tree;

    #[test]
    fn leaf_hashes_depend_on_name_only() {
        assert_eq!(CladeHash::leaf(Some("Lla")), CladeHash::leaf(Some("Lla")));
        assert_ne!(CladeHash::leaf(Some("Lla")), CladeHash::leaf(Some("Llb")));
        assert_ne!(CladeHash::leaf(Some("Lla")), CladeHash::leaf(None));
        assert_eq!(CladeHash::leaf(None), CladeHash::leaf(None));
        // Length participates: a name is not confused with its zero-padded
        // extension.
        assert_ne!(CladeHash::leaf(Some("ab")), CladeHash::leaf(Some("ab\0")));
    }

    #[test]
    fn internal_hash_is_child_order_invariant() {
        let a = CladeHash::leaf(Some("a"));
        let b = CladeHash::leaf(Some("b"));
        let c = CladeHash::leaf(Some("c"));
        let mut fwd = [a, b, c];
        let mut rev = [c, b, a];
        let mut mid = [b, c, a];
        let h = CladeHash::internal(&mut fwd);
        assert_eq!(h, CladeHash::internal(&mut rev));
        assert_eq!(h, CladeHash::internal(&mut mid));
    }

    #[test]
    fn arity_participates() {
        let a = CladeHash::leaf(Some("a"));
        let b = CladeHash::leaf(Some("b"));
        // A unary wrapper differs from its child …
        let wrapped = CladeHash::internal(&mut [a]);
        assert_ne!(wrapped, a);
        // … and stacking wrappers keeps differing.
        assert_ne!(CladeHash::internal(&mut [wrapped]), wrapped);
        // Duplicated children (a multiset, not a set) are distinguished.
        assert_ne!(
            CladeHash::internal(&mut [a, b]),
            CladeHash::internal(&mut [a, a, b])
        );
    }

    #[test]
    fn tree_hashes_cover_every_node_and_root_is_stable() {
        let tree = figure1_tree();
        let hashes = tree_hashes(&tree);
        assert_eq!(hashes.len(), tree.node_count());
        let again = tree_hashes(&tree);
        assert_eq!(hashes, again, "hashing must be deterministic");
        assert_eq!(
            root_hash(&tree).unwrap(),
            hashes[tree.root_unchecked().index()]
        );
    }

    #[test]
    fn sibling_subtree_reorder_preserves_root_hash() {
        // Build (r (x a b) (y c d)) and its sibling-swapped twin
        // (r (y d c) (x b a)); same unordered topology, same hash.
        fn build(spec: &[(&str, &[&str])]) -> Tree {
            let mut tree = Tree::new();
            let root = tree.add_named_node("r");
            for (inner, leaves) in spec {
                let v = tree
                    .add_child(root, Some((*inner).into()), Some(1.0))
                    .unwrap();
                for leaf in *leaves {
                    tree.add_child(v, Some((*leaf).into()), Some(1.0)).unwrap();
                }
            }
            tree
        }
        let t1 = build(&[("x", &["a", "b"]), ("y", &["c", "d"])]);
        let t2 = build(&[("y", &["d", "c"]), ("x", &["b", "a"])]);
        assert_eq!(root_hash(&t1).unwrap(), root_hash(&t2).unwrap());
        // A leaf moved across the split is a different clade set.
        let t3 = build(&[("x", &["a", "c"]), ("y", &["b", "d"])]);
        assert_ne!(root_hash(&t1).unwrap(), root_hash(&t3).unwrap());
    }

    #[test]
    fn distinct_named_leaves_detects_problems() {
        let tree = balanced_binary(4, 1.0);
        assert!(distinct_named_leaves(&tree));
        let mut dup = Tree::new();
        let root = dup.add_node();
        dup.add_child(root, Some("same".into()), None).unwrap();
        dup.add_child(root, Some("same".into()), None).unwrap();
        assert!(!distinct_named_leaves(&dup));
        let mut anon = Tree::new();
        let root = anon.add_node();
        anon.add_child(root, None, None).unwrap();
        anon.add_child(root, Some("ok".into()), None).unwrap();
        assert!(!distinct_named_leaves(&anon));
    }

    #[test]
    fn span_packing_roundtrips() {
        for (pre, end) in [(0, 0), (1, 9), (u32::MAX - 1, u32::MAX)] {
            assert_eq!(unpack_span(pack_span(pre, end)), (pre, end));
        }
    }
}
