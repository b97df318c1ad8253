//! Canonical per-clade Merkle hashing — the content address of a subtree.
//!
//! Every node of a stored tree gets a 128-bit [`CladeHash`] computed
//! bottom-up: a leaf's hash is derived from its taxon name, an internal
//! node's hash combines its children's hashes **after sorting them**, so two
//! clades that differ only in child order (or in the insertion order that
//! produced the arena) hash identically by construction. Equal hashes mean
//! "same unordered topology with the same leaf-name multiset" (up to the
//! negligible 2⁻¹²⁸ collision odds), which is exactly the equivalence the
//! comparison metrics (RF distance, rooted RF, triplet) are defined over —
//! branch lengths and internal-node names deliberately do not participate.
//!
//! The repository persists these hashes in two raw B+tree indexes whose key
//! layouts live here, next to the hash itself:
//!
//! ```text
//! hash_by_pre:  tree_id: u64 | pre: u32 | hash: 16B          → span(pre, end)
//! hash_idx:     hash: 16B | tree_id: u64 | pre: u32          → span(pre, end)
//! ```
//!
//! `hash_by_pre` sorts by `(tree_id, pre)` — its first 12 bytes are exactly
//! the [`crate::interval::interval_key_prefix`] layout, so the interval
//! range helpers work on it unchanged. `hash_idx` sorts by hash first: a
//! 16-byte prefix scan answers "which stored subtrees equal this one"
//! without touching a single node row.

use phylo::traverse::Traverse;
use phylo::Tree;

/// Byte length of a serialized [`CladeHash`].
pub const CLADE_HASH_LEN: usize = 16;

/// Total length of a `hash_by_pre` key: `tree_id | pre | hash`.
pub const HASH_BY_PRE_KEY_LEN: usize = 12 + CLADE_HASH_LEN;

/// Total length of a `hash_idx` key: `hash | tree_id | pre`.
pub const HASH_IDX_KEY_LEN: usize = CLADE_HASH_LEN + 12;

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

/// Serialize a `hash_by_pre` key: `tree_id | pre | hash`. The 12-byte
/// prefix matches [`crate::interval::interval_key_prefix`], so the interval
/// range helpers bound scans over this index too.
pub fn hash_by_pre_key(tree_id: u64, pre: u32, hash: CladeHash) -> [u8; HASH_BY_PRE_KEY_LEN] {
    let mut key = [0u8; HASH_BY_PRE_KEY_LEN];
    key[..8].copy_from_slice(&tree_id.to_be_bytes());
    key[8..12].copy_from_slice(&pre.to_be_bytes());
    key[12..].copy_from_slice(&hash.0);
    key
}

/// Inverse of [`hash_by_pre_key`]; `None` for malformed bytes.
pub fn decode_hash_by_pre_key(key: &[u8]) -> Option<(u64, u32, CladeHash)> {
    if key.len() != HASH_BY_PRE_KEY_LEN {
        return None;
    }
    Some((
        u64::from_be_bytes(key[..8].try_into().expect("length checked")),
        u32::from_be_bytes(key[8..12].try_into().expect("length checked")),
        CladeHash::from_slice(&key[12..])?,
    ))
}

/// Serialize a `hash_idx` key: `hash | tree_id | pre`. Sorts by hash first,
/// so all stored occurrences of one clade are a contiguous key range.
pub fn hash_idx_key(hash: CladeHash, tree_id: u64, pre: u32) -> [u8; HASH_IDX_KEY_LEN] {
    let mut key = [0u8; HASH_IDX_KEY_LEN];
    key[..16].copy_from_slice(&hash.0);
    key[16..24].copy_from_slice(&tree_id.to_be_bytes());
    key[24..].copy_from_slice(&pre.to_be_bytes());
    key
}

/// Inverse of [`hash_idx_key`]; `None` for malformed bytes.
pub fn decode_hash_idx_key(key: &[u8]) -> Option<(CladeHash, u64, u32)> {
    if key.len() != HASH_IDX_KEY_LEN {
        return None;
    }
    Some((
        CladeHash::from_slice(&key[..16])?,
        u64::from_be_bytes(key[16..24].try_into().expect("length checked")),
        u32::from_be_bytes(key[24..].try_into().expect("length checked")),
    ))
}

/// Inclusive lower bound of the `hash_idx` key range holding `hash`.
pub fn hash_idx_prefix(hash: CladeHash) -> [u8; CLADE_HASH_LEN] {
    hash.0
}

/// Exclusive upper bound of the `hash_idx` key range holding `hash` — the
/// numerically next hash. `None` when `hash` is all-ones (scan to the end).
pub fn hash_idx_range_end(hash: CladeHash) -> Option<[u8; CLADE_HASH_LEN]> {
    hash.to_u128().checked_add(1).map(|next| next.to_be_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo::builder::{balanced_binary, caterpillar, figure1_tree};
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

    #[test]
    fn hash_by_pre_keys_roundtrip_and_sort_by_tree_then_pre() {
        let tree = caterpillar(20, 1.0);
        let hashes = tree_hashes(&tree);
        let mut keys: Vec<Vec<u8>> = hashes
            .iter()
            .enumerate()
            .map(|(pre, &h)| hash_by_pre_key(7, pre as u32, h).to_vec())
            .collect();
        for (pre, key) in keys.iter().enumerate() {
            let (tree_id, back_pre, hash) = decode_hash_by_pre_key(key).unwrap();
            assert_eq!((tree_id, back_pre as usize), (7, pre));
            assert_eq!(hash, hashes[pre]);
        }
        let sorted = keys.clone();
        keys.sort();
        assert_eq!(keys, sorted);
        assert!(decode_hash_by_pre_key(&keys[0][..20]).is_none());
    }

    #[test]
    fn hash_idx_keys_roundtrip_and_group_by_hash() {
        let h1 = CladeHash::leaf(Some("a"));
        let (tree_id, pre) = (3u64, 5u32);
        let key = hash_idx_key(h1, tree_id, pre);
        assert_eq!(decode_hash_idx_key(&key), Some((h1, tree_id, pre)));
        assert!(decode_hash_idx_key(&key[..20]).is_none());
        // The [prefix, range_end) window captures exactly this hash.
        let low = hash_idx_prefix(h1);
        let high = hash_idx_range_end(h1).unwrap();
        assert!(key.as_slice() >= low.as_slice());
        assert!(&key[..16] < high.as_slice());
        let other = hash_idx_key(CladeHash::leaf(Some("b")), tree_id, pre);
        let inside = (&other[..16] >= low.as_slice()) && (&other[..16] < high.as_slice());
        assert!(!inside, "a different hash must fall outside the window");
        // The all-ones hash has no successor: scan to the end instead.
        assert!(hash_idx_range_end(CladeHash([0xFF; 16])).is_none());
    }
}
