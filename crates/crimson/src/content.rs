//! Content-addressed tree storage: canonical clade hashes, O(1) equality
//! and dedup-on-store.
//!
//! Every stored tree carries the per-clade Merkle hashes of
//! [`labeling::clade_hash`] in two raw indexes (`hash_by_pre` per tree,
//! `hash_idx` globally) plus one `tree_stats` summary row. On top of those
//! this module implements:
//!
//! * **O(1) equality** — [`ReadCtx::trees_equal`] compares two stats
//!   rows; [`ReadCtx::subtrees_equal`] compares two `hash_by_pre`
//!   probes. No scan, no node rows.
//! * **No-scan lookup** — [`ReadCtx::trees_with_root_hash`] /
//!   [`ReadCtx::subtrees_with_hash`] answer "which stored trees or
//!   subtrees equal this one" from a 16-byte prefix range of `hash_idx`.
//! * **Dedup-on-store** — [`Repository::store_tree_dedup`] returns the
//!   canonical stored tree when an identical one already exists, instead of
//!   writing a second full copy; the experiment runner persists sweep
//!   reconstructions through it.
//!
//! Every load path writes the content address in the same transaction as
//! the tree, so a tree without its `tree_stats` row is a damaged file
//! ([`CrimsonError::CorruptRepository`]), which
//! [`ReadCtx::integrity_check`] reports.

use crate::error::{CrimsonError, CrimsonResult};
use crate::repository::{
    decode_tree_stats_row, ReadCtx, Repository, StoredNodeId, TreeHandle, TreeStatsRecord,
    BULK_FILL, HASH_IDX_MIN_SPAN, STATS_FLAG_DISTINCT_LEAVES, TREE_SHIFT,
};
use labeling::clade_hash::{
    self, decode_hash_by_pre_key, decode_hash_idx_key, hash_by_pre_key, hash_idx_key,
    hash_idx_prefix, hash_idx_range_end, pack_span, unpack_span, CladeHash,
};
use labeling::interval::{interval_key_prefix, interval_range_end};
use phylo::traverse::Traverse;
use phylo::Tree;
use std::collections::{HashMap, HashSet};
use storage::db::DbRead;
use storage::value::Value;

/// Distinct non-trivial rooted-clade and unrooted-split counts of one tree —
/// the denominators of the comparison metrics, persisted in `tree_stats` so
/// the equal-tree short-circuit can synthesize a full [`reconstruction::compare::RfResult`]
/// without streaming either tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CladeCounts {
    /// `|clades(T)|`: distinct leaf sets of size `2..=n-1`.
    pub rooted: u64,
    /// `|splits(T)|`: distinct non-trivial bipartitions (smaller side ≥ 2).
    pub unrooted: u64,
}

/// Count distinct non-trivial rooted clades and unrooted splits from the
/// per-node leaf-rank spans `(lo, hi)` of a tree with `n_leaves` leaves.
///
/// In a DFS numbering every subtree's leaf set is exactly the contiguous
/// rank interval `[lo, hi]`, so distinct intervals are distinct leaf sets:
/// a size filter replaces the explicit root/leaf checks (the root spans all
/// `n` leaves, a leaf spans one), and unrooted splits canonicalize to the
/// side not containing rank 0 — matching the comparison module's sets
/// exactly.
pub(crate) fn count_clades(spans: impl Iterator<Item = (u32, u32)>, n_leaves: u32) -> CladeCounts {
    let n = n_leaves;
    let mut clades: HashSet<(u32, u32)> = HashSet::new();
    let mut splits: HashSet<(u32, u32)> = HashSet::new();
    for (lo, hi) in spans {
        if lo > hi {
            continue;
        }
        let size = hi - lo + 1;
        if size >= 2 && size < n {
            clades.insert((lo, hi));
        }
        if n >= 2 && size >= 2 && size <= n - 2 {
            let canonical = if lo == 0 { (hi + 1, n - 1) } else { (lo, hi) };
            splits.insert(canonical);
        }
    }
    CladeCounts {
        rooted: clades.len() as u64,
        unrooted: splits.len() as u64,
    }
}

/// The full content address of an in-memory tree: per-node hashes (arena
/// indexed), clade counts and the distinct-leaf-names flag.
/// [`Repository::load_tree`] computes all of this inside its single DFS;
/// this standalone version serves the reference load path and comparisons
/// against in-memory trees.
pub(crate) struct TreeContent {
    /// Canonical clade hash per node, indexed by arena index.
    pub hashes: Vec<CladeHash>,
    /// Distinct clade/split counts.
    pub counts: CladeCounts,
    /// Every leaf named, no duplicates.
    pub distinct_leaves: bool,
}

impl TreeContent {
    /// Compute hashes, counts and the leaf flag in two post-order passes.
    pub fn compute(tree: &Tree) -> TreeContent {
        let hashes = clade_hash::tree_hashes(tree);
        let n = tree.node_count();
        let mut lo = vec![u32::MAX; n];
        let mut hi = vec![0u32; n];
        let mut next_rank = 0u32;
        for v in tree.postorder() {
            let vi = v.index();
            if tree.is_leaf(v) {
                lo[vi] = next_rank;
                hi[vi] = next_rank;
                next_rank += 1;
            }
            if let Some(p) = tree.parent(v) {
                let pi = p.index();
                lo[pi] = lo[pi].min(lo[vi]);
                hi[pi] = hi[pi].max(hi[vi]);
            }
        }
        let counts = count_clades((0..n).map(|i| (lo[i], hi[i])), next_rank);
        TreeContent {
            hashes,
            counts,
            distinct_leaves: clade_hash::distinct_named_leaves(tree),
        }
    }
}

// ---------------------------------------------------------------------------
// Read surface
// ---------------------------------------------------------------------------

impl<'a, D: DbRead> ReadCtx<'a, D> {
    /// The content-address summary row of a tree. An unknown handle is
    /// [`CrimsonError::UnknownTree`]; a stored tree without its row is
    /// [`CrimsonError::CorruptRepository`].
    pub fn tree_stats(&self, handle: TreeHandle) -> CrimsonResult<TreeStatsRecord> {
        let rows = self.db.lookup_rows(
            self.tables.tree_stats,
            "tree_id",
            &Value::Int(handle.0 as i64),
        )?;
        match rows.into_iter().next() {
            Some((rid, row)) => decode_tree_stats_row(&row).ok_or_else(|| {
                CrimsonError::CorruptRepository(format!(
                    "tree_stats row {rid} carries a malformed clade hash"
                ))
            }),
            None => {
                let tree = self.tree_record(handle)?;
                Err(CrimsonError::CorruptRepository(format!(
                    "tree `{}` has no tree_stats row",
                    tree.name
                )))
            }
        }
    }

    /// The stored clade hash and end rank of the subtree rooted at rank
    /// `pre` of `tree`: one covering probe of `hash_by_pre`. `None` when the
    /// rank carries no hash entry.
    pub(crate) fn subtree_hash_at(
        &self,
        tree: TreeHandle,
        pre: u32,
    ) -> CrimsonResult<Option<(CladeHash, u32)>> {
        let low = interval_key_prefix(tree.0, pre);
        let high = interval_range_end(tree.0, pre);
        match self
            .db
            .raw_first_in_range(self.tables.hash_by_pre, &low, &high, |key, value| {
                decode_hash_by_pre_key(key).map(|(_, _, h)| (h, unpack_span(value).1))
            })? {
            Some(Some(found)) => Ok(Some(found)),
            Some(None) => Err(CrimsonError::CorruptRepository(
                "malformed clade-hash key".to_string(),
            )),
            None => Ok(None),
        }
    }

    /// The canonical clade hash of the subtree rooted at a stored node.
    pub fn subtree_hash(&self, id: StoredNodeId) -> CrimsonResult<CladeHash> {
        let tree = id.0 >> TREE_SHIFT;
        let (pre, _) = self.interval_of(id)?;
        self.subtree_hash_at(TreeHandle(tree), pre)?
            .map(|(h, _)| h)
            .ok_or_else(|| {
                CrimsonError::CorruptRepository(format!("node {id} has no clade-hash entry"))
            })
    }

    /// O(1) whole-tree equality: same unordered topology with the same
    /// leaf-name multiset. Two stats-row lookups, no tree is streamed.
    pub fn trees_equal(&self, a: TreeHandle, b: TreeHandle) -> CrimsonResult<bool> {
        let sa = self.tree_stats(a)?;
        let sb = self.tree_stats(b)?;
        Ok(sa.root_hash == sb.root_hash)
    }

    /// O(1) subtree equality between two stored nodes (possibly of
    /// different trees): two interval lookups and two hash probes.
    pub fn subtrees_equal(&self, a: StoredNodeId, b: StoredNodeId) -> CrimsonResult<bool> {
        Ok(self.subtree_hash(a)? == self.subtree_hash(b)?)
    }

    /// Every `hash_idx` occurrence of `hash` as `(tree, pre, end)` — tree
    /// roots plus internal subtrees spanning at least
    /// [`HASH_IDX_MIN_SPAN`](crate::repository) nodes.
    pub fn subtrees_with_hash(
        &self,
        hash: CladeHash,
    ) -> CrimsonResult<Vec<(TreeHandle, u32, u32)>> {
        let low = hash_idx_prefix(hash);
        let high = hash_idx_range_end(hash);
        let mut out = Vec::new();
        let mut malformed = false;
        self.db.raw_scan(
            self.tables.hash_idx,
            Some(low.as_slice()),
            high.as_ref().map(|h| h.as_slice()),
            &mut |key, value| match decode_hash_idx_key(key) {
                Some((_, tree, pre)) => {
                    let (_, end) = unpack_span(value);
                    out.push((TreeHandle(tree), pre, end));
                    Ok(true)
                }
                None => {
                    malformed = true;
                    Ok(false)
                }
            },
        )?;
        if malformed {
            return Err(CrimsonError::CorruptRepository(
                "malformed content-address key".to_string(),
            ));
        }
        Ok(out)
    }

    /// Stored trees whose whole-tree content address equals `hash` — the
    /// `pre == 0` slice of [`ReadCtx::subtrees_with_hash`].
    pub fn trees_with_root_hash(&self, hash: CladeHash) -> CrimsonResult<Vec<TreeHandle>> {
        Ok(self
            .subtrees_with_hash(hash)?
            .into_iter()
            .filter(|&(_, pre, _)| pre == 0)
            .map(|(tree, _, _)| tree)
            .collect())
    }

    /// Map every distinct clade hash of `handle` to one pre-order rank
    /// carrying it — one range scan of the tree's `hash_by_pre` slice. The
    /// experiment runner uses it to remap per-clade agreement rows onto a
    /// deduplicated canonical tree.
    pub(crate) fn hash_to_pre_map(
        &self,
        handle: TreeHandle,
    ) -> CrimsonResult<HashMap<CladeHash, u32>> {
        let low = handle.0.to_be_bytes();
        let high = (handle.0 + 1).to_be_bytes();
        let mut map = HashMap::new();
        self.db.raw_scan(
            self.tables.hash_by_pre,
            Some(low.as_slice()),
            Some(high.as_slice()),
            &mut |key, _| {
                if let Some((_, pre, h)) = decode_hash_by_pre_key(key) {
                    map.entry(h).or_insert(pre);
                }
                Ok(true)
            },
        )?;
        Ok(map)
    }

    /// Map every distinct clade hash of `handle` to one stored node
    /// carrying it: the hash→pre map joined with a `ivl_by_pre` scan. Used
    /// to remap per-clade agreement rows onto a deduplicated canonical
    /// tree, whose arena numbering is unrelated to the reconstruction's.
    pub(crate) fn hash_to_node_map(
        &self,
        handle: TreeHandle,
    ) -> CrimsonResult<HashMap<CladeHash, StoredNodeId>> {
        let by_pre = self.hash_to_pre_map(handle)?;
        let mut pre_to_node: HashMap<u32, u32> = HashMap::with_capacity(by_pre.len());
        self.scan_span(handle.0, 0, u32::MAX, |e, _| {
            pre_to_node.insert(e.pre, e.node);
        })?;
        let mut map = HashMap::with_capacity(by_pre.len());
        for (hash, pre) in by_pre {
            if let Some(&node) = pre_to_node.get(&pre) {
                map.insert(hash, StoredNodeId((handle.0 << TREE_SHIFT) | node as u64));
            }
        }
        Ok(map)
    }
}

// ---------------------------------------------------------------------------
// Writer surface
// ---------------------------------------------------------------------------

impl Repository {
    /// Persist the content address of a freshly loaded, fully materialized
    /// tree: the `hash_by_pre` run (sorted, rides the bulk appender — the
    /// new tree id sorts after every existing key), the thresholded global
    /// `hash_idx` entries (point inserts; hash-first keys interleave across
    /// trees) and the `tree_stats` summary row.
    pub(crate) fn insert_content_address(
        &mut self,
        tree_id: u64,
        rows: impl Iterator<Item = (u32, u32, CladeHash)>,
        counts: CladeCounts,
        distinct_leaves: bool,
    ) -> CrimsonResult<()> {
        let rows: Vec<(u32, u32, CladeHash)> = rows.collect();
        let root_hash = rows
            .first()
            .map(|&(_, _, h)| h)
            .ok_or(CrimsonError::Phylo(phylo::PhyloError::EmptyTree))?;
        self.db.bulk_raw_insert(
            self.tables.hash_by_pre,
            BULK_FILL,
            rows.iter()
                .map(|&(pre, end, h)| (hash_by_pre_key(tree_id, pre, h), pack_span(pre, end))),
        )?;
        for &(pre, end, h) in &rows {
            if pre == 0 || end - pre + 1 >= HASH_IDX_MIN_SPAN {
                self.db.raw_insert(
                    self.tables.hash_idx,
                    &hash_idx_key(h, tree_id, pre),
                    pack_span(pre, end),
                )?;
            }
        }
        let flags = if distinct_leaves {
            STATS_FLAG_DISTINCT_LEAVES
        } else {
            0
        };
        self.db.insert(
            self.tables.tree_stats,
            &[
                Value::Int(tree_id as i64),
                Value::bytes(root_hash.as_bytes().to_vec()),
                Value::Int(counts.rooted as i64),
                Value::Int(counts.unrooted as i64),
                Value::Int(flags),
            ],
        )?;
        Ok(())
    }

    /// Store `tree` under `name` unless a content-identical tree already
    /// exists, in which case the canonical stored tree's handle is returned
    /// and **nothing is written** (no tree row is created under `name`).
    /// Returns `(handle, true)` on a dedup hit, `(handle, false)` after a
    /// full store. Trees without distinct leaf names are always stored in
    /// full — their content address is ambiguous by construction.
    pub fn store_tree_dedup(
        &mut self,
        name: &str,
        tree: &Tree,
    ) -> CrimsonResult<(TreeHandle, bool)> {
        if tree.is_empty() {
            return Err(CrimsonError::Phylo(phylo::PhyloError::EmptyTree));
        }
        if !clade_hash::distinct_named_leaves(tree) {
            return Ok((self.load_tree(name, tree)?, false));
        }
        let hash = clade_hash::root_hash(tree).expect("non-empty tree has a root");
        for handle in self.view().trees_with_root_hash(hash)? {
            let stats = self.view().tree_stats(handle)?;
            if stats.distinct_leaves {
                return Ok((handle, true));
            }
        }
        Ok((self.load_tree(name, tree)?, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::RepositoryOptions;
    use phylo::builder::balanced_binary;
    use simulation::birth_death::yule_tree;
    use tempfile::tempdir;

    fn repo() -> (tempfile::TempDir, Repository) {
        let dir = tempdir().unwrap();
        let repo = Repository::create(
            dir.path().join("content.crimson"),
            RepositoryOptions {
                buffer_pool_pages: 1024,
                ..Default::default()
            },
        )
        .unwrap();
        (dir, repo)
    }

    /// Rebuild `src` node by node, inserting every node's children in an
    /// order drawn from `rng` — the same phylogeny with a different child
    /// order and arena layout.
    fn shuffled_rebuild(src: &Tree, rng: &mut rand::rngs::StdRng) -> Tree {
        use rand::seq::SliceRandom;
        fn copy(
            src: &Tree,
            out: &mut Tree,
            node: phylo::NodeId,
            parent: Option<phylo::NodeId>,
            rng: &mut rand::rngs::StdRng,
        ) {
            let dst = match parent {
                None => match src.name(node) {
                    Some(n) => out.add_named_node(n),
                    None => out.add_node(),
                },
                Some(p) => out
                    .add_child(
                        p,
                        src.name(node).map(str::to_string),
                        src.branch_length(node),
                    )
                    .unwrap(),
            };
            let mut kids: Vec<phylo::NodeId> = src.children(node).to_vec();
            kids.shuffle(rng);
            for k in kids {
                copy(src, out, k, Some(dst), rng);
            }
        }
        let mut out = Tree::new();
        copy(src, &mut out, src.root_unchecked(), None, rng);
        out
    }

    #[test]
    fn hash_canonicalization_is_order_invariant() {
        use rand::SeedableRng;
        // Property: the canonical hash of every clade survives arbitrary
        // child-order permutations and insertion-order shuffles of the same
        // phylogeny — the whole hash multiset, not just the root.
        for seed in 0..8u64 {
            let tree = yule_tree(96, 1.0, seed);
            let root = clade_hash::root_hash(&tree).unwrap();
            let mut sorted: Vec<CladeHash> = clade_hash::tree_hashes(&tree);
            sorted.sort_unstable_by_key(|h| h.to_u128());
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC1ADE);
            for _ in 0..5 {
                let shuffled = shuffled_rebuild(&tree, &mut rng);
                assert_eq!(clade_hash::root_hash(&shuffled).unwrap(), root);
                let mut hashes = clade_hash::tree_hashes(&shuffled);
                hashes.sort_unstable_by_key(|h| h.to_u128());
                assert_eq!(hashes, sorted, "hash multiset changed under shuffle");
            }
        }
    }

    #[test]
    fn distinct_topologies_do_not_collide() {
        // 500 independently simulated labeled topologies — every root hash
        // must be distinct (the canonical hash is a content address, so a
        // collision here would silently dedup different trees).
        let mut seen = HashSet::new();
        for seed in 0..500u64 {
            let tree = yule_tree(64, 1.0, seed);
            let hash = clade_hash::root_hash(&tree).unwrap();
            assert!(
                seen.insert(hash.to_u128()),
                "distinct topologies collided at seed {seed}"
            );
        }
    }

    #[test]
    fn count_clades_matches_known_small_trees() {
        // 4-leaf balanced binary: two cherries → 2 rooted clades, 1 split.
        let counts = TreeContent::compute(&balanced_binary(2, 1.0)).counts;
        assert_eq!(
            counts,
            CladeCounts {
                rooted: 2,
                unrooted: 1
            }
        );
        // A single leaf has neither.
        let mut leaf = Tree::new();
        leaf.add_named_node("only");
        let counts = TreeContent::compute(&leaf).counts;
        assert_eq!(counts, CladeCounts::default());
    }

    #[test]
    fn bulk_and_reference_loads_store_identical_content_addresses() {
        let (_d, mut repo) = repo();
        let tree = yule_tree(80, 1.0, 11);
        let ha = repo.load_tree("bulk", &tree).unwrap();
        let hb = repo.load_tree_reference("reference", &tree).unwrap();
        let sa = repo.view().tree_stats(ha).unwrap();
        let sb = repo.view().tree_stats(hb).unwrap();
        assert_eq!(sa.root_hash, sb.root_hash);
        assert_eq!(sa.rooted_clades, sb.rooted_clades);
        assert_eq!(sa.unrooted_splits, sb.unrooted_splits);
        assert!(sa.distinct_leaves && sb.distinct_leaves);
        assert!(repo.view().trees_equal(ha, hb).unwrap());
        // Per-node hashes agree too: both pre ranges map hash → pre
        // identically up to rank numbering.
        let ma = repo.view().hash_to_pre_map(ha).unwrap();
        let mb = repo.view().hash_to_pre_map(hb).unwrap();
        assert_eq!(ma, mb);
    }

    #[test]
    fn equality_and_lookup_across_distinct_trees() {
        let (_d, mut repo) = repo();
        let a = yule_tree(50, 1.0, 3);
        let b = yule_tree(50, 1.0, 4);
        let ha = repo.load_tree("a", &a).unwrap();
        let hb = repo.load_tree("b", &b).unwrap();
        assert!(!repo.view().trees_equal(ha, hb).unwrap());
        let root_hash = clade_hash::root_hash(&a).unwrap();
        assert_eq!(
            repo.view().trees_with_root_hash(root_hash).unwrap(),
            vec![ha]
        );
        // Subtree self-equality via stored nodes.
        let root = repo.view().tree_record(ha).unwrap().root;
        assert!(repo.view().subtrees_equal(root, root).unwrap());
        assert_eq!(repo.view().subtree_hash(root).unwrap(), root_hash);
    }

    #[test]
    fn store_tree_dedup_returns_canonical_handle() {
        let (_d, mut repo) = repo();
        let tree = yule_tree(64, 1.0, 9);
        let (h1, hit1) = repo.store_tree_dedup("first", &tree).unwrap();
        assert!(!hit1);
        let (h2, hit2) = repo.store_tree_dedup("second", &tree).unwrap();
        assert!(hit2);
        assert_eq!(h1, h2);
        // No second tree row was created.
        assert_eq!(repo.view().list_trees().unwrap().len(), 1);
        // A different topology stores fresh.
        let other = yule_tree(64, 1.0, 10);
        let (h3, hit3) = repo.store_tree_dedup("third", &other).unwrap();
        assert!(!hit3);
        assert_ne!(h1, h3);
        let report = repo.view().integrity_check().unwrap();
        assert_eq!(report.trees, 2);
    }
}
