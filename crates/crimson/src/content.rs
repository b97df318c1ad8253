//! Content-addressed tree storage: canonical clade hashes, O(1) equality
//! and dedup-on-store.
//!
//! A stored tree's content address is its `tree_stats` row: the
//! [`labeling::clade_hash`] Merkle hash of its root clade, its distinct
//! clade and split counts and a distinct-leaf-names flag, with a non-unique
//! index on the root hash. On top of that row this module implements:
//!
//! * **O(1) equality** — [`ReadCtx::trees_equal`] compares two stats rows;
//!   no scan, no node rows.
//! * **No-scan lookup** — [`ReadCtx::trees_with_root_hash`] answers "which
//!   stored trees equal this one" with one probe of the `root_hash` index.
//! * **Dedup-on-store** — [`Repository::store_tree_dedup`] returns the
//!   canonical stored tree when an identical one already exists, instead of
//!   writing a second full copy; the experiment runner persists sweep
//!   reconstructions through it.
//!
//! The hashes of the other nodes are not stored:
//! [`ReadCtx::clade_hashes`] recomputes them from the tree's interval
//! entries and leaf names when the experiment runner remaps agreement rows
//! onto a deduplicated tree and when [`ReadCtx::integrity_check`] verifies
//! a stored root hash.
//!
//! The loader writes the stats row in the same transaction as the tree,
//! so a tree without it is a damaged file
//! ([`CrimsonError::CorruptRepository`]), which
//! [`ReadCtx::integrity_check`] reports.

use crate::error::{CrimsonError, CrimsonResult};
use crate::repository::{
    decode_tree_stats_row, ReadCtx, Repository, StoredNodeId, TreeHandle, TreeStatsRecord,
    STATS_FLAG_DISTINCT_LEAVES, TREE_SHIFT,
};
use labeling::clade_hash::{self, CladeHash};
use phylo::Tree;
use reconstruction::compare::CladeSource;
use std::collections::HashSet;
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
            Some((rid, row)) => stats_row(rid, &row),
            None => {
                let tree = self.tree_record(handle)?;
                Err(CrimsonError::CorruptRepository(format!(
                    "tree `{}` has no tree_stats row",
                    tree.name
                )))
            }
        }
    }

    /// O(1) whole-tree equality: same unordered topology with the same
    /// leaf-name multiset. Two stats-row lookups, no tree is streamed.
    pub fn trees_equal(&self, a: TreeHandle, b: TreeHandle) -> CrimsonResult<bool> {
        let sa = self.tree_stats(a)?;
        let sb = self.tree_stats(b)?;
        Ok(sa.root_hash == sb.root_hash)
    }

    /// The stats rows of the stored trees whose whole-tree content address
    /// equals `hash`: one probe of the `tree_stats` root-hash index.
    pub fn trees_with_root_hash(&self, hash: CladeHash) -> CrimsonResult<Vec<TreeStatsRecord>> {
        self.db
            .lookup_rows(
                self.tables.tree_stats,
                "root_hash",
                &Value::bytes(hash.as_bytes().to_vec()),
            )?
            .into_iter()
            .map(|(rid, row)| stats_row(rid, &row))
            .collect()
    }

    /// The canonical clade hash of every node of a stored tree, with the
    /// node, in pre-order. Only the root hash is stored (in `tree_stats`);
    /// this reruns [`clade_hash::tree_hashes`]'s recipe over the tree's
    /// `ivl_by_pre` entries and leaf names, as [`ReadCtx::clade_source`]
    /// streams them. In reverse pre-order every child is finished before
    /// its parent, and a node's children are the finished subtrees on top
    /// of a stack whose rank its `(pre, end]` span covers.
    pub fn clade_hashes(
        &self,
        handle: TreeHandle,
    ) -> CrimsonResult<Vec<(StoredNodeId, CladeHash)>> {
        let mut nodes: Vec<(u32, u32, u32, Option<String>)> = Vec::new();
        self.clade_source(handle)?
            .for_each_node(&mut |pre, end, node, name| {
                nodes.push((pre, end, node, name.map(str::to_owned)))
            })?;
        let mut out = Vec::with_capacity(nodes.len());
        // Finished subtrees not yet joined to their parent, as `(pre,
        // hash)`; the lowest rank is on top.
        let mut finished: Vec<(u32, CladeHash)> = Vec::new();
        let mut children: Vec<CladeHash> = Vec::new();
        for &(pre, end, node, ref name) in nodes.iter().rev() {
            let hash = if end == pre {
                CladeHash::leaf(name.as_deref())
            } else {
                children.clear();
                while let Some(&(_, child)) = finished.last().filter(|&&(p, _)| p <= end) {
                    children.push(child);
                    finished.pop();
                }
                CladeHash::internal(&mut children)
            };
            finished.push((pre, hash));
            out.push((StoredNodeId((handle.0 << TREE_SHIFT) | node as u64), hash));
        }
        out.reverse();
        Ok(out)
    }
}

/// Decode the `tree_stats` row stored at `rid`.
fn stats_row(rid: storage::RecordId, row: &storage::schema::Row) -> CrimsonResult<TreeStatsRecord> {
    decode_tree_stats_row(row).ok_or_else(|| {
        CrimsonError::CorruptRepository(format!(
            "tree_stats row {rid} carries a malformed clade hash"
        ))
    })
}

// ---------------------------------------------------------------------------
// Writer surface
// ---------------------------------------------------------------------------

impl Repository {
    /// Persist the content address of a freshly loaded tree: its
    /// `tree_stats` summary row.
    pub(crate) fn insert_content_address(
        &mut self,
        tree_id: u64,
        root_hash: CladeHash,
        counts: CladeCounts,
        distinct_leaves: bool,
    ) -> CrimsonResult<()> {
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
        let stored = self.view().trees_with_root_hash(hash)?;
        match stored.into_iter().find(|stats| stats.distinct_leaves) {
            Some(stats) => Ok((stats.handle, true)),
            None => Ok((self.load_tree(name, tree)?, false)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::{LoadPass, RepositoryOptions};
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
        let counts = LoadPass::compute(&balanced_binary(2, 1.0)).counts;
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
        let counts = LoadPass::compute(&leaf).counts;
        assert_eq!(counts, CladeCounts::default());
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
        let found = repo.view().trees_with_root_hash(root_hash).unwrap();
        assert_eq!(found, vec![repo.view().tree_stats(ha).unwrap()]);
        // The recomputed root hash names the stored root.
        let root = repo.view().tree_record(ha).unwrap().root;
        assert_eq!(repo.view().clade_hashes(ha).unwrap()[0], (root, root_hash));
        // A second full copy of `a` has the same content address.
        let again = repo.load_tree("a again", &a).unwrap();
        assert!(repo.view().trees_equal(ha, again).unwrap());
        assert_eq!(
            repo.view().trees_with_root_hash(root_hash).unwrap().len(),
            2
        );
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
