//! Index-native tree comparison: Robinson–Foulds and triplet distances
//! computed straight off the persistent interval index.
//!
//! The evaluation pipeline's workhorse is "how far is this tree from that
//! one". Before this module, answering it for *stored* trees meant
//! materializing both as in-memory [`Tree`]s (a full projection each) and
//! running the bitset comparison — everything PR 1's interval index avoids,
//! paid right back. Here a stored tree is exposed as a
//! [`reconstruction::compare::CladeSource`]: one contiguous range scan over
//! `ivl_by_pre` yields every node's `(pre, end)` clade interval in
//! pre-order, which is exactly the stream the Day-style streaming comparison
//! consumes: every stored tree is fully materialized, so its clade stream is
//! exactly its `ivl_by_pre` range. Internal structure never decodes a node
//! row; only **leaf** rows are fetched (through their heap locators, via the
//! record cache), because leaf names are the only cross-tree identity.
//!
//! Everything is a method of [`ReadCtx`], so the same code serves the
//! writer's [`Repository::view`](crate::Repository::view) and concurrent snapshot
//! [`crate::reader::RepositoryReader`]s.

use crate::error::{CrimsonError, CrimsonResult};
use crate::repository::{LoadPass, ReadCtx, StoredNodeId, TreeHandle, TreeStatsRecord, TREE_SHIFT};
use phylo::traverse::Traverse;
use phylo::Tree;
use reconstruction::compare::{
    compare_sources, CladeAgreement, CladeSource, NodeVisitor, RfResult, SourceComparison,
};
use storage::db::DbRead;

/// The [`RfResult`] of comparing a tree against an identical copy: zero
/// distance, every one of the `shared` non-trivial clades/splits present on
/// both sides — exactly what the streaming pass computes, without streaming.
fn rf_identical(shared: u64) -> RfResult {
    RfResult {
        distance: 0,
        max_distance: 2 * shared as usize,
        normalized: 0.0,
        shared: shared as usize,
    }
}

/// Assemble the [`SourceComparison`] of two content-identical trees from one
/// side's clade counts.
fn identical_comparison(
    rooted_clades: u64,
    unrooted_splits: u64,
    clades: Vec<CladeAgreement>,
    triplets: bool,
) -> SourceComparison {
    SourceComparison {
        rf: rf_identical(unrooted_splits),
        rooted_rf: rf_identical(rooted_clades),
        triplet: triplets.then_some(0.0),
        clades,
    }
}

/// The agreement rows of an in-memory tree compared against an identical
/// copy (arena node ids, as [`Tree`]'s own clade stream exposes them).
fn tree_agreement(tree: &Tree, n_leaves: u32) -> Vec<CladeAgreement> {
    let n = tree.node_count();
    let mut sizes = vec![0u32; n];
    for v in tree.postorder() {
        if tree.is_leaf(v) {
            sizes[v.index()] = 1;
        }
        if let Some(p) = tree.parent(v) {
            sizes[p.index()] += sizes[v.index()];
        }
    }
    let mut out = Vec::new();
    for v in tree.preorder() {
        let size = sizes[v.index()];
        if size >= 2 && size < n_leaves {
            out.push(CladeAgreement {
                node: v.0,
                size,
                agrees: true,
            });
        }
    }
    out
}

/// The comparison of two in-memory trees, synthesized in O(n) when their
/// canonical root hashes match — or `None` when they differ (or the hash is
/// ambiguous: duplicate/missing leaf names), in which case the caller runs
/// the streaming comparison. The experiment runner probes this before every
/// cell comparison, so reconstructions that recover the reference exactly
/// skip the bitset pass and the O(n³) triplet count outright.
pub(crate) fn equal_tree_comparison(
    a: &Tree,
    b: &Tree,
    triplets: bool,
) -> Option<SourceComparison> {
    if a.is_empty() || b.is_empty() {
        return None;
    }
    let n_leaves = b.leaf_ids().count() as u32;
    if triplets && n_leaves < 3 {
        return None;
    }
    if !labeling::clade_hash::distinct_named_leaves(a)
        || !labeling::clade_hash::distinct_named_leaves(b)
    {
        return None;
    }
    if labeling::clade_hash::root_hash(a)? != labeling::clade_hash::root_hash(b)? {
        return None;
    }
    let counts = LoadPass::compute(b).counts;
    Some(identical_comparison(
        counts.rooted,
        counts.unrooted,
        tree_agreement(b, n_leaves),
        triplets,
    ))
}

/// A stored tree's topology, streamed off the `ivl_by_pre` covering index.
///
/// Obtained from [`ReadCtx::clade_source`] and consumed by [`reconstruction::compare::compare_sources`]; the structural
/// part of the stream is one range scan, and only leaf rows are decoded for
/// their names.
pub struct StoredCladeSource<'a, D: DbRead> {
    ctx: &'a ReadCtx<'a, D>,
    handle: TreeHandle,
    nodes: u64,
}

impl<D: DbRead> CladeSource for StoredCladeSource<'_, D> {
    type Error = CrimsonError;

    fn node_count_hint(&self) -> usize {
        self.nodes as usize
    }

    fn for_each_node(&self, visit: &mut NodeVisitor<'_>) -> CrimsonResult<()> {
        let tree = self.handle.0;
        let mut entries = Vec::new();
        self.ctx
            .scan_span(tree, 0, self.nodes.saturating_sub(1) as u32, |e, rid| {
                entries.push((e, rid))
            })?;
        if entries.len() as u64 != self.nodes {
            return Err(CrimsonError::CorruptRepository(format!(
                "tree #{tree} catalogs {} nodes but its interval range holds {}",
                self.nodes,
                entries.len()
            )));
        }
        // Leaf names through the heap locators the index carries — one page
        // read per uncached leaf row, no B+tree descent, nothing for internal
        // nodes.
        for (entry, rid) in &entries {
            let rec = if entry.is_leaf {
                let sid = StoredNodeId((tree << TREE_SHIFT) | entry.node as u64);
                Some(self.ctx.node_record_by_locator(sid, *rid)?)
            } else {
                None
            };
            let name = rec.as_ref().and_then(|r| r.name.as_deref());
            visit(entry.pre, entry.end, entry.node, name);
        }
        Ok(())
    }
}

impl<'a, D: DbRead> ReadCtx<'a, D> {
    /// The stored tree as a streaming clade source.
    pub fn clade_source(&self, handle: TreeHandle) -> CrimsonResult<StoredCladeSource<'_, D>> {
        let rec = self.tree_record(handle)?;
        Ok(StoredCladeSource {
            ctx: self,
            handle,
            nodes: rec.node_count,
        })
    }

    /// Robinson–Foulds (rooted and unrooted), per-clade agreement and —
    /// when `triplets` is set — triplet distance between two stored trees,
    /// computed inside the interval index: one range scan per tree, leaf
    /// rows only, no tree materialization.
    ///
    /// When both trees carry content addresses with equal root hashes (and
    /// unambiguous leaf names), the result is synthesized from the stored
    /// clade counts in O(1) — no index scan, no leaf-row fetches, no
    /// streaming comparison.
    ///
    /// The short-circuited result leaves `clades` empty: on an identical
    /// pair every non-trivial clade agrees, so the per-clade listing carries
    /// no information and enumerating it would cost exactly the O(n) scan
    /// the short-circuit exists to avoid (the agreeing-clade count is still
    /// exact in `rooted_rf.shared`). Callers that need the full listing for
    /// an identical pair can stream it via
    /// [`ReadCtx::compare_stored_with_tree`], whose in-memory side makes
    /// the enumeration a pure CPU pass.
    pub fn compare_stored(
        &self,
        a: TreeHandle,
        b: TreeHandle,
        triplets: bool,
    ) -> CrimsonResult<SourceComparison> {
        let (sa, sb) = (self.tree_stats(a)?, self.tree_stats(b)?);
        if Self::short_circuit_applies(&sa, &sb) {
            let rec = self.tree_record(b)?;
            if !(triplets && rec.leaf_count < 3) {
                return Ok(identical_comparison(
                    sb.rooted_clades,
                    sb.unrooted_splits,
                    Vec::new(),
                    triplets,
                ));
            }
        }
        let sa = self.clade_source(a)?;
        let sb = self.clade_source(b)?;
        compare_sources::<_, _, CrimsonError>(&sa, &sb, triplets)
    }

    /// Compare a stored tree against an in-memory one (the stored tree is
    /// the reference side; per-clade agreement describes the in-memory
    /// tree's nodes). Short-circuits like [`ReadCtx::compare_stored`] when
    /// the in-memory tree's root hash matches the stored content address —
    /// the in-memory side is hashed, but the stored side is never streamed
    /// and no leaf row is fetched.
    pub fn compare_stored_with_tree(
        &self,
        a: TreeHandle,
        b: &Tree,
        triplets: bool,
    ) -> CrimsonResult<SourceComparison> {
        let stats = self.tree_stats(a)?;
        if stats.distinct_leaves && !b.is_empty() {
            let n_leaves = b.leaf_ids().count() as u32;
            if labeling::clade_hash::root_hash(b) == Some(stats.root_hash)
                && labeling::clade_hash::distinct_named_leaves(b)
                && !(triplets && n_leaves < 3)
            {
                let counts = LoadPass::compute(b).counts;
                let clades = tree_agreement(b, n_leaves);
                return Ok(identical_comparison(
                    counts.rooted,
                    counts.unrooted,
                    clades,
                    triplets,
                ));
            }
        }
        let sa = self.clade_source(a)?;
        compare_sources::<_, _, CrimsonError>(&sa, b, triplets)
    }

    /// The equal-hash short-circuit is sound only when both sides carry a
    /// content address, the addresses match, and every leaf name is present
    /// and unique on both sides (duplicate or missing names make the hash
    /// ambiguous).
    fn short_circuit_applies(sa: &TreeStatsRecord, sb: &TreeStatsRecord) -> bool {
        sa.root_hash == sb.root_hash && sa.distinct_leaves && sb.distinct_leaves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::{Repository, RepositoryOptions};
    use phylo::builder::{balanced_binary, figure1_tree};
    use reconstruction::compare::{robinson_foulds, rooted_robinson_foulds, triplet_distance};
    use simulation::birth_death::yule_tree;
    use tempfile::tempdir;

    fn repo() -> (tempfile::TempDir, Repository) {
        let dir = tempdir().unwrap();
        let repo = Repository::create(
            dir.path().join("cmp.crimson"),
            RepositoryOptions {
                buffer_pool_pages: 1024,
                ..Default::default()
            },
        )
        .unwrap();
        (dir, repo)
    }

    #[test]
    fn stored_comparison_matches_materialized_comparison() {
        let (_d, mut repo) = repo();
        let a = yule_tree(60, 1.0, 3);
        let b = yule_tree(60, 1.0, 4); // same leaf-name set, other topology
        let ha = repo.load_tree("a", &a).unwrap();
        let hb = repo.load_tree("b", &b).unwrap();

        let cmp = repo.view().compare_stored(ha, hb, true).unwrap();
        assert_eq!(cmp.rf, robinson_foulds(&a, &b).unwrap());
        assert_eq!(cmp.rooted_rf, rooted_robinson_foulds(&a, &b).unwrap());
        let t = triplet_distance(&a, &b).unwrap();
        assert!((cmp.triplet.unwrap() - t).abs() < 1e-15);

        // Stored vs in-memory agrees too, in both pairings.
        let with_tree = repo.view().compare_stored_with_tree(ha, &b, true).unwrap();
        assert_eq!(with_tree.rf, cmp.rf);
        assert_eq!(with_tree.rooted_rf, cmp.rooted_rf);
        assert!((with_tree.triplet.unwrap() - t).abs() < 1e-15);
    }

    #[test]
    fn identical_stored_trees_have_zero_distance() {
        let (_d, mut repo) = repo();
        let tree = balanced_binary(5, 1.0);
        let ha = repo.load_tree("a", &tree).unwrap();
        // Same topology under a different name: ids differ, structure equal.
        let hb = repo.load_tree("b", &tree).unwrap();
        let cmp = repo.view().compare_stored(ha, hb, false).unwrap();
        assert_eq!(cmp.rf.distance, 0);
        assert_eq!(cmp.rooted_rf.distance, 0);
        assert!(cmp.clades.iter().all(|c| c.agrees));
    }

    #[test]
    fn stored_comparison_from_snapshot_reader() {
        let (_d, mut repo) = repo();
        let a = yule_tree(40, 1.0, 7);
        let b = yule_tree(40, 1.0, 8);
        let ha = repo.load_tree("a", &a).unwrap();
        let hb = repo.load_tree("b", &b).unwrap();
        let reader = repo.reader().unwrap();
        let via_reader = reader.read(|v| v.compare_stored(ha, hb, false)).unwrap();
        let via_writer = repo.view().compare_stored(ha, hb, false).unwrap();
        assert_eq!(via_reader.rf, via_writer.rf);
        assert_eq!(via_reader.rooted_rf, via_writer.rooted_rf);
    }

    #[test]
    fn short_circuit_matches_streamed_identical_comparison() {
        let (_d, mut repo) = repo();
        let tree = yule_tree(120, 1.0, 12);
        let ha = repo.load_tree("a", &tree).unwrap();
        let hb = repo.load_tree("b", &tree).unwrap();
        // Hash-equal hot trees take the O(1) path …
        let fast = repo.view().compare_stored(ha, hb, true).unwrap();
        // … while streaming both clade sources, the code the pre-hash
        // build used, gives the ground truth.
        let view = repo.view();
        let slow = compare_sources::<_, _, CrimsonError>(
            &view.clade_source(ha).unwrap(),
            &view.clade_source(hb).unwrap(),
            true,
        )
        .unwrap();
        assert_eq!(fast.rf, slow.rf);
        assert_eq!(fast.rooted_rf, slow.rooted_rf);
        assert_eq!(fast.triplet, slow.triplet);
        assert_eq!(fast.rf.distance, 0);
        // The O(1) path omits the (all-agreeing) per-clade listing; the
        // agreeing-clade count is still exact.
        assert!(fast.clades.is_empty());
        assert_eq!(fast.rooted_rf.shared, slow.clades.len());
        assert!(slow.clades.iter().all(|c| c.agrees));
        // The in-memory pairing short-circuits to the same numbers and, with
        // the tree in memory, still enumerates the full agreement listing.
        let with_tree = repo
            .view()
            .compare_stored_with_tree(ha, &tree, true)
            .unwrap();
        assert_eq!(with_tree.rf, fast.rf);
        assert_eq!(with_tree.rooted_rf, fast.rooted_rf);
        assert_eq!(with_tree.triplet, Some(0.0));
        assert_eq!(with_tree.clades.len(), slow.clades.len());
        assert!(with_tree.clades.iter().all(|c| c.agrees));
    }

    #[test]
    fn stored_comparison_errors() {
        let (_d, mut repo) = repo();
        let ha = repo.load_tree("fig", &figure1_tree()).unwrap();
        // Unknown handle.
        assert!(repo
            .view()
            .compare_stored(ha, TreeHandle(99), false)
            .is_err());
        // Different leaf sets.
        let other = repo.load_tree("bal", &balanced_binary(3, 1.0)).unwrap();
        assert!(matches!(
            repo.view().compare_stored(ha, other, false),
            Err(CrimsonError::Compare(_))
        ));
    }
}
