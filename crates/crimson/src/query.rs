//! Structure queries over the stored tree: minimal spanning clade, tree
//! projection and tree pattern match (§2.2 of the paper).
//!
//! All queries run against the disk-resident repository; none of them
//! materialize the full stored tree in memory — only the index entries and
//! rows a query touches are read, which is the paper's central argument for
//! a database-backed design.
//!
//! ## Access paths
//!
//! The engine runs on two persistent structures: the **interval index**
//! (see [`labeling::interval`] for the layout), where a node's subtree is
//! the contiguous key range `[(tree, pre), (tree, end)]`, and each tree's
//! **pre-order depth column** (see `crate::depth`), where the LCA of two
//! non-nested nodes is the parent of the shallowest rank between them. So
//!
//! * `minimal_spanning_clade` is one LCA plus **one range scan** — no
//!   breadth-first search, no per-node row fetch;
//! * `project` fetches the selected rows, reads the tree's block minima
//!   once, and resolves the consecutive-pair LCAs the paper's insertion
//!   algorithm needs with **one range-minimum query per pair** (at most two
//!   partial depth blocks each, the boundary block shared between
//!   neighbouring pairs); the LCAs' interval entries are read in one
//!   ascending pass and their rows through the entries' heap locators, so
//!   rows are fetched only for the ~2k nodes that appear in the output and
//!   the cost does not depend on the tree's depth or on how densely the
//!   selection covers its clade;
//! * `pattern_match` rides on `project`.
//!
//! The pre-index implementations (label walks + BFS) are kept as
//! `*_reference` methods: the property tests cross-validate against them and
//! the benchmark suite uses them as the page-read baseline.
//!
//! Everything here is a method of [`ReadCtx`], the one read surface: the
//! writer's [`Repository::view`](crate::Repository::view) and concurrent
//! [`crate::reader::RepositoryReader`]s run the same code.

use crate::error::{CrimsonError, CrimsonResult};
use crate::repository::{NodeRecord, ReadCtx, StoredNodeId, TreeHandle, TREE_SHIFT};
use labeling::interval::{interval_key_prefix, interval_range_end, IntervalEntry};
use phylo::ops;
use phylo::{NodeId, Tree};
use reconstruction::compare::{robinson_foulds, RfResult};
use std::collections::VecDeque;
use std::sync::Arc;
use storage::db::DbRead;

/// Result of a tree pattern match query.
#[derive(Debug, Clone)]
pub struct PatternMatch {
    /// `true` when the projected subtree and the pattern are isomorphic as
    /// leaf-labelled topologies (the paper's exact match).
    pub exact_topology: bool,
    /// `true` when, additionally, branch lengths agree within `1e-6`.
    pub exact_with_lengths: bool,
    /// Robinson–Foulds comparison between the projection and the pattern —
    /// the "measure of similarity" for approximate matches.
    pub rf: RfResult,
    /// The projected subtree the pattern was compared against.
    pub projection: Tree,
}

impl<'a, D: DbRead> ReadCtx<'a, D> {
    // ------------------------------------------------------------------
    // Minimal spanning clade
    // ------------------------------------------------------------------

    /// Minimal spanning clade of a set of nodes: all nodes in the subtree
    /// rooted at their least common ancestor (§2.2), in pre-order.
    ///
    /// Each input node's interval is fetched exactly once; the LCA of the
    /// whole set is the LCA of its minimum- and maximum-rank members; and
    /// the clade itself is **one contiguous range scan** over the interval
    /// index — no per-node row fetch, no breadth-first search.
    pub fn minimal_spanning_clade(
        &self,
        nodes: &[StoredNodeId],
    ) -> CrimsonResult<Vec<StoredNodeId>> {
        if nodes.is_empty() {
            return Err(CrimsonError::InvalidSample("empty node set".to_string()));
        }
        let tree = nodes[0].0 >> TREE_SHIFT;
        let mut min: Option<(u32, StoredNodeId)> = None;
        let mut max: Option<(u32, StoredNodeId)> = None;
        for &n in nodes {
            if n.0 >> TREE_SHIFT != tree {
                return Err(CrimsonError::InvalidSample(
                    "spanning clade spans multiple trees".to_string(),
                ));
            }
            let (pre, _) = self.interval_of(n)?;
            if min.is_none_or(|(p, _)| pre < p) {
                min = Some((pre, n));
            }
            if max.is_none_or(|(p, _)| pre > p) {
                max = Some((pre, n));
            }
        }
        let (min, max) = (
            min.expect("nodes is non-empty"),
            max.expect("nodes is non-empty"),
        );
        let lca = self.lca(min.1, max.1)?;
        let (lp, le) = self.interval_of(lca)?;
        let low = interval_key_prefix(tree, lp);
        let high = interval_range_end(tree, le);
        let mut out = Vec::with_capacity((le - lp + 1) as usize);
        let mut malformed = false;
        self.db.raw_scan(
            self.tables.ivl_by_pre,
            Some(&low),
            Some(&high),
            &mut |key, _| match IntervalEntry::decode_key(key) {
                Some((_, entry)) => {
                    out.push(StoredNodeId((tree << TREE_SHIFT) | entry.node as u64));
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
                "malformed interval-index key".to_string(),
            ));
        }
        Ok(out)
    }

    /// Reference implementation of the minimal spanning clade from before
    /// the interval index: fold pairwise label-walk LCAs, then breadth-first
    /// collection through the parent index with one row fetch per node.
    /// Kept for cross-validation and as the page-read baseline.
    pub fn minimal_spanning_clade_reference(
        &self,
        nodes: &[StoredNodeId],
    ) -> CrimsonResult<Vec<StoredNodeId>> {
        if nodes.is_empty() {
            return Err(CrimsonError::InvalidSample("empty node set".to_string()));
        }
        let mut lca = nodes[0];
        for &n in &nodes[1..] {
            lca = self.lca_label_walk(lca, n)?;
        }
        let mut out = Vec::new();
        let mut queue = VecDeque::from([lca]);
        while let Some(node) = queue.pop_front() {
            out.push(node);
            for child in self.children(node)? {
                queue.push_back(child);
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Tree projection
    // ------------------------------------------------------------------

    /// Project the stored tree onto a set of leaf nodes, following the
    /// paper's algorithm: sort the leaves by pre-order, insert them left to
    /// right, and determine each insertion point from the LCA of consecutive
    /// leaves along the rightmost path of the partial tree. Unary nodes
    /// never arise; edge weights are differences of stored cumulative root
    /// distances.
    ///
    /// The consecutive-pair LCAs take the same path as
    /// [`ReadCtx::lca`]: range-minimum queries over the tree's pre-order
    /// depth column. The block minima are read once per query (and cached
    /// per tree), then each pair reads at most two partial depth blocks,
    /// whatever the tree's depth. A selected internal node is checked
    /// against its interval first, since it may be an ancestor of the next
    /// selected node. Node rows are fetched (through the record
    /// cache, the LCAs' through their interval entries' heap locators) only
    /// for nodes that appear in the output — ~2k rows for k selected
    /// leaves, independent of tree size.
    ///
    /// The result is an in-memory [`Tree`] whose leaves carry the stored
    /// species names.
    pub fn project(&self, handle: TreeHandle, leaves: &[StoredNodeId]) -> CrimsonResult<Tree> {
        if leaves.is_empty() {
            return Err(CrimsonError::InvalidSample("empty leaf set".to_string()));
        }
        // The selected rows carry the pre-order rank to sort by and the
        // depth and leaf flag the pair LCAs need.
        let mut records = Vec::with_capacity(leaves.len());
        for &leaf in leaves {
            if leaf.0 >> TREE_SHIFT != handle.0 {
                return Err(CrimsonError::InvalidSample(format!(
                    "node {leaf} does not belong to tree #{}",
                    handle.0
                )));
            }
            records.push(self.node_record_arc(leaf)?);
        }
        records.sort_by_key(|r| r.preorder);
        records.dedup_by_key(|r| r.preorder);
        if records.len() == 1 {
            let mut out = Tree::new();
            let only = out.add_node();
            if let Some(name) = &records[0].name {
                out.set_name(only, name.clone())?;
            }
            return Ok(out);
        }

        // One range-minimum LCA per consecutive pair, with the tree's depth
        // minima read once.
        let lca_records = self.consecutive_lcas(handle.0, &records)?;
        assemble_projection(&records, &lca_records)
    }

    /// Reference implementation of projection from before the interval
    /// index: per-pair label-walk LCAs and uncached row fetches. Kept for
    /// cross-validation and as the page-read baseline.
    pub fn project_reference(
        &self,
        handle: TreeHandle,
        leaves: &[StoredNodeId],
    ) -> CrimsonResult<Tree> {
        if leaves.is_empty() {
            return Err(CrimsonError::InvalidSample("empty leaf set".to_string()));
        }
        let mut records = Vec::with_capacity(leaves.len());
        for &leaf in leaves {
            let rec = self.node_record_uncached(leaf)?;
            if rec.tree != handle {
                return Err(CrimsonError::InvalidSample(format!(
                    "node {leaf} does not belong to tree #{}",
                    handle.0
                )));
            }
            records.push(rec);
        }
        records.sort_by_key(|r| r.preorder);
        records.dedup_by_key(|r| r.id);
        let records: Vec<Arc<NodeRecord>> = records.into_iter().map(Arc::new).collect();

        if records.len() == 1 {
            let mut out = Tree::new();
            let only = out.add_node();
            if let Some(name) = &records[0].name {
                out.set_name(only, name.clone())?;
            }
            return Ok(out);
        }
        let mut lca_records = Vec::with_capacity(records.len() - 1);
        for pair in records.windows(2) {
            let lca_id = self.lca_label_walk(pair[0].id, pair[1].id)?;
            lca_records.push(Arc::new(self.node_record_uncached(lca_id)?));
        }
        assemble_projection(&records, &lca_records)
    }

    /// Project by species names (§3 "user input" selection).
    pub fn project_species(&self, handle: TreeHandle, names: &[&str]) -> CrimsonResult<Tree> {
        let mut leaves = Vec::with_capacity(names.len());
        for name in names {
            leaves.push(self.require_species_node(handle, name)?);
        }
        self.project(handle, &leaves)
    }

    // ------------------------------------------------------------------
    // Tree pattern match
    // ------------------------------------------------------------------

    /// Tree pattern match (§2.2): project the stored tree onto the pattern's
    /// leaves and compare the projection with the pattern — exactly for an
    /// exact match, by Robinson–Foulds distance for an approximate one.
    pub fn pattern_match(&self, handle: TreeHandle, pattern: &Tree) -> CrimsonResult<PatternMatch> {
        let names: Vec<String> = pattern.leaf_names();
        if names.is_empty() {
            return Err(CrimsonError::InvalidSample(
                "pattern has no named leaves".to_string(),
            ));
        }
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let projection = self.project_species(handle, &refs)?;
        let exact_topology = ops::isomorphic(&projection, pattern);
        let exact_with_lengths = ops::isomorphic_with_lengths(&projection, pattern, 1e-6);
        let rf = if names.len() >= 2 {
            robinson_foulds(&projection, pattern)?
        } else {
            RfResult {
                distance: 0,
                max_distance: 0,
                normalized: 0.0,
                shared: 0,
            }
        };
        Ok(PatternMatch {
            exact_topology,
            exact_with_lengths,
            rf,
            projection,
        })
    }
}

/// The paper's left-to-right insertion algorithm, decoupled from how the
/// consecutive-pair LCAs were resolved: `records` are the selected nodes in
/// pre-order and `lca_records[i]` is the LCA of `records[i]` and
/// `records[i + 1]`. Maintains the rightmost path of the partial projection;
/// unary nodes never arise; edge weights are differences of stored
/// cumulative root distances.
pub(crate) fn assemble_projection(
    records: &[Arc<NodeRecord>],
    lca_records: &[Arc<NodeRecord>],
) -> CrimsonResult<Tree> {
    debug_assert_eq!(lca_records.len() + 1, records.len());
    let mut out = Tree::new();
    // Rightmost path of the partial projection: (stored record, new node).
    let mut path: Vec<(Arc<NodeRecord>, NodeId)> = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        if path.is_empty() {
            let node = out.add_node();
            if let Some(name) = &rec.name {
                out.set_name(node, name.clone())?;
            }
            path.push((Arc::clone(rec), node));
            continue;
        }
        // LCA of the new leaf and the current rightmost leaf.
        let lca_rec = &lca_records[i - 1];

        // Pop rightmost-path entries deeper than the LCA.
        let mut last_popped: Option<(Arc<NodeRecord>, NodeId)> = None;
        while path.last().is_some_and(|(r, _)| r.depth > lca_rec.depth) {
            last_popped = path.pop();
        }

        let top_is_lca = path.last().is_some_and(|(r, _)| r.id == lca_rec.id);
        let attach_under = if top_is_lca {
            path.last().expect("checked above").1
        } else {
            // The LCA is a new node on the path: splice it in between the
            // popped child (if any) and the current top.
            let parent_info = path.last().map(|(r, n)| (r.root_distance, *n));
            let lca_node = out.add_node();
            if let Some(name) = &lca_rec.name {
                out.set_name(lca_node, name.clone())?;
            }
            if let Some((child_rec, child_node)) = last_popped {
                out.attach(lca_node, child_node)?;
                out.set_branch_length(child_node, child_rec.root_distance - lca_rec.root_distance)?;
            }
            if let Some((parent_dist, parent_node)) = parent_info {
                out.attach(parent_node, lca_node)?;
                out.set_branch_length(lca_node, lca_rec.root_distance - parent_dist)?;
            }
            path.push((Arc::clone(lca_rec), lca_node));
            lca_node
        };

        let leaf_node = out.add_node();
        if let Some(name) = &rec.name {
            out.set_name(leaf_node, name.clone())?;
        }
        out.attach(attach_under, leaf_node)?;
        let parent_dist = path
            .last()
            .expect("attach target is on the path")
            .0
            .root_distance;
        out.set_branch_length(leaf_node, rec.root_distance - parent_dist)?;
        path.push((Arc::clone(rec), leaf_node));
    }

    // The bottom of the path is the projection root.
    let root_node = path.first().expect("at least one node was inserted").1;
    let mut top = root_node;
    while let Some(p) = out.parent(top) {
        top = p;
    }
    out.set_root(top)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::{Repository, RepositoryOptions};
    use phylo::builder::{balanced_binary, figure1_tree};
    use phylo::ops::{is_unary_free, project_by_names};
    use simulation::birth_death::yule_tree;
    use tempfile::tempdir;

    fn repo_with(tree: &Tree, f: usize) -> (tempfile::TempDir, Repository, TreeHandle) {
        let dir = tempdir().unwrap();
        let mut repo = Repository::create(
            dir.path().join("repo.crimson"),
            RepositoryOptions {
                frame_depth: f,
                buffer_pool_pages: 512,
                ..Default::default()
            },
        )
        .unwrap();
        let handle = repo.load_tree("t", tree).unwrap();
        (dir, repo, handle)
    }

    #[test]
    fn figure2_projection_from_repository() {
        let tree = figure1_tree();
        let (_d, repo, handle) = repo_with(&tree, 2);
        let projection = repo
            .view()
            .project_species(handle, &["Bha", "Lla", "Syn"])
            .unwrap();
        // Must equal the in-memory projection (the paper's Figure 2).
        let expected = project_by_names(&tree, &["Bha", "Lla", "Syn"]).unwrap();
        assert!(
            ops::isomorphic_with_lengths(&projection, &expected, 1e-9),
            "stored projection:\n{}\nexpected:\n{}",
            phylo::render::ascii(&projection),
            phylo::render::ascii(&expected)
        );
        // Lla's merged edge weight is 1.5 as in the paper.
        let lla = projection.find_leaf_by_name("Lla").unwrap();
        assert!((projection.branch_length(lla).unwrap() - 1.5).abs() < 1e-9);
        assert!(is_unary_free(&projection));
    }

    #[test]
    fn projection_matches_in_memory_on_many_subsets() {
        let tree = balanced_binary(5, 0.5); // 32 leaves
        let (_d, repo, handle) = repo_with(&tree, 3);
        let names = tree.leaf_names();
        for (skip, take) in [(0usize, 2usize), (1, 3), (3, 7), (5, 16), (0, 32)] {
            let subset: Vec<&str> = names
                .iter()
                .skip(skip)
                .step_by(2)
                .take(take)
                .map(|s| s.as_str())
                .collect();
            if subset.len() < 2 {
                continue;
            }
            let stored = repo.view().project_species(handle, &subset).unwrap();
            let expected = project_by_names(&tree, &subset).unwrap();
            assert!(
                ops::isomorphic_with_lengths(&stored, &expected, 1e-9),
                "subset {subset:?}\nstored:\n{}\nexpected:\n{}",
                phylo::render::ascii(&stored),
                phylo::render::ascii(&expected)
            );
        }
    }

    #[test]
    fn projection_on_simulated_tree_matches() {
        let tree = yule_tree(200, 1.0, 17);
        let (_d, repo, handle) = repo_with(&tree, 8);
        let names = tree.leaf_names();
        let subset: Vec<&str> = names.iter().step_by(9).map(|s| s.as_str()).collect();
        let stored = repo.view().project_species(handle, &subset).unwrap();
        let expected = project_by_names(&tree, &subset).unwrap();
        assert!(ops::isomorphic_with_lengths(&stored, &expected, 1e-9));
    }

    #[test]
    fn projection_single_leaf_and_errors() {
        let tree = figure1_tree();
        let (_d, repo, handle) = repo_with(&tree, 2);
        let syn = repo.view().require_species_node(handle, "Syn").unwrap();
        let p = repo.view().project(handle, &[syn]).unwrap();
        assert_eq!(p.node_count(), 1);
        assert_eq!(p.name(p.root_unchecked()), Some("Syn"));
        assert!(repo.view().project(handle, &[]).is_err());
        assert!(repo.view().project_species(handle, &["Ghost"]).is_err());
    }

    #[test]
    fn projection_rejects_foreign_nodes() {
        let tree = figure1_tree();
        let (_d, mut repo, handle) = {
            let dir = tempdir().unwrap();
            let mut repo = Repository::create(
                dir.path().join("repo.crimson"),
                RepositoryOptions {
                    frame_depth: 2,
                    buffer_pool_pages: 256,
                    ..Default::default()
                },
            )
            .unwrap();
            let handle = repo.load_tree("t", &tree).unwrap();
            (dir, repo, handle)
        };
        let other = repo.load_tree("other", &balanced_binary(3, 1.0)).unwrap();
        let foreign = repo.view().require_species_node(other, "T0").unwrap();
        assert!(repo.view().project(handle, &[foreign]).is_err());
    }

    #[test]
    fn minimal_spanning_clade_figure1() {
        let tree = figure1_tree();
        let (_d, repo, handle) = repo_with(&tree, 2);
        let lla = repo.view().require_species_node(handle, "Lla").unwrap();
        let spy = repo.view().require_species_node(handle, "Spy").unwrap();
        let clade = repo.view().minimal_spanning_clade(&[lla, spy]).unwrap();
        // LCA is their parent; the clade is {parent, Lla, Spy}.
        assert_eq!(clade.len(), 3);
        let bha = repo.view().require_species_node(handle, "Bha").unwrap();
        let clade = repo.view().minimal_spanning_clade(&[lla, bha]).unwrap();
        // LCA is the interior node i1; its subtree has 5 nodes.
        assert_eq!(clade.len(), 5);
        let syn = repo.view().require_species_node(handle, "Syn").unwrap();
        let clade = repo.view().minimal_spanning_clade(&[lla, syn]).unwrap();
        assert_eq!(
            clade.len(),
            8,
            "spanning clade of distant leaves is the whole tree"
        );
        assert!(repo.view().minimal_spanning_clade(&[]).is_err());
    }

    #[test]
    fn pattern_match_exact_and_swapped() {
        let tree = figure1_tree();
        let (_d, repo, handle) = repo_with(&tree, 2);
        // The Figure 2 pattern matches exactly.
        let pattern = phylo::newick::parse("((Bha:0.75,Lla:1.5):1.5,Syn:2.5);").unwrap();
        let result = repo.view().pattern_match(handle, &pattern).unwrap();
        assert!(result.exact_topology);
        assert!(result.exact_with_lengths);
        assert_eq!(result.rf.distance, 0);
        // Swapping Bha and Lla (the paper's counter-example) breaks the
        // weighted match.
        let swapped = phylo::newick::parse("((Lla:0.75,Bha:1.5):1.5,Syn:2.5);").unwrap();
        let result = repo.view().pattern_match(handle, &swapped).unwrap();
        assert!(!result.exact_with_lengths);
        // A topologically different pattern is not even an approximate match:
        // the pattern groups {Bha,Lla} and {Spy,Syn}, while the stored tree
        // groups {Lla,Spy}, so the RF distance is positive.
        let wrong = phylo::newick::parse("((Bha,Lla),(Spy,Syn));").unwrap();
        let result = repo.view().pattern_match(handle, &wrong).unwrap();
        assert!(!result.exact_topology);
        assert!(result.rf.distance > 0);
        // Three-leaf patterns carry no non-trivial unrooted splits, so RF
        // cannot discriminate them — only the exact check does.
        let wrong3 = phylo::newick::parse("((Bha,Syn),Lla);").unwrap();
        let result = repo.view().pattern_match(handle, &wrong3).unwrap();
        assert!(!result.exact_topology);
        assert_eq!(result.rf.distance, 0);
    }

    #[test]
    fn pattern_match_unknown_species_errors() {
        let tree = figure1_tree();
        let (_d, repo, handle) = repo_with(&tree, 2);
        let pattern = phylo::newick::parse("((Bha,Ghost),Syn);").unwrap();
        assert!(repo.view().pattern_match(handle, &pattern).is_err());
    }
}
