//! In-memory oracles the integration tests check stored answers against.
//!
//! A node the repository stores from arena node `n` of a tree loaded under
//! handle `h` has the id `(h << 32) | n`, so an answer read from disk maps
//! straight onto the in-memory tree it was loaded from. The oracles answer
//! from `labeling`'s in-memory schemes (parent pointers for LCA, interval
//! labels for ancestry and clades) and `phylo`'s in-memory projection,
//! which the labeling and phylo suites test on their own.

#![allow(dead_code)]

use crimson::prelude::*;
use crimson::repository::NodeRecord;
use labeling::{IntervalLabels, LcaScheme, ParentPointers};
use phylo::traverse::Traverse;
use phylo::{NodeId, Tree};

/// Stored id of arena node `n` of the tree stored under `handle`.
pub fn sid(handle: TreeHandle, n: NodeId) -> StoredNodeId {
    StoredNodeId((handle.0 << 32) | n.0 as u64)
}

/// Arena node of a stored id.
pub fn arena(id: StoredNodeId) -> NodeId {
    NodeId(id.0 as u32)
}

/// The in-memory answers for one stored tree.
pub struct Oracle {
    handle: TreeHandle,
    tree: Tree,
    parents: ParentPointers,
    intervals: IntervalLabels,
}

impl Oracle {
    /// Oracle for `tree`, as stored under `handle`.
    pub fn new(handle: TreeHandle, tree: &Tree) -> Oracle {
        Oracle {
            handle,
            tree: tree.clone(),
            parents: ParentPointers::build(tree),
            intervals: IntervalLabels::build(tree),
        }
    }

    fn node(&self, id: StoredNodeId) -> NodeId {
        assert_eq!(id.0 >> 32, self.handle.0, "{id} is not a node of this tree");
        arena(id)
    }

    /// The stored id of every node, in pre-order.
    pub fn preorder(&self) -> Vec<StoredNodeId> {
        self.tree.preorder().map(|v| sid(self.handle, v)).collect()
    }

    /// Children of `id`, in pre-order.
    pub fn children(&self, id: StoredNodeId) -> Vec<StoredNodeId> {
        let node = self.node(id);
        self.tree
            .children(node)
            .iter()
            .map(|&c| sid(self.handle, c))
            .collect()
    }

    /// Leaves of the subtree rooted at `id`, in pre-order.
    pub fn leaves_under(&self, id: StoredNodeId) -> Vec<StoredNodeId> {
        let top = self.node(id);
        self.tree
            .preorder()
            .filter(|&v| self.tree.is_leaf(v) && self.intervals.is_ancestor(top, v))
            .map(|v| sid(self.handle, v))
            .collect()
    }

    /// Leaves of the whole tree, in pre-order.
    pub fn leaves(&self) -> Vec<StoredNodeId> {
        self.leaves_under(sid(self.handle, self.tree.root_unchecked()))
    }

    /// Least common ancestor, by the parent-pointer walk.
    pub fn lca(&self, a: StoredNodeId, b: StoredNodeId) -> StoredNodeId {
        sid(self.handle, self.parents.lca(self.node(a), self.node(b)))
    }

    /// Ancestor-or-self test, by interval containment.
    pub fn is_ancestor(&self, ancestor: StoredNodeId, node: StoredNodeId) -> bool {
        self.intervals
            .is_ancestor(self.node(ancestor), self.node(node))
    }

    /// Minimal spanning clade of `set`, sorted by stored id.
    pub fn spanning_clade(&self, set: &[StoredNodeId]) -> Vec<StoredNodeId> {
        let top = set
            .iter()
            .map(|&n| self.node(n))
            .reduce(|a, b| self.parents.lca(a, b))
            .expect("non-empty set");
        let mut clade: Vec<StoredNodeId> = self
            .tree
            .node_ids()
            .filter(|&v| self.intervals.is_ancestor(top, v))
            .map(|v| sid(self.handle, v))
            .collect();
        clade.sort_unstable();
        clade
    }

    /// Projection onto the named leaves `leaves`.
    pub fn project(&self, leaves: &[StoredNodeId]) -> Tree {
        let names: Vec<&str> = leaves
            .iter()
            .map(|&n| self.tree.name(self.node(n)).expect("a named leaf"))
            .collect();
        phylo::ops::project_by_names(&self.tree, &names).expect("in-memory projection")
    }
}

/// Assert that a stored projection equals the oracle's, branch lengths
/// included.
pub fn assert_same_projection(stored: &Tree, expected: &Tree, what: &str) {
    assert!(
        phylo::ops::isomorphic_with_lengths(stored, expected, 1e-9),
        "{what}\nstored:\n{}\nexpected:\n{}",
        phylo::render::ascii(stored),
        phylo::render::ascii(expected)
    );
}

/// Check `children`, `leaves` and `leaves_under` of the tree `oracle`
/// describes against it, pre-order included, over every node.
pub fn check_topology(repo: &Repository, oracle: &Oracle) {
    let view = repo.view();
    assert_eq!(view.leaves(oracle.handle).unwrap(), oracle.leaves());
    for node in oracle.preorder() {
        let children = view.children(node).unwrap();
        assert_eq!(children, oracle.children(node), "children({node})");
        let leaves = view.leaves_under(node).unwrap();
        assert_eq!(leaves, oracle.leaves_under(node), "leaves_under({node})");
    }
}

/// The node row of every node of `tree`, as stored under `handle`, by arena
/// id: root distances, depths and pre-order ranks from `phylo`'s own
/// traversals, and subtree heights from a post-order fold.
pub fn node_records(handle: TreeHandle, tree: &Tree) -> Vec<NodeRecord> {
    let root_distances = tree.all_root_distances();
    let depths = tree.all_depths();
    let ranks = tree.preorder_ranks();
    let mut heights = vec![0.0f64; tree.node_count()];
    for v in tree.postorder() {
        heights[v.index()] = tree
            .children(v)
            .iter()
            .map(|&c| heights[c.index()] + tree.node(c).branch_length_or_zero())
            .fold(0.0, f64::max);
    }
    tree.node_ids()
        .map(|v| NodeRecord {
            id: sid(handle, v),
            tree: handle,
            parent: tree.parent(v).map(|p| sid(handle, p)),
            name: tree.name(v).map(str::to_owned),
            branch_length: tree.branch_length(v),
            root_distance: root_distances[v.index()],
            depth: depths[v.index()] as u64,
            preorder: ranks[v.index()] as u64,
            is_leaf: tree.is_leaf(v),
            subtree_height: heights[v.index()],
        })
        .collect()
}
