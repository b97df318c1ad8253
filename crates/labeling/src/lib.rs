//! # crimson-labeling — node labeling schemes for deep phylogenetic trees
//!
//! The heart of the Crimson paper is an indexing strategy for structure
//! queries (least common ancestor, ancestor/descendant, minimal spanning
//! clade, projection) on trees that are far deeper than the XML documents
//! contemporary labeling schemes were designed for.
//!
//! This crate implements the paper's scheme and the baselines it is compared
//! against:
//!
//! * [`dewey::FlatDewey`] — the classical Dewey labeling (ref. \[11\]): a
//!   node's label is the sequence of child ordinals on the root path. LCA is
//!   the longest common label prefix, but labels grow linearly with depth.
//! * [`hierarchical::HierarchicalDewey`] — **the paper's contribution**: the
//!   tree is decomposed into subtrees ("frames") of depth at most `f`; frames
//!   are represented by nodes one layer up, recursively, so every label is a
//!   frame id plus a local Dewey path of length ≤ `f`. LCA recurses across
//!   layers exactly as described in §2.1 (Figure 4), using *source nodes* to
//!   hop from a frame back into its parent frame.
//! * [`interval::IntervalLabels`] — pre/post-order interval labels, the
//!   standard XML ancestor/descendant scheme the paper cites as *not*
//!   supporting LCA directly (refs \[2, 3\]).
//! * [`parent::ParentPointers`] — the plain pointer-chasing baseline.
//!
//! All schemes implement [`scheme::LcaScheme`], so the benchmarks and the
//! property tests can treat them interchangeably.
//!
//! ```
//! use labeling::prelude::*;
//! use phylo::builder::figure1_tree;
//!
//! let tree = figure1_tree();
//! let hier = HierarchicalDewey::build(&tree, 2);
//! let lla = tree.find_leaf_by_name("Lla").unwrap();
//! let syn = tree.find_leaf_by_name("Syn").unwrap();
//! // The paper's worked example (§2.1): the LCA of Lla and Syn is found by
//! // recursing through the layer-1 tree and resolving source nodes; for the
//! // Figure 1 tree that ancestor is the root.
//! assert_eq!(hier.lca(lla, syn), tree.root_unchecked());
//! let bha = tree.find_leaf_by_name("Bha").unwrap();
//! assert_eq!(hier.lca(lla, bha), tree.children(tree.root_unchecked())[0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clade_hash;
pub mod dewey;
pub mod hierarchical;
pub mod interval;
pub mod parent;
pub mod scheme;

pub use clade_hash::{tree_hashes, CladeHash};
pub use dewey::FlatDewey;
pub use hierarchical::HierarchicalDewey;
pub use interval::{IntervalEntry, IntervalLabels};
pub use parent::ParentPointers;
pub use scheme::{LabelStats, LcaScheme};

/// Commonly used items.
pub mod prelude {
    pub use crate::dewey::FlatDewey;
    pub use crate::hierarchical::HierarchicalDewey;
    pub use crate::interval::{IntervalEntry, IntervalLabels};
    pub use crate::parent::ParentPointers;
    pub use crate::scheme::{LabelStats, LcaScheme};
}
