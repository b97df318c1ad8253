//! # crimson — the tree data management system
//!
//! This crate ties the substrates together into the system the paper
//! describes (Figure 3):
//!
//! * **Repository Manager** ([`repository`]) — trees are stored *in
//!   relational form* on the embedded storage engine: a node table carrying
//!   cumulative evolutionary time, depth, pre-order rank and parent links;
//!   a species table with sequence data; and a tree catalog. Secondary
//!   B+tree indexes provide random access by species name, node id and
//!   evolutionary time. The paper's hierarchical Dewey labels are not
//!   stored: the interval index and depth column below answer every
//!   structure query, and the label schemes live in [`labeling`].
//! * **Data Loader** ([`loader`]) — loads Newick/NEXUS trees with or without
//!   species data, and appends species data to existing trees (§3 "Loading
//!   Data").
//! * **Structure queries** ([`query`]) — least common ancestor,
//!   ancestor/descendant, minimal spanning clade, tree projection and tree
//!   pattern match, all executed against the disk-resident repository.
//!
//! ## The interval index behind structure queries
//!
//! At load time the repository persists pre/post-order interval labels as a
//! covering raw B+tree index (layout in [`labeling::interval`]):
//!
//! * `ivl_by_pre`, keyed `(tree_id, pre)` with `(end, parent_pre, node,
//!   is_leaf)` riding in the key and the node row's heap locator as the
//!   value. A node's subtree is the contiguous range `[(t, pre), (t, end)]`,
//!   so `minimal_spanning_clade` is a **single range scan**.
//! * `ivl_by_node`, mapping a stored node id to its packed `(pre, end)`
//!   interval: `is_ancestor` is two point lookups and two integer
//!   comparisons.
//!
//! Next to them, each tree's **pre-order depth column** (heap rows of
//! `(depth, parent_pre)` blocks plus per-block minima) turns LCA into a
//! range-minimum query with a constant number of page reads, however deep
//! the tree; `lca` and every consecutive pair of `project` use it.
//!
//! Decoded node rows, interval entries and each tree's block minima are
//! held in small two-generation LRU caches, so repeated LCA/projection
//! queries skip row decoding entirely. The tests check every answer
//! against the in-memory tree it was loaded from, and `crimson-bench`'s
//! smoke profile bounds the page reads of each structure query.
//! * **Sampling** ([`sampling`]) — uniform random sampling, sampling with
//!   respect to an evolutionary time, and user-supplied species lists (§2.2),
//!   available on the writer and on snapshot readers alike.
//! * **Experiment subsystem** ([`experiment`]) — the Benchmark Manager grown
//!   into a persistent pipeline: evaluation sweeps fan out across snapshot
//!   workers, reconstructed trees are stored like any other tree, and spec,
//!   metrics and per-clade agreement rows land in catalog tables inside one
//!   atomic transaction.
//! * **Index-native comparison** ([`compare`]) — Robinson–Foulds and triplet
//!   distances between stored trees computed by streaming the interval
//!   index ([`compare::StoredCladeSource`]), never materializing a tree.
//! * **Query Repository** ([`history`]) — records executed queries so they
//!   can be recalled and re-run, as the Crimson GUI does.
//! * **Concurrent readers** ([`reader`]) — Crimson is pitched as a shared
//!   service; [`reader::RepositoryReader`] handles (from
//!   [`Repository::reader`]) serve every structure query from other
//!   threads against the last *committed* snapshot, never blocking behind
//!   an in-flight load, and [`batch::QueryBatch`] fans a batch of queries
//!   across a scoped worker pool, returning results in submission order.
//!
//! ```no_run
//! use crimson::prelude::*;
//! use simulation::gold::GoldStandardBuilder;
//!
//! let gold = GoldStandardBuilder::new().leaves(64).sequence_length(200).seed(7).build().unwrap();
//! let mut repo = Repository::create("demo.crimson", RepositoryOptions::default()).unwrap();
//! let tree_id = repo.load_gold_standard("gold", &gold).unwrap();
//! let sample = repo.view().sample_uniform(tree_id, 16, 1).unwrap();
//! let projection = repo.view().project(tree_id, &sample).unwrap();
//! assert_eq!(projection.leaf_count(), 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub(crate) mod cache;
pub mod compare;
pub mod content;
pub(crate) mod depth;
pub mod error;
pub mod experiment;
pub mod history;
pub mod loader;
pub mod query;
pub mod reader;
pub mod repository;
pub mod sampling;

pub use batch::{BatchOutput, BatchQuery, QueryBatch};
pub use content::CladeCounts;
pub use error::CrimsonError;
pub use experiment::{
    DistanceSource, EvalReport, EvalSpec, ExperimentRecord, ExperimentResult, ExperimentRunner,
    ExperimentSpec, Method,
};
pub use labeling::clade_hash::CladeHash;
pub use reader::{PinnedReader, ReadRetry, RepositoryReader};
pub use repository::{
    DegradedReport, Durability, ReadCtx, Repository, RepositoryOptions, ScrubReport, StoredNodeId,
    TreeHandle, TreeStatsRecord,
};
pub use storage::CheckpointPolicy;

/// Commonly used items.
pub mod prelude {
    pub use crate::batch::{BatchOutput, BatchQuery, QueryBatch};
    pub use crate::compare::StoredCladeSource;
    pub use crate::content::CladeCounts;
    pub use crate::error::CrimsonError;
    pub use crate::experiment::{
        CladeRow, DistanceSource, EvalReport, EvalSpec, ExperimentRecord, ExperimentResult,
        ExperimentRunner, ExperimentSpec, Method,
    };
    pub use crate::history::QueryKind;
    pub use crate::loader::LoadMode;
    pub use crate::reader::{PinnedReader, ReadRetry, RepositoryReader};
    pub use crate::repository::{
        DegradedReport, Durability, IntegrityReport, ReadCtx, Repository, RepositoryOptions,
        ScrubReport, StoredNodeId, TreeHandle, TreeStatsRecord,
    };
    pub use crate::sampling::SamplingStrategy;
    pub use storage::CheckpointPolicy;
}
