//! The Repository Manager: relational storage of trees, frames and species.
//!
//! Crimson "stores trees in relational form, and uses indexes based on Dewey
//! labeling to speed up queries" (§2.1), separating tree structure from
//! species data. The repository owns four tables on the embedded storage
//! engine:
//!
//! | table     | contents                                                    |
//! |-----------|-------------------------------------------------------------|
//! | `trees`   | one row per loaded tree: name, root node, counts, frame depth `f` |
//! | `nodes`   | one row per node: parent, name, branch length, cumulative time, pre-order rank, frame id, local Dewey label |
//! | `frames`  | one row per frame (subtree of depth ≤ f): parent frame, **source node**, frame rank |
//! | `species` | one row per taxon with sequence data, linked to its leaf node |
//!
//! Secondary indexes give the access paths the paper calls out: species name
//! → node, node id → row, cumulative evolutionary time → nodes (a B+tree
//! range scan), parent → children.
//!
//! ## The read surface
//!
//! Every pure read — catalog lookups, node/frame fetches, LCA and the
//! structure queries in [`crate::query`] — is implemented once on
//! [`ReadCtx`], generic over [`storage::DbRead`]. The writer's `Repository`
//! methods delegate to it over the live [`Database`]; concurrent
//! [`crate::reader::RepositoryReader`]s delegate to it over a snapshot
//! [`storage::DbReader`]. All of these take `&self`; only loading,
//! checkpointing and history recording take `&mut self`.

use crate::cache::ShardedCache;
use crate::depth::DepthMinima;
use crate::error::{CrimsonError, CrimsonResult};
use labeling::clade_hash::{self, CladeHash};
use labeling::hierarchical::HierarchicalDewey;
use labeling::interval::{interval_key_prefix, interval_range_end, IntervalEntry, IntervalLabels};
use phylo::traverse::Traverse;
use phylo::Tree;
use simulation::gold::GoldStandard;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use storage::db::{Database, DbRead, RawIndexId, TableId};
use storage::schema::{ColumnDef, Schema};
use storage::value::{Value, ValueType};
use storage::wal::Lsn;
use storage::{
    CheckpointPolicy, CheckpointerGuard, CrashPoint, RecoveryReport, RetryPolicy, ScrubOptions,
    ScrubStats, SharedFaultSchedule,
};

/// Name of the raw index holding covering interval entries keyed by
/// `(tree_id, pre)`.
const IVL_BY_PRE: &str = "ivl_by_pre";
/// Name of the raw index mapping a stored node id to its packed
/// `(pre, end)` interval.
const IVL_BY_NODE: &str = "ivl_by_node";
/// Name of the raw index holding per-node canonical clade hashes, keyed
/// `(tree_id, pre, hash)` → packed `(pre, end)` span (see
/// [`labeling::clade_hash`]).
const HASH_BY_PRE: &str = "clade_hash_by_pre";
/// Name of the global content-address index, keyed `(hash, tree_id, pre)` →
/// packed `(pre, end)` span. A 16-byte prefix scan answers "which stored
/// trees/subtrees equal this one" without touching a node row.
const HASH_IDX: &str = "clade_hash_idx";
/// Name of the raw index holding structural-sharing reference rows of cold
/// trees (see [`labeling::clade_hash::CladeRef`]).
const CLADE_REFS: &str = "clade_refs";
/// Name of the table holding each tree's pre-order depth blocks.
const DEPTH_BLOCKS: &str = "depth_blocks";
/// Name of the table holding each tree's depth-block minima.
const DEPTH_MINIMA: &str = "depth_minima";

/// Minimum node-span for a subtree to be published in the global
/// content-address index. Tree roots are always published; smaller internal
/// subtrees are only addressable through their tree's `hash_by_pre` range.
/// Keeps the per-load point-insert count (the global index interleaves
/// across trees, so it cannot ride the bulk appender) a small fraction of
/// the node count on realistic tree shapes.
pub(crate) const HASH_IDX_MIN_SPAN: u32 = 32;

/// `tree_stats.flags` bit: every leaf is named and the names are distinct —
/// the precondition under which hash equality implies metric equality.
pub(crate) const STATS_FLAG_DISTINCT_LEAVES: i64 = 1;
/// `tree_stats.flags` bit: the tree is stored cold (structurally shared);
/// bridged subtree spans live in other trees, reachable via `clade_refs`.
pub(crate) const STATS_FLAG_COLD: i64 = 2;

/// Identifier of a node stored in the repository (stable across sessions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StoredNodeId(pub u64);

impl std::fmt::Display for StoredNodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sn{}", self.0)
    }
}

/// Handle of a tree stored in the repository.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TreeHandle(pub u64);

/// Identifier of a stored frame (bounded-depth subtree).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoredFrameId(pub u64);

/// When a repository transaction becomes durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Every commit blocks until its group fsync completes (the default).
    /// Concurrent committers share one fsync via the storage engine's
    /// commit queue, so this is already batched, not one-fsync-per-commit.
    #[default]
    Sync,
    /// Commits return as soon as the commit record is *logged*: atomic on
    /// crash but not yet durable. The next group fsync, synchronous commit
    /// or checkpoint covers them; call [`Repository::wait_durable`] (or
    /// [`Repository::sync`]) at a batch boundary to force the fsync.
    Async,
}

/// Options controlling repository creation.
#[derive(Debug, Clone)]
pub struct RepositoryOptions {
    /// Frame depth `f` used for hierarchical labels (≥ 2).
    pub frame_depth: usize,
    /// Buffer-pool capacity in pages.
    pub buffer_pool_pages: usize,
    /// When commits become durable (see [`Durability`]).
    pub durability: Durability,
    /// Start a background checkpoint thread with this policy. `None` (the
    /// default) keeps the historical behaviour: checkpoints happen only on
    /// explicit [`Repository::flush`] and on close.
    pub checkpoint: Option<CheckpointPolicy>,
}

impl Default for RepositoryOptions {
    fn default() -> Self {
        RepositoryOptions {
            frame_depth: 16,
            buffer_pool_pages: 4096,
            durability: Durability::Sync,
            checkpoint: None,
        }
    }
}

/// A decoded node row.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRecord {
    /// The node's stable id.
    pub id: StoredNodeId,
    /// Owning tree.
    pub tree: TreeHandle,
    /// Parent node, `None` for the root.
    pub parent: Option<StoredNodeId>,
    /// Taxon or clade name, if any.
    pub name: Option<String>,
    /// Branch length to the parent.
    pub branch_length: Option<f64>,
    /// Cumulative branch length from the root ("evolutionary time").
    pub root_distance: f64,
    /// Depth in edges from the root.
    pub depth: u64,
    /// Pre-order rank within the tree (0 = root).
    pub preorder: u64,
    /// Frame (bounded-depth subtree) this node belongs to.
    pub frame: StoredFrameId,
    /// Local Dewey label within the frame (1-based child ordinals).
    pub local_label: Vec<u32>,
    /// `true` when the node has no children.
    pub is_leaf: bool,
    /// Maximum summed branch length from this node down to any descendant
    /// leaf (0 for leaves) — the "age" of the clade, used by time-respecting
    /// sampling.
    pub subtree_height: f64,
}

/// A decoded frame row.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameRecord {
    /// The frame id.
    pub id: StoredFrameId,
    /// Owning tree.
    pub tree: TreeHandle,
    /// The frame's root node.
    pub root_node: StoredNodeId,
    /// Frame containing the parent of `root_node`, if any.
    pub parent_frame: Option<StoredFrameId>,
    /// The paper's *source node*: parent of `root_node` in the stored tree.
    pub source_node: Option<StoredNodeId>,
    /// Number of ancestor frames (0 for the frame containing the tree root);
    /// used for the two-pointer frame walk during cross-frame LCA.
    pub rank: u64,
}

/// Summary row for a stored tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeRecord {
    /// The tree handle.
    pub handle: TreeHandle,
    /// The tree's name.
    pub name: String,
    /// Root node id.
    pub root: StoredNodeId,
    /// Total number of nodes.
    pub node_count: u64,
    /// Number of leaves.
    pub leaf_count: u64,
    /// Frame depth `f` the labels were built with.
    pub frame_depth: u64,
}

/// Content-address summary row of a stored tree: its canonical root hash
/// plus the distinct rooted-clade and unrooted-split counts the comparison
/// metrics are defined over. Written at load time (or by
/// [`Repository::backfill_clade_hashes`] for pre-hash files); the
/// ingredients of the O(1) equal-tree compare short-circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeStatsRecord {
    /// The tree this row summarizes.
    pub handle: TreeHandle,
    /// Canonical hash of the root clade — the whole-tree content address.
    pub root_hash: CladeHash,
    /// Number of distinct non-trivial rooted clades (leaf sets of size
    /// `2..=n-1`), i.e. `|clades(T)|` of the comparison module.
    pub rooted_clades: u64,
    /// Number of distinct non-trivial unrooted splits (`|splits(T)|`).
    pub unrooted_splits: u64,
    /// Every leaf is named and the names are distinct.
    pub distinct_leaves: bool,
    /// Stored cold: duplicate subtrees are bridged by reference rows
    /// instead of materialized.
    pub cold: bool,
}

/// The table and raw-index handles a repository file carries. Stable for
/// the lifetime of the file (tables are created once at
/// [`Repository::create`]), so snapshot readers copy it freely.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tables {
    pub trees: TableId,
    pub nodes: TableId,
    pub frames: TableId,
    pub species: TableId,
    pub history: TableId,
    /// Experiment catalog: one row per persisted evaluation sweep.
    pub experiments: TableId,
    /// One row per experiment grid cell (method × sampling × replicate).
    pub experiment_results: TableId,
    /// Per-clade agreement rows of each result's stored reconstruction.
    pub experiment_clades: TableId,
    /// One content-address summary row per hashed tree.
    pub tree_stats: TableId,
    /// Covering interval index keyed by `(tree_id, pre)`; see
    /// [`labeling::interval`] for the entry layout.
    pub ivl_by_pre: RawIndexId,
    /// Stored node id → packed `(pre << 32) | end` interval.
    pub ivl_by_node: RawIndexId,
    /// Per-node clade hashes keyed `(tree_id, pre, hash)`.
    pub hash_by_pre: RawIndexId,
    /// Global content-address index keyed `(hash, tree_id, pre)`.
    pub hash_idx: RawIndexId,
    /// Structural-sharing reference rows of cold trees.
    pub clade_refs: RawIndexId,
    /// Pre-order `(depth, parent_pre)` blocks of every tree (see
    /// [`crate::depth`]).
    pub depth_blocks: TableId,
    /// Per-tree block minima of the depth column, indexed by `tree_id`.
    pub depth_minima: TableId,
}

impl Tables {
    /// Resolve every table and raw index of an existing repository file.
    /// The depth column is checked first: a file written before it existed
    /// is refused with a typed error (there is no in-place upgrade; reload
    /// its trees into a new repository).
    fn open(db: &Database) -> CrimsonResult<Tables> {
        let missing = |what: &'static str| {
            move |_| {
                CrimsonError::CorruptRepository(format!(
                    "repository file lacks the {what}; it was written by an older build \
                     and must be reloaded into a new repository"
                ))
            }
        };
        let depth_blocks = db
            .table(DEPTH_BLOCKS)
            .map_err(missing("`depth_blocks` depth column"))?;
        let depth_minima = db
            .table(DEPTH_MINIMA)
            .map_err(missing("`depth_minima` depth column"))?;
        Ok(Tables {
            trees: db.table("trees")?,
            nodes: db.table("nodes")?,
            frames: db.table("frames")?,
            species: db.table("species")?,
            history: db.table("query_history")?,
            experiments: db.table("experiments")?,
            experiment_results: db.table("experiment_results")?,
            experiment_clades: db.table("experiment_clades")?,
            tree_stats: db.table("tree_stats")?,
            ivl_by_pre: db
                .raw_index(IVL_BY_PRE)
                .map_err(missing("`ivl_by_pre` interval index"))?,
            ivl_by_node: db
                .raw_index(IVL_BY_NODE)
                .map_err(missing("`ivl_by_node` interval index"))?,
            hash_by_pre: db
                .raw_index(HASH_BY_PRE)
                .map_err(missing("`clade_hash_by_pre` clade-hash index"))?,
            hash_idx: db
                .raw_index(HASH_IDX)
                .map_err(missing("`clade_hash_idx` content-address index"))?,
            clade_refs: db
                .raw_index(CLADE_REFS)
                .map_err(missing("`clade_refs` reference index"))?,
            depth_blocks,
            depth_minima,
        })
    }
}

/// The Crimson repository: Tree Repository + Species Repository + Query
/// Repository rolled into one database file. This value is the single
/// writer; spawn [`crate::reader::RepositoryReader`]s (via
/// [`Repository::reader`]) for concurrent snapshot reads.
pub struct Repository {
    /// Background checkpointer, when [`RepositoryOptions::checkpoint`] is
    /// set. Declared before `db` so the guard's drop stops and joins the
    /// thread before the database tears down.
    checkpointer: Option<CheckpointerGuard>,
    pub(crate) db: Database,
    pub(crate) options: RepositoryOptions,
    pub(crate) tables: Tables,
    pub(crate) next_history_id: u64,
    /// Highest commit LSN returned by an asynchronous commit; the target
    /// [`Repository::sync`] waits on. Always 0 under [`Durability::Sync`].
    last_commit: Lsn,
    /// Decoded node rows; node rows are immutable once loaded, so entries
    /// never need invalidation.
    record_cache: ShardedCache<StoredNodeId, Arc<NodeRecord>>,
    /// What LCA answers need of interval entries, keyed by
    /// `(tree_id << 32) | pre`.
    entry_cache: ShardedCache<u64, NodeAtRank>,
    /// Block minima of each tree's depth column (immutable once loaded).
    minima_cache: ShardedCache<u64, Arc<DepthMinima>>,
    /// Crash-recovery outcome captured at [`Repository::open`] (`None` for a
    /// freshly created repository).
    recovery: Option<RecoveryReport>,
}

/// Row counts gathered by [`Repository::integrity_check`]. Every row was
/// verified to belong to a tree listed in the `trees` table, so a report
/// implies there are no orphan rows from interrupted loads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityReport {
    /// Trees in the catalog.
    pub trees: u64,
    /// Node rows across all trees.
    pub nodes: u64,
    /// Frame rows across all trees.
    pub frames: u64,
    /// Species rows across all trees.
    pub species: u64,
    /// Entries in each interval index (they always match `nodes`).
    pub interval_entries: u64,
    /// Query-history rows (all parsed successfully).
    pub history_entries: u64,
    /// Experiment rows (each referencing an existing gold tree, with a
    /// parseable spec).
    pub experiments: u64,
    /// Experiment result rows (each referencing an existing experiment and
    /// stored reconstruction).
    pub experiment_results: u64,
    /// Per-clade agreement rows (each referencing an existing result and a
    /// stored node of its reconstruction).
    pub experiment_clades: u64,
    /// Trees carrying a content-address (`tree_stats`) row. Trees loaded by
    /// a pre-hash build may lack one until backfilled.
    pub hashed_trees: u64,
    /// Entries in the per-tree clade-hash index (one per materialized node
    /// plus one per bridge of every hashed tree).
    pub hash_entries: u64,
    /// Entries in the global content-address index (verified to reference
    /// existing hashed spans of fully materialized trees).
    pub global_hash_entries: u64,
    /// Structural-sharing reference rows (each verified to bridge to an
    /// existing, hash-identical span of a fully materialized tree).
    pub clade_refs: u64,
    /// Depth-column block rows (each tree's column verified against its
    /// minima, its interval entries and its node rows).
    pub depth_blocks: u64,
}

/// Salvage survey produced by [`Repository::open_degraded`]: which pages
/// are quarantined and which trees/experiments the damage reaches. Trees
/// and experiments not listed as unreadable answer queries normally.
#[derive(Debug, Clone, Default)]
pub struct DegradedReport {
    /// Page ids that failed their checksum and could not be repaired.
    pub quarantined_pages: Vec<u64>,
    /// Trees whose structures probed clean.
    pub readable_trees: Vec<String>,
    /// Trees whose probe hit damage: `(name, error)`.
    pub unreadable_trees: Vec<(String, String)>,
    /// Experiments whose catalog and result rows probed clean.
    pub readable_experiments: Vec<String>,
    /// Experiments whose probe hit damage: `(name, error)`.
    pub unreadable_experiments: Vec<(String, String)>,
}

impl DegradedReport {
    /// `true` when no page is quarantined and every tree and experiment
    /// probed clean.
    pub fn is_clean(&self) -> bool {
        self.quarantined_pages.is_empty()
            && self.unreadable_trees.is_empty()
            && self.unreadable_experiments.is_empty()
    }
}

/// Outcome of [`Repository::scrub`]: page-level checksum verification plus
/// (when no page is quarantined) the logical cross-table invariant check.
#[derive(Debug, Clone)]
pub struct ScrubReport {
    /// Per-page verification/repair counters.
    pub pages: ScrubStats,
    /// The logical integrity report, cross-checking the scrub: `None` when
    /// quarantined pages made the row-level walk impossible.
    pub integrity: Option<IntegrityReport>,
}

/// Fill factor for bulk-built heap and index pages: nearly full (the
/// workload is load-once/query-many) with headroom so later point inserts
/// into a loaded tree's key range don't split immediately.
pub(crate) const BULK_FILL: f64 = 0.9;

/// Generation size of the node-record cache (≤ 2 generations resident).
pub(crate) const RECORD_CACHE_GEN: usize = 4096;
/// Generation size of the interval-entry cache.
pub(crate) const ENTRY_CACHE_GEN: usize = 8192;
/// Longest run of `ivl_by_pre` entries [`ReadCtx::nodes_at_ranks`] walks
/// between two wanted ranks before it re-seeks: about half a leaf page, so
/// walking never costs more page reads than the descent it saves.
const SEEK_GAP: u32 = 128;
/// Generation size of the per-tree depth-minima cache.
pub(crate) const MINIMA_CACHE_GEN: usize = 64;

impl std::fmt::Debug for Repository {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Repository")
            .field("options", &self.options)
            .finish()
    }
}

pub(crate) const TREE_SHIFT: u64 = 32;

// ---------------------------------------------------------------------------
// The shared read surface
// ---------------------------------------------------------------------------

/// What an LCA answer needs of the `ivl_by_pre` entry at a known rank: the
/// subtree's last rank, the node's arena id and its row locator.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeAtRank {
    pub end: u32,
    pub node: u32,
    pub rid: storage::RecordId,
}

/// The repository's read engine: every pure read is implemented here once,
/// generic over [`DbRead`]. `Repository` instantiates it over the live
/// [`Database`] (the writer sees its own uncommitted state);
/// [`crate::reader::RepositoryReader`] instantiates it over a
/// [`storage::DbReader`] snapshot (concurrent readers see the last
/// committed state).
pub(crate) struct ReadCtx<'a, D> {
    pub(crate) db: &'a D,
    pub(crate) tables: Tables,
    pub(crate) records: &'a ShardedCache<StoredNodeId, Arc<NodeRecord>>,
    pub(crate) entries: &'a ShardedCache<u64, NodeAtRank>,
    pub(crate) minima: &'a ShardedCache<u64, Arc<DepthMinima>>,
}

impl<'a, D> Clone for ReadCtx<'a, D> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'a, D> Copy for ReadCtx<'a, D> {}

impl<'a, D: DbRead> ReadCtx<'a, D> {
    // ------------------------------------------------------------------
    // Catalog access
    // ------------------------------------------------------------------

    pub fn find_tree(&self, name: &str) -> CrimsonResult<Option<TreeRecord>> {
        let rows = self
            .db
            .lookup_rows(self.tables.trees, "name", &Value::text(name))?;
        Ok(rows
            .into_iter()
            .next()
            .map(|(_, row)| decode_tree_row(&row)))
    }

    pub fn tree_by_name(&self, name: &str) -> CrimsonResult<TreeRecord> {
        self.find_tree(name)?
            .ok_or_else(|| CrimsonError::UnknownTree(name.to_string()))
    }

    pub fn tree_record(&self, handle: TreeHandle) -> CrimsonResult<TreeRecord> {
        let rows =
            self.db
                .lookup_rows(self.tables.trees, "tree_id", &Value::Int(handle.0 as i64))?;
        rows.into_iter()
            .next()
            .map(|(_, row)| decode_tree_row(&row))
            .ok_or(CrimsonError::UnknownTreeId(handle.0))
    }

    pub fn list_trees(&self) -> CrimsonResult<Vec<TreeRecord>> {
        let rows = self.db.scan(self.tables.trees)?;
        Ok(rows.iter().map(|(_, row)| decode_tree_row(row)).collect())
    }

    // ------------------------------------------------------------------
    // Node / frame access
    // ------------------------------------------------------------------

    pub fn node_record(&self, id: StoredNodeId) -> CrimsonResult<NodeRecord> {
        Ok((*self.node_record_arc(id)?).clone())
    }

    pub fn node_record_arc(&self, id: StoredNodeId) -> CrimsonResult<Arc<NodeRecord>> {
        if let Some(rec) = self.records.get(&id) {
            return Ok(rec);
        }
        let rec = Arc::new(self.node_record_uncached(id)?);
        self.records.insert(id, Arc::clone(&rec));
        Ok(rec)
    }

    /// Fetch a node row through its physical record id (the locator the
    /// interval index stores), skipping the node-id index descent. One heap
    /// page read on a cache miss.
    pub fn node_record_by_locator(
        &self,
        id: StoredNodeId,
        rid: storage::RecordId,
    ) -> CrimsonResult<Arc<NodeRecord>> {
        if let Some(rec) = self.records.get(&id) {
            return Ok(rec);
        }
        let row = self.db.get(self.tables.nodes, rid)?;
        let rec = Arc::new(decode_node_row(&row));
        if rec.id != id {
            return Err(CrimsonError::CorruptRepository(format!(
                "interval index locator {rid} resolves to node {} instead of {id}",
                rec.id
            )));
        }
        self.records.insert(id, Arc::clone(&rec));
        Ok(rec)
    }

    pub fn node_record_uncached(&self, id: StoredNodeId) -> CrimsonResult<NodeRecord> {
        let rows = self
            .db
            .lookup_rows(self.tables.nodes, "node_id", &Value::Int(id.0 as i64))?;
        rows.into_iter()
            .next()
            .map(|(_, row)| decode_node_row(&row))
            .ok_or(CrimsonError::UnknownNode(id.0))
    }

    pub fn frame_record(&self, id: StoredFrameId) -> CrimsonResult<FrameRecord> {
        let rows = self
            .db
            .lookup_rows(self.tables.frames, "frame_id", &Value::Int(id.0 as i64))?;
        rows.into_iter()
            .next()
            .map(|(_, row)| decode_frame_row(&row))
            .ok_or(CrimsonError::UnknownNode(id.0))
    }

    pub fn children(&self, id: StoredNodeId) -> CrimsonResult<Vec<StoredNodeId>> {
        let rows = self
            .db
            .lookup_rows(self.tables.nodes, "parent_id", &Value::Int(id.0 as i64))?;
        Ok(rows
            .iter()
            .map(|(_, row)| StoredNodeId(row.values[0].as_int().unwrap_or(0) as u64))
            .collect())
    }

    pub fn species_node(
        &self,
        handle: TreeHandle,
        name: &str,
    ) -> CrimsonResult<Option<StoredNodeId>> {
        let rows = self
            .db
            .lookup_rows(self.tables.nodes, "name", &Value::text(name))?;
        for (_, row) in rows {
            let rec = decode_node_row(&row);
            if rec.tree == handle && rec.is_leaf {
                return Ok(Some(rec.id));
            }
        }
        Ok(None)
    }

    pub fn require_species_node(
        &self,
        handle: TreeHandle,
        name: &str,
    ) -> CrimsonResult<StoredNodeId> {
        self.species_node(handle, name)?
            .ok_or_else(|| CrimsonError::UnknownSpecies(name.to_string()))
    }

    pub fn leaves(&self, handle: TreeHandle) -> CrimsonResult<Vec<StoredNodeId>> {
        let rows = self.db.lookup_rows(
            self.tables.nodes,
            "leaf_of_tree",
            &Value::Int(handle.0 as i64),
        )?;
        Ok(rows
            .iter()
            .map(|(_, row)| StoredNodeId(row.values[0].as_int().unwrap_or(0) as u64))
            .collect())
    }

    pub fn sequences_for(
        &self,
        handle: TreeHandle,
        names: &[String],
    ) -> CrimsonResult<HashMap<String, String>> {
        let mut out = HashMap::with_capacity(names.len());
        for name in names {
            let rows = self
                .db
                .lookup_rows(self.tables.species, "name", &Value::text(name))?;
            let mut found = false;
            for (_, row) in rows {
                let tree_id = row.values[1].as_int().unwrap_or(-1) as u64;
                if tree_id == handle.0 {
                    let seq = row.values[3].as_text().unwrap_or("").to_string();
                    out.insert(name.clone(), seq);
                    found = true;
                    break;
                }
            }
            if !found {
                return Err(CrimsonError::MissingSequences(name.clone()));
            }
        }
        Ok(out)
    }

    pub fn species_count(&self, handle: TreeHandle) -> CrimsonResult<usize> {
        let rows =
            self.db
                .lookup_rows(self.tables.species, "tree_id", &Value::Int(handle.0 as i64))?;
        Ok(rows.len())
    }

    // ------------------------------------------------------------------
    // Integrity
    // ------------------------------------------------------------------

    pub fn integrity_check(&self) -> CrimsonResult<IntegrityReport> {
        let trees: HashMap<u64, TreeRecord> = self
            .list_trees()?
            .into_iter()
            .map(|t| (t.handle.0, t))
            .collect();
        let mut report = IntegrityReport {
            trees: trees.len() as u64,
            ..Default::default()
        };

        let mut node_counts: HashMap<u64, u64> = HashMap::new();
        let mut leaf_counts: HashMap<u64, u64> = HashMap::new();
        let mut node_depths: Vec<(u64, u64, u64)> = Vec::new();
        for (rid, row) in self.db.scan(self.tables.nodes)? {
            let rec = decode_node_row(&row);
            let tree_id = rec.tree.0;
            if !trees.contains_key(&tree_id) {
                return Err(CrimsonError::CorruptRepository(format!(
                    "orphan node row {rid} references missing tree {tree_id}"
                )));
            }
            *node_counts.entry(tree_id).or_default() += 1;
            if rec.is_leaf {
                *leaf_counts.entry(tree_id).or_default() += 1;
            }
            // Every node must be covered by both interval indexes.
            let (pre, end) = self.interval_of(rec.id)?;
            if (pre as u64) != rec.preorder || end < pre {
                return Err(CrimsonError::CorruptRepository(format!(
                    "interval of node {} ({pre}, {end}) contradicts its pre-order rank {}",
                    rec.id, rec.preorder
                )));
            }
            node_depths.push((tree_id, rec.preorder, rec.depth));
            report.nodes += 1;
        }
        // Content-address catalog, loaded before the per-tree row-count
        // check: cold (structurally shared) trees materialize fewer node
        // rows than their logical node count, and only their stats rows and
        // bridge references say by how many.
        let mut stats: HashMap<u64, TreeStatsRecord> = HashMap::new();
        for (rid, row) in self.db.scan(self.tables.tree_stats)? {
            let Some(rec) = decode_tree_stats_row(&row) else {
                return Err(CrimsonError::CorruptRepository(format!(
                    "tree_stats row {rid} is malformed"
                )));
            };
            if !trees.contains_key(&rec.handle.0) {
                return Err(CrimsonError::CorruptRepository(format!(
                    "orphan tree_stats row {rid} references missing tree {}",
                    rec.handle.0
                )));
            }
            if stats.insert(rec.handle.0, rec).is_some() {
                return Err(CrimsonError::CorruptRepository(format!(
                    "tree {} carries duplicate tree_stats rows",
                    rec.handle.0
                )));
            }
        }
        report.hashed_trees = stats.len() as u64;

        let mut refs_by_tree: HashMap<u64, Vec<clade_hash::CladeRef>> = HashMap::new();
        {
            let mut malformed = false;
            let mut all_refs: Vec<(u64, clade_hash::CladeRef)> = Vec::new();
            self.db
                .raw_scan(self.tables.clade_refs, None, None, &mut |key, value| {
                    match clade_hash::CladeRef::decode(key, value) {
                        Some((tree, r)) => {
                            all_refs.push((tree, r));
                            Ok(true)
                        }
                        None => {
                            malformed = true;
                            Ok(false)
                        }
                    }
                })?;
            if malformed {
                return Err(CrimsonError::CorruptRepository(
                    "malformed clade-ref key".to_string(),
                ));
            }
            for (tree, r) in all_refs {
                refs_by_tree.entry(tree).or_default().push(r);
            }
        }
        // Every bridge must sit in a cold, hashed tree and point at a
        // hash-identical span of a fully materialized (hot) hashed tree —
        // so reference chains cannot exist and every read bottoms out after
        // one hop.
        for (tree_id, refs) in &refs_by_tree {
            let Some(st) = stats.get(tree_id) else {
                return Err(CrimsonError::CorruptRepository(format!(
                    "tree {tree_id} carries bridges but no content address"
                )));
            };
            if !st.cold {
                return Err(CrimsonError::CorruptRepository(format!(
                    "fully materialized tree {tree_id} carries bridges"
                )));
            }
            for r in refs {
                report.clade_refs += 1;
                let Some(src) = stats.get(&r.src_tree) else {
                    return Err(CrimsonError::CorruptRepository(format!(
                        "bridge in tree {tree_id} references unhashed tree {}",
                        r.src_tree
                    )));
                };
                if src.cold {
                    return Err(CrimsonError::CorruptRepository(format!(
                        "bridge in tree {tree_id} chains into cold tree {}",
                        r.src_tree
                    )));
                }
                if r.end - r.pre != r.src_end - r.src_pre {
                    return Err(CrimsonError::CorruptRepository(format!(
                        "bridge at rank {} of tree {tree_id} spans a different width than its source",
                        r.pre
                    )));
                }
                let here = self.subtree_hash_at(TreeHandle(*tree_id), r.pre)?;
                let there = self.subtree_hash_at(TreeHandle(r.src_tree), r.src_pre)?;
                match (here, there) {
                    (Some((ha, ea)), Some((hb, eb)))
                        if ha == hb && ea == r.end && eb == r.src_end => {}
                    _ => {
                        return Err(CrimsonError::CorruptRepository(format!(
                            "bridge at rank {} of tree {tree_id} contradicts its source span",
                            r.pre
                        )));
                    }
                }
            }
        }

        for (tree_id, tree) in &trees {
            let nodes = node_counts.get(tree_id).copied().unwrap_or(0);
            let leaves = leaf_counts.get(tree_id).copied().unwrap_or(0);
            let bridged: u64 = refs_by_tree
                .get(tree_id)
                .map(|rs| rs.iter().map(|r| (r.end - r.pre + 1) as u64).sum())
                .unwrap_or(0);
            if stats.get(tree_id).is_some_and(|s| s.cold) {
                // The catalog keeps logical counts; bridged nodes (leaves
                // included) live only in the canonical source tree.
                if nodes + bridged != tree.node_count || leaves > tree.leaf_count {
                    return Err(CrimsonError::CorruptRepository(format!(
                        "cold tree `{}` records {}/{} nodes/leaves but {nodes}(+{bridged} bridged)/{leaves} rows exist",
                        tree.name, tree.node_count, tree.leaf_count
                    )));
                }
            } else if nodes != tree.node_count || leaves != tree.leaf_count {
                return Err(CrimsonError::CorruptRepository(format!(
                    "tree `{}` records {}/{} nodes/leaves but {nodes}/{leaves} rows exist",
                    tree.name, tree.node_count, tree.leaf_count
                )));
            }
        }

        for (rid, row) in self.db.scan(self.tables.frames)? {
            let rec = decode_frame_row(&row);
            if !trees.contains_key(&rec.tree.0) {
                return Err(CrimsonError::CorruptRepository(format!(
                    "orphan frame row {rid} references missing tree {}",
                    rec.tree.0
                )));
            }
            report.frames += 1;
        }

        for (rid, row) in self.db.scan(self.tables.species)? {
            let tree_id = row.values[1].as_int().unwrap_or(-1) as u64;
            if !trees.contains_key(&tree_id) {
                return Err(CrimsonError::CorruptRepository(format!(
                    "orphan species row {rid} references missing tree {tree_id}"
                )));
            }
            let node = StoredNodeId(row.values[2].as_int().unwrap_or(0) as u64);
            let rec = self.node_record(node)?;
            if rec.tree.0 != tree_id || !rec.is_leaf {
                return Err(CrimsonError::CorruptRepository(format!(
                    "species row {rid} references node {node}, which is not a leaf of tree {tree_id}"
                )));
            }
            report.species += 1;
        }

        let by_pre = self.db.raw_len(self.tables.ivl_by_pre)? as u64;
        let by_node = self.db.raw_len(self.tables.ivl_by_node)? as u64;
        if by_pre != report.nodes || by_node != report.nodes {
            return Err(CrimsonError::CorruptRepository(format!(
                "interval indexes hold {by_pre}/{by_node} entries for {} node rows",
                report.nodes
            )));
        }
        report.interval_entries = by_pre;
        report.depth_blocks = self.check_depth_columns(&trees, &node_depths)?;

        // Per-tree clade hashes: a hot hashed tree carries one entry per
        // node, a cold tree one per materialized node plus one per bridge,
        // and an unhashed (pre-hash) tree none. The stats root hash must
        // match the entry stored at rank 0.
        let mut hash_counts: HashMap<u64, u64> = HashMap::new();
        let mut qualifying: HashMap<u64, u64> = HashMap::new();
        {
            let mut malformed = false;
            self.db
                .raw_scan(self.tables.hash_by_pre, None, None, &mut |key, value| {
                    let Some((tree, pre, _)) = clade_hash::decode_hash_by_pre_key(key) else {
                        malformed = true;
                        return Ok(false);
                    };
                    let (lo, hi) = clade_hash::unpack_span(value);
                    *hash_counts.entry(tree).or_default() += 1;
                    if pre == lo && (pre == 0 || hi - lo + 1 >= HASH_IDX_MIN_SPAN) {
                        *qualifying.entry(tree).or_default() += 1;
                    }
                    Ok(true)
                })?;
            if malformed {
                return Err(CrimsonError::CorruptRepository(
                    "malformed clade-hash entry".to_string(),
                ));
            }
        }
        for tree_id in hash_counts.keys() {
            if !trees.contains_key(tree_id) {
                return Err(CrimsonError::CorruptRepository(format!(
                    "orphan clade-hash entries reference missing tree {tree_id}"
                )));
            }
        }
        for (tree_id, tree) in &trees {
            let have = hash_counts.get(tree_id).copied().unwrap_or(0);
            let expected = match stats.get(tree_id) {
                None => 0,
                Some(st) if st.cold => {
                    let refs = refs_by_tree.get(tree_id);
                    let bridged: u64 = refs
                        .map(|rs| rs.iter().map(|r| (r.end - r.pre + 1) as u64).sum())
                        .unwrap_or(0);
                    let n_refs = refs.map_or(0, |rs| rs.len() as u64);
                    tree.node_count - bridged + n_refs
                }
                Some(_) => tree.node_count,
            };
            if have != expected {
                return Err(CrimsonError::CorruptRepository(format!(
                    "tree `{}` holds {have} clade-hash entries, expected {expected}",
                    tree.name
                )));
            }
            report.hash_entries += have;
            if let Some(st) = stats.get(tree_id) {
                match self.subtree_hash_at(st.handle, 0)? {
                    Some((h, end)) if h == st.root_hash && end as u64 == tree.node_count - 1 => {}
                    _ => {
                        return Err(CrimsonError::CorruptRepository(format!(
                            "stats root hash of tree `{}` contradicts its stored entry",
                            tree.name
                        )));
                    }
                }
            }
        }

        // Global hash index: every entry must decode, belong to a hot
        // hashed tree, agree with that tree's per-tree entry, and meet the
        // publication threshold; conversely every qualifying span of a hot
        // hashed tree must be published.
        {
            let mut malformed = false;
            let mut entries: Vec<(CladeHash, u64, u32)> = Vec::new();
            self.db
                .raw_scan(self.tables.hash_idx, None, None, &mut |key, _| {
                    match clade_hash::decode_hash_idx_key(key) {
                        Some((hash, tree, pre)) => {
                            entries.push((hash, tree, pre));
                            Ok(true)
                        }
                        None => {
                            malformed = true;
                            Ok(false)
                        }
                    }
                })?;
            if malformed {
                return Err(CrimsonError::CorruptRepository(
                    "malformed global hash-index entry".to_string(),
                ));
            }
            for (hash, tree, pre) in entries {
                let Some(st) = stats.get(&tree) else {
                    return Err(CrimsonError::CorruptRepository(format!(
                        "global hash index references unhashed tree {tree}"
                    )));
                };
                if st.cold {
                    return Err(CrimsonError::CorruptRepository(format!(
                        "global hash index references cold tree {tree}"
                    )));
                }
                match self.subtree_hash_at(TreeHandle(tree), pre)? {
                    Some((h, end)) if h == hash => {
                        if pre != 0 && end - pre + 1 < HASH_IDX_MIN_SPAN {
                            return Err(CrimsonError::CorruptRepository(format!(
                                "global hash index publishes sub-threshold span at rank {pre} of tree {tree}"
                            )));
                        }
                    }
                    _ => {
                        return Err(CrimsonError::CorruptRepository(format!(
                            "global hash index contradicts per-tree entry at rank {pre} of tree {tree}"
                        )));
                    }
                }
                report.global_hash_entries += 1;
            }
            let expected_global: u64 = trees
                .keys()
                .filter(|id| stats.get(id).is_some_and(|s| !s.cold))
                .map(|id| qualifying.get(id).copied().unwrap_or(0))
                .sum();
            if report.global_hash_entries != expected_global {
                return Err(CrimsonError::CorruptRepository(format!(
                    "global hash index holds {} entries, expected {expected_global}",
                    report.global_hash_entries
                )));
            }
        }

        // Experiment catalog: every experiment references an existing gold
        // tree with a parseable spec; every result an existing experiment
        // and stored reconstruction; every clade row an existing result and
        // a stored node of that result's reconstruction. An interrupted
        // experiment commit would surface here as an orphan.
        let mut experiment_ids = std::collections::HashSet::new();
        for (rid, row) in self.db.scan(self.tables.experiments)? {
            let exp_id = row.values[0].as_int().unwrap_or(-1) as u64;
            let gold = row.values[2].as_int().unwrap_or(-1) as u64;
            if !trees.contains_key(&gold) {
                return Err(CrimsonError::CorruptRepository(format!(
                    "experiment row {rid} references missing gold tree {gold}"
                )));
            }
            serde_json::from_str::<serde_json::Value>(row.values[3].as_text().unwrap_or(""))
                .map_err(|e| {
                    CrimsonError::CorruptRepository(format!(
                        "experiment row {rid} carries an unparseable spec: {e}"
                    ))
                })?;
            experiment_ids.insert(exp_id);
            report.experiments += 1;
        }
        let mut result_recon: HashMap<u64, u64> = HashMap::new();
        for (rid, row) in self.db.scan(self.tables.experiment_results)? {
            let result_id = row.values[0].as_int().unwrap_or(-1) as u64;
            let exp_id = row.values[1].as_int().unwrap_or(-1) as u64;
            let recon = row.values[8].as_int().unwrap_or(-1) as u64;
            if !experiment_ids.contains(&exp_id) {
                return Err(CrimsonError::CorruptRepository(format!(
                    "experiment result row {rid} references missing experiment {exp_id}"
                )));
            }
            if !trees.contains_key(&recon) {
                return Err(CrimsonError::CorruptRepository(format!(
                    "experiment result row {rid} references missing reconstruction tree {recon}"
                )));
            }
            result_recon.insert(result_id, recon);
            report.experiment_results += 1;
        }
        for (rid, row) in self.db.scan(self.tables.experiment_clades)? {
            let result_id = row.values[0].as_int().unwrap_or(-1) as u64;
            let node = StoredNodeId(row.values[1].as_int().unwrap_or(0) as u64);
            let Some(&recon) = result_recon.get(&result_id) else {
                return Err(CrimsonError::CorruptRepository(format!(
                    "clade row {rid} references missing experiment result {result_id}"
                )));
            };
            if node.0 >> TREE_SHIFT != recon {
                return Err(CrimsonError::CorruptRepository(format!(
                    "clade row {rid} node {node} does not belong to reconstruction tree {recon}"
                )));
            }
            // The node must exist in the interval index of its tree.
            self.interval_of(node).map_err(|_| {
                CrimsonError::CorruptRepository(format!(
                    "clade row {rid} references unknown stored node {node}"
                ))
            })?;
            report.experiment_clades += 1;
        }

        // The history must parse end to end (a torn entry would fail here).
        report.history_entries = self.query_history()?.len() as u64;
        Ok(report)
    }

    // ------------------------------------------------------------------
    // Structure primitives over the persistent interval index
    // ------------------------------------------------------------------

    pub fn interval_of(&self, id: StoredNodeId) -> CrimsonResult<(u32, u32)> {
        let packed = self
            .db
            .raw_get(self.tables.ivl_by_node, &id.0.to_be_bytes())?
            .ok_or(CrimsonError::UnknownNode(id.0))?;
        Ok(((packed >> 32) as u32, packed as u32))
    }

    /// The nodes ranked `ranks` (ascending, distinct) in `tree`, from
    /// their `ivl_by_pre` entries, cached across queries. Uncached ranks
    /// are read in one ascending pass over the index that re-seeks instead
    /// of walking more than [`SEEK_GAP`] entries, so ranks that cluster
    /// share leaf pages and scattered ones cost one probe each.
    pub(crate) fn nodes_at_ranks(
        &self,
        tree: u64,
        ranks: &[u32],
    ) -> CrimsonResult<Vec<NodeAtRank>> {
        debug_assert!(ranks.windows(2).all(|w| w[0] < w[1]));
        let cache_key = |pre: u32| (tree << 32) | pre as u64;
        let mut out: Vec<Option<NodeAtRank>> = ranks
            .iter()
            .map(|&pre| self.entries.get(&cache_key(pre)))
            .collect();
        let missing: Vec<usize> = (0..ranks.len()).filter(|&i| out[i].is_none()).collect();
        let mut next = 0usize;
        while next < missing.len() {
            let start = next;
            let mut fail: Option<CrimsonError> = None;
            let low = interval_key_prefix(tree, ranks[missing[next]]);
            let high = interval_range_end(tree, ranks[missing[missing.len() - 1]]);
            self.db.raw_scan(
                self.tables.ivl_by_pre,
                Some(&low),
                Some(&high),
                &mut |key, rid| {
                    let Some((_, entry)) = IntervalEntry::decode_key(key) else {
                        fail = Some(CrimsonError::CorruptRepository(
                            "malformed interval-index key".to_string(),
                        ));
                        return Ok(false);
                    };
                    let target = ranks[missing[next]];
                    if entry.pre < target {
                        return Ok(true);
                    }
                    if entry.pre > target {
                        return Ok(false);
                    }
                    let found = NodeAtRank {
                        end: entry.end,
                        node: entry.node,
                        rid: storage::RecordId::from_u64(rid),
                    };
                    self.entries.insert(cache_key(target), found);
                    out[missing[next]] = Some(found);
                    next += 1;
                    Ok(missing
                        .get(next)
                        .is_some_and(|&i| ranks[i] - target <= SEEK_GAP))
                },
            )?;
            if let Some(e) = fail {
                return Err(e);
            }
            if next == start {
                return Err(CrimsonError::CorruptRepository(format!(
                    "interval index has no entry for tree {tree}, pre {}",
                    ranks[missing[next]]
                )));
            }
        }
        Ok(out
            .into_iter()
            .map(|e| e.expect("every rank resolved"))
            .collect())
    }

    /// Least common ancestor of two stored nodes (see [`Repository::lca`]).
    pub fn lca(&self, a: StoredNodeId, b: StoredNodeId) -> CrimsonResult<StoredNodeId> {
        let (ra, rb) = (self.node_record_arc(a)?, self.node_record_arc(b)?);
        if ra.tree != rb.tree {
            return Err(CrimsonError::InvalidSample(format!(
                "lca({a}, {b}): nodes belong to different trees"
            )));
        }
        if a == b {
            return Ok(a);
        }
        let sel = if ra.preorder < rb.preorder {
            [ra, rb]
        } else {
            [rb, ra]
        };
        Ok(self.consecutive_lcas(a.0 >> TREE_SHIFT, &sel)?[0].id)
    }

    pub fn is_ancestor(&self, ancestor: StoredNodeId, node: StoredNodeId) -> CrimsonResult<bool> {
        let (pa, ea) = self.interval_of(ancestor)?;
        let (pn, _) = self.interval_of(node)?;
        Ok(ancestor.0 >> TREE_SHIFT == node.0 >> TREE_SHIFT && pa <= pn && pn <= ea)
    }

    // ------------------------------------------------------------------
    // Reference structure primitives over stored hierarchical labels
    // ------------------------------------------------------------------

    /// Least common ancestor computed from the stored hierarchical Dewey
    /// labels (see [`Repository::lca_label_walk`]).
    pub fn lca_label_walk(&self, a: StoredNodeId, b: StoredNodeId) -> CrimsonResult<StoredNodeId> {
        if a == b {
            return Ok(a);
        }
        let ra = self.node_record_uncached(a)?;
        let rb = self.node_record_uncached(b)?;
        if ra.frame == rb.frame {
            return self.local_lca(&ra, &rb);
        }
        // Cross-frame: walk the frame chains (two-pointer by frame rank),
        // replacing each node by the source node of its frame as we lift it.
        let mut na = ra;
        let mut nb = rb;
        let mut fa = self.frame_record(na.frame)?;
        let mut fb = self.frame_record(nb.frame)?;
        while fa.id != fb.id {
            if fa.rank >= fb.rank {
                let source = fa.source_node.ok_or_else(|| missing_source(&fa))?;
                na = self.node_record_uncached(source)?;
                fa = self.frame_record(na.frame)?;
            } else {
                let source = fb.source_node.ok_or_else(|| missing_source(&fb))?;
                nb = self.node_record_uncached(source)?;
                fb = self.frame_record(nb.frame)?;
            }
        }
        self.local_lca(&na, &nb)
    }

    /// LCA of two nodes known to share a frame: longest common prefix of the
    /// local labels, resolved to a node by walking at most `f` parent links.
    fn local_lca(&self, a: &NodeRecord, b: &NodeRecord) -> CrimsonResult<StoredNodeId> {
        debug_assert_eq!(a.frame, b.frame);
        let prefix = a
            .local_label
            .iter()
            .zip(b.local_label.iter())
            .take_while(|(x, y)| x == y)
            .count();
        let (mut cur, depth) = if a.local_label.len() <= b.local_label.len() {
            (a.clone(), a.local_label.len())
        } else {
            (b.clone(), b.local_label.len())
        };
        for _ in prefix..depth {
            let parent = cur.parent.ok_or_else(|| {
                CrimsonError::CorruptRepository(format!(
                    "node {} sits below its frame root yet has no parent",
                    cur.id
                ))
            })?;
            cur = self.node_record_uncached(parent)?;
        }
        Ok(cur.id)
    }
}

// ---------------------------------------------------------------------------
// The writer
// ---------------------------------------------------------------------------

impl Repository {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Create a new repository file (truncates an existing one).
    pub fn create(path: impl AsRef<Path>, options: RepositoryOptions) -> CrimsonResult<Self> {
        let mut db = Database::create_with_capacity(path, options.buffer_pool_pages)?;
        let trees_table = db.create_table("trees", trees_schema())?;
        db.create_index(trees_table, "tree_id", true)?;
        db.create_index(trees_table, "name", true)?;
        let nodes_table = db.create_table("nodes", nodes_schema())?;
        db.create_index(nodes_table, "node_id", true)?;
        db.create_index(nodes_table, "parent_id", false)?;
        db.create_index(nodes_table, "name", false)?;
        db.create_index(nodes_table, "root_dist", false)?;
        db.create_index(nodes_table, "leaf_of_tree", false)?;
        db.create_index(nodes_table, "subtree_height", false)?;
        let frames_table = db.create_table("frames", frames_schema())?;
        db.create_index(frames_table, "frame_id", true)?;
        let species_table = db.create_table("species", species_schema())?;
        db.create_index(species_table, "name", false)?;
        db.create_index(species_table, "tree_id", false)?;
        let history_table = db.create_table("query_history", history_schema())?;
        db.create_index(history_table, "query_id", true)?;
        let experiments_table = db.create_table("experiments", experiments_schema())?;
        db.create_index(experiments_table, "exp_id", true)?;
        db.create_index(experiments_table, "name", true)?;
        let results_table = db.create_table("experiment_results", experiment_results_schema())?;
        db.create_index(results_table, "result_id", true)?;
        db.create_index(results_table, "exp_id", false)?;
        let clades_table = db.create_table("experiment_clades", experiment_clades_schema())?;
        db.create_index(clades_table, "result_id", false)?;
        let stats_table = db.create_table("tree_stats", tree_stats_schema())?;
        db.create_index(stats_table, "tree_id", true)?;
        let ivl_by_pre = db.create_raw_index(IVL_BY_PRE)?;
        let ivl_by_node = db.create_raw_index(IVL_BY_NODE)?;
        let hash_by_pre = db.create_raw_index(HASH_BY_PRE)?;
        let hash_idx = db.create_raw_index(HASH_IDX)?;
        let clade_refs = db.create_raw_index(CLADE_REFS)?;
        let depth_blocks = db.create_table(DEPTH_BLOCKS, crate::depth::depth_blocks_schema())?;
        let depth_minima = db.create_table(DEPTH_MINIMA, crate::depth::depth_minima_schema())?;
        db.create_index(depth_minima, "tree_id", false)?;
        db.flush()?;
        let checkpointer = options.checkpoint.map(|p| db.start_checkpointer(p));
        Ok(Repository {
            checkpointer,
            db,
            options,
            tables: Tables {
                trees: trees_table,
                nodes: nodes_table,
                frames: frames_table,
                species: species_table,
                history: history_table,
                experiments: experiments_table,
                experiment_results: results_table,
                experiment_clades: clades_table,
                tree_stats: stats_table,
                ivl_by_pre,
                ivl_by_node,
                hash_by_pre,
                hash_idx,
                clade_refs,
                depth_blocks,
                depth_minima,
            },
            next_history_id: 0,
            last_commit: 0,
            record_cache: ShardedCache::new(RECORD_CACHE_GEN),
            entry_cache: ShardedCache::new(ENTRY_CACHE_GEN),
            minima_cache: ShardedCache::new(MINIMA_CACHE_GEN),
            recovery: None,
        })
    }

    /// Open an existing repository file. Opening replays the write-ahead
    /// log: loads committed before a crash are restored, interrupted loads
    /// are rolled back; the outcome is available from
    /// [`Repository::recovery_report`]. A file written before the depth
    /// column existed is refused with [`CrimsonError::CorruptRepository`].
    pub fn open(path: impl AsRef<Path>, options: RepositoryOptions) -> CrimsonResult<Self> {
        let db = Database::open_with_capacity(path, options.buffer_pool_pages)?;
        let recovery = db.recovery_report();
        let tables = Tables::open(&db)?;
        // Rolled-back transactions may have left gaps in the id sequence;
        // resume after the highest id actually present (a plain row count
        // could collide with a surviving id). The unique `query_id` index
        // yields rows in id order, so only the last one needs decoding.
        let next_history_id = match db
            .index_range(tables.history, "query_id", None, None)?
            .last()
        {
            Some(&rid) => {
                db.get(tables.history, rid)?.values[0]
                    .as_int()
                    .unwrap_or(-1) as u64
                    + 1
            }
            None => 0,
        };
        let checkpointer = options.checkpoint.map(|p| db.start_checkpointer(p));
        Ok(Repository {
            checkpointer,
            db,
            options,
            tables,
            next_history_id,
            last_commit: 0,
            record_cache: ShardedCache::new(RECORD_CACHE_GEN),
            entry_cache: ShardedCache::new(ENTRY_CACHE_GEN),
            minima_cache: ShardedCache::new(MINIMA_CACHE_GEN),
            recovery,
        })
    }

    /// Open a repository in **degraded read-only mode** for salvage after
    /// media damage: crash recovery still runs (it rewrites every page the
    /// log covers, which is itself a repair), every remaining page's
    /// checksum is verified up front and unrepairable pages are
    /// quarantined, all mutation is refused with a typed error, and the
    /// returned [`DegradedReport`] says which trees and experiments the
    /// damage reaches — everything else stays fully queryable. Like
    /// [`Repository::open`], it refuses a file that lacks the depth column.
    pub fn open_degraded(
        path: impl AsRef<Path>,
        options: RepositoryOptions,
    ) -> CrimsonResult<(Self, DegradedReport)> {
        let db = Database::open_degraded(path, options.buffer_pool_pages)?;
        let recovery = db.recovery_report();
        let tables = Tables::open(&db)?;
        let repo = Repository {
            // Mutation is refused in degraded mode; never checkpoint.
            checkpointer: None,
            db,
            options,
            tables,
            // Writes are refused in degraded mode, so the history id
            // sequence is never consumed.
            next_history_id: 0,
            last_commit: 0,
            record_cache: ShardedCache::new(RECORD_CACHE_GEN),
            entry_cache: ShardedCache::new(ENTRY_CACHE_GEN),
            minima_cache: ShardedCache::new(MINIMA_CACHE_GEN),
            recovery,
        };
        let report = repo.survey_damage();
        Ok((repo, report))
    }

    /// Probe every tree and experiment, classifying each as readable or
    /// unreadable (any typed error — `CorruptPage` on a quarantined page,
    /// decode failures over flipped bits — marks it unreadable).
    fn survey_damage(&self) -> DegradedReport {
        let mut report = DegradedReport {
            quarantined_pages: self.db.quarantined_pages(),
            ..DegradedReport::default()
        };
        match self.ctx().list_trees() {
            Ok(trees) => {
                for tree in trees {
                    match self.probe_tree(&tree) {
                        Ok(()) => report.readable_trees.push(tree.name),
                        Err(e) => report.unreadable_trees.push((tree.name, e.to_string())),
                    }
                }
            }
            Err(e) => report
                .unreadable_trees
                .push(("<tree catalog>".into(), e.to_string())),
        }
        match self.ctx().list_experiments() {
            Ok(experiments) => {
                for exp in experiments {
                    match self.probe_experiment(exp.id) {
                        Ok(()) => report.readable_experiments.push(exp.name),
                        Err(e) => report
                            .unreadable_experiments
                            .push((exp.name, e.to_string())),
                    }
                }
            }
            Err(e) => report
                .unreadable_experiments
                .push(("<experiment catalog>".into(), e.to_string())),
        }
        report
    }

    /// Touch a tree's main structures: its record, root interval, depth
    /// column, every leaf's node row and interval entry. Damage on any of those pages
    /// surfaces as the typed error the caller records.
    fn probe_tree(&self, tree: &TreeRecord) -> CrimsonResult<()> {
        let ctx = self.ctx();
        ctx.interval_of(tree.root)?;
        ctx.probe_depth_column(tree.handle.0)?;
        for leaf in ctx.leaves(tree.handle)? {
            ctx.node_record(leaf)?;
            ctx.interval_of(leaf)?;
        }
        ctx.species_count(tree.handle)?;
        Ok(())
    }

    /// Touch an experiment's result and clade rows.
    fn probe_experiment(&self, id: u64) -> CrimsonResult<()> {
        let ctx = self.ctx();
        for result in ctx.experiment_results(id)? {
            ctx.experiment_clades(result.id)?;
        }
        Ok(())
    }

    /// The read engine over the writer's own (current) view.
    pub(crate) fn ctx(&self) -> ReadCtx<'_, Database> {
        ReadCtx {
            db: &self.db,
            tables: self.tables,
            records: &self.record_cache,
            entries: &self.entry_cache,
            minima: &self.minima_cache,
        }
    }

    /// A concurrent snapshot reader for this repository. Readers run on
    /// other threads while this value keeps loading: they see the last
    /// committed state and never block behind an in-flight transaction.
    pub fn reader(&self) -> CrimsonResult<crate::reader::RepositoryReader> {
        crate::reader::RepositoryReader::new(self)
    }

    /// The options this repository was opened with.
    pub fn options(&self) -> &RepositoryOptions {
        &self.options
    }

    /// The crash-recovery outcome from opening this repository (`None` for
    /// a freshly created file; a report with zero counters for a clean
    /// open). Part of the repository stats surfaced to load tooling.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// Checkpoint: write all dirty state to the data file and truncate the
    /// write-ahead log. Before checkpointing, any tree stored by a pre-hash
    /// build gets its content address backfilled, so old files upgrade in
    /// place the first time they are flushed by a hash-aware build.
    pub fn flush(&mut self) -> CrimsonResult<()> {
        if !self.db.read_only() && !self.db.is_poisoned() {
            self.backfill_clade_hashes()?;
        }
        self.db.flush()?;
        Ok(())
    }

    /// Block until every commit issued through this repository is durable
    /// on disk. A no-op under [`Durability::Sync`] (each commit already
    /// waited); under [`Durability::Async`] this forces the group fsync
    /// covering the last asynchronous commit — the natural call at a bulk
    /// load's batch boundary.
    pub fn sync(&self) -> CrimsonResult<()> {
        self.db.wait_durable(self.last_commit)?;
        Ok(())
    }

    /// Block until the write-ahead log is durable up to `lsn` (leading or
    /// following a group fsync as needed).
    pub fn wait_durable(&self, lsn: Lsn) -> CrimsonResult<()> {
        self.db.wait_durable(lsn)?;
        Ok(())
    }

    /// Absolute LSN up to which the write-ahead log is known durable.
    pub fn durable_lsn(&self) -> Lsn {
        self.db.durable_lsn()
    }

    /// The highest commit LSN this repository has logged through the
    /// asynchronous commit path (zero when every commit was synchronous).
    /// Hand it to [`Repository::wait_durable`] — or to
    /// [`crate::reader::RepositoryReader::wait_durable`], which does not
    /// need the writer — to turn an acknowledged-but-buffered commit into a
    /// durable one.
    pub fn last_commit_lsn(&self) -> Lsn {
        self.last_commit
    }

    /// Switch the durability mode commits route through from now on (see
    /// [`Durability`]). The server front end keeps the writer in
    /// [`Durability::Async`] permanently and implements per-request
    /// synchronous semantics by waiting on [`Repository::last_commit_lsn`]
    /// *after* releasing the writer, so concurrent sessions' fsync waits
    /// collapse into shared group rounds.
    pub fn set_durability(&mut self, durability: Durability) {
        self.options.durability = durability;
    }

    /// Whether a background checkpointer is running for this repository.
    pub fn has_checkpointer(&self) -> bool {
        self.checkpointer.is_some()
    }

    /// Run `f` as one atomic unit: if a transaction is already open, `f`
    /// joins it (so compound loads nest); otherwise a transaction is
    /// begun, committed on success and rolled back — with the decoded-row
    /// caches cleared, since they may hold phantom rows read inside the
    /// failed unit — on error.
    pub(crate) fn with_txn<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> CrimsonResult<T>,
    ) -> CrimsonResult<T> {
        if self.db.in_transaction() {
            return f(self);
        }
        self.db.begin()?;
        match f(self) {
            Ok(value) => {
                // Route the commit through the configured durability mode:
                // synchronous commits ride the storage engine's group fsync
                // (blocking on the durable-LSN watermark); asynchronous ones
                // return at log-append time and remember the commit LSN so
                // [`Repository::sync`] can force the covering fsync later.
                let committed = match self.options.durability {
                    Durability::Sync => self.db.commit(),
                    Durability::Async => self.db.commit_async().map(|lsn| {
                        self.last_commit = self.last_commit.max(lsn);
                    }),
                };
                match committed {
                    Ok(()) => Ok(value),
                    Err(e) => {
                        self.purge_caches();
                        Err(e.into())
                    }
                }
            }
            Err(e) => {
                let rollback = self.db.rollback();
                self.purge_caches();
                match rollback {
                    Ok(()) => Err(e),
                    // A failed rollback may leave stolen uncommitted pages
                    // readable as committed; that is strictly worse than the
                    // original error and must not be swallowed. Reopening
                    // replays the WAL undo records and restores consistency.
                    Err(rb) => Err(CrimsonError::CorruptRepository(format!(
                        "transaction failed ({e}) and its rollback also failed ({rb}); \
                         reopen the repository to recover from the write-ahead log"
                    ))),
                }
            }
        }
    }

    /// Drop the decoded-record and interval-entry caches (they may reference
    /// rows of a rolled-back transaction).
    fn purge_caches(&self) {
        self.record_cache.clear();
        self.entry_cache.clear();
        self.minima_cache.clear();
    }

    /// Inject a simulated crash into the storage engine (test
    /// instrumentation for the crash-recovery suites).
    pub fn inject_crash(&self, point: CrashPoint) {
        self.db.inject_crash(point)
    }

    /// Install a deterministic fault-injection schedule over the data and
    /// log files (see [`storage::FaultSchedule`]). Test instrumentation for
    /// the media-fault suites; fails if a schedule is already installed.
    pub fn install_fault_schedule(&self, schedule: SharedFaultSchedule) -> CrimsonResult<()> {
        self.db.install_fault_schedule(schedule)?;
        Ok(())
    }

    /// The installed fault schedule, if any.
    pub fn fault_schedule(&self) -> Option<SharedFaultSchedule> {
        self.db.fault_schedule()
    }

    /// Set the transient-I/O retry policy for the data file and the
    /// write-ahead log.
    pub fn set_io_retry_policy(&self, policy: RetryPolicy) {
        self.db.set_io_retry_policy(policy)
    }

    /// Whether this repository is open in read-only (degraded) mode.
    pub fn read_only(&self) -> bool {
        self.db.read_only()
    }

    /// Whether an earlier fsync failure poisoned the writer: further
    /// mutation is refused (readers keep serving the last committed
    /// snapshot); reopen the repository to recover from the log.
    pub fn is_poisoned(&self) -> bool {
        self.db.is_poisoned()
    }

    /// Page ids quarantined after unrepairable checksum failures.
    pub fn quarantined_pages(&self) -> Vec<u64> {
        self.db.quarantined_pages()
    }

    /// Incremental media scrub: verify every page's checksum (backfilling,
    /// repairing from the WAL or quarantining as appropriate — see
    /// [`storage::buffer::BufferPool::scrub`]), then cross-check the page
    /// scan with the logical [`Repository::integrity_check`] when no page
    /// is quarantined.
    pub fn scrub(&self, opts: ScrubOptions) -> CrimsonResult<ScrubReport> {
        let pages = self.db.scrub(opts)?;
        let integrity = if pages.pages_quarantined == 0 {
            Some(self.ctx().integrity_check()?)
        } else {
            // Quarantined pages make the row-level walk fail by
            // construction; the page-level report already carries the bad
            // news.
            None
        };
        Ok(ScrubReport { pages, integrity })
    }

    /// Enable or disable write-ahead logging (bench baseline only; disabled
    /// logging forfeits crash safety).
    pub fn set_logging(&mut self, enabled: bool) -> CrimsonResult<()> {
        self.db.set_logging(enabled)?;
        Ok(())
    }

    /// Buffer-pool statistics from the underlying storage engine.
    pub fn buffer_stats(&self) -> storage::buffer::BufferStats {
        self.db.buffer_stats()
    }

    /// `(resident pages, frame capacity)` of the underlying buffer pool.
    /// Residency never exceeds capacity, whatever the file size.
    pub fn buffer_utilization(&self) -> (usize, usize) {
        (self.db.pool().resident_pages(), self.db.pool().capacity())
    }

    /// Number of pages holding stored MVCC version state (pending or
    /// committed history). The concurrency harness's leak check: this
    /// returns to zero once no reader epoch is pinned and no transaction
    /// is open.
    pub fn version_pages(&self) -> usize {
        self.db.pool().version_pages()
    }

    /// Number of live pinned reader epochs (pin count, not distinct
    /// epochs).
    pub fn pinned_epochs(&self) -> usize {
        self.db.pool().pinned_epochs()
    }

    /// Reset buffer-pool statistics.
    pub fn reset_buffer_stats(&self) {
        self.db.reset_buffer_stats()
    }

    /// Drop cached pages, decoded records and interval entries to measure
    /// cold-start query behaviour.
    pub fn clear_cache(&self) -> CrimsonResult<()> {
        self.db.clear_cache()?;
        self.record_cache.clear();
        self.entry_cache.clear();
        self.minima_cache.clear();
        Ok(())
    }

    /// `(hits, misses)` of the decoded-record cache, plus the number of
    /// resident entries: `((hits, misses), len)`.
    pub fn record_cache_stats(&self) -> ((u64, u64), usize) {
        (self.record_cache.stats(), self.record_cache.len())
    }

    // ------------------------------------------------------------------
    // Loading
    // ------------------------------------------------------------------

    /// Load a tree (structure only) under `name`; returns its handle.
    ///
    /// Nodes are stored with hierarchical Dewey labels (frame depth taken
    /// from the repository options), cumulative root distances, pre-order
    /// ranks and parent links.
    ///
    /// The load is one atomic transaction: a failed or interrupted load
    /// leaves no orphan node/frame/interval rows and is invisible after
    /// reopening the repository.
    ///
    /// This is the bulk fast path: one DFS computes every per-node scalar
    /// (pre/end ranks, parent rank, depth, root distance, subtree height),
    /// then a single pre-order emission streams node rows straight into the
    /// storage engine's bulk appenders — heap pages are filled sequentially,
    /// secondary indexes and both interval indexes are packed bottom-up —
    /// instead of paying a root-to-leaf descent and a whole-node rewrite
    /// per row. [`Repository::load_tree_reference`] keeps the row-at-a-time
    /// path for cross-validation.
    pub fn load_tree(&mut self, name: &str, tree: &Tree) -> CrimsonResult<TreeHandle> {
        self.with_txn(|repo| repo.load_tree_inner(name, tree))
    }

    /// Load a tree through the original row-at-a-time path: one
    /// [`Database::insert`] per frame/node row and one `raw_insert` per
    /// interval entry, each paying a full B+tree descent. Kept as the
    /// reference implementation the bulk property tests cross-validate
    /// against, and as the cost baseline the load bench measures the bulk
    /// path's speedup over.
    pub fn load_tree_reference(&mut self, name: &str, tree: &Tree) -> CrimsonResult<TreeHandle> {
        self.with_txn(|repo| repo.load_tree_reference_inner(name, tree))
    }

    fn load_tree_inner(&mut self, name: &str, tree: &Tree) -> CrimsonResult<TreeHandle> {
        if tree.is_empty() {
            return Err(CrimsonError::Phylo(phylo::PhyloError::EmptyTree));
        }
        if self.find_tree(name)?.is_some() {
            return Err(CrimsonError::DuplicateTree(name.to_string()));
        }
        let tree_id = self.next_tree_id()?;
        let handle = TreeHandle(tree_id);

        let labels = HierarchicalDewey::build(tree, self.options.frame_depth);
        let layer0 = labels.layer(0);
        let node_sid = |n: phylo::NodeId| StoredNodeId((tree_id << TREE_SHIFT) | n.0 as u64);
        let frame_sid = |f: u32| StoredFrameId((tree_id << TREE_SHIFT) | f as u64);

        // One iterative DFS computes every per-node scalar the row needs:
        // pre-order rank on entry; subtree end rank and height on exit. This
        // replaces five separate traversals (root distances, depths,
        // pre-order ranks, heights, interval labels) of the reference path.
        let n = tree.node_count();
        let mut pre_of = vec![0u32; n];
        let mut end_of = vec![0u32; n];
        let mut parent_pre = vec![0u32; n];
        let mut root_dist = vec![0.0f64; n];
        let mut depth_of = vec![0u64; n];
        let mut height_of = vec![0.0f64; n];
        // Canonical clade hashes and leaf-rank intervals, computed in the
        // same DFS (children are final at a node's post-order exit): the
        // content address comes for free with the load.
        let mut hash_of = vec![CladeHash([0u8; clade_hash::CLADE_HASH_LEN]); n];
        let mut leaf_lo = vec![u32::MAX; n];
        let mut leaf_hi = vec![0u32; n];
        let mut hash_scratch: Vec<CladeHash> = Vec::new();
        let mut next_leaf_rank = 0u32;
        // Pre-order sequence of arena ids: the emission order.
        let mut order: Vec<phylo::NodeId> = Vec::with_capacity(n);
        let mut leaf_count = 0u64;
        let root = tree.root_unchecked();
        order.push(root);
        let mut next_pre = 1u32;
        let mut stack: Vec<(phylo::NodeId, usize)> = vec![(root, 0)];
        while let Some(&(node, child_idx)) = stack.last() {
            let children = tree.children(node);
            if child_idx < children.len() {
                stack.last_mut().expect("just peeked").1 += 1;
                let child = children[child_idx];
                let ci = child.index();
                pre_of[ci] = next_pre;
                next_pre += 1;
                parent_pre[ci] = pre_of[node.index()];
                root_dist[ci] = root_dist[node.index()] + tree.node(child).branch_length_or_zero();
                depth_of[ci] = depth_of[node.index()] + 1;
                order.push(child);
                stack.push((child, 0));
            } else {
                let ni = node.index();
                end_of[ni] = next_pre - 1;
                if children.is_empty() {
                    leaf_count += 1;
                    hash_of[ni] = CladeHash::leaf(tree.name(node));
                    leaf_lo[ni] = next_leaf_rank;
                    leaf_hi[ni] = next_leaf_rank;
                    next_leaf_rank += 1;
                } else {
                    hash_scratch.clear();
                    hash_scratch.extend(children.iter().map(|c| hash_of[c.index()]));
                    hash_of[ni] = CladeHash::internal(&mut hash_scratch);
                }
                stack.pop();
                if let Some(&(parent, _)) = stack.last() {
                    let pi = parent.index();
                    let lifted = height_of[ni] + tree.node(node).branch_length_or_zero();
                    if lifted > height_of[pi] {
                        height_of[pi] = lifted;
                    }
                    leaf_lo[pi] = leaf_lo[pi].min(leaf_lo[ni]);
                    leaf_hi[pi] = leaf_hi[pi].max(leaf_hi[ni]);
                }
            }
        }
        debug_assert_eq!(order.len(), n);

        // Frame ranks (number of ancestor frames) for the cross-frame walk.
        let frame_count = layer0.frame_count();
        let mut frame_rank = vec![0u64; frame_count];
        for fid in 0..frame_count as u32 {
            let mut rank = 0u64;
            let mut cur = fid;
            while let Some(parent) = layer0.frame(cur).parent_frame {
                rank += 1;
                cur = parent;
            }
            frame_rank[fid as usize] = rank;
        }

        // Frame rows, streamed through the bulk appender (frame ids ascend,
        // so the unique frame_id index packs bottom-up).
        let mut next_frame = 0u32;
        self.db
            .bulk_insert_with(self.tables.frames, BULK_FILL, |values| {
                if next_frame as usize == frame_count {
                    return Ok(false);
                }
                let fid = next_frame;
                next_frame += 1;
                let frame = layer0.frame(fid);
                values.push(Value::Int(frame_sid(fid).0 as i64));
                values.push(Value::Int(tree_id as i64));
                values.push(Value::Int(node_sid(phylo::NodeId(frame.root)).0 as i64));
                values.push(match frame.parent_frame {
                    Some(p) => Value::Int(frame_sid(p).0 as i64),
                    None => Value::Int(-1),
                });
                values.push(match frame.source {
                    Some(s) => Value::Int(node_sid(phylo::NodeId(s)).0 as i64),
                    None => Value::Int(-1),
                });
                values.push(Value::Int(frame_rank[fid as usize] as i64));
                Ok(true)
            })?;

        // Node rows in pre-order (heap locality aligned with the dominant
        // access pattern), one streaming emission: each row is encoded into
        // the engine's reusable buffer and appended to sequentially filled
        // heap pages; the six secondary indexes are packed bottom-up from
        // the buffered key runs. The returned physical record ids feed the
        // interval index below as direct row locators.
        let mut emit = 0usize;
        let row_ids = self
            .db
            .bulk_insert_with(self.tables.nodes, BULK_FILL, |values| {
                let Some(&node) = order.get(emit) else {
                    return Ok(false);
                };
                emit += 1;
                let ai = node.index();
                let is_leaf = tree.is_leaf(node);
                let label = labels.label(node);
                let label_bytes: Vec<u8> =
                    label.path.iter().flat_map(|c| c.to_le_bytes()).collect();
                values.push(Value::Int(node_sid(node).0 as i64));
                values.push(Value::Int(tree_id as i64));
                values.push(match tree.parent(node) {
                    Some(p) => Value::Int(node_sid(p).0 as i64),
                    None => Value::Int(-1),
                });
                values.push(match tree.name(node) {
                    Some(n) => Value::text(n),
                    None => Value::Null,
                });
                values.push(match tree.branch_length(node) {
                    Some(l) => Value::Float(l),
                    None => Value::Null,
                });
                values.push(Value::Float(root_dist[ai]));
                values.push(Value::Int(depth_of[ai] as i64));
                values.push(Value::Int(pre_of[ai] as i64));
                values.push(Value::Int(frame_sid(label.frame).0 as i64));
                values.push(Value::bytes(label_bytes));
                values.push(Value::Bool(is_leaf));
                values.push(Value::Int(if is_leaf { tree_id as i64 } else { -1 }));
                values.push(Value::Float(height_of[ai]));
                Ok(true)
            })?;

        // Both interval indexes as sorted bottom-up bulk builds: covering
        // entries keyed by `(tree_id, pre)` carrying the heap locator, and
        // the node id → packed `(pre, end)` map. Pre-order emission makes
        // the first run sorted; ascending arena ids make the second.
        self.db.bulk_raw_insert(
            self.tables.ivl_by_pre,
            BULK_FILL,
            order.iter().enumerate().map(|(rank, &node)| {
                let ai = node.index();
                let entry = IntervalEntry {
                    pre: pre_of[ai],
                    end: end_of[ai],
                    parent_pre: parent_pre[ai],
                    node: node.0,
                    is_leaf: tree.is_leaf(node),
                };
                debug_assert_eq!(entry.pre as usize, rank);
                (entry.encode_key(tree_id), row_ids[rank].to_u64())
            }),
        )?;
        self.db.bulk_raw_insert(
            self.tables.ivl_by_node,
            BULK_FILL,
            (0..n).map(|ai| {
                let sid = (tree_id << TREE_SHIFT) | ai as u64;
                let packed = ((pre_of[ai] as u64) << 32) | end_of[ai] as u64;
                (sid.to_be_bytes(), packed)
            }),
        )?;

        let column: Vec<(u32, u32)> = order
            .iter()
            .map(|v| (depth_of[v.index()] as u32, parent_pre[v.index()]))
            .collect();
        self.insert_depth_column(tree_id, &column)?;

        // The content address: per-node hashes in `(tree_id, pre)` order (a
        // sorted bulk run like the interval index), the global hash entries,
        // and the stats row the equal-tree short-circuit reads.
        let counts = crate::content::count_clades(
            order
                .iter()
                .map(|&v| (leaf_lo[v.index()], leaf_hi[v.index()])),
            leaf_count as u32,
        );
        self.insert_content_address(
            tree_id,
            order
                .iter()
                .map(|&v| (pre_of[v.index()], end_of[v.index()], hash_of[v.index()])),
            counts,
            clade_hash::distinct_named_leaves(tree),
        )?;

        // Insert the tree row last so a partially loaded tree is not visible.
        self.db.insert(
            self.tables.trees,
            &[
                Value::Int(tree_id as i64),
                Value::text(name),
                Value::Int(node_sid(root).0 as i64),
                Value::Int(n as i64),
                Value::Int(leaf_count as i64),
                Value::Int(self.options.frame_depth as i64),
            ],
        )?;
        Ok(handle)
    }

    fn load_tree_reference_inner(&mut self, name: &str, tree: &Tree) -> CrimsonResult<TreeHandle> {
        if tree.is_empty() {
            return Err(CrimsonError::Phylo(phylo::PhyloError::EmptyTree));
        }
        if self.find_tree(name)?.is_some() {
            return Err(CrimsonError::DuplicateTree(name.to_string()));
        }
        let tree_id = self.next_tree_id()?;
        let handle = TreeHandle(tree_id);

        let labels = HierarchicalDewey::build(tree, self.options.frame_depth);
        let layer0 = labels.layer(0);
        let root_dists = tree.all_root_distances();
        let depths = tree.all_depths();
        let preorder = tree.preorder_ranks();
        // Subtree height (max distance to a descendant leaf) in post-order.
        let mut heights = vec![0.0f64; tree.node_count()];
        for node in tree.postorder() {
            let mut h = 0.0f64;
            for &c in tree.children(node) {
                h = h.max(heights[c.index()] + tree.node(c).branch_length_or_zero());
            }
            heights[node.index()] = h;
        }

        let node_sid = |n: phylo::NodeId| StoredNodeId((tree_id << TREE_SHIFT) | n.0 as u64);
        let frame_sid = |f: u32| StoredFrameId((tree_id << TREE_SHIFT) | f as u64);

        // Frame ranks (number of ancestor frames) for the cross-frame walk.
        let frame_count = layer0.frame_count();
        let mut frame_rank = vec![0u64; frame_count];
        for fid in 0..frame_count as u32 {
            let mut rank = 0u64;
            let mut cur = fid;
            while let Some(parent) = layer0.frame(cur).parent_frame {
                rank += 1;
                cur = parent;
            }
            frame_rank[fid as usize] = rank;
        }

        // Insert frames.
        for fid in 0..frame_count as u32 {
            let frame = layer0.frame(fid);
            self.db.insert(
                self.tables.frames,
                &[
                    Value::Int(frame_sid(fid).0 as i64),
                    Value::Int(tree_id as i64),
                    Value::Int(node_sid(phylo::NodeId(frame.root)).0 as i64),
                    match frame.parent_frame {
                        Some(p) => Value::Int(frame_sid(p).0 as i64),
                        None => Value::Int(-1),
                    },
                    match frame.source {
                        Some(s) => Value::Int(node_sid(phylo::NodeId(s)).0 as i64),
                        None => Value::Int(-1),
                    },
                    Value::Int(frame_rank[fid as usize] as i64),
                ],
            )?;
        }

        // Insert nodes in pre-order (keeps heap locality aligned with the
        // dominant access pattern), remembering each row's physical record
        // id — the interval index stores it as a direct row locator.
        let mut leaf_count = 0u64;
        let mut row_ids = vec![storage::RecordId { page: 0, slot: 0 }; tree.node_count()];
        for node in tree.preorder() {
            let is_leaf = tree.is_leaf(node);
            if is_leaf {
                leaf_count += 1;
            }
            let label = labels.label(node);
            let label_bytes: Vec<u8> = label.path.iter().flat_map(|c| c.to_le_bytes()).collect();
            row_ids[node.index()] = self.db.insert(
                self.tables.nodes,
                &[
                    Value::Int(node_sid(node).0 as i64),
                    Value::Int(tree_id as i64),
                    match tree.parent(node) {
                        Some(p) => Value::Int(node_sid(p).0 as i64),
                        None => Value::Int(-1),
                    },
                    match tree.name(node) {
                        Some(n) => Value::text(n),
                        None => Value::Null,
                    },
                    match tree.branch_length(node) {
                        Some(l) => Value::Float(l),
                        None => Value::Null,
                    },
                    Value::Float(root_dists[node.index()]),
                    Value::Int(depths[node.index()] as i64),
                    Value::Int(preorder[node.index()] as i64),
                    Value::Int(frame_sid(label.frame).0 as i64),
                    Value::bytes(label_bytes),
                    Value::Bool(is_leaf),
                    Value::Int(if is_leaf { tree_id as i64 } else { -1 }),
                    Value::Float(heights[node.index()]),
                ],
            )?;
        }

        // Persist the interval index: one covering entry per node keyed by
        // `(tree_id, pre)` whose value is the node row's physical record id
        // (a direct heap locator, so scan consumers fetch rows without an
        // index descent), plus the node id → packed interval map that makes
        // `is_ancestor` two integer comparisons. Entries arrive in
        // pre-order, i.e. in key order, so the B+tree build is
        // append-friendly.
        let intervals = IntervalLabels::build(tree);
        for entry in intervals.entries(tree) {
            let sid = node_sid(phylo::NodeId(entry.node));
            let rid = row_ids[entry.node as usize];
            self.db.raw_insert(
                self.tables.ivl_by_pre,
                &entry.encode_key(tree_id),
                rid.to_u64(),
            )?;
            let packed = ((entry.pre as u64) << 32) | entry.end as u64;
            self.db
                .raw_insert(self.tables.ivl_by_node, &sid.0.to_be_bytes(), packed)?;
        }

        self.insert_depth_column(tree_id, &crate::depth::depth_column(tree))?;

        // Content-address rows, computed standalone (the bulk path folds
        // this into its single DFS; the property tests cross-validate the
        // two paths' hashes and stats byte for byte).
        let content = crate::content::TreeContent::compute(tree);
        self.insert_content_address(
            tree_id,
            tree.preorder().map(|v| {
                let (pre, end) = intervals.interval(v);
                (pre, end, content.hashes[v.index()])
            }),
            content.counts,
            content.distinct_leaves,
        )?;

        // Insert the tree row last so a partially loaded tree is not visible.
        self.db.insert(
            self.tables.trees,
            &[
                Value::Int(tree_id as i64),
                Value::text(name),
                Value::Int(node_sid(tree.root_unchecked()).0 as i64),
                Value::Int(tree.node_count() as i64),
                Value::Int(leaf_count as i64),
                Value::Int(self.options.frame_depth as i64),
            ],
        )?;
        Ok(handle)
    }

    /// Append species (sequence) data to an already loaded tree. Species
    /// whose name does not match a leaf of the tree are rejected. One
    /// atomic transaction: either every sequence lands or none do.
    pub fn load_species(
        &mut self,
        handle: TreeHandle,
        sequences: &HashMap<String, String>,
    ) -> CrimsonResult<usize> {
        self.with_txn(|repo| repo.load_species_inner(handle, sequences))
    }

    fn load_species_inner(
        &mut self,
        handle: TreeHandle,
        sequences: &HashMap<String, String>,
    ) -> CrimsonResult<usize> {
        // Resolve every species to its leaf first (reads), then stream the
        // rows through the bulk appender in one pass.
        let mut resolved: Vec<(&String, StoredNodeId, &String)> =
            Vec::with_capacity(sequences.len());
        for (name, seq) in sequences {
            let node = self
                .species_node(handle, name)?
                .ok_or_else(|| CrimsonError::UnknownSpecies(name.clone()))?;
            resolved.push((name, node, seq));
        }
        let loaded = resolved.len();
        let mut iter = resolved.into_iter();
        self.db
            .bulk_insert_with(self.tables.species, BULK_FILL, |values| {
                let Some((name, node, seq)) = iter.next() else {
                    return Ok(false);
                };
                values.push(Value::text(name));
                values.push(Value::Int(handle.0 as i64));
                values.push(Value::Int(node.0 as i64));
                values.push(Value::text(seq.clone()));
                Ok(true)
            })?;
        Ok(loaded)
    }

    /// Load a gold standard: the tree plus all of its sequences, as a
    /// single atomic transaction (an interrupted load leaves neither).
    pub fn load_gold_standard(
        &mut self,
        name: &str,
        gold: &GoldStandard,
    ) -> CrimsonResult<TreeHandle> {
        self.with_txn(|repo| {
            let handle = repo.load_tree(name, &gold.tree)?;
            if !gold.sequences.is_empty() {
                repo.load_species(handle, &gold.sequences)?;
            }
            Ok(handle)
        })
    }

    pub(crate) fn next_tree_id(&self) -> CrimsonResult<u64> {
        let rows = self.db.scan(self.tables.trees)?;
        let max = rows
            .iter()
            .map(|(_, row)| row.values[0].as_int().unwrap_or(0) as u64)
            .max()
            .unwrap_or(0);
        Ok(if rows.is_empty() { 1 } else { max + 1 })
    }

    // ------------------------------------------------------------------
    // Read surface (delegates to the shared engine; all `&self`)
    // ------------------------------------------------------------------

    /// Look up a tree by name.
    pub fn find_tree(&self, name: &str) -> CrimsonResult<Option<TreeRecord>> {
        self.ctx().find_tree(name)
    }

    /// Look up a tree by name, failing when absent.
    pub fn tree_by_name(&self, name: &str) -> CrimsonResult<TreeRecord> {
        self.ctx().tree_by_name(name)
    }

    /// Look up a tree by handle.
    pub fn tree_record(&self, handle: TreeHandle) -> CrimsonResult<TreeRecord> {
        self.ctx().tree_record(handle)
    }

    /// All trees currently loaded.
    pub fn list_trees(&self) -> CrimsonResult<Vec<TreeRecord>> {
        self.ctx().list_trees()
    }

    /// Fetch a node row (served from the repository's record cache when
    /// warm; node rows are immutable once loaded, so cached entries never go
    /// stale).
    pub fn node_record(&self, id: StoredNodeId) -> CrimsonResult<NodeRecord> {
        self.ctx().node_record(id)
    }

    /// Fetch a node row as a shared handle — the zero-copy variant the query
    /// engine uses internally.
    pub fn node_record_arc(&self, id: StoredNodeId) -> CrimsonResult<Arc<NodeRecord>> {
        self.ctx().node_record_arc(id)
    }

    /// Fetch a node row straight from the node table, bypassing the record
    /// cache. Reference path for the cache-effectiveness assertions.
    pub fn node_record_uncached(&self, id: StoredNodeId) -> CrimsonResult<NodeRecord> {
        self.ctx().node_record_uncached(id)
    }

    /// Fetch a frame row.
    pub fn frame_record(&self, id: StoredFrameId) -> CrimsonResult<FrameRecord> {
        self.ctx().frame_record(id)
    }

    /// Children of a stored node (via the parent index).
    pub fn children(&self, id: StoredNodeId) -> CrimsonResult<Vec<StoredNodeId>> {
        self.ctx().children(id)
    }

    /// The leaf node a species name maps to in the given tree, if any.
    pub fn species_node(
        &self,
        handle: TreeHandle,
        name: &str,
    ) -> CrimsonResult<Option<StoredNodeId>> {
        self.ctx().species_node(handle, name)
    }

    /// The leaf node a species name maps to, failing when absent.
    pub fn require_species_node(
        &self,
        handle: TreeHandle,
        name: &str,
    ) -> CrimsonResult<StoredNodeId> {
        self.ctx().require_species_node(handle, name)
    }

    /// All leaf node ids of a tree (via the `leaf_of_tree` index).
    pub fn leaves(&self, handle: TreeHandle) -> CrimsonResult<Vec<StoredNodeId>> {
        self.ctx().leaves(handle)
    }

    /// Sequences stored for the given species names.
    pub fn sequences_for(
        &self,
        handle: TreeHandle,
        names: &[String],
    ) -> CrimsonResult<HashMap<String, String>> {
        self.ctx().sequences_for(handle, names)
    }

    /// Number of species rows stored for a tree.
    pub fn species_count(&self, handle: TreeHandle) -> CrimsonResult<usize> {
        self.ctx().species_count(handle)
    }

    /// Verify cross-table invariants: every node, frame and species row
    /// belongs to a tree in the catalog; per-tree node and leaf counts
    /// match the tree row; both interval indexes hold exactly one entry per
    /// node; each tree's depth column agrees with its block minima, its
    /// interval entries' parent ranks and its node rows' depths; every
    /// species row points at a leaf of its tree; the query
    /// history parses in full. Violations — orphan rows from an interrupted
    /// load, say — surface as [`CrimsonError::CorruptRepository`].
    pub fn integrity_check(&self) -> CrimsonResult<IntegrityReport> {
        self.ctx().integrity_check()
    }

    /// The packed `[pre, end]` interval of a stored node: one point lookup
    /// in the `ivl_by_node` raw index, no row decode.
    pub fn interval_of(&self, id: StoredNodeId) -> CrimsonResult<(u32, u32)> {
        self.ctx().interval_of(id)
    }

    /// Least common ancestor of two stored nodes: a range-minimum query
    /// over the tree's pre-order depth column.
    ///
    /// Both node rows are resolved first (through the record cache), so an
    /// unknown id is [`CrimsonError::UnknownNode`] even for `lca(x, x)`;
    /// nodes of different trees are [`CrimsonError::InvalidSample`]. This
    /// is the same path as each consecutive pair of [`Repository::project`]:
    /// for `pre(a) < pre(b)`, a leaf `a` is never an ancestor and an
    /// internal `a` is tested against its interval; otherwise the LCA is
    /// the parent of the shallowest rank in `(pre(a), pre(b)]` — the cached
    /// block minima plus at most two partial depth blocks, then the LCA's
    /// interval entry and row — a constant number of page reads however
    /// deep the tree is. The answer is checked against the interval index
    /// and the LCA's row before it is returned.
    pub fn lca(&self, a: StoredNodeId, b: StoredNodeId) -> CrimsonResult<StoredNodeId> {
        self.ctx().lca(a, b)
    }

    /// `true` when `ancestor` is an ancestor-or-self of `node`: two interval
    /// lookups and two integer comparisons (§2.2's LCA test, at the cost the
    /// XML-indexing literature promises for interval labels). Both ids must
    /// exist ([`CrimsonError::UnknownNode`] otherwise); nodes of different
    /// trees are never ancestors of each other.
    pub fn is_ancestor(&self, ancestor: StoredNodeId, node: StoredNodeId) -> CrimsonResult<bool> {
        self.ctx().is_ancestor(ancestor, node)
    }

    /// Least common ancestor computed from the stored hierarchical Dewey
    /// labels (local prefix within a frame; source-node hops across frames),
    /// exactly as §2.1 describes.
    ///
    /// This is the pre-interval-index implementation, kept as the reference
    /// the property tests cross-validate [`Repository::lca`] against and as
    /// the baseline for the page-read comparisons. It pays one full row
    /// decode per node visited.
    pub fn lca_label_walk(&self, a: StoredNodeId, b: StoredNodeId) -> CrimsonResult<StoredNodeId> {
        self.ctx().lca_label_walk(a, b)
    }
}

/// Typed error for a frame that should carry a source node but does not.
fn missing_source(frame: &FrameRecord) -> CrimsonError {
    CrimsonError::CorruptRepository(format!(
        "frame {:?} of tree #{} (rank {}) has no source node",
        frame.id, frame.tree.0, frame.rank
    ))
}

// ---------------------------------------------------------------------------
// Schemas and row decoding
// ---------------------------------------------------------------------------

fn trees_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::not_null("tree_id", ValueType::Int),
        ColumnDef::not_null("name", ValueType::Text),
        ColumnDef::not_null("root_node", ValueType::Int),
        ColumnDef::not_null("node_count", ValueType::Int),
        ColumnDef::not_null("leaf_count", ValueType::Int),
        ColumnDef::not_null("frame_depth", ValueType::Int),
    ])
}

fn nodes_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::not_null("node_id", ValueType::Int),
        ColumnDef::not_null("tree_id", ValueType::Int),
        ColumnDef::not_null("parent_id", ValueType::Int),
        ColumnDef::new("name", ValueType::Text),
        ColumnDef::new("branch_length", ValueType::Float),
        ColumnDef::not_null("root_dist", ValueType::Float),
        ColumnDef::not_null("depth", ValueType::Int),
        ColumnDef::not_null("preorder", ValueType::Int),
        ColumnDef::not_null("frame_id", ValueType::Int),
        ColumnDef::not_null("label", ValueType::Bytes),
        ColumnDef::not_null("is_leaf", ValueType::Bool),
        ColumnDef::not_null("leaf_of_tree", ValueType::Int),
        ColumnDef::not_null("subtree_height", ValueType::Float),
    ])
}

fn frames_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::not_null("frame_id", ValueType::Int),
        ColumnDef::not_null("tree_id", ValueType::Int),
        ColumnDef::not_null("root_node", ValueType::Int),
        ColumnDef::not_null("parent_frame", ValueType::Int),
        ColumnDef::not_null("source_node", ValueType::Int),
        ColumnDef::not_null("rank", ValueType::Int),
    ])
}

fn species_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::not_null("name", ValueType::Text),
        ColumnDef::not_null("tree_id", ValueType::Int),
        ColumnDef::not_null("node_id", ValueType::Int),
        ColumnDef::not_null("sequence", ValueType::Text),
    ])
}

fn history_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::not_null("query_id", ValueType::Int),
        ColumnDef::not_null("kind", ValueType::Text),
        ColumnDef::not_null("params", ValueType::Text),
        ColumnDef::not_null("summary", ValueType::Text),
    ])
}

fn experiments_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::not_null("exp_id", ValueType::Int),
        ColumnDef::not_null("name", ValueType::Text),
        ColumnDef::not_null("gold_tree", ValueType::Int),
        // The full ExperimentSpec as JSON — what `rerun` replays.
        ColumnDef::not_null("spec", ValueType::Text),
        ColumnDef::not_null("seed", ValueType::Int),
        ColumnDef::not_null("runs", ValueType::Int),
        ColumnDef::not_null("wall_ms", ValueType::Float),
    ])
}

fn experiment_results_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::not_null("result_id", ValueType::Int),
        ColumnDef::not_null("exp_id", ValueType::Int),
        ColumnDef::not_null("method", ValueType::Text),
        ColumnDef::not_null("strategy", ValueType::Text),
        ColumnDef::not_null("strategy_index", ValueType::Int),
        ColumnDef::not_null("replicate", ValueType::Int),
        ColumnDef::not_null("cell_seed", ValueType::Int),
        ColumnDef::not_null("sample_size", ValueType::Int),
        // Handle of the persisted reconstructed tree.
        ColumnDef::not_null("recon_tree", ValueType::Int),
        ColumnDef::not_null("rf_dist", ValueType::Int),
        ColumnDef::not_null("rf_max", ValueType::Int),
        ColumnDef::not_null("rf_shared", ValueType::Int),
        ColumnDef::not_null("rrf_dist", ValueType::Int),
        ColumnDef::not_null("rrf_max", ValueType::Int),
        ColumnDef::not_null("rrf_shared", ValueType::Int),
        ColumnDef::new("triplet", ValueType::Float),
        ColumnDef::not_null("sampling_ms", ValueType::Float),
        ColumnDef::not_null("projection_ms", ValueType::Float),
        ColumnDef::not_null("distances_ms", ValueType::Float),
        ColumnDef::not_null("reconstruction_ms", ValueType::Float),
        ColumnDef::not_null("comparison_ms", ValueType::Float),
        ColumnDef::not_null("persist_ms", ValueType::Float),
    ])
}

fn experiment_clades_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::not_null("result_id", ValueType::Int),
        // Stored node id of the clade's root in the reconstructed tree.
        ColumnDef::not_null("node_id", ValueType::Int),
        ColumnDef::not_null("size", ValueType::Int),
        ColumnDef::not_null("agrees", ValueType::Bool),
    ])
}

fn tree_stats_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::not_null("tree_id", ValueType::Int),
        // The 16-byte canonical root-clade hash.
        ColumnDef::not_null("root_hash", ValueType::Bytes),
        ColumnDef::not_null("rooted_clades", ValueType::Int),
        ColumnDef::not_null("unrooted_splits", ValueType::Int),
        // Bit 0: distinct named leaves; bit 1: stored cold.
        ColumnDef::not_null("flags", ValueType::Int),
    ])
}

pub(crate) fn decode_tree_stats_row(row: &storage::schema::Row) -> Option<TreeStatsRecord> {
    let flags = row.values[4].as_int().unwrap_or(0);
    Some(TreeStatsRecord {
        handle: TreeHandle(row.values[0].as_int().unwrap_or(0) as u64),
        root_hash: CladeHash::from_slice(row.values[1].as_bytes().unwrap_or(&[]))?,
        rooted_clades: row.values[2].as_int().unwrap_or(0) as u64,
        unrooted_splits: row.values[3].as_int().unwrap_or(0) as u64,
        distinct_leaves: flags & STATS_FLAG_DISTINCT_LEAVES != 0,
        cold: flags & STATS_FLAG_COLD != 0,
    })
}

fn decode_tree_row(row: &storage::schema::Row) -> TreeRecord {
    TreeRecord {
        handle: TreeHandle(row.values[0].as_int().unwrap_or(0) as u64),
        name: row.values[1].as_text().unwrap_or("").to_string(),
        root: StoredNodeId(row.values[2].as_int().unwrap_or(0) as u64),
        node_count: row.values[3].as_int().unwrap_or(0) as u64,
        leaf_count: row.values[4].as_int().unwrap_or(0) as u64,
        frame_depth: row.values[5].as_int().unwrap_or(0) as u64,
    }
}

pub(crate) fn decode_node_row(row: &storage::schema::Row) -> NodeRecord {
    let parent_raw = row.values[2].as_int().unwrap_or(-1);
    let label_bytes = row.values[9].as_bytes().unwrap_or(&[]);
    let local_label: Vec<u32> = label_bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    NodeRecord {
        id: StoredNodeId(row.values[0].as_int().unwrap_or(0) as u64),
        tree: TreeHandle(row.values[1].as_int().unwrap_or(0) as u64),
        parent: if parent_raw < 0 {
            None
        } else {
            Some(StoredNodeId(parent_raw as u64))
        },
        name: row.values[3].as_text().map(|s| s.to_string()),
        branch_length: row.values[4].as_float(),
        root_distance: row.values[5].as_float().unwrap_or(0.0),
        depth: row.values[6].as_int().unwrap_or(0) as u64,
        preorder: row.values[7].as_int().unwrap_or(0) as u64,
        frame: StoredFrameId(row.values[8].as_int().unwrap_or(0) as u64),
        local_label,
        is_leaf: row.values[10].as_bool().unwrap_or(false),
        subtree_height: row.values[12].as_float().unwrap_or(0.0),
    }
}

fn decode_frame_row(row: &storage::schema::Row) -> FrameRecord {
    let parent_raw = row.values[3].as_int().unwrap_or(-1);
    let source_raw = row.values[4].as_int().unwrap_or(-1);
    FrameRecord {
        id: StoredFrameId(row.values[0].as_int().unwrap_or(0) as u64),
        tree: TreeHandle(row.values[1].as_int().unwrap_or(0) as u64),
        root_node: StoredNodeId(row.values[2].as_int().unwrap_or(0) as u64),
        parent_frame: if parent_raw < 0 {
            None
        } else {
            Some(StoredFrameId(parent_raw as u64))
        },
        source_node: if source_raw < 0 {
            None
        } else {
            Some(StoredNodeId(source_raw as u64))
        },
        rank: row.values[5].as_int().unwrap_or(0) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo::builder::{balanced_binary, caterpillar, figure1_tree};
    use tempfile::tempdir;

    fn repo() -> (tempfile::TempDir, Repository) {
        let dir = tempdir().unwrap();
        let repo = Repository::create(
            dir.path().join("repo.crimson"),
            RepositoryOptions {
                frame_depth: 2,
                buffer_pool_pages: 256,
                ..Default::default()
            },
        )
        .unwrap();
        (dir, repo)
    }

    #[test]
    fn load_figure1_and_inspect() {
        let (_d, mut repo) = repo();
        let tree = figure1_tree();
        let handle = repo.load_tree("fig1", &tree).unwrap();
        let rec = repo.tree_by_name("fig1").unwrap();
        assert_eq!(rec.handle, handle);
        assert_eq!(rec.node_count, 8);
        assert_eq!(rec.leaf_count, 5);
        assert_eq!(rec.frame_depth, 2);

        let lla = repo.require_species_node(handle, "Lla").unwrap();
        let rec = repo.node_record(lla).unwrap();
        assert!(rec.is_leaf);
        assert_eq!(rec.depth, 3);
        assert!((rec.root_distance - 3.0).abs() < 1e-12);
        assert_eq!(rec.name.as_deref(), Some("Lla"));

        let root = repo.tree_by_name("fig1").unwrap().root;
        let root_rec = repo.node_record(root).unwrap();
        assert_eq!(root_rec.parent, None);
        assert_eq!(repo.children(root).unwrap().len(), 3);
        assert_eq!(repo.leaves(handle).unwrap().len(), 5);
    }

    #[test]
    fn duplicate_tree_name_rejected() {
        let (_d, mut repo) = repo();
        let tree = figure1_tree();
        repo.load_tree("fig1", &tree).unwrap();
        assert!(matches!(
            repo.load_tree("fig1", &tree),
            Err(CrimsonError::DuplicateTree(_))
        ));
    }

    #[test]
    fn lca_matches_in_memory_tree() {
        let (_d, mut repo) = repo();
        let tree = figure1_tree();
        let handle = repo.load_tree("fig1", &tree).unwrap();
        // Check every pair of leaves against the in-memory reference.
        let names = ["Bha", "Lla", "Spy", "Syn", "Bsu"];
        for a in names {
            for b in names {
                let sa = repo.require_species_node(handle, a).unwrap();
                let sb = repo.require_species_node(handle, b).unwrap();
                let stored_lca = repo.lca(sa, sb).unwrap();
                let mem_lca = tree.lca(
                    tree.find_leaf_by_name(a).unwrap(),
                    tree.find_leaf_by_name(b).unwrap(),
                );
                // Compare via names / depth (stored ids differ from NodeIds).
                let stored_rec = repo.node_record(stored_lca).unwrap();
                assert_eq!(
                    stored_rec.depth as usize,
                    tree.depth(mem_lca),
                    "lca({a},{b})"
                );
                assert!(
                    (stored_rec.root_distance - tree.root_distance(mem_lca)).abs() < 1e-12,
                    "lca({a},{b})"
                );
            }
        }
    }

    #[test]
    fn lca_on_deeper_trees_various_frame_depths() {
        for f in [2usize, 4, 16] {
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
            let tree = caterpillar(60, 1.0);
            let handle = repo.load_tree("cat", &tree).unwrap();
            let leaves: Vec<_> = tree.leaf_ids().collect();
            for i in (0..leaves.len()).step_by(7) {
                for j in (0..leaves.len()).step_by(11) {
                    let a = leaves[i];
                    let b = leaves[j];
                    let sa = repo
                        .require_species_node(handle, tree.name(a).unwrap())
                        .unwrap();
                    let sb = repo
                        .require_species_node(handle, tree.name(b).unwrap())
                        .unwrap();
                    let stored = repo.node_record(repo.lca(sa, sb).unwrap()).unwrap();
                    let expected = tree.lca(a, b);
                    assert_eq!(stored.depth as usize, tree.depth(expected), "f={f} {a} {b}");
                }
            }
        }
    }

    #[test]
    fn is_ancestor_via_lca() {
        let (_d, mut repo) = repo();
        let tree = figure1_tree();
        let handle = repo.load_tree("fig1", &tree).unwrap();
        let root = repo.tree_by_name("fig1").unwrap().root;
        let lla = repo.require_species_node(handle, "Lla").unwrap();
        let syn = repo.require_species_node(handle, "Syn").unwrap();
        assert!(repo.is_ancestor(root, lla).unwrap());
        assert!(repo.is_ancestor(lla, lla).unwrap());
        assert!(!repo.is_ancestor(lla, root).unwrap());
        assert!(!repo.is_ancestor(syn, lla).unwrap());
    }

    #[test]
    fn species_data_load_and_fetch() {
        let (_d, mut repo) = repo();
        let tree = figure1_tree();
        let handle = repo.load_tree("fig1", &tree).unwrap();
        let mut seqs = HashMap::new();
        seqs.insert("Bha".to_string(), "ACGT".to_string());
        seqs.insert("Lla".to_string(), "ACGA".to_string());
        assert_eq!(repo.load_species(handle, &seqs).unwrap(), 2);
        assert_eq!(repo.species_count(handle).unwrap(), 2);
        let got = repo.sequences_for(handle, &["Bha".to_string()]).unwrap();
        assert_eq!(got["Bha"], "ACGT");
        // Missing sequence is an error.
        assert!(matches!(
            repo.sequences_for(handle, &["Syn".to_string()]),
            Err(CrimsonError::MissingSequences(_))
        ));
        // Unknown species rejected on load.
        let mut bad = HashMap::new();
        bad.insert("NotATaxon".to_string(), "AC".to_string());
        assert!(matches!(
            repo.load_species(handle, &bad),
            Err(CrimsonError::UnknownSpecies(_))
        ));
    }

    #[test]
    fn multiple_trees_coexist() {
        let (_d, mut repo) = repo();
        let h1 = repo.load_tree("fig1", &figure1_tree()).unwrap();
        let h2 = repo
            .load_tree("balanced", &balanced_binary(4, 1.0))
            .unwrap();
        assert_ne!(h1, h2);
        assert_eq!(repo.list_trees().unwrap().len(), 2);
        assert_eq!(repo.leaves(h1).unwrap().len(), 5);
        assert_eq!(repo.leaves(h2).unwrap().len(), 16);
        // Name lookups are scoped per tree even though both trees may share
        // leaf names.
        assert!(repo.species_node(h1, "T3").unwrap().is_none());
        assert!(repo.species_node(h2, "T3").unwrap().is_some());
    }

    #[test]
    fn persistence_across_reopen() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("repo.crimson");
        let handle;
        {
            let mut repo = Repository::create(
                &path,
                RepositoryOptions {
                    frame_depth: 4,
                    buffer_pool_pages: 128,
                    ..Default::default()
                },
            )
            .unwrap();
            handle = repo.load_tree("fig1", &figure1_tree()).unwrap();
            repo.flush().unwrap();
        }
        let repo = Repository::open(&path, RepositoryOptions::default()).unwrap();
        let rec = repo.tree_by_name("fig1").unwrap();
        assert_eq!(rec.handle, handle);
        let lla = repo.require_species_node(handle, "Lla").unwrap();
        let spy = repo.require_species_node(handle, "Spy").unwrap();
        let lca = repo.node_record(repo.lca(lla, spy).unwrap()).unwrap();
        assert_eq!(lca.depth, 2);
    }

    #[test]
    fn unknown_lookups_error() {
        let (_d, repo) = repo();
        assert!(matches!(
            repo.tree_by_name("ghost"),
            Err(CrimsonError::UnknownTree(_))
        ));
        assert!(matches!(
            repo.node_record(StoredNodeId(999)),
            Err(CrimsonError::UnknownNode(_))
        ));
        assert!(matches!(
            repo.tree_record(TreeHandle(42)),
            Err(CrimsonError::UnknownTreeId(42))
        ));
    }

    #[test]
    fn unknown_nodes_are_refused_before_any_short_circuit() {
        let (_d, mut repo) = repo();
        let h1 = repo.load_tree("fig1", &figure1_tree()).unwrap();
        let h2 = repo
            .load_tree("balanced", &balanced_binary(2, 1.0))
            .unwrap();
        let known = repo.tree_record(h1).unwrap().root;
        let other = repo.tree_record(h2).unwrap().root;
        // Ids in an existing tree's id space but past its node count, in a
        // missing tree's id space, and at the top of the id space.
        let ghosts = [
            StoredNodeId((h1.0 << TREE_SHIFT) | 999),
            StoredNodeId(77 << TREE_SHIFT),
            StoredNodeId(u64::MAX),
        ];
        let unknown = |r: CrimsonResult<_>| matches!(r, Err(CrimsonError::UnknownNode(_)));
        for ghost in ghosts {
            assert!(
                unknown(repo.lca(ghost, ghost).map(|_| ())),
                "lca({ghost}, {ghost})"
            );
            assert!(unknown(repo.lca(ghost, known).map(|_| ())));
            assert!(unknown(repo.lca(other, ghost).map(|_| ())));
            assert!(unknown(repo.is_ancestor(ghost, ghost).map(|_| ())));
            assert!(unknown(repo.is_ancestor(ghost, known).map(|_| ())));
            assert!(unknown(repo.is_ancestor(known, ghost).map(|_| ())));
            assert!(unknown(repo.is_ancestor(other, ghost).map(|_| ())));
        }
        // Known nodes keep their answers: self-pairs, and distinct trees.
        assert_eq!(repo.lca(known, known).unwrap(), known);
        assert!(repo.is_ancestor(known, known).unwrap());
        assert!(!repo.is_ancestor(known, other).unwrap());
        assert!(matches!(
            repo.lca(known, other),
            Err(CrimsonError::InvalidSample(_))
        ));
        let reader = repo.reader().unwrap();
        assert!(unknown(reader.lca(ghosts[0], ghosts[0]).map(|_| ())));
        assert!(unknown(
            reader.is_ancestor(ghosts[1], ghosts[1]).map(|_| ())
        ));
    }

    #[test]
    fn empty_tree_rejected() {
        let (_d, mut repo) = repo();
        assert!(repo.load_tree("empty", &Tree::new()).is_err());
    }
}
