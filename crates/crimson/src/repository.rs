//! The Repository Manager: relational storage of trees and species.
//!
//! Crimson "stores trees in relational form, and uses indexes based on Dewey
//! labeling to speed up queries" (§2.1), separating tree structure from
//! species data. The repository owns three core tables on the embedded
//! storage engine:
//!
//! | table     | contents                                                    |
//! |-----------|-------------------------------------------------------------|
//! | `trees`   | one row per loaded tree: name, root node, counts            |
//! | `nodes`   | one row per node: parent, name, branch length, cumulative time, depth, pre-order rank |
//! | `species` | one row per taxon with sequence data, linked to its leaf node |
//!
//! Secondary indexes give the access paths the paper calls out: species name
//! → node, node id → row, and cumulative evolutionary time or clade age →
//! nodes (B+tree range scans). Tree topology — a node's children, a tree's
//! or a subtree's leaves — and the structure queries run on the per-tree
//! interval index, whose entries carry each node's parent rank and leaf
//! flag, and on the per-tree depth column, instead of the paper's
//! hierarchical Dewey labels; that scheme lives in memory, in
//! [`labeling::hierarchical`].
//!
//! ## The read surface
//!
//! Every read query — catalog lookups, node fetches, LCA, the
//! structure queries in [`crate::query`], sampling, comparison, content
//! addresses, experiments, history, `integrity_check` — is defined once, on
//! [`ReadCtx`], generic over the [`storage::DbRead`] handle it holds.
//! [`Repository::view`] hands out the writer's `ReadCtx` over the live
//! [`Database`] (`repo.view().lca(a, b)`); a
//! [`crate::reader::PinnedReader`] derefs to one over a pinned
//! [`storage::EpochView`]; [`crate::reader::RepositoryReader::read`] runs a
//! closure on one. `Repository`'s own methods are the mutations — loading,
//! checkpointing, history recording — and its handles and settings.

use crate::cache::ShardedCache;
use crate::depth::DepthMinima;
use crate::error::{CrimsonError, CrimsonResult};
use labeling::clade_hash::{self, CladeHash};
use labeling::interval::{interval_key_prefix, interval_range_end, IntervalEntry};
use phylo::Tree;
use simulation::gold::GoldStandard;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use storage::db::{Database, DbRead, RawIndexId, TableId};
use storage::schema::{ColumnDef, Schema};
use storage::value::{Value, ValueType};
use storage::wal::Lsn;
use storage::{CheckpointPolicy, CheckpointerGuard, RecoveryReport, ScrubStats};

/// Name of the raw index holding covering interval entries keyed by
/// `(tree_id, pre)`.
const IVL_BY_PRE: &str = "ivl_by_pre";
/// Name of the raw index mapping a stored node id to its packed
/// `(pre, end)` interval.
const IVL_BY_NODE: &str = "ivl_by_node";
/// Name of the table holding each tree's pre-order depth blocks.
const DEPTH_BLOCKS: &str = "depth_blocks";
/// Name of the table holding each tree's depth-block minima.
const DEPTH_MINIMA: &str = "depth_minima";

/// Raw indexes that older builds created and this one no longer keeps: the
/// structurally-shared store's clade references and the per-node and global
/// clade-hash indexes. A file that has any of them is refused at open.
const RETIRED_RAW_INDEXES: [&str; 3] = ["clade_refs", "clade_hash_by_pre", "clade_hash_idx"];

/// `tree_stats.flags` bit: every leaf is named and the names are distinct —
/// the precondition under which hash equality implies metric equality.
pub(crate) const STATS_FLAG_DISTINCT_LEAVES: i64 = 1;

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
    /// or checkpoint covers them; call [`Repository::sync`] at a batch
    /// boundary to force the fsync.
    Async,
}

/// Options controlling repository creation.
#[derive(Debug, Clone)]
pub struct RepositoryOptions {
    /// Unused: the repository stores no hierarchical labels. Kept so that
    /// code naming the field still compiles; it will be removed.
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
    /// `true` when the node has no children.
    pub is_leaf: bool,
    /// Maximum summed branch length from this node down to any descendant
    /// leaf (0 for leaves) — the "age" of the clade, used by time-respecting
    /// sampling.
    pub subtree_height: f64,
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
}

/// Content-address summary row of a stored tree: its canonical root hash
/// plus the distinct rooted-clade and unrooted-split counts the comparison
/// metrics are defined over. Written in the same transaction as the tree;
/// the ingredients of the O(1) equal-tree compare short-circuit.
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
}

/// The table and raw-index handles a repository file carries. Stable for
/// the lifetime of the file (tables are created once at
/// [`Repository::create`]), so snapshot readers copy it freely.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tables {
    pub trees: TableId,
    pub nodes: TableId,
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
    /// Pre-order `(depth, parent_pre)` blocks of every tree (see
    /// [`crate::depth`]).
    pub depth_blocks: TableId,
    /// Per-tree block minima of the depth column, indexed by `tree_id`.
    pub depth_minima: TableId,
}

impl Tables {
    /// Resolve every table and raw index of an existing repository file.
    /// The layout is checked first: a file written before the depth column
    /// existed, whose `trees` / `nodes` rows still carry the
    /// hierarchical-label columns, or that still has a raw index this build
    /// retired, is refused with a typed error (there is no in-place
    /// upgrade; reload its trees into a new repository).
    fn open(db: &Database) -> CrimsonResult<Tables> {
        let older = |what: &str| {
            CrimsonError::CorruptRepository(format!(
                "repository file {what}; it was written by an older build \
                 and must be reloaded into a new repository"
            ))
        };
        let missing = |what: &'static str| move |_| older(&format!("lacks the {what}"));
        let depth_blocks = db
            .table(DEPTH_BLOCKS)
            .map_err(missing("`depth_blocks` depth column"))?;
        let depth_minima = db
            .table(DEPTH_MINIMA)
            .map_err(missing("`depth_minima` depth column"))?;
        let trees = db.table("trees")?;
        let nodes = db.table("nodes")?;
        for (name, table, schema) in [
            ("trees", trees, trees_schema()),
            ("nodes", nodes, nodes_schema()),
        ] {
            if *db.schema(table)? != schema {
                return Err(older(&format!("lays out the `{name}` table differently")));
            }
        }
        if let Some(name) = RETIRED_RAW_INDEXES
            .into_iter()
            .find(|name| db.raw_index(name).is_ok())
        {
            return Err(older(&format!("still has a `{name}` index")));
        }
        Ok(Tables {
            trees,
            nodes,
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

/// Row counts gathered by [`ReadCtx::integrity_check`]. Every row was
/// verified to belong to a tree listed in the `trees` table, so a report
/// implies there are no orphan rows from interrupted loads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityReport {
    /// Trees in the catalog.
    pub trees: u64,
    /// Node rows across all trees.
    pub nodes: u64,
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

/// The repository's read surface: every read query is defined here once,
/// generic over the [`DbRead`] handle `D` it holds. Three handles hand one
/// out:
///
/// * [`Repository::view`] — `D = &Database`, the writer's own current
///   view (it sees its uncommitted state);
/// * [`crate::reader::PinnedReader`] — derefs to `D = EpochView`, one
///   pinned committed epoch for as long as the guard lives;
/// * [`crate::reader::RepositoryReader::read`] — pins a fresh epoch per
///   call and re-pins on [`storage::StorageError::SnapshotRetired`].
///
/// The row, interval-entry and depth-minima caches it reads through belong
/// to the handle that made it.
#[derive(Clone, Copy)]
pub struct ReadCtx<'a, D> {
    pub(crate) db: D,
    pub(crate) tables: Tables,
    pub(crate) records: &'a ShardedCache<StoredNodeId, Arc<NodeRecord>>,
    pub(crate) entries: &'a ShardedCache<u64, NodeAtRank>,
    pub(crate) minima: &'a ShardedCache<u64, Arc<DepthMinima>>,
}

impl<'a, D: DbRead> ReadCtx<'a, D> {
    // ------------------------------------------------------------------
    // Catalog access
    // ------------------------------------------------------------------

    /// Look up a tree by name.
    pub fn find_tree(&self, name: &str) -> CrimsonResult<Option<TreeRecord>> {
        let rows = self
            .db
            .lookup_rows(self.tables.trees, "name", &Value::text(name))?;
        Ok(rows
            .into_iter()
            .next()
            .map(|(_, row)| decode_tree_row(&row)))
    }

    /// Look up a tree by name, failing when absent.
    pub fn tree_by_name(&self, name: &str) -> CrimsonResult<TreeRecord> {
        self.find_tree(name)?
            .ok_or_else(|| CrimsonError::UnknownTree(name.to_string()))
    }

    /// Look up a tree by handle.
    pub fn tree_record(&self, handle: TreeHandle) -> CrimsonResult<TreeRecord> {
        let rows =
            self.db
                .lookup_rows(self.tables.trees, "tree_id", &Value::Int(handle.0 as i64))?;
        rows.into_iter()
            .next()
            .map(|(_, row)| decode_tree_row(&row))
            .ok_or(CrimsonError::UnknownTreeId(handle.0))
    }

    /// All trees currently loaded.
    pub fn list_trees(&self) -> CrimsonResult<Vec<TreeRecord>> {
        let rows = self.db.scan(self.tables.trees)?;
        Ok(rows.iter().map(|(_, row)| decode_tree_row(row)).collect())
    }

    // ------------------------------------------------------------------
    // Node access
    // ------------------------------------------------------------------

    /// Fetch a node row (served from the repository's record cache when
    /// warm; node rows are immutable once loaded, so cached entries never go
    /// stale).
    pub fn node_record(&self, id: StoredNodeId) -> CrimsonResult<NodeRecord> {
        Ok((*self.node_record_arc(id)?).clone())
    }

    /// Fetch a node row as a shared handle — the zero-copy variant the query
    /// engine uses internally.
    pub fn node_record_arc(&self, id: StoredNodeId) -> CrimsonResult<Arc<NodeRecord>> {
        if let Some(rec) = self.records.get(&id) {
            return Ok(rec);
        }
        let rows = self
            .db
            .lookup_rows(self.tables.nodes, "node_id", &Value::Int(id.0 as i64))?;
        let (_, row) = rows
            .into_iter()
            .next()
            .ok_or(CrimsonError::UnknownNode(id.0))?;
        let rec = Arc::new(decode_node_row(&row));
        self.records.insert(id, Arc::clone(&rec));
        Ok(rec)
    }

    /// Fetch a node row through its physical record id (the locator the
    /// interval index stores), skipping the node-id index descent. One heap
    /// page read on a cache miss.
    pub(crate) fn node_record_by_locator(
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

    /// Children of a stored node, in pre-order: the entries of its
    /// subtree's `ivl_by_pre` range whose parent rank is its own. No row
    /// is read.
    pub fn children(&self, id: StoredNodeId) -> CrimsonResult<Vec<StoredNodeId>> {
        let (pre, end) = self.interval_of(id)?;
        self.nodes_in_span(id.0 >> TREE_SHIFT, pre + 1, end, |e| e.parent_pre == pre)
    }

    /// The leaf node a species name maps to in the given tree, if any.
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

    /// The leaf node a species name maps to, failing when absent.
    pub fn require_species_node(
        &self,
        handle: TreeHandle,
        name: &str,
    ) -> CrimsonResult<StoredNodeId> {
        self.species_node(handle, name)?
            .ok_or_else(|| CrimsonError::UnknownSpecies(name.to_string()))
    }

    /// All leaf node ids of a tree, in pre-order: one scan of the tree's
    /// `ivl_by_pre` entries, reading no row.
    pub fn leaves(&self, handle: TreeHandle) -> CrimsonResult<Vec<StoredNodeId>> {
        self.nodes_in_span(handle.0, 0, u32::MAX, |e| e.is_leaf)
    }

    /// Sequences stored for the given species names.
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

    /// Number of species rows stored for a tree.
    pub fn species_count(&self, handle: TreeHandle) -> CrimsonResult<usize> {
        let rows =
            self.db
                .lookup_rows(self.tables.species, "tree_id", &Value::Int(handle.0 as i64))?;
        Ok(rows.len())
    }

    // ------------------------------------------------------------------
    // Integrity
    // ------------------------------------------------------------------

    /// Verify cross-table invariants: every node and species row
    /// belongs to a tree in the catalog; per-tree node and leaf counts
    /// match the tree row; both interval indexes hold exactly one entry per
    /// node, and each `ivl_by_pre` entry's locator and leaf flag agree
    /// with the row of the node it names; each tree's depth column agrees
    /// with its block minima, its interval entries' parent ranks and its
    /// node rows' depths; every tree carries one `tree_stats` row, whose
    /// root hash the tree's nodes reproduce; every species row points at a
    /// leaf of its tree; the query history parses in full. Violations — orphan rows from an
    /// interrupted load, say — surface as
    /// [`CrimsonError::CorruptRepository`].
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
        // Row locator → (node id, pre-order rank, leaf flag) of every row.
        let mut rows_at: HashMap<u64, (StoredNodeId, u64, bool)> = HashMap::new();
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
            rows_at.insert(rid.to_u64(), (rec.id, rec.preorder, rec.is_leaf));
            report.nodes += 1;
        }
        // Content-address catalog: exactly one stats row per tree.
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
        if let Some(t) = trees.values().find(|t| !stats.contains_key(&t.handle.0)) {
            return Err(CrimsonError::CorruptRepository(format!(
                "tree `{}` has no tree_stats row",
                t.name
            )));
        }

        for (tree_id, tree) in &trees {
            let nodes = node_counts.get(tree_id).copied().unwrap_or(0);
            let leaves = leaf_counts.get(tree_id).copied().unwrap_or(0);
            if nodes != tree.node_count || leaves != tree.leaf_count {
                return Err(CrimsonError::CorruptRepository(format!(
                    "tree `{}` records {}/{} nodes/leaves but {nodes}/{leaves} rows exist",
                    tree.name, tree.node_count, tree.leaf_count
                )));
            }
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
        let (depth_blocks, columns) = self.check_depth_columns(&trees, &node_depths)?;
        report.depth_blocks = depth_blocks;
        // One pass over `ivl_by_pre`: each entry's parent rank must match
        // its tree's depth column and, since `children`, `leaves` and
        // `leaves_under` answer from the entries alone, its locator must
        // resolve to the row of the node it names, whose leaf flag it
        // repeats (and `end == pre` exactly for leaves).
        let mut fail: Option<String> = None;
        self.db
            .raw_scan(self.tables.ivl_by_pre, None, None, &mut |key, rid| {
                let Some((tree, e)) = IntervalEntry::decode_key(key) else {
                    fail = Some(format!("malformed interval entry {key:02x?}"));
                    return Ok(false);
                };
                let parent = columns.get(&tree).and_then(|c| c.get(e.pre as usize));
                let row_agrees = rows_at.get(&rid).is_some_and(|&(id, pre, is_leaf)| {
                    id.0 == (tree << TREE_SHIFT) | e.node as u64
                        && pre == e.pre as u64
                        && is_leaf == e.is_leaf
                        && is_leaf == (e.end == e.pre)
                });
                fail = if parent.map(|&(_, p)| p) != Some(e.parent_pre) {
                    Some(format!("interval entry {key:02x?} contradicts the depth column"))
                } else if !row_agrees {
                    Some(format!(
                        "interval entry {key:02x?} contradicts the node row its locator {} resolves to",
                        storage::RecordId::from_u64(rid)
                    ))
                } else {
                    None
                };
                Ok(fail.is_none())
            })?;
        if let Some(msg) = fail {
            return Err(CrimsonError::CorruptRepository(msg));
        }

        // The content address: each tree's root hash, recomputed from its
        // interval entries and leaf names, must be the one its stats row
        // stores.
        for (tree_id, tree) in &trees {
            let root = self
                .clade_hashes(TreeHandle(*tree_id))?
                .first()
                .map(|&(_, h)| h);
            if root != Some(stats[tree_id].root_hash) {
                return Err(CrimsonError::CorruptRepository(format!(
                    "root hash of tree `{}` recomputed from its nodes contradicts its tree_stats row",
                    tree.name
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

    /// The packed `[pre, end]` interval of a stored node: one point lookup
    /// in the `ivl_by_node` raw index, no row decode.
    pub fn interval_of(&self, id: StoredNodeId) -> CrimsonResult<(u32, u32)> {
        let packed = self
            .db
            .raw_get(self.tables.ivl_by_node, &id.0.to_be_bytes())?
            .ok_or(CrimsonError::UnknownNode(id.0))?;
        Ok(clade_hash::unpack_span(packed))
    }

    /// Visit the `ivl_by_pre` entries of `tree` ranked `lo..=hi`, with
    /// their row locators, in pre-order: one range scan of the covering
    /// index, no row read.
    pub(crate) fn scan_span(
        &self,
        tree: u64,
        lo: u32,
        hi: u32,
        mut visit: impl FnMut(IntervalEntry, storage::RecordId),
    ) -> CrimsonResult<()> {
        let mut malformed = false;
        self.db.raw_scan(
            self.tables.ivl_by_pre,
            Some(&interval_key_prefix(tree, lo)),
            Some(&interval_range_end(tree, hi)),
            &mut |key, rid| match IntervalEntry::decode_key(key) {
                Some((_, entry)) => {
                    visit(entry, storage::RecordId::from_u64(rid));
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
        Ok(())
    }

    /// The nodes of `tree` ranked `lo..=hi` whose `ivl_by_pre` entry
    /// `keep` accepts, in pre-order (see [`ReadCtx::scan_span`]).
    pub(crate) fn nodes_in_span(
        &self,
        tree: u64,
        lo: u32,
        hi: u32,
        keep: impl Fn(&IntervalEntry) -> bool,
    ) -> CrimsonResult<Vec<StoredNodeId>> {
        let mut out = Vec::new();
        self.scan_span(tree, lo, hi, |entry, _| {
            if keep(&entry) {
                out.push(StoredNodeId((tree << TREE_SHIFT) | entry.node as u64));
            }
        })?;
        Ok(out)
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

    /// Least common ancestor of two stored nodes: a range-minimum query
    /// over the tree's pre-order depth column.
    ///
    /// Both node rows are resolved first (through the record cache), so an
    /// unknown id is [`CrimsonError::UnknownNode`] even for `lca(x, x)`;
    /// nodes of different trees are [`CrimsonError::InvalidSample`]. This
    /// is the same path as each consecutive pair of [`ReadCtx::project`]:
    /// for `pre(a) < pre(b)`, a leaf `a` is never an ancestor and an
    /// internal `a` is tested against its interval; otherwise the LCA is
    /// the parent of the shallowest rank in `(pre(a), pre(b)]` — the cached
    /// block minima plus at most two partial depth blocks, then the LCA's
    /// interval entry and row — a constant number of page reads however
    /// deep the tree is. The answer is checked against the interval index
    /// and the LCA's row before it is returned.
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

    /// `true` when `ancestor` is an ancestor-or-self of `node`: two interval
    /// lookups and two integer comparisons (§2.2's LCA test, at the cost the
    /// XML-indexing literature promises for interval labels). Both ids must
    /// exist ([`CrimsonError::UnknownNode`] otherwise); nodes of different
    /// trees are never ancestors of each other.
    pub fn is_ancestor(&self, ancestor: StoredNodeId, node: StoredNodeId) -> CrimsonResult<bool> {
        let (pa, ea) = self.interval_of(ancestor)?;
        let (pn, _) = self.interval_of(node)?;
        Ok(ancestor.0 >> TREE_SHIFT == node.0 >> TREE_SHIFT && pa <= pn && pn <= ea)
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
        db.create_index(nodes_table, "name", false)?;
        db.create_index(nodes_table, "root_dist", false)?;
        db.create_index(nodes_table, "subtree_height", false)?;
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
        db.create_index(stats_table, "root_hash", false)?;
        let ivl_by_pre = db.create_raw_index(IVL_BY_PRE)?;
        let ivl_by_node = db.create_raw_index(IVL_BY_NODE)?;
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
                species: species_table,
                history: history_table,
                experiments: experiments_table,
                experiment_results: results_table,
                experiment_clades: clades_table,
                tree_stats: stats_table,
                ivl_by_pre,
                ivl_by_node,
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
    /// column existed, or one that still has a raw index this build
    /// retired, is refused with [`CrimsonError::CorruptRepository`].
    pub fn open(path: impl AsRef<Path>, options: RepositoryOptions) -> CrimsonResult<Self> {
        let db = Database::open_with_capacity(path, options.buffer_pool_pages)?;
        let recovery = db.pool().recovery_report();
        let tables = Tables::open(&db)?;
        let next_history_id = next_id(&db, tables.history, "query_id")?;
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
        let recovery = db.pool().recovery_report();
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
            quarantined_pages: self.db.pool().quarantined_pages(),
            ..DegradedReport::default()
        };
        match self.view().list_trees() {
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
        match self.view().list_experiments() {
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
        let ctx = self.view();
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
        let ctx = self.view();
        for result in ctx.experiment_results(id)? {
            ctx.experiment_clades(result.id)?;
        }
        Ok(())
    }

    /// The read surface over the writer's own current view: every read
    /// query is a method of the returned [`ReadCtx`], e.g.
    /// `repo.view().lca(a, b)`. Inside an open transaction it sees the
    /// writer's uncommitted rows; concurrent readers never do.
    pub fn view(&self) -> ReadCtx<'_, &Database> {
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
        Ok(crate::reader::RepositoryReader::new(self))
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
    /// write-ahead log.
    pub fn flush(&mut self) -> CrimsonResult<()> {
        self.db.flush()?;
        Ok(())
    }

    /// Block until every commit issued through this repository is durable
    /// on disk. A no-op under [`Durability::Sync`] (each commit already
    /// waited); under [`Durability::Async`] this forces the group fsync
    /// covering the last asynchronous commit — the natural call at a bulk
    /// load's batch boundary.
    pub fn sync(&self) -> CrimsonResult<()> {
        self.db.pool().wait_durable(self.last_commit)?;
        Ok(())
    }

    /// The highest commit LSN this repository has logged through the
    /// asynchronous commit path (zero when every commit was synchronous).
    /// Hand it to [`storage::buffer::BufferPool::wait_durable`] (through
    /// [`Repository::pool`]) — or to
    /// [`crate::reader::RepositoryReader::wait_durable`], which does not
    /// need the writer — to turn an acknowledged-but-buffered commit into a
    /// durable one.
    pub fn last_commit_lsn(&self) -> Lsn {
        self.last_commit
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
        if self.db.pool().in_txn() {
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

    /// Incremental media scrub: verify every page's checksum (backfilling,
    /// repairing from the WAL or quarantining as appropriate — see
    /// [`storage::buffer::BufferPool::scrub`]), then cross-check the page
    /// scan with the logical [`ReadCtx::integrity_check`] when no page
    /// is quarantined.
    pub fn scrub(&self) -> CrimsonResult<ScrubReport> {
        let pages = self.db.pool().scrub()?;
        let integrity = if pages.pages_quarantined == 0 {
            Some(self.view().integrity_check()?)
        } else {
            // Quarantined pages make the row-level walk fail by
            // construction; the page-level report already carries the bad
            // news.
            None
        };
        Ok(ScrubReport { pages, integrity })
    }

    /// Buffer-pool statistics from the underlying storage engine.
    pub fn buffer_stats(&self) -> storage::buffer::BufferStats {
        self.db.pool().stats()
    }

    /// The underlying storage engine's buffer pool: fault and crash
    /// injection, durability watermarks, degraded-mode state and pool
    /// counters, e.g. `repo.pool().inject_crash(point)`.
    pub fn pool(&self) -> &storage::buffer::BufferPool {
        self.db.pool()
    }

    /// Drop cached pages, decoded records and interval entries to measure
    /// cold-start query behaviour.
    pub fn clear_cache(&self) -> CrimsonResult<()> {
        self.db.pool().clear_cache()?;
        self.purge_caches();
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
    /// Nodes are stored with cumulative root distances, depths, pre-order
    /// ranks and parent links; the interval index, the depth column and
    /// the content address are written alongside.
    ///
    /// The load is one atomic transaction: a failed or interrupted load
    /// leaves no orphan node/interval rows and is invisible after
    /// reopening the repository.
    ///
    /// This is the bulk fast path: one DFS computes every per-node scalar
    /// (pre/end ranks, parent rank, depth, root distance, subtree height),
    /// then a single pre-order emission streams node rows straight into the
    /// storage engine's bulk appenders — heap pages are filled sequentially,
    /// secondary indexes and both interval indexes are packed bottom-up —
    /// instead of paying a root-to-leaf descent and a whole-node rewrite
    /// per row. It is the one writer of a tree's stored layout; the tests
    /// check what it stores against oracles over the in-memory tree.
    pub fn load_tree(&mut self, name: &str, tree: &Tree) -> CrimsonResult<TreeHandle> {
        self.with_txn(|repo| repo.load_tree_inner(name, tree))
    }

    fn load_tree_inner(&mut self, name: &str, tree: &Tree) -> CrimsonResult<TreeHandle> {
        let tree_id = self.new_tree_id(name, tree)?;

        // One iterative DFS computes every per-node value the rows, the
        // interval indexes, the depth column and the content address need.
        let n = tree.node_count();
        let pass = LoadPass::compute(tree);
        let order = &pass.order;

        // Node rows in pre-order (heap locality aligned with the dominant
        // access pattern), one streaming emission: each row is encoded into
        // the engine's reusable buffer and appended to sequentially filled
        // heap pages; the four secondary indexes are applied from the
        // buffered key runs. The returned physical record ids feed the
        // interval index below as direct row locators.
        let mut emit = 0usize;
        let row_ids = self
            .db
            .bulk_insert_with(self.tables.nodes, BULK_FILL, |values| {
                let Some(&node) = order.get(emit) else {
                    return Ok(false);
                };
                emit += 1;
                encode_node_row(values, tree, tree_id, node, pass.scalars(node));
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
                let entry = pass.interval_entry(tree, node);
                debug_assert_eq!(entry.pre as usize, rank);
                (entry.encode_key(tree_id), row_ids[rank].to_u64())
            }),
        )?;
        self.db.bulk_raw_insert(
            self.tables.ivl_by_node,
            BULK_FILL,
            (0..n).map(|ai| {
                let sid = (tree_id << TREE_SHIFT) | ai as u64;
                (
                    sid.to_be_bytes(),
                    clade_hash::pack_span(pass.pre[ai], pass.end[ai]),
                )
            }),
        )?;

        self.insert_depth_column(tree_id, &pass.depth_column())?;

        // The content address: the stats row the equal-tree short-circuit
        // and dedup read.
        self.insert_content_address(
            tree_id,
            pass.hash[tree.root_unchecked().index()],
            pass.counts,
            clade_hash::distinct_named_leaves(tree),
        )?;

        // Insert the tree row last so a partially loaded tree is not visible.
        self.db.insert(
            self.tables.trees,
            &tree_row(tree_id, name, tree, pass.leaf_count),
        )?;
        Ok(TreeHandle(tree_id))
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
                .view()
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

    /// The id a new tree stored under `name` gets: one past the largest
    /// stored id (tree ids start at 1). Refuses an empty tree and a name
    /// already in use.
    fn new_tree_id(&self, name: &str, tree: &Tree) -> CrimsonResult<u64> {
        if tree.is_empty() {
            return Err(CrimsonError::Phylo(phylo::PhyloError::EmptyTree));
        }
        if self.view().find_tree(name)?.is_some() {
            return Err(CrimsonError::DuplicateTree(name.to_string()));
        }
        Ok(next_id(&self.db, self.tables.trees, "tree_id")?.max(1))
    }
}

/// The next free id of a catalog table whose first column is its id,
/// indexed uniquely by `column`: the highest stored id + 1, or 0 for an
/// empty table. Rolled-back transactions may leave gaps in the sequence,
/// so a row count could collide with a surviving id; the index's last
/// entry is the maximum, found without reading the other rows.
pub(crate) fn next_id(db: &Database, table: TableId, column: &str) -> CrimsonResult<u64> {
    Ok(match db.index_last(table, column)? {
        Some(row) => row.values[0].as_int().unwrap_or(-1) as u64 + 1,
        None => 0,
    })
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
        ColumnDef::not_null("is_leaf", ValueType::Bool),
        ColumnDef::not_null("subtree_height", ValueType::Float),
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
        // Bit 0: distinct named leaves.
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
    })
}

/// The `trees` row of a stored tree, in [`trees_schema`] column order.
fn tree_row(tree_id: u64, name: &str, tree: &Tree, leaf_count: u64) -> [Value; 5] {
    let root = tree.root_unchecked().0 as u64;
    [
        Value::Int(tree_id as i64),
        Value::text(name),
        Value::Int(((tree_id << TREE_SHIFT) | root) as i64),
        Value::Int(tree.node_count() as i64),
        Value::Int(leaf_count as i64),
    ]
}

fn decode_tree_row(row: &storage::schema::Row) -> TreeRecord {
    TreeRecord {
        handle: TreeHandle(row.values[0].as_int().unwrap_or(0) as u64),
        name: row.values[1].as_text().unwrap_or("").to_string(),
        root: StoredNodeId(row.values[2].as_int().unwrap_or(0) as u64),
        node_count: row.values[3].as_int().unwrap_or(0) as u64,
        leaf_count: row.values[4].as_int().unwrap_or(0) as u64,
    }
}

/// Every per-node value a load stores, by arena id, from one iterative
/// depth-first pass: the rows, interval entries, depth column and content
/// address of [`Repository::load_tree`], and the clade counts the
/// equal-tree comparisons synthesize.
pub(crate) struct LoadPass {
    /// Arena ids in pre-order: the emission order.
    pub order: Vec<phylo::NodeId>,
    /// Pre-order rank.
    pub pre: Vec<u32>,
    /// Largest pre-order rank in the subtree.
    pub end: Vec<u32>,
    /// The parent's pre-order rank (0 for the root).
    pub parent_pre: Vec<u32>,
    /// Cumulative branch length from the root.
    pub root_dist: Vec<f64>,
    /// Depth in edges from the root.
    pub depth: Vec<u64>,
    /// Maximum branch-length distance down to a descendant leaf.
    pub height: Vec<f64>,
    /// Canonical clade hash.
    pub hash: Vec<CladeHash>,
    /// Distinct clade and split counts of the tree.
    pub counts: crate::content::CladeCounts,
    /// Number of leaves.
    pub leaf_count: u64,
}

impl LoadPass {
    /// Run the pass over a non-empty `tree`.
    pub fn compute(tree: &Tree) -> LoadPass {
        let n = tree.node_count();
        let mut p = LoadPass {
            order: Vec::with_capacity(n),
            pre: vec![0u32; n],
            end: vec![0u32; n],
            parent_pre: vec![0u32; n],
            root_dist: vec![0.0f64; n],
            depth: vec![0u64; n],
            height: vec![0.0f64; n],
            hash: vec![CladeHash([0u8; clade_hash::CLADE_HASH_LEN]); n],
            counts: Default::default(),
            leaf_count: 0,
        };
        // Leaf-rank span `[lo, hi]` of every subtree (leaves ranked left to
        // right), the input of the clade counts.
        let mut leaf_lo = vec![u32::MAX; n];
        let mut leaf_hi = vec![0u32; n];
        let mut hash_scratch: Vec<CladeHash> = Vec::new();
        let mut next_leaf_rank = 0u32;
        let root = tree.root_unchecked();
        p.order.push(root);
        let mut next_pre = 1u32;
        let mut stack: Vec<(phylo::NodeId, usize)> = vec![(root, 0)];
        while let Some(&(node, child_idx)) = stack.last() {
            let children = tree.children(node);
            if child_idx < children.len() {
                stack.last_mut().expect("just peeked").1 += 1;
                let child = children[child_idx];
                let ci = child.index();
                p.pre[ci] = next_pre;
                next_pre += 1;
                p.parent_pre[ci] = p.pre[node.index()];
                p.root_dist[ci] =
                    p.root_dist[node.index()] + tree.node(child).branch_length_or_zero();
                p.depth[ci] = p.depth[node.index()] + 1;
                p.order.push(child);
                stack.push((child, 0));
            } else {
                let ni = node.index();
                p.end[ni] = next_pre - 1;
                if children.is_empty() {
                    p.leaf_count += 1;
                    p.hash[ni] = CladeHash::leaf(tree.name(node));
                    leaf_lo[ni] = next_leaf_rank;
                    leaf_hi[ni] = next_leaf_rank;
                    next_leaf_rank += 1;
                } else {
                    hash_scratch.clear();
                    hash_scratch.extend(children.iter().map(|c| p.hash[c.index()]));
                    p.hash[ni] = CladeHash::internal(&mut hash_scratch);
                }
                stack.pop();
                if let Some(&(parent, _)) = stack.last() {
                    let pi = parent.index();
                    let lifted = p.height[ni] + tree.node(node).branch_length_or_zero();
                    if lifted > p.height[pi] {
                        p.height[pi] = lifted;
                    }
                    leaf_lo[pi] = leaf_lo[pi].min(leaf_lo[ni]);
                    leaf_hi[pi] = leaf_hi[pi].max(leaf_hi[ni]);
                }
            }
        }
        debug_assert_eq!(p.order.len(), n);
        p.counts = crate::content::count_clades(
            p.order
                .iter()
                .map(|&v| (leaf_lo[v.index()], leaf_hi[v.index()])),
            p.leaf_count as u32,
        );
        p
    }

    /// The stored scalars of arena node `v`.
    fn scalars(&self, v: phylo::NodeId) -> NodeScalars {
        let i = v.index();
        NodeScalars {
            root_distance: self.root_dist[i],
            depth: self.depth[i],
            preorder: self.pre[i],
            subtree_height: self.height[i],
        }
    }

    /// The covering `ivl_by_pre` entry of arena node `v`.
    fn interval_entry(&self, tree: &Tree, v: phylo::NodeId) -> IntervalEntry {
        let i = v.index();
        IntervalEntry {
            pre: self.pre[i],
            end: self.end[i],
            parent_pre: self.parent_pre[i],
            node: v.0,
            is_leaf: tree.is_leaf(v),
        }
    }

    /// `(depth, parent_pre)` by pre-order rank: the depth column.
    fn depth_column(&self) -> Vec<(u32, u32)> {
        self.order
            .iter()
            .map(|v| (self.depth[v.index()] as u32, self.parent_pre[v.index()]))
            .collect()
    }
}

/// What a load computes for a node row beyond what the in-memory tree
/// holds.
struct NodeScalars {
    /// Cumulative branch length from the root.
    pub root_distance: f64,
    /// Depth in edges from the root.
    pub depth: u64,
    /// Pre-order rank within the tree.
    pub preorder: u32,
    /// Maximum branch-length distance down to a descendant leaf.
    pub subtree_height: f64,
}

/// Append the `nodes` row of arena node `node` of `tree`, stored as tree
/// `tree_id`, to `values` in [`nodes_schema`] column order. Every load path
/// encodes through it and [`decode_node_row`] reads it back, so only these
/// two functions know the column order.
fn encode_node_row(
    values: &mut Vec<Value>,
    tree: &Tree,
    tree_id: u64,
    node: phylo::NodeId,
    scalars: NodeScalars,
) {
    let sid = |n: phylo::NodeId| Value::Int(((tree_id << TREE_SHIFT) | n.0 as u64) as i64);
    values.extend([
        sid(node),
        Value::Int(tree_id as i64),
        tree.parent(node).map_or(Value::Int(-1), sid),
        tree.name(node).map_or(Value::Null, Value::text),
        tree.branch_length(node).map_or(Value::Null, Value::Float),
        Value::Float(scalars.root_distance),
        Value::Int(scalars.depth as i64),
        Value::Int(scalars.preorder as i64),
        Value::Bool(tree.is_leaf(node)),
        Value::Float(scalars.subtree_height),
    ]);
}

pub(crate) fn decode_node_row(row: &storage::schema::Row) -> NodeRecord {
    let parent_raw = row.values[2].as_int().unwrap_or(-1);
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
        is_leaf: row.values[8].as_bool().unwrap_or(false),
        subtree_height: row.values[9].as_float().unwrap_or(0.0),
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
                buffer_pool_pages: 256,
                ..Default::default()
            },
        )
        .unwrap();
        (dir, repo)
    }

    #[test]
    fn tree_id_allocation_reads_the_same_pages_at_any_catalog_size() {
        // Allocating a tree id probes the `name` index and reads the last
        // entry of the `tree_id` index plus that entry's row: a cost set by
        // the two indexes' height, not by the number of stored trees.
        let dir = tempdir().unwrap();
        let mut repo =
            Repository::create(dir.path().join("ids.crimson"), RepositoryOptions::default())
                .unwrap();
        let tree = balanced_binary(1, 1.0);
        let load = |repo: &mut Repository, ids: std::ops::Range<usize>| {
            repo.with_txn(|repo| {
                for i in ids {
                    repo.load_tree(&format!("t{i:04}"), &tree)?;
                }
                Ok(())
            })
            .unwrap();
        };
        let allocate = |repo: &Repository| {
            repo.pool().reset_stats();
            let id = repo.new_tree_id("next", &tree).unwrap();
            let stats = repo.buffer_stats();
            (id, stats.hits + stats.misses)
        };
        load(&mut repo, 0..10);
        let (small_id, small) = allocate(&repo);
        load(&mut repo, 10..2_000);
        let (big_id, big) = allocate(&repo);
        assert_eq!((small_id, big_id), (11, 2_001));
        eprintln!("tree id allocation page accesses: 10 trees {small}, 2,000 trees {big}");
        // 10 trees fit each index in one root leaf; 2,000 add one level to
        // each of the two indexes, so at most two more accesses.
        assert!(
            big <= small + 2,
            "{big} page accesses at 2,000 trees, {small} at 10"
        );
    }

    #[test]
    fn load_figure1_and_inspect() {
        let (_d, mut repo) = repo();
        let tree = figure1_tree();
        let handle = repo.load_tree("fig1", &tree).unwrap();
        let rec = repo.view().tree_by_name("fig1").unwrap();
        assert_eq!(rec.handle, handle);
        assert_eq!(rec.node_count, 8);
        assert_eq!(rec.leaf_count, 5);

        let lla = repo.view().require_species_node(handle, "Lla").unwrap();
        let rec = repo.view().node_record(lla).unwrap();
        assert!(rec.is_leaf);
        assert_eq!(rec.depth, 3);
        assert!((rec.root_distance - 3.0).abs() < 1e-12);
        assert_eq!(rec.name.as_deref(), Some("Lla"));

        let root = repo.view().tree_by_name("fig1").unwrap().root;
        let root_rec = repo.view().node_record(root).unwrap();
        assert_eq!(root_rec.parent, None);
        assert_eq!(repo.view().children(root).unwrap().len(), 3);
        assert_eq!(repo.view().leaves(handle).unwrap().len(), 5);
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
                let sa = repo.view().require_species_node(handle, a).unwrap();
                let sb = repo.view().require_species_node(handle, b).unwrap();
                let stored_lca = repo.view().lca(sa, sb).unwrap();
                let mem_lca = tree.lca(
                    tree.find_leaf_by_name(a).unwrap(),
                    tree.find_leaf_by_name(b).unwrap(),
                );
                // Compare via names / depth (stored ids differ from NodeIds).
                let stored_rec = repo.view().node_record(stored_lca).unwrap();
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
    fn lca_on_deeper_trees_matches_in_memory_tree() {
        for tree in [caterpillar(60, 1.0), balanced_binary(6, 1.0)] {
            let dir = tempdir().unwrap();
            let mut repo = Repository::create(
                dir.path().join("repo.crimson"),
                RepositoryOptions {
                    buffer_pool_pages: 512,
                    ..Default::default()
                },
            )
            .unwrap();
            let handle = repo.load_tree("t", &tree).unwrap();
            let leaves: Vec<_> = tree.leaf_ids().collect();
            for i in (0..leaves.len()).step_by(7) {
                for j in (0..leaves.len()).step_by(11) {
                    let a = leaves[i];
                    let b = leaves[j];
                    let sa = repo
                        .view()
                        .require_species_node(handle, tree.name(a).unwrap())
                        .unwrap();
                    let sb = repo
                        .view()
                        .require_species_node(handle, tree.name(b).unwrap())
                        .unwrap();
                    let expected = tree.lca(a, b);
                    assert_eq!(
                        repo.view().lca(sa, sb).unwrap(),
                        StoredNodeId((handle.0 << TREE_SHIFT) | expected.0 as u64),
                        "lca({a:?}, {b:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn is_ancestor_via_lca() {
        let (_d, mut repo) = repo();
        let tree = figure1_tree();
        let handle = repo.load_tree("fig1", &tree).unwrap();
        let root = repo.view().tree_by_name("fig1").unwrap().root;
        let lla = repo.view().require_species_node(handle, "Lla").unwrap();
        let syn = repo.view().require_species_node(handle, "Syn").unwrap();
        assert!(repo.view().is_ancestor(root, lla).unwrap());
        assert!(repo.view().is_ancestor(lla, lla).unwrap());
        assert!(!repo.view().is_ancestor(lla, root).unwrap());
        assert!(!repo.view().is_ancestor(syn, lla).unwrap());
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
        assert_eq!(repo.view().species_count(handle).unwrap(), 2);
        let got = repo
            .view()
            .sequences_for(handle, &["Bha".to_string()])
            .unwrap();
        assert_eq!(got["Bha"], "ACGT");
        // Missing sequence is an error.
        assert!(matches!(
            repo.view().sequences_for(handle, &["Syn".to_string()]),
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
        assert_eq!(repo.view().list_trees().unwrap().len(), 2);
        assert_eq!(repo.view().leaves(h1).unwrap().len(), 5);
        assert_eq!(repo.view().leaves(h2).unwrap().len(), 16);
        // Name lookups are scoped per tree even though both trees may share
        // leaf names.
        assert!(repo.view().species_node(h1, "T3").unwrap().is_none());
        assert!(repo.view().species_node(h2, "T3").unwrap().is_some());
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
                    buffer_pool_pages: 128,
                    ..Default::default()
                },
            )
            .unwrap();
            handle = repo.load_tree("fig1", &figure1_tree()).unwrap();
            repo.flush().unwrap();
        }
        let repo = Repository::open(&path, RepositoryOptions::default()).unwrap();
        let rec = repo.view().tree_by_name("fig1").unwrap();
        assert_eq!(rec.handle, handle);
        let lla = repo.view().require_species_node(handle, "Lla").unwrap();
        let spy = repo.view().require_species_node(handle, "Spy").unwrap();
        let lca = repo
            .view()
            .node_record(repo.view().lca(lla, spy).unwrap())
            .unwrap();
        assert_eq!(lca.depth, 2);
    }

    #[test]
    fn unknown_lookups_error() {
        let (_d, repo) = repo();
        assert!(matches!(
            repo.view().tree_by_name("ghost"),
            Err(CrimsonError::UnknownTree(_))
        ));
        assert!(matches!(
            repo.view().node_record(StoredNodeId(999)),
            Err(CrimsonError::UnknownNode(_))
        ));
        assert!(matches!(
            repo.view().tree_record(TreeHandle(42)),
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
        let known = repo.view().tree_record(h1).unwrap().root;
        let other = repo.view().tree_record(h2).unwrap().root;
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
                unknown(repo.view().lca(ghost, ghost).map(|_| ())),
                "lca({ghost}, {ghost})"
            );
            assert!(unknown(repo.view().lca(ghost, known).map(|_| ())));
            assert!(unknown(repo.view().lca(other, ghost).map(|_| ())));
            assert!(unknown(repo.view().is_ancestor(ghost, ghost).map(|_| ())));
            assert!(unknown(repo.view().is_ancestor(ghost, known).map(|_| ())));
            assert!(unknown(repo.view().is_ancestor(known, ghost).map(|_| ())));
            assert!(unknown(repo.view().is_ancestor(other, ghost).map(|_| ())));
        }
        // Known nodes keep their answers: self-pairs, and distinct trees.
        assert_eq!(repo.view().lca(known, known).unwrap(), known);
        assert!(repo.view().is_ancestor(known, known).unwrap());
        assert!(!repo.view().is_ancestor(known, other).unwrap());
        assert!(matches!(
            repo.view().lca(known, other),
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
