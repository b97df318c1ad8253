//! Concurrent snapshot readers for the repository.
//!
//! Crimson is pitched as a shared service: many researchers query the same
//! repository while new gold standards keep loading. [`RepositoryReader`]
//! is the handle that makes that concurrent: it is `Send + Sync`, shares
//! the writer's buffer pool, and serves every read from a **pinned
//! committed snapshot** — the storage layer's per-page version chains make
//! the writer's in-flight transaction (and every commit that lands after
//! the pin) invisible, so readers never block behind a load and never
//! observe a half-loaded tree.
//!
//! ## The snapshot-read rule
//!
//! A single page read is always committed-consistent, but a multi-page
//! operation (an LCA walk, a clade scan, a projection) must not straddle a
//! commit — the first pages read pre-commit, the rest post-commit. Every
//! public operation therefore **pins a snapshot epoch** before its first
//! page touch ([`storage::db::DbReader::pin_epoch`]) and runs entirely
//! against that epoch's view ([`storage::EpochView`]): the pool keeps the
//! last `K = `[`storage::buffer::VERSION_CHAIN_CAP`] committed versions of
//! every recently-written page, and the pinned read resolves each page to
//! the newest version at or below its epoch. Commits landing mid-operation
//! are simply never seen — the operation completes against a frozen state
//! without retrying, however fast the writer commits.
//!
//! The one residual failure is [`storage::StorageError::SnapshotRetired`]:
//! the version chain is bounded, so a read that holds its pin while the
//! writer commits more than K new versions of a page the read then touches
//! finds its epoch garbage-collected. The reader handles it by re-pinning
//! a fresh epoch and re-running the operation, bounded by [`ReadRetry`];
//! exhausting that budget surfaces
//! [`CrimsonError::Busy`](crate::error::CrimsonError::Busy). The
//! concurrency stress harness drives a group-commit-cadence writer against
//! four readers and observes zero retirements at K = 4, so the fallback is
//! cold in practice — kept only so the contract degrades loudly instead of
//! serving a torn view if a future workload breaks the bound.
//!
//! Each reader carries its own record/interval caches (sharded, see
//! [`crate::cache::ShardedCache`]). Cached rows are immutable once loaded
//! and readers only ever observe committed rows, so the caches never need
//! invalidation — exactly the same argument the writer's caches rely on.

use crate::cache::ShardedCache;
use crate::depth::DepthMinima;
use crate::error::{CrimsonError, CrimsonResult};
use crate::history::{HistoryEntry, QueryKind};
use crate::query::PatternMatch;
use crate::repository::{
    FrameRecord, IntegrityReport, NodeAtRank, NodeRecord, ReadCtx, Repository, StoredFrameId,
    StoredNodeId, Tables, TreeHandle, TreeRecord, ENTRY_CACHE_GEN, MINIMA_CACHE_GEN,
    RECORD_CACHE_GEN,
};
use phylo::Tree;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use storage::db::DbReader;
use storage::{EpochView, StorageError};

/// Monotone id source for per-reader backoff salts: every reader gets its
/// own splitmix64-whitened seed, so concurrent readers that do hit the
/// (cold) re-pin path sleep *different* jittered intervals instead of
/// phase-locking to each other.
static READER_SEQ: AtomicU64 = AtomicU64::new(0);

/// splitmix64 — cheap, seedable, good enough to decorrelate readers.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Retry/backoff policy for the **cold** snapshot-retired fallback: a
/// bounded number of attempts with **jittered exponential backoff** between
/// them. Under versioned reads an attempt only fails when the writer
/// committed more than [`storage::buffer::VERSION_CHAIN_CAP`] versions of a
/// touched page while the read held its pin; backing off with per-reader
/// jitter desynchronises the re-pin from the commit cadence (and from other
/// readers) so the retry lands inside the version window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadRetry {
    /// Maximum pin attempts before giving up with
    /// [`CrimsonError::Busy`](crate::error::CrimsonError::Busy).
    pub attempts: usize,
    /// Backoff before the second attempt; doubles per retry. Zero disables
    /// sleeping entirely (pure spin).
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
}

impl Default for ReadRetry {
    fn default() -> Self {
        ReadRetry {
            attempts: 64,
            base_delay: Duration::from_micros(20),
            max_delay: Duration::from_millis(2),
        }
    }
}

impl ReadRetry {
    /// Sleep before retry number `attempt` (1-based): exponential in the
    /// attempt, with deterministic jitter drawn from `salt` spreading
    /// concurrent readers over `[delay/2, delay]`.
    fn backoff(&self, attempt: usize, salt: u64) {
        if self.base_delay.is_zero() {
            return;
        }
        let shift = (attempt - 1).min(16) as u32;
        let ceiling = self.max_delay.max(self.base_delay);
        let delay = self
            .base_delay
            .saturating_mul(1u32 << shift.min(31))
            .min(ceiling);
        let nanos = delay.as_nanos() as u64;
        let z = splitmix64(salt.wrapping_add(attempt as u64));
        let jittered = nanos / 2 + z % (nanos / 2 + 1);
        std::thread::sleep(Duration::from_nanos(jittered));
    }
}

/// A concurrent snapshot reader over a [`Repository`], created by
/// [`Repository::reader`]. All methods take `&self`; share one reader
/// across threads or create one per thread — both are supported, the
/// former shares its caches, the latter isolates them.
pub struct RepositoryReader {
    db: DbReader,
    tables: Tables,
    records: ShardedCache<StoredNodeId, Arc<NodeRecord>>,
    entries: ShardedCache<u64, NodeAtRank>,
    minima: ShardedCache<u64, Arc<DepthMinima>>,
    retry: ReadRetry,
    /// Per-reader backoff salt (whitened instance counter): distinct per
    /// reader by construction, so the jittered backoffs of concurrent
    /// readers are decorrelated even when they retire at the same instant.
    salt: u64,
}

impl std::fmt::Debug for RepositoryReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RepositoryReader")
            .field("generation", &self.db.generation())
            .finish()
    }
}

impl RepositoryReader {
    pub(crate) fn new(repo: &Repository) -> CrimsonResult<RepositoryReader> {
        Ok(RepositoryReader {
            db: repo.db.reader()?,
            tables: repo.tables,
            records: ShardedCache::new(RECORD_CACHE_GEN),
            entries: ShardedCache::new(ENTRY_CACHE_GEN),
            minima: ShardedCache::new(MINIMA_CACHE_GEN),
            retry: ReadRetry::default(),
            salt: splitmix64(READER_SEQ.fetch_add(1, Ordering::Relaxed)),
        })
    }

    /// The storage read generation this reader currently observes (advances
    /// with every commit or rollback).
    pub fn generation(&self) -> u64 {
        self.db.generation()
    }

    /// Block until the write-ahead log is durable up to `lsn` (leading or
    /// following a group fsync as needed). This is the durability *barrier*
    /// side of [`crate::repository::Durability::Async`]: it does not need —
    /// and must not hold — the single writer, so a server session can
    /// release the writer after an asynchronous commit and wait here while
    /// other sessions' commits ride the same fsync round.
    pub fn wait_durable(&self, lsn: storage::wal::Lsn) -> CrimsonResult<()> {
        self.db.wait_durable(lsn)?;
        Ok(())
    }

    /// Absolute LSN up to which the write-ahead log is known durable.
    pub fn durable_lsn(&self) -> storage::wal::Lsn {
        self.db.durable_lsn()
    }

    /// Replace the retry/backoff policy for this reader's (cold)
    /// snapshot-retired fallback.
    pub fn set_read_retry(&mut self, retry: ReadRetry) {
        self.retry = ReadRetry {
            attempts: retry.attempts.max(1),
            ..retry
        };
    }

    /// This reader's retry/backoff policy.
    pub fn read_retry(&self) -> ReadRetry {
        self.retry
    }

    /// Pin a snapshot of the current committed state. Every query method on
    /// the returned [`PinnedReader`] evaluates against this one frozen
    /// epoch — commits landing after the pin are invisible until the pin is
    /// dropped. Use it to make a *group* of reads mutually consistent (the
    /// batch executor pins one epoch per batch) or to hold a stable view
    /// open across writer activity.
    pub fn pin(&self) -> CrimsonResult<PinnedReader<'_>> {
        let pin = self.db.pin_epoch();
        let view = self.db.at_epoch(&pin)?;
        Ok(PinnedReader {
            reader: self,
            _pin: pin,
            view,
        })
    }

    /// Run `f` against a freshly pinned snapshot epoch: pin, resolve the
    /// epoch view, run, unpin. The operation never races the writer — its
    /// epoch's page versions are immutable — so the only reason to loop is
    /// the cold [`StorageError::SnapshotRetired`] fallback (the writer
    /// committed past the bounded version chain mid-operation), in which
    /// case we re-pin a fresh epoch after a jittered backoff.
    fn read<R>(
        &self,
        f: impl Fn(&ReadCtx<'_, EpochView<'_>>) -> CrimsonResult<R>,
    ) -> CrimsonResult<R> {
        let attempts = self.retry.attempts.max(1);
        let mut last = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                // Count the re-pin in the pool's shared statistics: the
                // concurrency harnesses assert this stays flat (zero) under
                // a continuously committing writer.
                self.db.note_snapshot_retry();
                // Back off before re-pinning so the fresh epoch has a full
                // version window ahead of it; per-reader salt keeps
                // concurrent readers from phase-locking on the same
                // schedule.
                self.retry.backoff(attempt, self.salt);
            }
            let pin = self.db.pin_epoch();
            let out = self
                .db
                .at_epoch(&pin)
                .map_err(CrimsonError::from)
                .and_then(|view| {
                    let ctx = ReadCtx {
                        db: &view,
                        tables: self.tables,
                        records: &self.records,
                        entries: &self.entries,
                        minima: &self.minima,
                    };
                    f(&ctx)
                });
            match out {
                Err(e) if snapshot_retired(&e) => last = e.to_string(),
                other => return other,
            }
        }
        // Every pinned attempt outlived its version chain — the writer
        // committed more than the chain capacity of versions of some page
        // this operation touches, every time. Report Busy rather than
        // serving a possibly-torn value; the stress harness shows this is
        // unreachable at the current chain depth.
        self.db.note_snapshot_retry();
        Err(CrimsonError::Busy(format!(
            "read re-pinned {attempts} times against a continuously committing writer; \
             the last attempt failed with: {last}"
        )))
    }

    // ------------------------------------------------------------------
    // Catalog
    // ------------------------------------------------------------------

    /// Look up a tree by name.
    pub fn find_tree(&self, name: &str) -> CrimsonResult<Option<TreeRecord>> {
        self.read(|ctx| ctx.find_tree(name))
    }

    /// Look up a tree by name, failing when absent.
    pub fn tree_by_name(&self, name: &str) -> CrimsonResult<TreeRecord> {
        self.read(|ctx| ctx.tree_by_name(name))
    }

    /// Look up a tree by handle.
    pub fn tree_record(&self, handle: TreeHandle) -> CrimsonResult<TreeRecord> {
        self.read(|ctx| ctx.tree_record(handle))
    }

    /// All trees committed so far.
    pub fn list_trees(&self) -> CrimsonResult<Vec<TreeRecord>> {
        self.read(|ctx| ctx.list_trees())
    }

    // ------------------------------------------------------------------
    // Nodes, frames, species
    // ------------------------------------------------------------------

    /// Fetch a node row (through this reader's record cache).
    pub fn node_record(&self, id: StoredNodeId) -> CrimsonResult<NodeRecord> {
        self.read(|ctx| ctx.node_record(id))
    }

    /// Fetch a frame row.
    pub fn frame_record(&self, id: StoredFrameId) -> CrimsonResult<FrameRecord> {
        self.read(|ctx| ctx.frame_record(id))
    }

    /// Children of a stored node (via the parent index).
    pub fn children(&self, id: StoredNodeId) -> CrimsonResult<Vec<StoredNodeId>> {
        self.read(|ctx| ctx.children(id))
    }

    /// All leaf node ids of a tree.
    pub fn leaves(&self, handle: TreeHandle) -> CrimsonResult<Vec<StoredNodeId>> {
        self.read(|ctx| ctx.leaves(handle))
    }

    /// The leaf node a species name maps to in the given tree, if any.
    pub fn species_node(
        &self,
        handle: TreeHandle,
        name: &str,
    ) -> CrimsonResult<Option<StoredNodeId>> {
        self.read(|ctx| ctx.species_node(handle, name))
    }

    /// The leaf node a species name maps to, failing when absent.
    pub fn require_species_node(
        &self,
        handle: TreeHandle,
        name: &str,
    ) -> CrimsonResult<StoredNodeId> {
        self.read(|ctx| ctx.require_species_node(handle, name))
    }

    /// Sequences stored for the given species names.
    pub fn sequences_for(
        &self,
        handle: TreeHandle,
        names: &[String],
    ) -> CrimsonResult<HashMap<String, String>> {
        self.read(|ctx| ctx.sequences_for(handle, names))
    }

    /// Number of species rows stored for a tree.
    pub fn species_count(&self, handle: TreeHandle) -> CrimsonResult<usize> {
        self.read(|ctx| ctx.species_count(handle))
    }

    // ------------------------------------------------------------------
    // Structure queries
    // ------------------------------------------------------------------

    /// The packed `[pre, end]` interval of a stored node.
    pub fn interval_of(&self, id: StoredNodeId) -> CrimsonResult<(u32, u32)> {
        self.read(|ctx| ctx.interval_of(id))
    }

    /// Least common ancestor over the interval index (see
    /// [`Repository::lca`]).
    pub fn lca(&self, a: StoredNodeId, b: StoredNodeId) -> CrimsonResult<StoredNodeId> {
        self.read(|ctx| ctx.lca(a, b))
    }

    /// Ancestor-or-self test: two interval lookups, two comparisons.
    pub fn is_ancestor(&self, ancestor: StoredNodeId, node: StoredNodeId) -> CrimsonResult<bool> {
        self.read(|ctx| ctx.is_ancestor(ancestor, node))
    }

    /// Reference LCA over the stored hierarchical Dewey labels (see
    /// [`Repository::lca_label_walk`]); kept on the reader so the
    /// concurrency stress harness can cross-validate under load.
    pub fn lca_label_walk(&self, a: StoredNodeId, b: StoredNodeId) -> CrimsonResult<StoredNodeId> {
        self.read(|ctx| ctx.lca_label_walk(a, b))
    }

    /// Minimal spanning clade (one LCA + one interval range scan).
    pub fn minimal_spanning_clade(
        &self,
        nodes: &[StoredNodeId],
    ) -> CrimsonResult<Vec<StoredNodeId>> {
        self.read(|ctx| ctx.minimal_spanning_clade(nodes))
    }

    /// Reference spanning clade (label-walk LCA + BFS row fetches).
    pub fn minimal_spanning_clade_reference(
        &self,
        nodes: &[StoredNodeId],
    ) -> CrimsonResult<Vec<StoredNodeId>> {
        self.read(|ctx| ctx.minimal_spanning_clade_reference(nodes))
    }

    /// Tree projection onto a leaf selection (see [`Repository::project`]).
    pub fn project(&self, handle: TreeHandle, leaves: &[StoredNodeId]) -> CrimsonResult<Tree> {
        self.read(|ctx| ctx.project(handle, leaves))
    }

    /// Reference projection (per-pair label walks, uncached rows).
    pub fn project_reference(
        &self,
        handle: TreeHandle,
        leaves: &[StoredNodeId],
    ) -> CrimsonResult<Tree> {
        self.read(|ctx| ctx.project_reference(handle, leaves))
    }

    /// Project by species names.
    pub fn project_species(&self, handle: TreeHandle, names: &[&str]) -> CrimsonResult<Tree> {
        self.read(|ctx| ctx.project_species(handle, names))
    }

    /// Tree pattern match (projection + comparison).
    pub fn pattern_match(&self, handle: TreeHandle, pattern: &Tree) -> CrimsonResult<PatternMatch> {
        self.read(|ctx| ctx.pattern_match(handle, pattern))
    }

    // ------------------------------------------------------------------
    // Sampling (deterministic per seed, identical to the writer's draws)
    // ------------------------------------------------------------------

    /// Execute a sampling strategy, returning the selected leaf nodes.
    pub fn sample(
        &self,
        handle: TreeHandle,
        strategy: &crate::sampling::SamplingStrategy,
        seed: u64,
    ) -> CrimsonResult<Vec<StoredNodeId>> {
        self.read(|ctx| ctx.sample(handle, strategy, seed))
    }

    /// Uniformly sample `k` distinct species from the tree.
    pub fn sample_uniform(
        &self,
        handle: TreeHandle,
        k: usize,
        seed: u64,
    ) -> CrimsonResult<Vec<StoredNodeId>> {
        self.read(|ctx| ctx.sample_uniform(handle, k, seed))
    }

    /// Sample `k` species with respect to evolutionary time `time`.
    pub fn sample_by_time(
        &self,
        handle: TreeHandle,
        time: f64,
        k: usize,
        seed: u64,
    ) -> CrimsonResult<Vec<StoredNodeId>> {
        self.read(|ctx| ctx.sample_by_time(handle, time, k, seed))
    }

    /// The evolutionary-time frontier (see [`Repository::time_frontier`]).
    pub fn time_frontier(&self, handle: TreeHandle, time: f64) -> CrimsonResult<Vec<StoredNodeId>> {
        self.read(|ctx| ctx.time_frontier(handle, time))
    }

    /// Resolve an explicit list of species names to leaf nodes.
    pub fn sample_by_names(
        &self,
        handle: TreeHandle,
        names: &[&str],
    ) -> CrimsonResult<Vec<StoredNodeId>> {
        self.read(|ctx| ctx.sample_by_names(handle, names))
    }

    /// The names of a set of stored leaf nodes.
    pub fn names_of(&self, nodes: &[StoredNodeId]) -> CrimsonResult<Vec<String>> {
        self.read(|ctx| ctx.names_of(nodes))
    }

    // ------------------------------------------------------------------
    // Index-native tree comparison
    // ------------------------------------------------------------------

    /// Compare two stored trees inside the interval index (see
    /// [`Repository::compare_stored`]).
    pub fn compare_stored(
        &self,
        a: TreeHandle,
        b: TreeHandle,
        triplets: bool,
    ) -> CrimsonResult<reconstruction::compare::SourceComparison> {
        self.read(|ctx| ctx.compare_stored(a, b, triplets))
    }

    /// Compare a stored tree (reference side) against an in-memory tree.
    pub fn compare_stored_with_tree(
        &self,
        a: TreeHandle,
        b: &Tree,
        triplets: bool,
    ) -> CrimsonResult<reconstruction::compare::SourceComparison> {
        self.read(|ctx| ctx.compare_stored_with_tree(a, b, triplets))
    }

    // ------------------------------------------------------------------
    // Content addresses
    // ------------------------------------------------------------------

    /// The content-address summary row of a tree (see
    /// [`Repository::tree_stats`]).
    pub fn tree_stats(
        &self,
        handle: TreeHandle,
    ) -> CrimsonResult<Option<crate::repository::TreeStatsRecord>> {
        self.read(|ctx| ctx.tree_stats(handle))
    }

    /// O(1) whole-tree equality via stored root hashes.
    pub fn trees_equal(&self, a: TreeHandle, b: TreeHandle) -> CrimsonResult<bool> {
        self.read(|ctx| ctx.trees_equal(a, b))
    }

    /// O(1) subtree equality between two stored nodes.
    pub fn subtrees_equal(&self, a: StoredNodeId, b: StoredNodeId) -> CrimsonResult<bool> {
        self.read(|ctx| ctx.subtrees_equal(a, b))
    }

    /// The canonical clade hash of the subtree rooted at a stored node.
    pub fn subtree_hash(&self, id: StoredNodeId) -> CrimsonResult<labeling::CladeHash> {
        self.read(|ctx| ctx.node_content_hash(id))
    }

    /// Stored trees whose content address equals `hash` (no-scan lookup).
    pub fn trees_with_root_hash(
        &self,
        hash: labeling::CladeHash,
    ) -> CrimsonResult<Vec<TreeHandle>> {
        self.read(|ctx| ctx.trees_with_root_hash(hash))
    }

    /// Every published stored subtree whose content address equals `hash`.
    pub fn subtrees_with_hash(
        &self,
        hash: labeling::CladeHash,
    ) -> CrimsonResult<Vec<(TreeHandle, u32, u32)>> {
        self.read(|ctx| ctx.subtrees_with_hash(hash))
    }

    /// The structural-sharing reference rows of a cold tree.
    pub fn clade_refs_of(&self, handle: TreeHandle) -> CrimsonResult<Vec<labeling::CladeRef>> {
        self.read(|ctx| ctx.clade_refs_of(handle))
    }

    /// Aggregate sharing statistics across the repository snapshot.
    pub fn content_stats(&self) -> CrimsonResult<crate::content::ContentStats> {
        self.read(|ctx| ctx.content_stats())
    }

    // ------------------------------------------------------------------
    // Experiments
    // ------------------------------------------------------------------

    /// Evaluate one experiment grid cell against this snapshot — the unit
    /// of work [`crate::experiment::ExperimentRunner`] fans across workers.
    pub(crate) fn evaluate_cell(
        &self,
        gold: TreeHandle,
        method: crate::experiment::Method,
        distance_source: crate::experiment::DistanceSource,
        strategy: &crate::sampling::SamplingStrategy,
        seed: u64,
        compute_triplets: bool,
    ) -> CrimsonResult<crate::experiment::CellEval> {
        self.read(|ctx| {
            ctx.evaluate_cell(
                gold,
                method,
                distance_source,
                strategy,
                seed,
                compute_triplets,
            )
        })
    }

    /// All persisted experiments, in id order.
    pub fn list_experiments(&self) -> CrimsonResult<Vec<crate::experiment::ExperimentRecord>> {
        self.read(|ctx| ctx.list_experiments())
    }

    /// Look up an experiment by name, failing when absent.
    pub fn experiment_by_name(
        &self,
        name: &str,
    ) -> CrimsonResult<crate::experiment::ExperimentRecord> {
        self.read(|ctx| ctx.experiment_by_name(name))
    }

    /// All result rows of an experiment, in grid-cell order.
    pub fn experiment_results(
        &self,
        experiment: u64,
    ) -> CrimsonResult<Vec<crate::experiment::ExperimentResult>> {
        self.read(|ctx| ctx.experiment_results(experiment))
    }

    /// The per-clade agreement rows of one result.
    pub fn experiment_clades(
        &self,
        result: u64,
    ) -> CrimsonResult<Vec<crate::experiment::CladeRow>> {
        self.read(|ctx| ctx.experiment_clades(result))
    }

    // ------------------------------------------------------------------
    // History and integrity
    // ------------------------------------------------------------------

    /// All recorded queries in execution order.
    pub fn query_history(&self) -> CrimsonResult<Vec<HistoryEntry>> {
        self.read(|ctx| ctx.query_history())
    }

    /// Entries of a given kind, in execution order.
    pub fn history_of_kind(&self, kind: QueryKind) -> CrimsonResult<Vec<HistoryEntry>> {
        self.read(|ctx| ctx.history_of_kind(kind))
    }

    /// Fetch one history entry by id.
    pub fn history_entry(&self, id: u64) -> CrimsonResult<HistoryEntry> {
        self.read(|ctx| ctx.history_entry(id))
    }

    /// Cross-table invariant check over the committed state.
    pub fn integrity_check(&self) -> CrimsonResult<IntegrityReport> {
        self.read(|ctx| ctx.integrity_check())
    }
}

/// `true` when the error is the (cold) snapshot-retired signal — the only
/// failure [`RepositoryReader::read`] re-pins on.
fn snapshot_retired(e: &CrimsonError) -> bool {
    matches!(
        e,
        CrimsonError::Storage(StorageError::SnapshotRetired { .. })
    )
}

/// A [`RepositoryReader`] frozen at one snapshot epoch, created by
/// [`RepositoryReader::pin`]. Every query evaluates against the same
/// committed state however many commits land while the pin is held, which
/// makes a *group* of reads mutually consistent — the property the batch
/// executor and the experiment sweep rely on. Shares the parent reader's
/// row caches.
///
/// Holding the pin keeps the epoch's page versions alive in the pool, so
/// drop it promptly when done. A query can still fail with
/// [`StorageError::SnapshotRetired`] if the writer commits more versions of
/// a touched page than the bounded chain keeps (unreachable in the stress
/// harness at the current depth); callers who need to absorb even that fall
/// back to the parent reader's re-pinning methods.
pub struct PinnedReader<'a> {
    reader: &'a RepositoryReader,
    _pin: storage::EpochPin,
    view: EpochView<'a>,
}

impl std::fmt::Debug for PinnedReader<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PinnedReader")
            .field("epoch", &self.view.epoch())
            .finish()
    }
}

impl PinnedReader<'_> {
    /// The pinned snapshot epoch (the commit sequence this view reads as
    /// of).
    pub fn epoch(&self) -> u64 {
        self.view.epoch()
    }

    /// Run `f` against the pinned epoch view with the parent reader's
    /// caches.
    fn run<R>(
        &self,
        f: impl FnOnce(&ReadCtx<'_, EpochView<'_>>) -> CrimsonResult<R>,
    ) -> CrimsonResult<R> {
        let ctx = ReadCtx {
            db: &self.view,
            tables: self.reader.tables,
            records: &self.reader.records,
            entries: &self.reader.entries,
            minima: &self.reader.minima,
        };
        f(&ctx)
    }

    /// Look up a tree by name.
    pub fn find_tree(&self, name: &str) -> CrimsonResult<Option<TreeRecord>> {
        self.run(|ctx| ctx.find_tree(name))
    }

    /// Look up a tree by name, failing when absent.
    pub fn tree_by_name(&self, name: &str) -> CrimsonResult<TreeRecord> {
        self.run(|ctx| ctx.tree_by_name(name))
    }

    /// All trees committed as of the pinned epoch.
    pub fn list_trees(&self) -> CrimsonResult<Vec<TreeRecord>> {
        self.run(|ctx| ctx.list_trees())
    }

    /// Fetch a node row (through the parent reader's record cache).
    pub fn node_record(&self, id: StoredNodeId) -> CrimsonResult<NodeRecord> {
        self.run(|ctx| ctx.node_record(id))
    }

    /// All leaf node ids of a tree.
    pub fn leaves(&self, handle: TreeHandle) -> CrimsonResult<Vec<StoredNodeId>> {
        self.run(|ctx| ctx.leaves(handle))
    }

    /// The leaf node a species name maps to in the given tree, if any.
    pub fn species_node(
        &self,
        handle: TreeHandle,
        name: &str,
    ) -> CrimsonResult<Option<StoredNodeId>> {
        self.run(|ctx| ctx.species_node(handle, name))
    }

    /// Least common ancestor over the interval index.
    pub fn lca(&self, a: StoredNodeId, b: StoredNodeId) -> CrimsonResult<StoredNodeId> {
        self.run(|ctx| ctx.lca(a, b))
    }

    /// Ancestor-or-self test.
    pub fn is_ancestor(&self, ancestor: StoredNodeId, node: StoredNodeId) -> CrimsonResult<bool> {
        self.run(|ctx| ctx.is_ancestor(ancestor, node))
    }

    /// Reference LCA over the stored hierarchical labels.
    pub fn lca_label_walk(&self, a: StoredNodeId, b: StoredNodeId) -> CrimsonResult<StoredNodeId> {
        self.run(|ctx| ctx.lca_label_walk(a, b))
    }

    /// Minimal spanning clade (one LCA + one interval range scan).
    pub fn minimal_spanning_clade(
        &self,
        nodes: &[StoredNodeId],
    ) -> CrimsonResult<Vec<StoredNodeId>> {
        self.run(|ctx| ctx.minimal_spanning_clade(nodes))
    }

    /// Reference spanning clade (label-walk LCA + BFS row fetches).
    pub fn minimal_spanning_clade_reference(
        &self,
        nodes: &[StoredNodeId],
    ) -> CrimsonResult<Vec<StoredNodeId>> {
        self.run(|ctx| ctx.minimal_spanning_clade_reference(nodes))
    }

    /// Tree projection onto a leaf selection.
    pub fn project(&self, handle: TreeHandle, leaves: &[StoredNodeId]) -> CrimsonResult<Tree> {
        self.run(|ctx| ctx.project(handle, leaves))
    }

    /// Reference projection (per-pair label walks, uncached rows).
    pub fn project_reference(
        &self,
        handle: TreeHandle,
        leaves: &[StoredNodeId],
    ) -> CrimsonResult<Tree> {
        self.run(|ctx| ctx.project_reference(handle, leaves))
    }

    /// Tree pattern match (projection + comparison).
    pub fn pattern_match(&self, handle: TreeHandle, pattern: &Tree) -> CrimsonResult<PatternMatch> {
        self.run(|ctx| ctx.pattern_match(handle, pattern))
    }

    /// Compare two stored trees inside the interval index.
    pub fn compare_stored(
        &self,
        a: TreeHandle,
        b: TreeHandle,
        triplets: bool,
    ) -> CrimsonResult<reconstruction::compare::SourceComparison> {
        self.run(|ctx| ctx.compare_stored(a, b, triplets))
    }

    /// The names of a set of stored leaf nodes.
    pub fn names_of(&self, nodes: &[StoredNodeId]) -> CrimsonResult<Vec<String>> {
        self.run(|ctx| ctx.names_of(nodes))
    }

    /// Look up a tree by handle.
    pub fn tree_record(&self, handle: TreeHandle) -> CrimsonResult<TreeRecord> {
        self.run(|ctx| ctx.tree_record(handle))
    }

    /// Uniformly sample `k` distinct species from the tree (deterministic
    /// per seed, identical to the writer's draws).
    pub fn sample_uniform(
        &self,
        handle: TreeHandle,
        k: usize,
        seed: u64,
    ) -> CrimsonResult<Vec<StoredNodeId>> {
        self.run(|ctx| ctx.sample_uniform(handle, k, seed))
    }

    /// Cross-table invariant check over the pinned committed state.
    pub fn integrity_check(&self) -> CrimsonResult<IntegrityReport> {
        self.run(|ctx| ctx.integrity_check())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::RepositoryOptions;
    use phylo::builder::figure1_tree;
    use tempfile::tempdir;

    #[test]
    fn reader_matches_writer_on_quiet_repository() {
        let dir = tempdir().unwrap();
        let mut repo = Repository::create(
            dir.path().join("r.crimson"),
            RepositoryOptions {
                frame_depth: 2,
                buffer_pool_pages: 256,
                ..Default::default()
            },
        )
        .unwrap();
        let tree = figure1_tree();
        let handle = repo.load_tree("fig1", &tree).unwrap();
        let reader = repo.reader().unwrap();

        assert_eq!(reader.tree_by_name("fig1").unwrap().handle, handle);
        assert_eq!(reader.leaves(handle).unwrap().len(), 5);
        let lla = reader.require_species_node(handle, "Lla").unwrap();
        let spy = reader.require_species_node(handle, "Spy").unwrap();
        assert_eq!(
            reader.lca(lla, spy).unwrap(),
            repo.lca(lla, spy).unwrap(),
            "reader and writer disagree on an LCA"
        );
        assert_eq!(
            reader.lca(lla, spy).unwrap(),
            reader.lca_label_walk(lla, spy).unwrap()
        );
        let clade = reader.minimal_spanning_clade(&[lla, spy]).unwrap();
        assert_eq!(clade, repo.minimal_spanning_clade(&[lla, spy]).unwrap());
        let p = reader
            .project_species(handle, &["Bha", "Lla", "Syn"])
            .unwrap();
        assert_eq!(p.leaf_count(), 3);
        reader.integrity_check().unwrap();
    }

    #[test]
    fn reader_does_not_see_uncommitted_tree() {
        let dir = tempdir().unwrap();
        let mut repo = Repository::create(
            dir.path().join("r.crimson"),
            RepositoryOptions {
                frame_depth: 2,
                buffer_pool_pages: 256,
                ..Default::default()
            },
        )
        .unwrap();
        repo.load_tree("first", &figure1_tree()).unwrap();
        let reader = repo.reader().unwrap();
        assert_eq!(reader.list_trees().unwrap().len(), 1);

        // Open a transaction by hand and load inside it: the reader must
        // keep seeing exactly one tree until the commit.
        repo.db.begin().unwrap();
        repo.load_tree("second", &figure1_tree()).unwrap();
        assert_eq!(repo.list_trees().unwrap().len(), 2, "writer sees its load");
        assert_eq!(
            reader.list_trees().unwrap().len(),
            1,
            "reader must not see the in-flight load"
        );
        assert!(reader.find_tree("second").unwrap().is_none());
        repo.db.commit().unwrap();
        assert_eq!(reader.list_trees().unwrap().len(), 2);
        assert!(reader.find_tree("second").unwrap().is_some());
    }
}
