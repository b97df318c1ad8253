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
//! ## One read surface
//!
//! Every read query is a method of [`ReadCtx`]; this module only decides
//! which committed state it runs on:
//!
//! * [`RepositoryReader::pin`] returns a [`PinnedReader`], an RAII guard
//!   that derefs to a `ReadCtx` frozen at one epoch — the way a
//!   `MutexGuard` derefs to its data — and unpins when dropped. Use it to
//!   make a group of reads mutually consistent.
//! * [`RepositoryReader::read`] runs a closure on a freshly pinned
//!   `ReadCtx` and re-pins on the cold failure below; it is the one
//!   retrying reader.
//!
//! A multi-page operation (an LCA, a clade scan, a projection) must not
//! straddle a commit, so it runs entirely against one epoch's view
//! ([`storage::EpochView`]): the pool keeps the last
//! `K = `[`storage::buffer::BufferPool::VERSION_CHAIN_CAP`] committed
//! versions of every recently-written page a pinned epoch still needs, and
//! a pinned read resolves each page to the newest version at or below its
//! epoch. Commits landing mid-operation are never seen.
//!
//! The one residual failure is [`storage::StorageError::SnapshotRetired`]:
//! when more than K distinct pinned epochs crowd one page's chain, the
//! oldest is retired. [`RepositoryReader::read`] handles it by re-pinning a
//! fresh epoch and re-running the closure, bounded by [`ReadRetry`];
//! exhausting that budget surfaces [`CrimsonError::Busy`]. The concurrency
//! stress harness drives a group-commit-cadence writer against four readers
//! and observes zero retirements, so the fallback is cold in practice —
//! kept so the contract degrades loudly instead of serving a torn view.
//!
//! Each reader carries its own record/interval/minima caches (sharded, two
//! generations each). Cached rows are immutable once loaded and readers
//! only ever observe committed rows, so the caches never need invalidation
//! — the same argument the writer's caches rely on.

use crate::cache::ShardedCache;
use crate::depth::DepthMinima;
use crate::error::{CrimsonError, CrimsonResult};
use crate::repository::{
    NodeAtRank, NodeRecord, ReadCtx, Repository, StoredNodeId, Tables, TreeHandle, TreeRecord,
    ENTRY_CACHE_GEN, MINIMA_CACHE_GEN, RECORD_CACHE_GEN,
};
use phylo::Tree;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use storage::db::DbReader;
use storage::{EpochPin, EpochView, StorageError};

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
/// them. Under versioned reads an attempt only fails when its epoch was
/// retired from a page's version chain (more than
/// [`storage::buffer::BufferPool::VERSION_CHAIN_CAP`] pinned epochs crowded
/// it); backing off with per-reader jitter desynchronises the re-pin from
/// the commit cadence (and from other readers) so the retry lands inside
/// the version window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadRetry {
    /// Maximum pin attempts before giving up with [`CrimsonError::Busy`].
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
            .field("retry", &self.retry)
            .finish()
    }
}

impl RepositoryReader {
    pub(crate) fn new(repo: &Repository) -> RepositoryReader {
        RepositoryReader {
            db: repo.db.reader(),
            tables: repo.tables,
            records: ShardedCache::new(RECORD_CACHE_GEN),
            entries: ShardedCache::new(ENTRY_CACHE_GEN),
            minima: ShardedCache::new(MINIMA_CACHE_GEN),
            retry: ReadRetry::default(),
            salt: splitmix64(READER_SEQ.fetch_add(1, Ordering::Relaxed)),
        }
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

    /// Pin a snapshot of the current committed state. The returned guard
    /// derefs to a [`ReadCtx`] on that one frozen epoch — commits landing
    /// after the pin are invisible until the guard is dropped. Use it to
    /// make a *group* of reads mutually consistent (the batch executor pins
    /// one epoch per batch) or to hold a stable view open across writer
    /// activity.
    pub fn pin(&self) -> CrimsonResult<PinnedReader<'_>> {
        let pin = self.db.pin_epoch();
        let ctx = ReadCtx {
            db: self.db.at_epoch(&pin)?,
            tables: self.tables,
            records: &self.records,
            entries: &self.entries,
            minima: &self.minima,
        };
        Ok(PinnedReader { ctx, _pin: pin })
    }

    /// Run `f` against a freshly pinned snapshot epoch: pin, run, unpin —
    /// e.g. `reader.read(|v| v.lca(a, b))`. The operation never races the
    /// writer — its epoch's page versions are immutable — so the only
    /// reason to loop is the cold [`StorageError::SnapshotRetired`]
    /// fallback, in which case `f` runs again on a fresh epoch after a
    /// jittered backoff, at most [`ReadRetry::attempts`] times in all.
    pub fn read<R>(
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
            match self.pin().and_then(|pinned| f(&pinned)) {
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
    // One-line shorthands over `read`, kept for existing callers
    // ------------------------------------------------------------------

    /// `self.read(|v| v.list_trees())`.
    pub fn list_trees(&self) -> CrimsonResult<Vec<TreeRecord>> {
        self.read(|v| v.list_trees())
    }

    /// `self.read(|v| v.leaves(handle))`.
    pub fn leaves(&self, handle: TreeHandle) -> CrimsonResult<Vec<StoredNodeId>> {
        self.read(|v| v.leaves(handle))
    }

    /// `self.read(|v| v.lca(a, b))`.
    pub fn lca(&self, a: StoredNodeId, b: StoredNodeId) -> CrimsonResult<StoredNodeId> {
        self.read(|v| v.lca(a, b))
    }

    /// `self.read(|v| v.is_ancestor(ancestor, node))`.
    pub fn is_ancestor(&self, ancestor: StoredNodeId, node: StoredNodeId) -> CrimsonResult<bool> {
        self.read(|v| v.is_ancestor(ancestor, node))
    }

    /// `self.read(|v| v.minimal_spanning_clade(nodes))`.
    pub fn minimal_spanning_clade(
        &self,
        nodes: &[StoredNodeId],
    ) -> CrimsonResult<Vec<StoredNodeId>> {
        self.read(|v| v.minimal_spanning_clade(nodes))
    }

    /// `self.read(|v| v.project(handle, leaves))`.
    pub fn project(&self, handle: TreeHandle, leaves: &[StoredNodeId]) -> CrimsonResult<Tree> {
        self.read(|v| v.project(handle, leaves))
    }

    /// `self.read(|v| v.sample_uniform(handle, k, seed))`.
    pub fn sample_uniform(
        &self,
        handle: TreeHandle,
        k: usize,
        seed: u64,
    ) -> CrimsonResult<Vec<StoredNodeId>> {
        self.read(|v| v.sample_uniform(handle, k, seed))
    }

    /// `self.read(|v| v.list_experiments())`.
    pub fn list_experiments(&self) -> CrimsonResult<Vec<crate::experiment::ExperimentRecord>> {
        self.read(|v| v.list_experiments())
    }

    /// `self.read(|v| v.experiment_results(experiment))`.
    pub fn experiment_results(
        &self,
        experiment: u64,
    ) -> CrimsonResult<Vec<crate::experiment::ExperimentResult>> {
        self.read(|v| v.experiment_results(experiment))
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

/// A [`RepositoryReader`]'s pin on one snapshot epoch, created by
/// [`RepositoryReader::pin`]: an RAII guard that derefs to the pinned
/// [`ReadCtx`] and unpins the epoch when dropped. Every query evaluates
/// against the same committed state however many commits land while the
/// pin is held, which makes a *group* of reads mutually consistent — the
/// property the batch executor, the server's coalesced reads and the
/// experiment sweep rely on. Shares the parent reader's row caches.
///
/// Holding the pin keeps the epoch's page versions alive in the pool, so
/// drop it promptly when done. A query can still fail with
/// [`StorageError::SnapshotRetired`] if more pinned epochs crowd a touched
/// page than the bounded chain keeps (unreachable in the stress harness at
/// the current depth); callers who need to absorb even that use
/// [`RepositoryReader::read`].
pub struct PinnedReader<'a> {
    ctx: ReadCtx<'a, EpochView<'a>>,
    _pin: EpochPin,
}

impl std::fmt::Debug for PinnedReader<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PinnedReader")
            .field("epoch", &self.epoch())
            .finish()
    }
}

impl PinnedReader<'_> {
    /// The pinned snapshot epoch (the commit sequence this view reads as
    /// of).
    pub fn epoch(&self) -> u64 {
        self.ctx.db.epoch()
    }
}

impl<'a> std::ops::Deref for PinnedReader<'a> {
    type Target = ReadCtx<'a, EpochView<'a>>;

    fn deref(&self) -> &Self::Target {
        &self.ctx
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
                buffer_pool_pages: 256,
                ..Default::default()
            },
        )
        .unwrap();
        let tree = figure1_tree();
        let handle = repo.load_tree("fig1", &tree).unwrap();
        let reader = repo.reader().unwrap();

        assert_eq!(
            reader.read(|v| v.tree_by_name("fig1")).unwrap().handle,
            handle
        );
        assert_eq!(reader.leaves(handle).unwrap().len(), 5);
        let lla = reader
            .read(|v| v.require_species_node(handle, "Lla"))
            .unwrap();
        let spy = reader
            .read(|v| v.require_species_node(handle, "Spy"))
            .unwrap();
        assert_eq!(
            reader.lca(lla, spy).unwrap(),
            repo.view().lca(lla, spy).unwrap(),
            "reader and writer disagree on an LCA"
        );
        let in_memory = tree.lca(
            tree.find_leaf_by_name("Lla").unwrap(),
            tree.find_leaf_by_name("Spy").unwrap(),
        );
        assert_eq!(
            reader.lca(lla, spy).unwrap(),
            StoredNodeId((handle.0 << 32) | in_memory.0 as u64)
        );
        let clade = reader.minimal_spanning_clade(&[lla, spy]).unwrap();
        assert_eq!(
            clade,
            repo.view().minimal_spanning_clade(&[lla, spy]).unwrap()
        );
        let p = reader
            .read(|v| v.project_species(handle, &["Bha", "Lla", "Syn"]))
            .unwrap();
        assert_eq!(p.leaf_count(), 3);
        reader.read(|v| v.integrity_check()).unwrap();
    }

    #[test]
    fn reader_does_not_see_uncommitted_tree() {
        let dir = tempdir().unwrap();
        let mut repo = Repository::create(
            dir.path().join("r.crimson"),
            RepositoryOptions {
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
        assert_eq!(
            repo.view().list_trees().unwrap().len(),
            2,
            "writer sees its load"
        );
        assert_eq!(
            reader.list_trees().unwrap().len(),
            1,
            "reader must not see the in-flight load"
        );
        assert!(reader.read(|v| v.find_tree("second")).unwrap().is_none());
        repo.db.commit().unwrap();
        assert_eq!(reader.list_trees().unwrap().len(), 2);
        assert!(reader.read(|v| v.find_tree("second")).unwrap().is_some());
    }

    #[test]
    fn read_repins_when_its_epoch_is_retired() {
        use std::cell::{Cell, RefCell};
        use storage::buffer::BufferPool;
        let dir = tempdir().unwrap();
        let mut repo = Repository::create(
            dir.path().join("r.crimson"),
            RepositoryOptions {
                buffer_pool_pages: 256,
                ..Default::default()
            },
        )
        .unwrap();
        let handle = repo.load_tree("fig1", &figure1_tree()).unwrap();
        let reader = repo.reader().unwrap();
        let retries_before = repo.buffer_stats().reader_retries;
        let repo = RefCell::new(repo);
        let crowd = RefCell::new(Vec::new());
        let calls = Cell::new(0);
        let leaves = reader
            .read(|v| {
                calls.set(calls.get() + 1);
                if calls.get() == 1 {
                    // Every load rewrites the tree catalog's pages. Pinning
                    // an epoch between loads crowds more than the chain cap
                    // of distinct epochs onto them, so this attempt's epoch,
                    // the oldest, is retired before it reads anything.
                    for i in 0..=BufferPool::VERSION_CHAIN_CAP {
                        repo.borrow_mut()
                            .load_tree(&format!("crowd{i}"), &figure1_tree())
                            .unwrap();
                        crowd.borrow_mut().push(reader.pin().unwrap());
                    }
                }
                v.leaves(handle)
            })
            .unwrap();
        assert_eq!(calls.get(), 2, "the retired attempt re-pins exactly once");
        assert_eq!(leaves.len(), 5);
        assert_eq!(
            repo.borrow().buffer_stats().reader_retries,
            retries_before + 1
        );
        drop(crowd);

        // With no attempts left the retirement surfaces as Busy.
        let mut reader = reader;
        reader.set_read_retry(ReadRetry {
            attempts: 1,
            ..ReadRetry::default()
        });
        let crowd = RefCell::new(Vec::new());
        let err = reader
            .read(|v| {
                for i in 0..=BufferPool::VERSION_CHAIN_CAP {
                    repo.borrow_mut()
                        .load_tree(&format!("again{i}"), &figure1_tree())
                        .unwrap();
                    crowd.borrow_mut().push(reader.pin().unwrap());
                }
                v.leaves(handle)
            })
            .unwrap_err();
        assert!(matches!(err, CrimsonError::Busy(_)), "got {err:?}");
    }
}
