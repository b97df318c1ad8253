//! Buffer pool: a sharded, latch-based clock (second-chance) page cache
//! between the pager and the access methods, the enforcement point of the
//! write-ahead-logging protocol, and the provider of snapshot reads for
//! concurrent readers.
//!
//! The paper argues that "simulation trees are huge, yet the portions
//! retrieved by a single query are relatively small", so queries must not
//! load whole trees into memory. The buffer pool is the mechanism that makes
//! that work: a bounded set of frames stays resident, everything else is
//! written back (when dirty) and evicted.
//!
//! ## Design
//!
//! * **Sharded page table.** Frames are indexed by a set of shard maps
//!   (page-id → frame), each behind its own short-held mutex, so concurrent
//!   readers touching different pages never contend on a single lock.
//! * **Per-frame latches.** Each frame carries a read/write latch over its
//!   page content plus an atomic pin count and reference bit. Many readers
//!   latch a frame shared; the single writer latches it exclusive only for
//!   the duration of one page mutation.
//! * **Writer/IO latch.** The pager (file I/O), the write-ahead log and the
//!   single-transaction state live behind one mutex — the *io latch*. Cache
//!   hits never touch it; misses, mutations and eviction serialize on it,
//!   which is exactly the WAL-before-data ordering anyway.
//! * **Latch order** (deadlock freedom): io latch → shard map → frame
//!   latch → mvcc registry → version map. A thread holding a later lock
//!   never acquires an earlier one.
//! * **Fixed capacity, clock eviction.** Residency never exceeds `capacity`
//!   pages globally (not per shard). The clock hand sweeps shards round-robin
//!   clearing reference bits; the first unpinned, unreferenced frame is the
//!   victim. Eviction only runs under the io latch.
//! * **`Arc<Page>` frames, zero-clone writes.** Frames hold `Arc<Page>`;
//!   flush and eviction write through a borrow of the frame's page. Mutation
//!   goes through `Arc::make_mut` (copy-on-write only when a pinned reader
//!   or an undo snapshot still holds the old revision).
//! * **Pinning.** [`BufferPool::pin`] hands out an owned [`PinnedPage`]
//!   guard that keeps the frame resident (the clock skips pinned frames) and
//!   gives lock-free read access to the page bytes for the guard's lifetime.
//!
//! ## Versioned snapshot reads (MVCC)
//!
//! Concurrent readers must never observe an in-flight transaction — and
//! must never be starved into giving up by a continuously committing
//! writer. The pool keeps **bounded per-page version chains**: when a
//! transaction first touches a page, the pristine `Arc<Page>` (the same
//! capture the undo log needs) is published as the chain's *pending*
//! before-image; at commit the pending image graduates into the chain's
//! *committed* history, stamped with the epoch range it was current for.
//! Each chain keeps at most [`BufferPool::VERSION_CHAIN_CAP`] committed
//! versions.
//!
//! A reader **pins an epoch** ([`BufferPool::pin_epoch`]) — the commit
//! sequence of the last published commit — and reads every page *as of*
//! that epoch ([`BufferPool::with_page_at`] / [`BufferPool::pin_at`]): the
//! chain entry with the smallest `valid_through >= epoch` governs; with no
//! governing entry the pending image (if the open transaction touched the
//! page) and then the live frame serve. Because a pinned epoch keeps its
//! versions alive, a multi-page read runs start to finish against one
//! frozen view and **never retries**, however fast the writer commits.
//!
//! Versions retire via **lazy GC on commit**: entries no pinned epoch can
//! govern are dropped, and a chain past its cap sheds its oldest entries,
//! raising the pool-wide [`BufferPool::version_floor`]. A reader whose
//! epoch sinks below the floor gets [`StorageError::SnapshotRetired`] and
//! re-pins — the only (cold) retry left, reachable only when a pinned
//! read outlives `VERSION_CHAIN_CAP` commits that all touch its pages.
//! When the last pin drops, all committed versions are cleared eagerly: a
//! fresh pin at the current epoch always reads live frames.
//!
//! A pinned epoch is the only committed view: a pin taken while a
//! transaction is open reads the transaction's pending before-images, so
//! the in-flight writes are invisible to it. The writer itself reads the
//! live frames (`&BufferPool` as a [`PageSource`]).
//!
//! ## Transactions and WAL-before-data
//!
//! * [`BufferPool::begin_txn`] snapshots the file-header state; every
//!   subsequent `with_page_mut`/`allocate_page` captures the page's
//!   before-image on first touch (a cheap `Arc` clone).
//! * [`BufferPool::commit_txn`] appends the after-image of every dirtied
//!   page plus a commit record to the log and optionally fsyncs.
//! * [`BufferPool::rollback_txn`] restores the captured before-images in
//!   memory and rolls the header snapshot back.
//! * **Eviction** enforces WAL-before-data: a dirty page of the *active*
//!   transaction is *stolen* — its before-image is appended as an undo
//!   record and the log fsynced before the data-file write; a page whose
//!   latest committed image is not yet durable forces a log fsync first.
//! * [`BufferPool::flush`] is a **checkpoint**: fsync the log, write every
//!   dirty page and the header to the data file, fsync it, then truncate
//!   the log.
//!
//! Mutations performed outside any transaction (as the lower-level unit
//! tests and the `logging(false)` bench baseline do) bypass the log and
//! carry no crash-safety contract — exactly the pre-WAL behaviour.

use crate::error::{StorageError, StorageResult};
use crate::io::{
    fatal_crash_error, shared_schedule, FaultIo, FaultSchedule, FileKind, SharedFaultSchedule,
};
use crate::page::{Page, PageId};
use crate::pager::{PageVerdict, Pager};
use crate::wal::{self, CommitHandles, Lsn, RecoveryReport, Wal, WalRecordKind};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

/// Number of page-table shards. Page ids are assigned sequentially, so a
/// simple modulo spreads consecutive pages across all shards.
const SHARD_COUNT: usize = 16;

#[inline]
fn shard_of(pid: PageId) -> usize {
    (pid.0 % SHARD_COUNT as u64) as usize
}

/// Statistics counters exposed for the repository-scale experiment (E9),
/// the interval-index page-read assertions and the WAL-overhead bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Number of page requests satisfied from the cache.
    pub hits: u64,
    /// Number of page requests that had to read from disk.
    pub misses: u64,
    /// Number of frames evicted to make room (clean or dirty).
    pub evictions: u64,
    /// Number of pages flushed by explicit flush calls.
    pub flushes: u64,
    /// Number of dirty pages written back during eviction.
    pub writebacks: u64,
    /// WAL records appended.
    pub wal_appends: u64,
    /// WAL bytes appended.
    pub wal_bytes: u64,
    /// WAL fsync calls.
    pub wal_syncs: u64,
    /// Full page images appended to the WAL (after-images + steal undos).
    pub wal_page_images: u64,
    /// Transactions committed with at least one logged page.
    pub commits: u64,
    /// Checksum failures detected on page reads (before repair).
    pub corrupt_pages: u64,
    /// Corrupt pages successfully repaired (from the WAL or from a resident
    /// frame).
    pub repaired_pages: u64,
    /// Corrupt pages that could not be repaired and were quarantined.
    pub quarantined_pages: u64,
    /// Group-commit fsync rounds that made at least one commit durable.
    pub group_commits: u64,
    /// Commit records covered by those rounds (sum of group sizes).
    pub group_commit_members: u64,
    /// Fsyncs avoided by group commit: `group_commit_members -
    /// group_commits` (every member beyond the first in a round rode a
    /// shared fsync).
    pub fsyncs_saved: u64,
    /// Snapshot-read retries observed by readers (today only the cold
    /// re-pin after [`StorageError::SnapshotRetired`]), reported via
    /// [`BufferPool::note_reader_retry`]. Under MVCC this stays flat in
    /// steady state; the stress harness asserts it.
    pub reader_retries: u64,
    /// Versioned reads served from a stored (non-live) chain entry — the
    /// reads that would have raced the writer under the old
    /// generation-retry scheme.
    pub version_reads: u64,
}

impl BufferStats {
    /// Hit ratio in `[0, 1]`; zero when no accesses happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total page requests (hits + misses) — the "page reads" a query cost.
    pub fn page_reads(&self) -> u64 {
        self.hits + self.misses
    }

    /// Total data-file page writes (checkpoint flushes + eviction
    /// write-backs) — the "page writes" a workload cost.
    pub fn page_writes(&self) -> u64 {
        self.flushes + self.writebacks
    }
}

/// Atomic counterpart of [`BufferStats`]: every counter is an `AtomicU64`,
/// so concurrent readers update hit/miss accounting without taking any
/// lock — and without losing increments, which keeps the exact cold-vs-warm
/// ratios the interval-index tests assert.
#[derive(Debug, Default)]
struct AtomicStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    flushes: AtomicU64,
    writebacks: AtomicU64,
    corrupt_pages: AtomicU64,
    repaired_pages: AtomicU64,
    quarantined_pages: AtomicU64,
    version_reads: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self) -> BufferStats {
        BufferStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
            corrupt_pages: self.corrupt_pages.load(Ordering::Relaxed),
            repaired_pages: self.repaired_pages.load(Ordering::Relaxed),
            quarantined_pages: self.quarantined_pages.load(Ordering::Relaxed),
            version_reads: self.version_reads.load(Ordering::Relaxed),
            ..BufferStats::default()
        }
    }

    fn reset(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.flushes.store(0, Ordering::Relaxed);
        self.writebacks.store(0, Ordering::Relaxed);
        self.corrupt_pages.store(0, Ordering::Relaxed);
        self.repaired_pages.store(0, Ordering::Relaxed);
        self.quarantined_pages.store(0, Ordering::Relaxed);
        self.version_reads.store(0, Ordering::Relaxed);
    }

    #[inline]
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A point at which a simulated crash can be injected, for the
/// crash-recovery test harness. Once the point trips, every subsequent disk
/// write fails as if the process had died; the test then reopens the files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Fail the `n+1`-th WAL append from now with a torn half-write.
    WalAppend(u64),
    /// Fail the `n+1`-th data-file page write from now (eviction write-back
    /// or checkpoint flush).
    DataWrite(u64),
    /// Fail the `n+1`-th WAL fsync from now — the group fsync covering every
    /// member of an in-flight commit batch.
    WalSync(u64),
    /// Fail the next checkpoint after the data file is durable but before
    /// the log is truncated.
    CheckpointTruncate,
}

/// Options controlling an incremental scrub pass (see
/// [`BufferPool::scrub`]).
#[derive(Debug, Clone, Copy)]
pub struct ScrubOptions {
    /// Pages verified per io-latch acquisition: the latch is released (and
    /// readers/writer admitted) between chunks.
    pub chunk_pages: usize,
    /// Optional sleep between chunks, throttling the scrub's I/O rate.
    pub throttle: Option<Duration>,
}

impl Default for ScrubOptions {
    fn default() -> Self {
        ScrubOptions {
            chunk_pages: 256,
            throttle: None,
        }
    }
}

/// Outcome of a scrub pass: one counter per verdict, so
/// `pages_scanned == ok + backfilled + repaired + quarantined +
/// skipped_dirty`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubStats {
    /// Pages examined (every page except the header).
    pub pages_scanned: u64,
    /// Pages whose stored checksum matched the disk bytes.
    pub pages_ok: u64,
    /// Pages with no stored checksum (v1 files, fresh allocations) whose
    /// checksum was computed and recorded.
    pub pages_backfilled: u64,
    /// Checksum-failed pages repaired from a resident frame or the WAL.
    pub pages_repaired: u64,
    /// Checksum-failed pages that could not be repaired (includes pages
    /// already quarantined before this pass).
    pub pages_quarantined: u64,
    /// Checksum-failed pages dirtied by the open transaction: skipped —
    /// memory holds the truth and commit/checkpoint will overwrite the bad
    /// sectors.
    pub pages_skipped_dirty: u64,
}

/// When the background checkpointer fires (see
/// [`BufferPool::start_checkpointer`]). Both triggers are optional; with
/// neither set the thread idles (useful for tests that drive
/// [`BufferPool::checkpoint_background`] by hand).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint once the un-truncated log backlog reaches this many bytes.
    pub wal_bytes: Option<u64>,
    /// Checkpoint at least this often regardless of backlog.
    pub interval: Option<Duration>,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            wal_bytes: Some(8 * 1024 * 1024),
            interval: Some(Duration::from_secs(5)),
        }
    }
}

/// RAII handle for the background checkpoint thread: dropping it stops and
/// joins the thread. The thread holds only a `Weak` pool reference, so the
/// pool's lifetime is never extended by its own checkpointer.
pub struct CheckpointerGuard {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for CheckpointerGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for CheckpointerGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointerGuard")
            .field("stopped", &self.stop.load(Ordering::Relaxed))
            .finish()
    }
}

/// Latched page content of one frame.
struct FrameBody {
    page: Arc<Page>,
    dirty: bool,
    /// LSN of the last WAL record covering this frame's content (commit
    /// image or steal undo); 0 when never logged. Eviction must not write
    /// the frame to the data file until the log is durable past this point.
    rec_lsn: Lsn,
}

/// One resident page: identity and pin/reference state are atomic (checked
/// under the shard lock where it matters), the content sits behind a
/// read/write latch.
struct Frame {
    pid: PageId,
    pins: AtomicU32,
    referenced: AtomicBool,
    body: RwLock<FrameBody>,
}

impl Frame {
    fn new(pid: PageId, page: Arc<Page>, dirty: bool, pins: u32) -> Arc<Frame> {
        Arc::new(Frame {
            pid,
            pins: AtomicU32::new(pins),
            referenced: AtomicBool::new(true),
            body: RwLock::new(FrameBody {
                page,
                dirty,
                rec_lsn: 0,
            }),
        })
    }
}

/// One page-table shard: page id → slot, plus the shard's clock hand.
#[derive(Default)]
struct ShardMap {
    map: HashMap<PageId, usize>,
    slots: Vec<Arc<Frame>>,
    hand: usize,
}

impl ShardMap {
    /// Remove the frame at `idx`, keeping the map and hand consistent.
    fn remove_slot(&mut self, idx: usize) -> Arc<Frame> {
        let frame = self.slots.swap_remove(idx);
        self.map.remove(&frame.pid);
        if idx < self.slots.len() {
            let moved = self.slots[idx].pid;
            self.map.insert(moved, idx);
        }
        if self.hand >= self.slots.len() {
            self.hand = 0;
        }
        frame
    }

    fn insert(&mut self, frame: Arc<Frame>) {
        let pid = frame.pid;
        self.slots.push(frame);
        self.map.insert(pid, self.slots.len() - 1);
    }
}

/// One stored page image: `None` means the page did not exist (it was
/// allocated by a later transaction); versioned reads serve an empty page.
type VersionImage = Option<Arc<Page>>;

/// Bounded multi-version history of one page.
///
/// `committed` holds past images in ascending `valid_through` order: the
/// entry `(T, image)` is the page's content for every epoch in
/// `(prev_T, T]`, where `prev_T` is the previous entry's stamp (or the
/// pool-wide version floor minus one for the oldest entry — the floor is
/// raised whenever an older entry is dropped, so the oldest entry's range
/// is never under-covered). `pending` is the open transaction's
/// before-image — the content current *through the present commit
/// sequence* — and graduates into `committed` when the transaction
/// commits.
#[derive(Default)]
struct VersionChain {
    committed: Vec<(u64, VersionImage)>,
    pending: Option<VersionImage>,
}

impl VersionChain {
    /// The committed entry governing `epoch`: the one with the smallest
    /// `valid_through >= epoch`. `None` means the chain stores nothing for
    /// this epoch — the pending image or the live frame is current.
    fn governing(&self, epoch: u64) -> Option<&VersionImage> {
        let idx = self.committed.partition_point(|&(t, _)| t < epoch);
        self.committed.get(idx).map(|(_, image)| image)
    }

    fn is_empty(&self) -> bool {
        self.committed.is_empty() && self.pending.is_none()
    }
}

/// The epoch registry and commit sequencing — everything versioned reads
/// coordinate with the committer on. One short mutex: pinning an epoch
/// reads `commit_seq` and registers under the *same* lock GC takes, so a
/// pin can never race a commit into pinning an epoch whose versions were
/// just collected.
struct MvccState {
    /// Sequence of the last published commit. Epoch 0 is the state at
    /// open.
    commit_seq: u64,
    /// Pinned epochs → pin count. The smallest key is the GC horizon.
    epochs: BTreeMap<u64, usize>,
    /// Commit sequence → catalog root published by that commit, seeded
    /// with `(0, root-at-open)`. A pinned reader resolves its catalog from
    /// the governing (largest `seq <= epoch`) entry. GC keeps the
    /// governing entry for the oldest pin and everything newer.
    roots: BTreeMap<u64, PageId>,
}

/// Before-image captured on a transaction's first touch of a page.
struct UndoEntry {
    /// `None` for pages allocated inside the transaction (their "before"
    /// state is nonexistence).
    image: Option<Arc<Page>>,
    /// Whether the frame was already dirty (from an earlier committed but
    /// not yet checkpointed transaction) when captured.
    prior_dirty: bool,
}

struct TxnState {
    id: u64,
    /// Pages dirtied by this transaction, in id order (deterministic log).
    dirty: BTreeSet<PageId>,
    undo: HashMap<PageId, UndoEntry>,
    /// Pages whose before-image was already logged because the page was
    /// stolen (written to the data file before commit).
    stolen: HashSet<PageId>,
    /// Header snapshot at begin: (page_count, catalog_root, user_meta,
    /// checkpoint_lsn).
    header: (u64, PageId, PageId, u64),
}

/// Everything the single writer serializes on: file I/O, the log and the
/// open transaction.
struct IoState {
    pager: Pager,
    wal: Wal,
    /// Whether transactional mutations are logged. Disabled only by the
    /// bench baseline; see [`BufferPool::set_logging`].
    logging: bool,
    txn: Option<TxnState>,
    recovery: Option<RecoveryReport>,
    /// Global clock cursor: which shard the next eviction sweep starts at.
    sweep_shard: usize,
    /// Shared fault schedule, when fault injection is active. The same
    /// schedule object drives the [`FaultIo`] wrappers around the pager's
    /// and the WAL's file handles.
    fault: Option<SharedFaultSchedule>,
    /// Degraded mode: mutation entry points fail with `ReadOnly`.
    read_only: bool,
    /// Pages that failed their checksum and could not be repaired:
    /// page id → (expected CRC, found CRC). Reads fail fast with
    /// `CorruptPage` instead of re-reading the bad sectors.
    quarantined: BTreeMap<u64, (u32, u32)>,
}

impl IoState {
    /// Whether an injected sticky crash has fired: every subsequent I/O
    /// (and the next checkpoint) must keep failing until reopen.
    fn sim_crashed(&self) -> bool {
        self.fault.as_ref().is_some_and(|s| s.lock().crashed())
    }

    /// Record a fatal log/fsync failure: the writer is poisoned until
    /// reopen. Stored in the WAL's shared state so a group-commit leader
    /// (which never holds the io latch) can set it too.
    fn poison(&mut self, why: &StorageError) {
        self.wal.poison(&why.to_string());
    }

    /// Gate for mutation entry points: degraded mode and poisoning both
    /// refuse writes with a typed error.
    fn check_writable(&self) -> StorageResult<()> {
        if self.read_only {
            return Err(StorageError::ReadOnly);
        }
        if let Some(m) = self.wal.poisoned() {
            return Err(StorageError::WriterPoisoned(m));
        }
        Ok(())
    }
}

/// A sharded, latch-based, fixed-capacity clock buffer pool wrapping a
/// [`Pager`] and the database's [`Wal`]. `Sync`: any number of reader
/// threads may hit the cache, pin pages and take snapshot reads while the
/// single writer runs transactions.
pub struct BufferPool {
    shards: Vec<Mutex<ShardMap>>,
    io: Mutex<IoState>,
    /// Per-page version chains: the open transaction's pending
    /// before-image plus up to [`BufferPool::VERSION_CHAIN_CAP`] committed
    /// historical images. Versioned reads prefer a governing chain entry
    /// over the frame content.
    versions: RwLock<HashMap<PageId, VersionChain>>,
    /// Epoch registry + commit sequencing (see [`MvccState`]).
    mvcc: Mutex<MvccState>,
    /// Oldest epoch the version chains can still serve. Raised (under the
    /// version-map write lock) whenever a committed entry is dropped while
    /// an epoch below it could still be pinned; readers check it after
    /// acquiring the version-map read lock, so a passed check guarantees
    /// the epoch's entries are present for the whole lookup.
    version_floor: AtomicU64,
    resident: AtomicUsize,
    capacity: usize,
    stats: AtomicStats,
    /// The WAL's concurrency handles: the durable-LSN watermark, the group
    /// fsync path and the poison slot — all reachable without the io latch,
    /// which is what lets `wait_durable` lead or follow a group commit while
    /// the next transaction already holds io.
    commit: CommitHandles,
    /// Parking lot for `begin_txn_blocking`: committers wait here for the
    /// single writer slot instead of spinning on `TransactionActive`.
    txn_slot: StdMutex<()>,
    txn_cv: StdCondvar,
    /// Snapshot-read retries reported by readers (see
    /// [`BufferPool::note_reader_retry`]).
    reader_retries: AtomicU64,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("resident", &self.resident.load(Ordering::Relaxed))
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

/// Owned RAII guard for a pinned page: keeps the frame resident and readable
/// without holding any pool lock. Dropping the guard unpins the frame.
/// Pins served from a stored version or pending before-image carry no
/// frame (nothing to unpin; the guard owns the bytes).
pub struct PinnedPage {
    pid: PageId,
    page: Arc<Page>,
    frame: Option<Arc<Frame>>,
}

impl PinnedPage {
    /// The pinned page's id.
    pub fn page_id(&self) -> PageId {
        self.pid
    }
}

impl std::ops::Deref for PinnedPage {
    type Target = Page;
    fn deref(&self) -> &Page {
        &self.page
    }
}

impl Drop for PinnedPage {
    fn drop(&mut self) {
        if let Some(frame) = &self.frame {
            let prev = frame.pins.fetch_sub(1, Ordering::AcqRel);
            debug_assert!(prev > 0, "unpinning a frame that is not pinned");
        }
    }
}

/// RAII guard for a pinned snapshot epoch (see [`BufferPool::pin_epoch`]).
/// While it lives, every page version needed to read as of [`Self::epoch`]
/// survives garbage collection (subject to the per-chain cap). Dropping
/// the guard unregisters the epoch; when the last pin drops, stored
/// versions are cleared eagerly.
pub struct EpochPin {
    pool: Arc<BufferPool>,
    epoch: u64,
}

impl EpochPin {
    /// The pinned commit sequence.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The pool this epoch is pinned on.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }
}

impl std::fmt::Debug for EpochPin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochPin")
            .field("epoch", &self.epoch)
            .finish()
    }
}

impl Drop for EpochPin {
    fn drop(&mut self) {
        self.pool.unpin_epoch(self.epoch);
    }
}

/// Read-only page access, implemented by the pool's *current* view
/// (`&BufferPool`, the writer's) and by a pinned epoch
/// ([`crate::db::EpochSnapshot`]). The B+tree, heap and catalog read paths
/// are generic over this, which is what lets the same descent code serve
/// the writer and concurrent snapshot readers.
pub trait PageSource: Copy {
    /// Run `f` with read access to the page.
    fn with_page<R>(&self, pid: PageId, f: impl FnOnce(&Page) -> R) -> StorageResult<R>;
    /// Pin the page, keeping its content readable without pool locks.
    fn pin_page(&self, pid: PageId) -> StorageResult<PinnedPage>;
    /// The catalog root this view should read metadata from.
    fn catalog_root(&self) -> PageId;
}

impl PageSource for &BufferPool {
    fn with_page<R>(&self, pid: PageId, f: impl FnOnce(&Page) -> R) -> StorageResult<R> {
        BufferPool::with_page(self, pid, f)
    }

    fn pin_page(&self, pid: PageId) -> StorageResult<PinnedPage> {
        BufferPool::pin(self, pid)
    }

    fn catalog_root(&self) -> PageId {
        BufferPool::catalog_root(self)
    }
}

impl BufferPool {
    /// Default number of resident pages (~8 MiB with 8 KiB pages).
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Hard cap on committed versions kept per page chain. Commit-time GC
    /// is pin-aware — a chain holds at most one entry per live pinned
    /// epoch, so ordinary operation never reaches the cap however many
    /// commits a pin is held across. The cap only bites when more than
    /// this many *distinct* pinned epochs demand versions of one page;
    /// then the oldest pins are retired and their readers re-pin via
    /// [`StorageError::SnapshotRetired`], bounding the memory a crowd of
    /// stalled readers can pin.
    pub const VERSION_CHAIN_CAP: usize = 4;

    /// Wrap a pager with the default capacity. Opening an existing file runs
    /// crash recovery against its WAL before the pool is usable.
    pub fn new(pager: Pager) -> StorageResult<Self> {
        Self::with_capacity(pager, Self::DEFAULT_CAPACITY)
    }

    /// Wrap a pager with an explicit page capacity (minimum 8). For a
    /// freshly created file the sibling WAL is truncated; for an existing
    /// file the WAL is replayed (redo committed transactions, undo losers)
    /// before the pool is handed out.
    pub fn with_capacity(pager: Pager, capacity: usize) -> StorageResult<Self> {
        let mut pager = pager;
        let wal_file = wal::wal_path_for(pager.path());
        let (wal, recovery) = if pager.is_fresh() {
            (Wal::create(&wal_file)?, None)
        } else {
            let mut wal = Wal::open(&wal_file)?;
            let report = wal::recover(&mut pager, &mut wal)?;
            (wal, Some(report))
        };
        let capacity = capacity.max(8);
        let commit = wal.commit_handles();
        let initial_root = pager.catalog_root();
        Ok(BufferPool {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(ShardMap::default()))
                .collect(),
            io: Mutex::new(IoState {
                pager,
                wal,
                logging: true,
                txn: None,
                recovery,
                sweep_shard: 0,
                fault: None,
                read_only: false,
                quarantined: BTreeMap::new(),
            }),
            versions: RwLock::new(HashMap::new()),
            mvcc: Mutex::new(MvccState {
                commit_seq: 0,
                epochs: BTreeMap::new(),
                roots: BTreeMap::from([(0, initial_root)]),
            }),
            version_floor: AtomicU64::new(0),
            resident: AtomicUsize::new(0),
            capacity,
            stats: AtomicStats::default(),
            commit,
            txn_slot: StdMutex::new(()),
            txn_cv: StdCondvar::new(),
            reader_retries: AtomicU64::new(0),
        })
    }

    /// The pool's frame capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of pages currently resident (always `<= capacity`).
    pub fn resident_pages(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    /// Number of currently pinned frames.
    pub fn pinned_frames(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .slots
                    .iter()
                    .filter(|f| f.pins.load(Ordering::Relaxed) > 0)
                    .count()
            })
            .sum()
    }

    /// The recovery outcome from opening this pool's file, if the file
    /// pre-existed (a fresh file needs no recovery).
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.io.lock().recovery
    }

    /// Enable or disable write-ahead logging for subsequent transactions.
    /// Disabled logging restores the pre-WAL behaviour (no crash safety);
    /// it exists for the bench baseline. Fails while a transaction is open.
    pub fn set_logging(&self, enabled: bool) -> StorageResult<()> {
        let mut io = self.io.lock();
        if io.txn.is_some() {
            return Err(StorageError::TransactionActive);
        }
        io.logging = enabled;
        Ok(())
    }

    /// Inject a simulated crash (see [`CrashPoint`]). Test instrumentation
    /// for the crash-recovery suites; implemented as a [`FaultSchedule`]
    /// rule on the shared fault-injection layer.
    pub fn inject_crash(&self, point: CrashPoint) {
        let mut io = self.io.lock();
        let schedule = Self::ensure_schedule(&mut io);
        let mut schedule = schedule.lock();
        match point {
            CrashPoint::WalAppend(n) => schedule.crash_at_wal_append(n),
            CrashPoint::DataWrite(n) => schedule.crash_at_data_write(n),
            CrashPoint::WalSync(n) => schedule.crash_at_wal_sync(n),
            CrashPoint::CheckpointTruncate => schedule.crash_at_checkpoint_truncate(),
        }
    }

    /// Install `schedule` as this pool's fault-injection layer: both the
    /// pager's and the WAL's file handles are wrapped in [`FaultIo`] driven
    /// by it. Fails if a schedule is already installed (the wrappers are
    /// not stackable).
    pub fn install_fault_schedule(&self, schedule: SharedFaultSchedule) -> StorageResult<()> {
        let mut io = self.io.lock();
        if io.fault.is_some() {
            return Err(StorageError::Corrupted(
                "a fault schedule is already installed".into(),
            ));
        }
        let s = Arc::clone(&schedule);
        io.pager
            .wrap_io(move |inner| Box::new(FaultIo::new(inner, FileKind::Data, s)));
        let s = Arc::clone(&schedule);
        io.wal
            .wrap_io(move |inner| Box::new(FaultIo::new(inner, FileKind::Wal, s)));
        io.fault = Some(schedule);
        Ok(())
    }

    /// Lazily install an inert shared schedule (used by `inject_crash` so
    /// legacy crash points ride the same mechanism).
    fn ensure_schedule(io: &mut IoState) -> SharedFaultSchedule {
        if let Some(s) = &io.fault {
            return Arc::clone(s);
        }
        let schedule = shared_schedule(FaultSchedule::inert());
        let s = Arc::clone(&schedule);
        io.pager
            .wrap_io(move |inner| Box::new(FaultIo::new(inner, FileKind::Data, s)));
        let s = Arc::clone(&schedule);
        io.wal
            .wrap_io(move |inner| Box::new(FaultIo::new(inner, FileKind::Wal, s)));
        io.fault = Some(Arc::clone(&schedule));
        schedule
    }

    /// Switch the pool into (or out of) read-only mode: mutation entry
    /// points fail with [`StorageError::ReadOnly`]. Used by the degraded
    /// open path.
    pub fn set_read_only(&self, read_only: bool) {
        self.io.lock().read_only = read_only;
    }

    /// Whether the pool is in read-only (degraded) mode.
    pub fn read_only(&self) -> bool {
        self.io.lock().read_only
    }

    /// Whether an earlier fsync failure poisoned the writer. Cleared only
    /// by reopening the database.
    pub fn is_poisoned(&self) -> bool {
        self.commit.poisoned().is_some()
    }

    /// Page ids currently quarantined (checksum failure, repair failed).
    pub fn quarantined_pages(&self) -> Vec<u64> {
        self.io.lock().quarantined.keys().copied().collect()
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Begin a transaction. The engine is single-writer: a second `begin`
    /// while one is open is an error, not a queue.
    pub fn begin_txn(&self) -> StorageResult<u64> {
        let mut io = self.io.lock();
        if io.txn.is_some() {
            return Err(StorageError::TransactionActive);
        }
        io.check_writable()?;
        let id = io.wal.next_txn_id();
        let header = (
            io.pager.page_count(),
            io.pager.catalog_root(),
            io.pager.user_meta(),
            io.pager.checkpoint_lsn(),
        );
        io.txn = Some(TxnState {
            id,
            dirty: BTreeSet::new(),
            undo: HashMap::new(),
            stolen: HashSet::new(),
            header,
        });
        Ok(id)
    }

    /// `true` while a transaction is open.
    pub fn in_txn(&self) -> bool {
        self.io.lock().txn.is_some()
    }

    /// Begin a transaction, waiting for the writer slot instead of failing
    /// with [`StorageError::TransactionActive`]. Concurrent committers use
    /// this: the slot frees as soon as the previous commit leaves the io
    /// latch — before its group fsync completes — so the next transaction
    /// prepares while the leader syncs (the commit pipeline).
    pub fn begin_txn_blocking(&self) -> StorageResult<u64> {
        loop {
            match self.begin_txn() {
                Err(StorageError::TransactionActive) => {
                    let guard = self.txn_slot.lock().unwrap_or_else(|e| e.into_inner());
                    // Bounded wait: a missed wakeup costs one short timeout.
                    let _ = self.txn_cv.wait_timeout(guard, Duration::from_millis(2));
                }
                other => return other,
            }
        }
    }

    /// Wake committers parked in [`BufferPool::begin_txn_blocking`].
    fn notify_txn_slot(&self) {
        drop(self.txn_slot.lock().unwrap_or_else(|e| e.into_inner()));
        self.txn_cv.notify_all();
    }

    /// Commit the open transaction: append the after-image of every dirtied
    /// page and a commit record to the log. With `sync` the call returns
    /// only once the commit record is durable — by leading a group fsync
    /// that covers every commit enqueued so far, or by following a
    /// concurrent leader's round ([`BufferPool::wait_durable`]). Without
    /// `sync` the commit is acknowledged at its commit LSN and the caller
    /// may make it durable later. On a log failure mid-commit the
    /// transaction is rolled back in memory and the error returned.
    ///
    /// The fsync happens *outside* the io latch, so the next committer
    /// (parked in [`BufferPool::begin_txn_blocking`]) starts preparing its
    /// transaction while this one waits for durability — that overlap is
    /// the group-commit pipeline.
    pub fn commit_txn(&self, sync: bool) -> StorageResult<Lsn> {
        let result = {
            let mut io = self.io.lock();
            self.commit_in_io(&mut io)
        };
        // The writer slot freed (the txn was taken on every path but
        // `NoActiveTransaction`, where there is nothing to free).
        self.notify_txn_slot();
        let lsn = result?;
        if sync {
            self.wait_durable(lsn)?;
        }
        Ok(lsn)
    }

    /// The io-latched half of a commit: log the after-images and the commit
    /// record (write-through or enqueued for the group leader), advance the
    /// committed view. Never fsyncs.
    fn commit_in_io(&self, io: &mut IoState) -> StorageResult<Lsn> {
        let txn = io.txn.take().ok_or(StorageError::NoActiveTransaction)?;
        if txn.dirty.is_empty() {
            // A read-only transaction changed nothing: no commit sequence
            // is published, so pinned readers keep sharing cached catalogs.
            debug_assert!(self.versions.read().values().all(|c| c.pending.is_none()));
            return Ok(io.wal.end_lsn());
        }
        if let Err(e) = io.check_writable() {
            // An fsync failed mid-transaction (eviction write-back):
            // durability is unknown, so the commit must not be
            // acknowledged. Restore pre-transaction memory instead.
            let _ = self.rollback_with(io, txn);
            return Err(e);
        }
        if !io.logging {
            // Unlogged but dirty: nothing to log, yet the committed view
            // still advances — publish the version transition so snapshot
            // readers observe the new state.
            self.publish_commit(io.pager.catalog_root());
            return Ok(io.wal.end_lsn());
        }
        match self.log_commit(io, &txn) {
            Ok(lsn) => {
                for pid in &txn.dirty {
                    if let Some(frame) = self.lookup_frame(*pid) {
                        frame.body.write().rec_lsn = lsn;
                    }
                }
                self.publish_commit(io.pager.catalog_root());
                Ok(lsn)
            }
            Err(e) => {
                // The commit never reached the log; restore memory so the
                // caller sees pre-transaction state.
                let _ = self.rollback_with(io, txn);
                Err(e)
            }
        }
    }

    /// Absolute LSN up to which the log is known durable.
    pub fn durable_lsn(&self) -> Lsn {
        self.commit.durable()
    }

    /// Block until the log is durable up to `lsn` (a commit LSN returned by
    /// [`BufferPool::commit_txn`]). The caller either becomes the
    /// group-commit leader — draining the commit queue and issuing ONE
    /// fsync that covers every member — or parks on the durable-LSN
    /// watermark while a concurrent leader's round covers it. A failed
    /// group fsync poisons the writer: the leader surfaces the I/O error,
    /// every follower of the failed round gets `WriterPoisoned` — never a
    /// partially durable group.
    pub fn wait_durable(&self, lsn: Lsn) -> StorageResult<()> {
        loop {
            if self.commit.durable() >= lsn {
                return Ok(());
            }
            if let Some(m) = self.commit.poisoned() {
                return Err(StorageError::WriterPoisoned(m));
            }
            match self.commit.try_lead_sync() {
                Ok(true) => self.commit.notify_all(),
                Ok(false) => self.commit.wait_for_progress(),
                Err(e) => {
                    // A failed fsync leaves the kernel's dirty state
                    // unknown — retrying it could silently succeed against
                    // already-dropped writes. Poison the writer instead;
                    // reads stay available.
                    self.commit.poison(&e.to_string());
                    self.commit.notify_all();
                    return Err(e);
                }
            }
        }
    }

    /// Roll back the open transaction: restore every captured before-image
    /// in memory and reset the header snapshot. Nothing is appended to the
    /// log (a transaction without a commit record is a loser by
    /// definition).
    pub fn rollback_txn(&self) -> StorageResult<()> {
        let result = {
            let mut io = self.io.lock();
            let txn = io.txn.take().ok_or(StorageError::NoActiveTransaction)?;
            self.rollback_with(&mut io, txn)
        };
        self.notify_txn_slot();
        result
    }

    // ------------------------------------------------------------------
    // MVCC: epoch pinning and version publication
    // ------------------------------------------------------------------

    /// Publish a commit's version transition (io latch held, inside a view
    /// change): graduate every pending before-image into its chain's
    /// committed history stamped `valid_through = commit_seq` (its epoch
    /// range ends at the pre-commit sequence), then garbage-collect
    /// **pin-aware**: a committed entry survives exactly while some
    /// registered epoch still resolves to it, so a pinned snapshot is
    /// never retired by ordinary writer progress, however many commits
    /// land while the pin is held — and a chain holds at most one entry
    /// per live pinned epoch. Only when more than
    /// [`BufferPool::VERSION_CHAIN_CAP`] *distinct* pinned epochs demand
    /// versions of one page does the hard cap win: the oldest entries are
    /// shed and the version floor rises past them, retiring the oldest
    /// pins (their readers re-pin via [`StorageError::SnapshotRetired`]).
    /// Finally the commit sequence advances and the new catalog root is
    /// recorded.
    fn publish_commit(&self, catalog_root: PageId) {
        let mut mvcc = self.mvcc.lock();
        let prev_seq = mvcc.commit_seq;
        let next_seq = prev_seq + 1;
        let min_pinned = mvcc.epochs.keys().next().copied();
        {
            let epochs = &mvcc.epochs;
            let mut versions = self.versions.write();
            let mut floor = self.version_floor.load(Ordering::Relaxed);
            // With no pin at all, nothing can read stored history (a fresh
            // pin lands at `next_seq`, which the live frames serve).
            floor = floor.max(min_pinned.unwrap_or(next_seq));
            versions.retain(|_, chain| {
                if let Some(image) = chain.pending.take() {
                    // Keep history only while somebody can still read it.
                    if min_pinned.is_some() {
                        chain.committed.push((prev_seq, image));
                    }
                }
                // An entry `(t, _)` serves epochs in `(prev_t, t]`; pins
                // are never created in the past, so an entry covering no
                // registered epoch can never be read again — drop it.
                let mut prev: Option<u64> = None;
                chain.committed.retain(|&(t, _)| {
                    let needed = match prev {
                        None => epochs.range(..=t).next().is_some(),
                        Some(p) => epochs.range(p + 1..=t).next().is_some(),
                    };
                    prev = Some(t);
                    needed
                });
                if chain.committed.len() > Self::VERSION_CHAIN_CAP {
                    // More than CAP distinct pinned epochs demand versions
                    // of this one page: the hard bound wins. Shedding the
                    // oldest entries makes their epochs unservable
                    // pool-wide; readers pinned there re-pin via
                    // `SnapshotRetired`.
                    let excess = chain.committed.len() - Self::VERSION_CHAIN_CAP;
                    floor = floor.max(chain.committed[excess - 1].0 + 1);
                    chain.committed.drain(..excess);
                }
                !chain.is_empty()
            });
            // Stored under the version-map write lock: a reader that
            // passes the floor check under the read lock is guaranteed its
            // entries stayed present for the whole lookup.
            self.version_floor.store(floor, Ordering::Relaxed);
        }
        mvcc.commit_seq = next_seq;
        mvcc.roots.insert(next_seq, catalog_root);
        // Trim the root map the same pin-aware way: keep the root each
        // registered epoch resolves to, plus the new current root.
        let mvcc = &mut *mvcc;
        let (epochs, roots) = (&mvcc.epochs, &mut mvcc.roots);
        let mut needed: std::collections::BTreeSet<u64> = epochs
            .keys()
            .filter_map(|&e| roots.range(..=e).next_back().map(|(&s, _)| s))
            .collect();
        needed.insert(next_seq);
        roots.retain(|s, _| needed.contains(s));
    }

    /// Pin the current commit sequence as a snapshot epoch. While the
    /// returned guard lives, every version needed to read *as of* that
    /// epoch survives GC — a pinned snapshot is only ever retired when
    /// more than [`BufferPool::VERSION_CHAIN_CAP`] distinct pinned epochs
    /// crowd one page's chain (see [`StorageError::SnapshotRetired`]).
    /// The sequence read and the registration happen under one lock — the
    /// same lock commit-time GC takes — so a pin never races a commit
    /// into pinning an epoch whose versions were just collected.
    pub fn pin_epoch(self: &Arc<Self>) -> EpochPin {
        let mut mvcc = self.mvcc.lock();
        let epoch = mvcc.commit_seq;
        *mvcc.epochs.entry(epoch).or_insert(0) += 1;
        EpochPin {
            pool: Arc::clone(self),
            epoch,
        }
    }

    /// Drop one pin on `epoch`. When the registry empties, all committed
    /// versions are cleared eagerly: no reader can need stored history any
    /// more, and a fresh pin lands on the current sequence, which the live
    /// frames serve.
    fn unpin_epoch(&self, epoch: u64) {
        let mut mvcc = self.mvcc.lock();
        match mvcc.epochs.get_mut(&epoch) {
            Some(count) if *count > 1 => *count -= 1,
            Some(_) => {
                mvcc.epochs.remove(&epoch);
            }
            None => debug_assert!(false, "unpinning an unregistered epoch"),
        }
        if mvcc.epochs.is_empty() {
            let commit_seq = mvcc.commit_seq;
            {
                let mut versions = self.versions.write();
                versions.retain(|_, chain| {
                    chain.committed.clear();
                    chain.pending.is_some()
                });
                self.version_floor.store(commit_seq, Ordering::Relaxed);
            }
            let keep_from = mvcc
                .roots
                .range(..=commit_seq)
                .next_back()
                .map(|(&s, _)| s)
                .unwrap_or(0);
            let tail = mvcc.roots.split_off(&keep_from);
            mvcc.roots = tail;
        }
    }

    /// Admission check for a versioned read. Callers hold the version-map
    /// lock, so a pass means the epoch's entries stay present for the
    /// whole lookup (the floor only rises under the write lock).
    fn check_epoch(&self, epoch: u64) -> StorageResult<()> {
        let floor = self.version_floor.load(Ordering::Relaxed);
        if epoch < floor {
            return Err(StorageError::SnapshotRetired { epoch, floor });
        }
        Ok(())
    }

    /// The commit sequence a new pin would get (the current epoch).
    pub fn current_epoch(&self) -> u64 {
        self.mvcc.lock().commit_seq
    }

    /// Oldest epoch versioned reads can still serve.
    pub fn version_floor(&self) -> u64 {
        self.version_floor.load(Ordering::Relaxed)
    }

    /// Number of pinned reader epochs (pin count, not distinct epochs).
    pub fn pinned_epochs(&self) -> usize {
        self.mvcc.lock().epochs.values().sum()
    }

    /// Number of pages holding any stored version state (pending or
    /// committed) — the stress harness's leak check: this returns to zero
    /// once readers drop and no transaction is open.
    pub fn version_pages(&self) -> usize {
        self.versions.read().len()
    }

    /// The catalog-root entry governing `epoch`: the `(commit sequence,
    /// root)` pair published by the largest `seq <= epoch` commit. The
    /// sequence doubles as a snapshot-metadata cache key — two epochs with
    /// the same governing sequence have no commit between them, so every
    /// page (hence any derived metadata) is identical.
    pub fn catalog_entry_at(&self, epoch: u64) -> StorageResult<(u64, PageId)> {
        let mvcc = self.mvcc.lock();
        let floor = self.version_floor.load(Ordering::Relaxed);
        if epoch < floor {
            return Err(StorageError::SnapshotRetired { epoch, floor });
        }
        Ok(mvcc
            .roots
            .range(..=epoch)
            .next_back()
            .map(|(&seq, &root)| (seq, root))
            .unwrap_or_else(|| {
                debug_assert!(false, "no governing catalog root for epoch {epoch}");
                (0, PageId(0))
            }))
    }

    /// Run `f` with read access to the page *as of* `epoch` (a sequence
    /// pinned via [`BufferPool::pin_epoch`]). A governing committed chain
    /// entry serves without touching the frame; otherwise the live frame
    /// is read with the chain re-checked under the frame latch — the same
    /// latch the writer publishes pending before-images under, so the read
    /// sees either the pre-mutation frame or the published image, never a
    /// torn mix.
    pub fn with_page_at<R>(
        &self,
        epoch: u64,
        pid: PageId,
        f: impl FnOnce(&Page) -> R,
    ) -> StorageResult<R> {
        {
            let versions = self.versions.read();
            self.check_epoch(epoch)?;
            if let Some(image) = versions.get(&pid).and_then(|c| c.governing(epoch)) {
                AtomicStats::bump(&self.stats.version_reads);
                return Ok(match image {
                    Some(page) => f(page),
                    None => f(&Page::new()),
                });
            }
        }
        let frame = self.load_frame(pid, false)?;
        let body = frame.body.read();
        let versions = self.versions.read();
        self.check_epoch(epoch)?;
        if let Some(chain) = versions.get(&pid) {
            if let Some(image) = chain.governing(epoch) {
                AtomicStats::bump(&self.stats.version_reads);
                return Ok(match image {
                    Some(page) => f(page),
                    None => f(&Page::new()),
                });
            }
            if let Some(pending) = &chain.pending {
                return Ok(match pending {
                    Some(image) => f(image),
                    None => f(&Page::new()),
                });
            }
        }
        Ok(f(&body.page))
    }

    /// Pin the content of `pid` *as of* `epoch` (see
    /// [`BufferPool::with_page_at`]). Chain and pending hits return a
    /// guard backed by the stored image alone — no frame to keep resident.
    pub fn pin_at(&self, epoch: u64, pid: PageId) -> StorageResult<PinnedPage> {
        {
            let versions = self.versions.read();
            self.check_epoch(epoch)?;
            if let Some(image) = versions.get(&pid).and_then(|c| c.governing(epoch)) {
                AtomicStats::bump(&self.stats.version_reads);
                let page = match image {
                    Some(page) => Arc::clone(page),
                    None => Arc::new(Page::new()),
                };
                return Ok(PinnedPage {
                    pid,
                    page,
                    frame: None,
                });
            }
        }
        let frame = self.load_frame(pid, true)?;
        // The frame latch is held across the chain check: dropping it
        // first would open a window for a rollback to restore the frame
        // and clear the pending image, after which the pre-restore clone
        // would be served as committed.
        let body = frame.body.read();
        let hit = {
            let versions = self.versions.read();
            self.check_epoch(epoch).map(|()| {
                versions.get(&pid).and_then(|chain| {
                    let governed = chain.governing(epoch);
                    if governed.is_some() {
                        AtomicStats::bump(&self.stats.version_reads);
                    }
                    governed
                        .or(chain.pending.as_ref())
                        .map(|image| match image {
                            Some(page) => Arc::clone(page),
                            None => Arc::new(Page::new()),
                        })
                })
            })
        };
        match hit {
            Err(e) => {
                drop(body);
                frame.pins.fetch_sub(1, Ordering::AcqRel);
                Err(e)
            }
            Ok(Some(page)) => {
                drop(body);
                // Drop the frame pin; the stored image is self-contained.
                frame.pins.fetch_sub(1, Ordering::AcqRel);
                Ok(PinnedPage {
                    pid,
                    page,
                    frame: None,
                })
            }
            Ok(None) => {
                let page = Arc::clone(&body.page);
                drop(body);
                Ok(PinnedPage {
                    pid,
                    page,
                    frame: Some(frame),
                })
            }
        }
    }

    // ------------------------------------------------------------------
    // Page access
    // ------------------------------------------------------------------

    /// Look a frame up in its shard without counting a hit or touching the
    /// reference bit (internal bookkeeping paths).
    fn lookup_frame(&self, pid: PageId) -> Option<Arc<Frame>> {
        let shard = self.shards[shard_of(pid)].lock();
        shard.map.get(&pid).map(|&i| Arc::clone(&shard.slots[i]))
    }

    /// Look a frame up in its shard, marking it referenced and optionally
    /// pinning it (the pin increment happens under the shard lock, so it
    /// cannot race with victim selection).
    fn lookup_accessed(&self, pid: PageId, pin: bool) -> Option<Arc<Frame>> {
        let shard = self.shards[shard_of(pid)].lock();
        shard.map.get(&pid).map(|&i| {
            let frame = &shard.slots[i];
            frame.referenced.store(true, Ordering::Relaxed);
            if pin {
                frame.pins.fetch_add(1, Ordering::AcqRel);
            }
            Arc::clone(frame)
        })
    }

    /// Ensure `pid` is resident, returning its frame. Fast path: shard
    /// lookup only. Miss path: serialize on the io latch, re-check (another
    /// reader may have installed it while we waited), then read from disk
    /// and install, evicting if at capacity.
    fn load_frame(&self, pid: PageId, pin: bool) -> StorageResult<Arc<Frame>> {
        if let Some(frame) = self.lookup_accessed(pid, pin) {
            AtomicStats::bump(&self.stats.hits);
            return Ok(frame);
        }
        let mut io = self.io.lock();
        self.load_frame_in_io(&mut io, pid, pin)
    }

    /// Miss path with the io latch already held (also used by the writer's
    /// mutation path, which holds io for the transaction bookkeeping).
    fn load_frame_in_io(
        &self,
        io: &mut IoState,
        pid: PageId,
        pin: bool,
    ) -> StorageResult<Arc<Frame>> {
        if let Some(frame) = self.lookup_accessed(pid, pin) {
            AtomicStats::bump(&self.stats.hits);
            return Ok(frame);
        }
        AtomicStats::bump(&self.stats.misses);
        if let Some(&(expected, found)) = io.quarantined.get(&pid.0) {
            return Err(StorageError::CorruptPage {
                page: pid.0,
                expected,
                found,
            });
        }
        let page = match io.pager.read_page(pid) {
            Ok(page) => page,
            Err(StorageError::CorruptPage {
                page,
                expected,
                found,
            }) => {
                AtomicStats::bump(&self.stats.corrupt_pages);
                match self.try_repair(io, pid) {
                    Some(repaired) => repaired,
                    None => {
                        io.quarantined.insert(page, (expected, found));
                        AtomicStats::bump(&self.stats.quarantined_pages);
                        return Err(StorageError::CorruptPage {
                            page,
                            expected,
                            found,
                        });
                    }
                }
            }
            Err(e) => return Err(e),
        };
        let frame = Frame::new(pid, Arc::new(page), false, if pin { 1 } else { 0 });
        self.install(io, Arc::clone(&frame))?;
        Ok(frame)
    }

    /// Attempt to repair a checksum-failed page from the WAL: the latest
    /// committed after-image in the (not yet truncated) log is authoritative
    /// for the page's content. Returns the repaired page after writing it
    /// back to the data file (which also refreshes the stored checksum).
    /// Refuses to repair a page the open transaction has dirtied: the WAL
    /// image predates the transaction's (possibly stolen) writes, and the
    /// in-memory undo images already hold the truth.
    fn try_repair(&self, io: &mut IoState, pid: PageId) -> Option<Page> {
        if let Some(txn) = &io.txn {
            if txn.dirty.contains(&pid) {
                return None;
            }
        }
        let image = io.wal.latest_committed_image(pid).ok()??;
        if image.len() != crate::page::PAGE_SIZE {
            return None;
        }
        let page = Page::from_bytes(image);
        // WAL-before-data applies to repair writes too: the commit record
        // covering this image may still be waiting on a group fsync.
        io.wal.sync().ok()?;
        io.pager.write_page(pid, &page).ok()?;
        AtomicStats::bump(&self.stats.repaired_pages);
        Some(page)
    }

    /// Allocate a fresh page (resident immediately, marked dirty).
    pub fn allocate_page(&self) -> StorageResult<PageId> {
        let mut io = self.io.lock();
        io.check_writable()?;
        // Secure capacity before advancing the pager's page counter, so a
        // pinned-full pool errors out without leaking a file page.
        self.reserve(&mut io)?;
        let pid = io.pager.allocate_page()?;
        let frame = Frame::new(pid, Arc::new(Page::new()), true, 0);
        self.shards[shard_of(pid)].lock().insert(frame);
        self.resident.fetch_add(1, Ordering::Relaxed);
        if let Some(txn) = &mut io.txn {
            txn.dirty.insert(pid);
            if let std::collections::hash_map::Entry::Vacant(slot) = txn.undo.entry(pid) {
                slot.insert(UndoEntry {
                    image: None,
                    prior_dirty: false,
                });
                // Pending before-image "the page does not exist": snapshot
                // and versioned readers at pre-commit epochs serve an
                // empty page. A reused id (rollback recycled it) never
                // carries committed entries — only committed pages get
                // history, and committed ids are never reallocated.
                self.versions.write().entry(pid).or_default().pending = Some(None);
            }
        }
        Ok(pid)
    }

    /// Run `f` with read access to the page (the *current* view: inside a
    /// transaction the writer sees its own uncommitted mutations).
    pub fn with_page<R>(&self, pid: PageId, f: impl FnOnce(&Page) -> R) -> StorageResult<R> {
        let frame = self.load_frame(pid, false)?;
        let body = frame.body.read();
        Ok(f(&body.page))
    }

    /// Run `f` with write access to the page; the page is marked dirty and,
    /// inside a transaction, its before-image is captured on first touch
    /// (for the undo log and the version chain's pending slot).
    pub fn with_page_mut<R>(
        &self,
        pid: PageId,
        f: impl FnOnce(&mut Page) -> R,
    ) -> StorageResult<R> {
        let mut io = self.io.lock();
        io.check_writable()?;
        let frame = self.load_frame_in_io(&mut io, pid, false)?;
        let mut body = frame.body.write();
        if let Some(txn) = &mut io.txn {
            txn.dirty.insert(pid);
            if let std::collections::hash_map::Entry::Vacant(slot) = txn.undo.entry(pid) {
                slot.insert(UndoEntry {
                    image: Some(Arc::clone(&body.page)),
                    prior_dirty: body.dirty,
                });
                // Publish the before-image for snapshot and versioned
                // readers *before* the mutation below (both happen under
                // the frame latch, so a reader holding the read latch sees
                // either none of this or all of it).
                self.versions.write().entry(pid).or_default().pending =
                    Some(Some(Arc::clone(&body.page)));
            }
        }
        body.dirty = true;
        // In-place unless a pinned reader or an undo snapshot still holds
        // the Arc (copy-on-write in that case).
        let end_lsn = io.wal.end_lsn();
        let page = Arc::make_mut(&mut body.page);
        page.set_lsn(end_lsn);
        Ok(f(page))
    }

    /// Pin a page: the returned guard keeps the frame resident and readable
    /// without holding any pool lock. Used by range scans to walk B+tree
    /// leaves without copying entries.
    pub fn pin(&self, pid: PageId) -> StorageResult<PinnedPage> {
        let frame = self.load_frame(pid, true)?;
        let page = Arc::clone(&frame.body.read().page);
        Ok(PinnedPage {
            pid,
            page,
            frame: Some(frame),
        })
    }

    /// Sequential-fill hint: clear the frame's reference bit so the clock
    /// hand may evict it on its first sweep instead of granting the usual
    /// second chance. Bulk loaders call this on pages they have packed and
    /// will never touch again — a load larger than the pool then streams
    /// through it without flushing the hot working set (spine, catalog).
    pub fn hint_cold(&self, pid: PageId) {
        let shard = self.shards[shard_of(pid)].lock();
        if let Some(&i) = shard.map.get(&pid) {
            shard.slots[i].referenced.store(false, Ordering::Relaxed);
        }
    }

    /// The catalog root recorded in the file header (current view: inside a
    /// transaction this is the writer's own, possibly uncommitted, value).
    pub fn catalog_root(&self) -> PageId {
        self.io.lock().pager.catalog_root()
    }

    /// Record the catalog root in the file header (persisted on commit and
    /// checkpoint).
    pub fn set_catalog_root(&self, pid: PageId) {
        self.io.lock().pager.set_catalog_root(pid);
    }

    /// Number of pages in the underlying file.
    pub fn page_count(&self) -> u64 {
        self.io.lock().pager.page_count()
    }

    /// Copy of the current statistics counters (buffer activity plus WAL
    /// activity).
    pub fn stats(&self) -> BufferStats {
        let mut stats = self.stats.snapshot();
        let io = self.io.lock();
        let wal = io.wal.stats();
        stats.wal_appends = wal.appends;
        stats.wal_bytes = wal.bytes;
        stats.wal_syncs = wal.syncs;
        stats.wal_page_images = wal.page_images;
        stats.commits = wal.commits;
        stats.group_commits = wal.group_rounds;
        stats.group_commit_members = wal.group_members;
        stats.fsyncs_saved = wal.group_members.saturating_sub(wal.group_rounds);
        stats.reader_retries = self.reader_retries.load(Ordering::Relaxed);
        stats
    }

    /// Reset statistics counters (useful between benchmark phases).
    pub fn reset_stats(&self) {
        self.stats.reset();
        self.reader_retries.store(0, Ordering::Relaxed);
        self.io.lock().wal.reset_stats();
    }

    /// Report a snapshot-read retry (a reader observed a view-generation
    /// change mid-operation, or gave up with `Busy`). Counted so the stress
    /// harness and the commit bench can assert background checkpoints do
    /// not spike reader retries.
    pub fn note_reader_retry(&self) {
        AtomicStats::bump(&self.reader_retries);
    }

    /// Checkpoint: fsync the log, write all dirty pages and the header to
    /// the data file, fsync it, then truncate the log. Fails while a
    /// transaction is open (commit or roll back first).
    pub fn flush(&self) -> StorageResult<()> {
        let mut io = self.io.lock();
        if io.txn.is_some() {
            return Err(StorageError::TransactionActive);
        }
        io.check_writable()?;
        self.checkpoint(&mut io)
    }

    /// Bytes of log not yet truncated by a checkpoint (the backlog the
    /// checkpoint policy's `wal_bytes` trigger watches).
    pub fn wal_backlog_bytes(&self) -> u64 {
        let io = self.io.lock();
        io.wal.end_lsn() - io.wal.start_lsn()
    }

    /// Start the background checkpoint thread. It wakes every 25 ms, and
    /// when `policy` says a checkpoint is due runs
    /// [`BufferPool::checkpoint_background`]. Returns a guard that stops
    /// and joins the thread on drop; the thread also exits by itself once
    /// the pool is dropped (it holds only a `Weak` reference).
    pub fn start_checkpointer(self: &Arc<Self>, policy: CheckpointPolicy) -> CheckpointerGuard {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let weak = Arc::downgrade(self);
        let handle = std::thread::Builder::new()
            .name("checkpointer".into())
            .spawn(move || {
                let mut last = Instant::now();
                while !stop_flag.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(25));
                    let Some(pool) = weak.upgrade() else { break };
                    if pool.commit.poisoned().is_some() {
                        continue;
                    }
                    let backlog = pool.wal_backlog_bytes();
                    let due_bytes = policy.wal_bytes.is_some_and(|limit| backlog >= limit);
                    let due_time =
                        policy.interval.is_some_and(|iv| last.elapsed() >= iv) && backlog > 0;
                    if !(due_bytes || due_time) {
                        continue;
                    }
                    // Errors are not fatal here: poisoning (the only
                    // unrecoverable case) is recorded in the shared slot and
                    // surfaces to every writer; anything else retries on the
                    // next due tick.
                    let _ = pool.checkpoint_background();
                    last = Instant::now();
                }
            })
            .expect("spawn checkpointer thread");
        CheckpointerGuard {
            stop,
            handle: Some(handle),
        }
    }

    /// One background checkpoint pass, built to coexist with concurrent
    /// committers and snapshot readers:
    ///
    /// 1. **Durability first** (no io latch): lead a group-commit round so
    ///    the whole log — every commit enqueued so far — is durable. This
    ///    is the WAL-before-data gate for everything written below.
    /// 2. **Incremental pre-flush**: walk the shards one at a time, each
    ///    under a short io-latch hold, writing committed dirty frames
    ///    (`rec_lsn <= durable`, not touched by the open transaction) to
    ///    the data file. Commits and readers interleave between shards.
    /// 3. **Truncate**: if no transaction is active, take the io latch once
    ///    more for a full [`checkpoint`](Self::flush) — now cheap, the
    ///    dirty set was pre-flushed. With a transaction open, return
    ///    `Ok(false)`; the next pass retries.
    pub fn checkpoint_background(&self) -> StorageResult<bool> {
        if let Some(m) = self.commit.poisoned() {
            return Err(StorageError::WriterPoisoned(m));
        }
        // Phase 1: group-durability without the io latch.
        if let Err(e) = self.commit.lead_sync_blocking() {
            self.commit.poison(&e.to_string());
            self.commit.notify_all();
            return Err(e);
        }
        self.commit.notify_all();
        let durable = self.commit.durable();
        // Phase 2: pre-flush committed dirty frames shard by shard.
        for shard in &self.shards {
            let mut io = self.io.lock();
            if io.read_only || io.sim_crashed() {
                return Ok(false);
            }
            io.check_writable()?;
            // Snapshot the shard under io (installs and evictions hold io,
            // so the set is stable while we write).
            let frames: Vec<Arc<Frame>> = shard.lock().slots.to_vec();
            for frame in frames {
                if io
                    .txn
                    .as_ref()
                    .is_some_and(|t| t.dirty.contains(&frame.pid))
                {
                    continue;
                }
                let mut body = frame.body.write();
                if !body.dirty || body.rec_lsn > durable {
                    continue;
                }
                io.pager.write_page(frame.pid, &body.page)?;
                body.dirty = false;
                AtomicStats::bump(&self.stats.flushes);
            }
        }
        // Phase 3: full checkpoint (header + data fsync + log truncation)
        // only at a transaction-free moment.
        let mut io = self.io.lock();
        if io.txn.is_some() {
            return Ok(false);
        }
        io.check_writable()?;
        self.checkpoint(&mut io)?;
        Ok(true)
    }

    /// Drop every unpinned resident page (dirty pages are flushed first).
    /// Used by benchmarks to measure cold-cache behaviour.
    pub fn clear_cache(&self) -> StorageResult<()> {
        self.flush()?;
        let _io = self.io.lock();
        for shard in &self.shards {
            let mut shard = shard.lock();
            let mut i = 0;
            while i < shard.slots.len() {
                if shard.slots[i].pins.load(Ordering::Acquire) == 0 {
                    shard.remove_slot(i);
                    self.resident.fetch_sub(1, Ordering::Relaxed);
                } else {
                    i += 1;
                }
            }
            shard.hand = 0;
        }
        Ok(())
    }

    /// Incremental media scrub: verify every page's checksum against the
    /// disk bytes, backfilling missing checksums, repairing failures (from a
    /// resident frame or the WAL) and quarantining what cannot be repaired.
    /// Works in chunks, releasing the io latch (and optionally sleeping)
    /// between chunks so concurrent readers and the writer are not starved.
    pub fn scrub(&self, opts: ScrubOptions) -> StorageResult<ScrubStats> {
        let chunk = opts.chunk_pages.max(1) as u64;
        let mut stats = ScrubStats::default();
        let mut next: u64 = 1;
        loop {
            {
                let mut io = self.io.lock();
                let count = io.pager.page_count();
                if next >= count {
                    break;
                }
                let end = (next + chunk).min(count);
                for pid_no in next..end {
                    self.scrub_page(&mut io, PageId(pid_no), &mut stats)?;
                }
                next = end;
            }
            if let Some(pause) = opts.throttle {
                std::thread::sleep(pause);
            }
        }
        Ok(stats)
    }

    /// Verify (and if needed repair) one page under the io latch.
    fn scrub_page(
        &self,
        io: &mut IoState,
        pid: PageId,
        stats: &mut ScrubStats,
    ) -> StorageResult<()> {
        stats.pages_scanned += 1;
        if io.quarantined.contains_key(&pid.0) {
            stats.pages_quarantined += 1;
            return Ok(());
        }
        match io.pager.verify_page(pid) {
            Ok(PageVerdict::Verified) => stats.pages_ok += 1,
            Ok(PageVerdict::Unverified) => {
                io.pager.backfill_checksum(pid)?;
                stats.pages_backfilled += 1;
            }
            Err(StorageError::CorruptPage {
                page,
                expected,
                found,
            }) => {
                AtomicStats::bump(&self.stats.corrupt_pages);
                if io.txn.as_ref().is_some_and(|t| t.dirty.contains(&pid)) {
                    // The open transaction's writes live in memory (and its
                    // undo images); commit or rollback will overwrite the
                    // bad sectors. Quarantining would fail those paths.
                    stats.pages_skipped_dirty += 1;
                    return Ok(());
                }
                if !io.read_only {
                    // Memory first: a resident frame holds the logically
                    // current content (possibly newer than any WAL image).
                    if let Some(frame) = self.lookup_frame(pid) {
                        let (page, rec_lsn) = {
                            let body = frame.body.read();
                            (Arc::clone(&body.page), body.rec_lsn)
                        };
                        if rec_lsn > io.wal.durable_lsn() {
                            // WAL-before-data still applies to repair
                            // writes.
                            if let Err(e) = io.wal.sync() {
                                io.poison(&e);
                                return Err(e);
                            }
                        }
                        io.pager.write_page(pid, &page)?;
                        frame.body.write().dirty = false;
                        AtomicStats::bump(&self.stats.repaired_pages);
                        stats.pages_repaired += 1;
                        return Ok(());
                    }
                    if self.try_repair(io, pid).is_some() {
                        stats.pages_repaired += 1;
                        return Ok(());
                    }
                }
                io.quarantined.insert(page, (expected, found));
                AtomicStats::bump(&self.stats.quarantined_pages);
                stats.pages_quarantined += 1;
            }
            Err(e) => return Err(e),
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Internals (all called with the io latch held)
    // ------------------------------------------------------------------

    /// Append the commit group for `txn`: one after-image per dirtied page
    /// (stolen pages are re-read from the data file — their latest content
    /// lives there) and a commit record carrying the header state. Never
    /// fsyncs — durability is the commit queue's business
    /// ([`BufferPool::wait_durable`]).
    fn log_commit(&self, io: &mut IoState, txn: &TxnState) -> StorageResult<Lsn> {
        for &pid in &txn.dirty {
            let image: Arc<Page> = match self.lookup_frame(pid) {
                Some(frame) => Arc::clone(&frame.body.read().page),
                None => Arc::new(io.pager.read_page(pid)?),
            };
            io.wal
                .append_image(WalRecordKind::PageImage, txn.id, pid, image.bytes())?;
        }
        io.wal.append_commit(
            txn.id,
            io.pager.page_count(),
            io.pager.catalog_root().0,
            io.pager.user_meta().0,
        )
    }

    /// Restore a transaction's before-images in memory and roll the header
    /// snapshot back. Works even after a simulated crash (no disk writes).
    /// Pinned readers either still see the pending before-images or the
    /// already-restored frames — both are the same committed bytes.
    fn rollback_with(&self, io: &mut IoState, txn: TxnState) -> StorageResult<()> {
        let mut deferred_installs: Vec<Arc<Frame>> = Vec::new();
        for (pid, undo) in &txn.undo {
            let stolen = txn.stolen.contains(pid);
            match &undo.image {
                Some(image) => {
                    if let Some(frame) = self.lookup_frame(*pid) {
                        let mut body = frame.body.write();
                        body.page = Arc::clone(image);
                        // Stolen pages left uncommitted content on disk; the
                        // restored image must eventually be written back.
                        body.dirty = undo.prior_dirty || stolen;
                        body.rec_lsn = 0;
                    } else if stolen {
                        // Evicted after the steal: the disk copy is
                        // uncommitted garbage; reinstall the before-image as
                        // a dirty frame.
                        deferred_installs.push(Frame::new(*pid, Arc::clone(image), true, 0));
                    }
                }
                None => {
                    // Allocated inside the transaction: forget the frame.
                    let mut shard = self.shards[shard_of(*pid)].lock();
                    if let Some(&idx) = shard.map.get(pid) {
                        debug_assert_eq!(
                            shard.slots[idx].pins.load(Ordering::Relaxed),
                            0,
                            "rolling back a pinned allocation"
                        );
                        shard.remove_slot(idx);
                        self.resident.fetch_sub(1, Ordering::Relaxed);
                    }
                }
            }
        }
        // Install outside the undo iteration so evictions triggered by
        // capacity pressure see consistent state.
        let mut result = Ok(());
        for frame in deferred_installs {
            if let Err(e) = self.install(io, frame) {
                result = Err(e);
            }
        }
        io.pager
            .restore_header(txn.header.0, txn.header.1, txn.header.2, txn.header.3);
        // Drop the pending before-images (the frames above now hold the
        // same bytes); committed history stays — pinned readers still need
        // it, and the rolled-back transaction never touched it.
        self.versions.write().retain(|_, chain| {
            chain.pending = None;
            !chain.committed.is_empty()
        });
        result
    }

    /// Write every dirty page and the header to the data file, fsync, then
    /// truncate the log.
    fn checkpoint(&self, io: &mut IoState) -> StorageResult<()> {
        if io.sim_crashed() {
            return Err(StorageError::Io(fatal_crash_error()));
        }
        if let Err(e) = io.wal.sync() {
            io.poison(&e);
            return Err(e);
        }
        for shard in &self.shards {
            let frames: Vec<Arc<Frame>> = shard.lock().slots.to_vec();
            for frame in frames {
                let mut body = frame.body.write();
                if !body.dirty {
                    continue;
                }
                io.pager.write_page(frame.pid, &body.page)?;
                body.dirty = false;
                AtomicStats::bump(&self.stats.flushes);
            }
        }
        let end = io.wal.end_lsn();
        io.pager.set_checkpoint_lsn(end);
        if let Err(e) = io.pager.sync() {
            io.poison(&e);
            return Err(e);
        }
        // Truncate even when logging is currently disabled: a stale log
        // from an earlier logged phase must never replay over the newer
        // checkpointed data.
        io.wal.reset()?;
        Ok(())
    }

    /// Ensure a free capacity slot exists (evicting while at capacity).
    fn reserve(&self, io: &mut IoState) -> StorageResult<()> {
        while self.resident.load(Ordering::Relaxed) >= self.capacity {
            self.evict_one(io)?;
        }
        Ok(())
    }

    /// Place a frame into its shard, evicting if at capacity.
    fn install(&self, io: &mut IoState, frame: Arc<Frame>) -> StorageResult<()> {
        self.reserve(io)?;
        self.shards[shard_of(frame.pid)].lock().insert(frame);
        self.resident.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Clock sweep: walk the shards round-robin clearing reference bits
    /// until an unpinned, unreferenced frame comes up; write it back (when
    /// dirty, WAL-first) and forget it. Two full sweeps without a victim
    /// means every frame is pinned — a caller bug surfaced as an error
    /// rather than unbounded growth.
    fn evict_one(&self, io: &mut IoState) -> StorageResult<()> {
        let total = self.resident.load(Ordering::Relaxed);
        let budget = 2 * total + SHARD_COUNT;
        let mut steps = 0usize;
        while steps < budget {
            let si = io.sweep_shard % SHARD_COUNT;
            io.sweep_shard = io.sweep_shard.wrapping_add(1);
            let victim = {
                let mut shard = self.shards[si].lock();
                let n = shard.slots.len();
                if n == 0 {
                    steps += 1;
                    None
                } else {
                    let mut found = None;
                    for _ in 0..n {
                        let i = shard.hand % shard.slots.len();
                        shard.hand = (shard.hand + 1) % shard.slots.len();
                        steps += 1;
                        let frame = &shard.slots[i];
                        if frame.pins.load(Ordering::Acquire) > 0 {
                            continue;
                        }
                        if frame.referenced.swap(false, Ordering::Relaxed) {
                            continue;
                        }
                        found = Some(i);
                        break;
                    }
                    found.map(|i| shard.remove_slot(i))
                }
            };
            if let Some(frame) = victim {
                self.resident.fetch_sub(1, Ordering::Relaxed);
                if let Err(e) = self.write_back_evicted(io, &frame) {
                    // Keep the frame (and its dirty content) resident so an
                    // injected-crash test still sees consistent memory.
                    self.shards[shard_of(frame.pid)].lock().insert(frame);
                    self.resident.fetch_add(1, Ordering::Relaxed);
                    return Err(e);
                }
                AtomicStats::bump(&self.stats.evictions);
                return Ok(());
            }
        }
        Err(StorageError::PoolExhausted(self.capacity))
    }

    /// Write back a just-evicted frame (WAL-before-data, stealing the
    /// before-image of an uncommitted page first).
    fn write_back_evicted(&self, io: &mut IoState, frame: &Arc<Frame>) -> StorageResult<()> {
        let pid = frame.pid;
        let body = frame.body.read();
        if !body.dirty || pid.is_null() {
            return Ok(());
        }
        // Steal: an uncommitted dirty page is about to reach the data
        // file. Record the steal whether or not logging is on — runtime
        // rollback needs it to know the disk copy must be overwritten —
        // and, when logging, make the before-image durable first so
        // crash recovery can undo it too.
        let mut must_sync = false;
        let logging = io.logging;
        if let Some(txn) = &mut io.txn {
            if txn.dirty.contains(&pid) && !txn.stolen.contains(&pid) {
                if logging {
                    // A page *allocated inside* this transaction needs no
                    // undo record: its before-state is nonexistence. If the
                    // transaction loses, the page lies beyond the committed
                    // page count and recovery skips it — so a bulk load that
                    // overflows the pool streams fresh pages to disk with no
                    // log traffic and no per-eviction fsync.
                    if let Some(UndoEntry {
                        image: Some(img), ..
                    }) = txn.undo.get(&pid)
                    {
                        let before = Arc::clone(img);
                        io.wal
                            .append_image(WalRecordKind::Undo, txn.id, pid, before.bytes())?;
                        must_sync = true;
                    }
                }
                txn.stolen.insert(pid);
            }
        }
        if logging {
            // WAL-before-data: the log must cover this page's latest
            // commit record before its content reaches the data file.
            if must_sync || body.rec_lsn > io.wal.durable_lsn() {
                if let Err(e) = io.wal.sync() {
                    io.poison(&e);
                    return Err(e);
                }
            }
        }
        io.pager.write_page(pid, &body.page)?;
        AtomicStats::bump(&self.stats.writebacks);
        Ok(())
    }
}

impl Drop for BufferPool {
    /// Clean-close durability: an asynchronously acknowledged commit may
    /// still sit in the WAL's pending frame queue — drain it and fsync
    /// once, so a clean close never loses an acknowledged commit. Skipped
    /// when the writer is poisoned (a failed fsync is never retried, per
    /// the poisoning rule), in read-only mode, after a simulated crash
    /// (crash tests rely on drop-without-flush), or with a transaction
    /// still open (an uncommitted loser must not reach the disk ordering
    /// a commit implies). A failure here is ignored: recovery replays the
    /// log, and retrying the fsync could silently succeed against
    /// already-dropped kernel pages.
    fn drop(&mut self) {
        if self.commit.poisoned().is_some() {
            return;
        }
        let io = self.io.get_mut();
        if io.read_only || io.txn.is_some() || io.sim_crashed() || !io.logging {
            return;
        }
        let _ = io.wal.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempfile::tempdir;

    fn pool(capacity: usize) -> (tempfile::TempDir, BufferPool) {
        let dir = tempdir().unwrap();
        let pager = Pager::create(dir.path().join("t.crdb")).unwrap();
        (dir, BufferPool::with_capacity(pager, capacity).unwrap())
    }

    #[test]
    fn write_then_read_through_cache() {
        let (_dir, pool) = pool(16);
        let pid = pool.allocate_page().unwrap();
        pool.with_page_mut(pid, |p| p.write_u64(0, 99)).unwrap();
        let v = pool.with_page(pid, |p| p.read_u64(0)).unwrap();
        assert_eq!(v, 99);
        let stats = pool.stats();
        assert!(stats.hits >= 1);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let (_dir, pool) = pool(8);
        let mut pids = Vec::new();
        for i in 0..32u64 {
            let pid = pool.allocate_page().unwrap();
            pool.with_page_mut(pid, |p| p.write_u64(0, i)).unwrap();
            pids.push(pid);
        }
        // With capacity 8, earlier pages were evicted; reading them again must
        // still return the written values (they were flushed on eviction).
        for (i, pid) in pids.iter().enumerate() {
            let v = pool.with_page(*pid, |p| p.read_u64(0)).unwrap();
            assert_eq!(v, i as u64);
        }
        assert!(pool.stats().evictions > 0);
        assert!(pool.stats().writebacks > 0);
        assert!(pool.stats().misses > 0);
    }

    #[test]
    fn capacity_is_respected() {
        let (_dir, pool) = pool(8);
        for _ in 0..100 {
            let pid = pool.allocate_page().unwrap();
            pool.with_page_mut(pid, |p| p.write_u64(0, 1)).unwrap();
            assert!(
                pool.resident_pages() <= 8,
                "pool exceeded its frame capacity"
            );
        }
        assert_eq!(pool.resident_pages(), 8);
        assert!(pool.stats().evictions >= 92);
    }

    #[test]
    fn pinned_frames_are_never_evicted() {
        let (_dir, pool) = pool(8);
        let first = pool.allocate_page().unwrap();
        pool.with_page_mut(first, |p| p.write_u64(0, 42)).unwrap();
        let pin = pool.pin(first).unwrap();
        assert_eq!(pin.read_u64(0), 42);
        // Push far more pages than capacity through the pool; the pinned
        // frame must survive every sweep.
        for i in 0..64u64 {
            let pid = pool.allocate_page().unwrap();
            pool.with_page_mut(pid, |p| p.write_u64(0, i)).unwrap();
        }
        assert!(pool.resident_pages() <= 8);
        assert_eq!(pool.pinned_frames(), 1);
        // The pinned guard still reads its snapshot without a pool access.
        assert_eq!(pin.read_u64(0), 42);
        drop(pin);
        assert_eq!(pool.pinned_frames(), 0);
        // Now the frame can be evicted like any other.
        for i in 0..32u64 {
            let pid = pool.allocate_page().unwrap();
            pool.with_page_mut(pid, |p| p.write_u64(0, i)).unwrap();
        }
        assert!(pool.resident_pages() <= 8);
    }

    #[test]
    fn all_pinned_pool_reports_exhaustion() {
        let (_dir, pool) = pool(8);
        let mut pins = Vec::new();
        for _ in 0..8 {
            let pid = pool.allocate_page().unwrap();
            pins.push(pool.pin(pid).unwrap());
        }
        // Ninth page cannot be installed anywhere — and the failed attempt
        // must not advance the file's page counter (no leaked pages).
        let before = pool.page_count();
        let err = pool.allocate_page();
        assert!(matches!(err, Err(StorageError::PoolExhausted(_))));
        assert_eq!(
            pool.page_count(),
            before,
            "failed allocation leaked a file page"
        );
        drop(pins);
        assert!(pool.allocate_page().is_ok());
    }

    #[test]
    fn pinned_snapshot_survives_concurrent_write() {
        let (_dir, pool) = pool(8);
        let pid = pool.allocate_page().unwrap();
        pool.with_page_mut(pid, |p| p.write_u64(0, 1)).unwrap();
        let pin = pool.pin(pid).unwrap();
        // Copy-on-write: the mutation goes to a fresh Arc, the pin keeps its
        // snapshot.
        pool.with_page_mut(pid, |p| p.write_u64(0, 2)).unwrap();
        assert_eq!(pin.read_u64(0), 1);
        drop(pin);
        assert_eq!(pool.with_page(pid, |p| p.read_u64(0)).unwrap(), 2);
    }

    #[test]
    fn flush_persists_across_reopen() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.crdb");
        let pid;
        {
            let pager = Pager::create(&path).unwrap();
            let pool = BufferPool::new(pager).unwrap();
            pid = pool.allocate_page().unwrap();
            pool.with_page_mut(pid, |p| p.write_bytes(0, b"persist me"))
                .unwrap();
            pool.set_catalog_root(pid);
            pool.flush().unwrap();
        }
        let pager = Pager::open(&path).unwrap();
        let pool = BufferPool::new(pager).unwrap();
        assert_eq!(pool.catalog_root(), pid);
        let bytes = pool
            .with_page(pid, |p| p.read_bytes(0, 10).to_vec())
            .unwrap();
        assert_eq!(&bytes, b"persist me");
    }

    #[test]
    fn clear_cache_forces_misses() {
        let (_dir, pool) = pool(16);
        let pid = pool.allocate_page().unwrap();
        pool.with_page_mut(pid, |p| p.write_u64(0, 5)).unwrap();
        pool.clear_cache().unwrap();
        pool.reset_stats();
        let _ = pool.with_page(pid, |p| p.read_u64(0)).unwrap();
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(pool.stats().hits, 0);
    }

    #[test]
    fn hit_ratio_computation() {
        let s = BufferStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(s.page_reads(), 4);
        assert_eq!(BufferStats::default().hit_ratio(), 0.0);
    }

    // ------------------------------------------------------------------
    // Transaction semantics
    // ------------------------------------------------------------------

    #[test]
    fn committed_txn_survives_crash_without_checkpoint() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.crdb");
        let pid;
        {
            let pager = Pager::create(&path).unwrap();
            let pool = BufferPool::with_capacity(pager, 16).unwrap();
            pool.begin_txn().unwrap();
            pid = pool.allocate_page().unwrap();
            pool.with_page_mut(pid, |p| p.write_u64(0, 4242)).unwrap();
            pool.commit_txn(true).unwrap();
            // Crash: no flush — the dirty page dies with the pool.
        }
        let pager = Pager::open(&path).unwrap();
        let pool = BufferPool::with_capacity(pager, 16).unwrap();
        let report = pool.recovery_report().expect("reopen must report recovery");
        assert_eq!(report.committed_txns, 1);
        assert!(report.pages_redone >= 1);
        assert_eq!(pool.with_page(pid, |p| p.read_u64(0)).unwrap(), 4242);
    }

    #[test]
    fn uncommitted_txn_vanishes_on_crash() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.crdb");
        let committed;
        {
            let pager = Pager::create(&path).unwrap();
            let pool = BufferPool::with_capacity(pager, 16).unwrap();
            pool.begin_txn().unwrap();
            committed = pool.allocate_page().unwrap();
            pool.with_page_mut(committed, |p| p.write_u64(0, 1))
                .unwrap();
            pool.commit_txn(true).unwrap();
            // Second transaction never commits.
            pool.begin_txn().unwrap();
            pool.with_page_mut(committed, |p| p.write_u64(0, 999))
                .unwrap();
            let extra = pool.allocate_page().unwrap();
            pool.with_page_mut(extra, |p| p.write_u64(0, 7)).unwrap();
        }
        let pager = Pager::open(&path).unwrap();
        let pool = BufferPool::with_capacity(pager, 16).unwrap();
        assert_eq!(pool.with_page(committed, |p| p.read_u64(0)).unwrap(), 1);
        // The loser's allocation never made it into the page count.
        assert_eq!(pool.page_count(), committed.0 + 1);
    }

    #[test]
    fn rollback_restores_pages_and_header() {
        let (_dir, pool) = pool(16);
        pool.begin_txn().unwrap();
        let base = pool.allocate_page().unwrap();
        pool.with_page_mut(base, |p| p.write_u64(0, 10)).unwrap();
        pool.commit_txn(false).unwrap();
        let count_before = pool.page_count();

        pool.begin_txn().unwrap();
        pool.with_page_mut(base, |p| p.write_u64(0, 20)).unwrap();
        let fresh = pool.allocate_page().unwrap();
        pool.with_page_mut(fresh, |p| p.write_u64(0, 30)).unwrap();
        pool.set_catalog_root(fresh);
        pool.rollback_txn().unwrap();

        assert_eq!(pool.with_page(base, |p| p.read_u64(0)).unwrap(), 10);
        assert_eq!(
            pool.page_count(),
            count_before,
            "rollback must undo allocations"
        );
        assert!(
            pool.catalog_root().is_null(),
            "rollback must restore the header"
        );
    }

    #[test]
    fn steal_then_commit_persists() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.crdb");
        let mut pids = Vec::new();
        {
            let pager = Pager::create(&path).unwrap();
            // Tiny pool: the transaction dirties far more pages than fit, so
            // most get stolen (written before commit).
            let pool = BufferPool::with_capacity(pager, 8).unwrap();
            pool.begin_txn().unwrap();
            for i in 0..64u64 {
                let pid = pool.allocate_page().unwrap();
                pool.with_page_mut(pid, |p| p.write_u64(0, i * 3)).unwrap();
                pids.push(pid);
            }
            pool.commit_txn(true).unwrap();
        }
        let pager = Pager::open(&path).unwrap();
        let pool = BufferPool::with_capacity(pager, 8).unwrap();
        for (i, pid) in pids.iter().enumerate() {
            assert_eq!(
                pool.with_page(*pid, |p| p.read_u64(0)).unwrap(),
                i as u64 * 3
            );
        }
    }

    #[test]
    fn steal_then_crash_rolls_back() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.crdb");
        let base;
        {
            let pager = Pager::create(&path).unwrap();
            let pool = BufferPool::with_capacity(pager, 8).unwrap();
            pool.begin_txn().unwrap();
            base = pool.allocate_page().unwrap();
            pool.with_page_mut(base, |p| p.write_u64(0, 123)).unwrap();
            pool.commit_txn(true).unwrap();
            pool.flush().unwrap();
            // Loser transaction overwrites the committed page AND dirties
            // enough pages to force the overwrite onto disk (steal).
            pool.begin_txn().unwrap();
            pool.with_page_mut(base, |p| p.write_u64(0, 666)).unwrap();
            for i in 0..32u64 {
                let pid = pool.allocate_page().unwrap();
                pool.with_page_mut(pid, |p| p.write_u64(0, i)).unwrap();
            }
            assert!(pool.stats().writebacks > 0, "steal must have happened");
            // Crash without commit.
        }
        // The data file now contains uncommitted content; recovery must undo
        // it from the logged before-image.
        let pager = Pager::open(&path).unwrap();
        let pool = BufferPool::with_capacity(pager, 8).unwrap();
        let report = pool.recovery_report().unwrap();
        assert!(report.loser_txns >= 1);
        assert!(report.pages_undone >= 1);
        assert_eq!(pool.with_page(base, |p| p.read_u64(0)).unwrap(), 123);
    }

    #[test]
    fn runtime_rollback_after_steal_restores_memory() {
        let (_dir, pool) = pool(8);
        pool.begin_txn().unwrap();
        let base = pool.allocate_page().unwrap();
        pool.with_page_mut(base, |p| p.write_u64(0, 5)).unwrap();
        pool.commit_txn(false).unwrap();
        pool.begin_txn().unwrap();
        pool.with_page_mut(base, |p| p.write_u64(0, 50)).unwrap();
        // Force the modified page out of the pool (steal).
        for _ in 0..32 {
            let pid = pool.allocate_page().unwrap();
            pool.with_page_mut(pid, |p| p.write_u64(0, 1)).unwrap();
        }
        pool.rollback_txn().unwrap();
        assert_eq!(pool.with_page(base, |p| p.read_u64(0)).unwrap(), 5);
        // And the restored content reaches disk at the next checkpoint.
        pool.flush().unwrap();
        assert_eq!(pool.with_page(base, |p| p.read_u64(0)).unwrap(), 5);
    }

    #[test]
    fn double_begin_and_stray_commit_error() {
        let (_dir, pool) = pool(8);
        pool.begin_txn().unwrap();
        assert!(matches!(
            pool.begin_txn(),
            Err(StorageError::TransactionActive)
        ));
        pool.commit_txn(false).unwrap();
        assert!(matches!(
            pool.commit_txn(false),
            Err(StorageError::NoActiveTransaction)
        ));
        assert!(matches!(
            pool.rollback_txn(),
            Err(StorageError::NoActiveTransaction)
        ));
    }

    #[test]
    fn flush_during_txn_is_rejected() {
        let (_dir, pool) = pool(8);
        pool.begin_txn().unwrap();
        assert!(matches!(pool.flush(), Err(StorageError::TransactionActive)));
        pool.rollback_txn().unwrap();
        pool.flush().unwrap();
    }

    #[test]
    fn checkpoint_truncates_the_log() {
        let (_dir, pool) = pool(16);
        pool.begin_txn().unwrap();
        let pid = pool.allocate_page().unwrap();
        pool.with_page_mut(pid, |p| p.write_u64(0, 9)).unwrap();
        pool.commit_txn(true).unwrap();
        assert!(pool.stats().wal_bytes > 0);
        pool.flush().unwrap();
        pool.reset_stats();
        // A fresh commit after the checkpoint starts a new log generation.
        pool.begin_txn().unwrap();
        pool.with_page_mut(pid, |p| p.write_u64(0, 10)).unwrap();
        pool.commit_txn(true).unwrap();
        let stats = pool.stats();
        assert!(stats.wal_appends >= 2); // image + commit
        assert_eq!(stats.commits, 1);
    }

    #[test]
    fn mutation_stamps_the_page_rec_lsn() {
        let (_dir, pool) = pool(16);
        pool.begin_txn().unwrap();
        let pid = pool.allocate_page().unwrap();
        assert_eq!(
            pool.with_page(pid, |p| p.lsn()).unwrap(),
            0,
            "fresh page: no mutation yet"
        );
        pool.with_page_mut(pid, |p| p.write_u64(0, 1)).unwrap();
        let lsn0 = pool.with_page(pid, |p| p.lsn()).unwrap();
        assert!(lsn0 > 0, "mutation must stamp a recovery LSN");
        pool.commit_txn(true).unwrap();
        // The next mutation happens at a later log-tail position.
        pool.begin_txn().unwrap();
        pool.with_page_mut(pid, |p| p.write_u64(0, 2)).unwrap();
        let lsn1 = pool.with_page(pid, |p| p.lsn()).unwrap();
        assert!(lsn1 > lsn0, "recLSNs are monotone: {lsn1} vs {lsn0}");
        pool.commit_txn(true).unwrap();
    }

    #[test]
    fn unlogged_rollback_restores_stolen_pages() {
        let (_dir, pool) = pool(8);
        pool.set_logging(false).unwrap();
        pool.begin_txn().unwrap();
        let base = pool.allocate_page().unwrap();
        pool.with_page_mut(base, |p| p.write_u64(0, 5)).unwrap();
        pool.commit_txn(false).unwrap();
        pool.begin_txn().unwrap();
        pool.with_page_mut(base, |p| p.write_u64(0, 500)).unwrap();
        // Push the uncommitted page out of the pool (unlogged steal).
        for _ in 0..32 {
            let pid = pool.allocate_page().unwrap();
            pool.with_page_mut(pid, |p| p.write_u64(0, 1)).unwrap();
        }
        assert!(pool.stats().writebacks > 0);
        pool.rollback_txn().unwrap();
        assert_eq!(
            pool.with_page(base, |p| p.read_u64(0)).unwrap(),
            5,
            "rollback must restore a page stolen in unlogged mode"
        );
        pool.set_logging(true).unwrap();
    }

    #[test]
    fn checkpoint_truncates_a_stale_log_in_unlogged_mode() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.crdb");
        let pid;
        {
            let pager = Pager::create(&path).unwrap();
            let pool = BufferPool::with_capacity(pager, 16).unwrap();
            // Logged commit leaves an after-image of value 1 in the WAL.
            pool.begin_txn().unwrap();
            pid = pool.allocate_page().unwrap();
            pool.with_page_mut(pid, |p| p.write_u64(0, 1)).unwrap();
            pool.commit_txn(true).unwrap();
            // Unlogged phase overwrites it and checkpoints; the stale log
            // must be truncated so it can never replay over value 2.
            pool.set_logging(false).unwrap();
            pool.begin_txn().unwrap();
            pool.with_page_mut(pid, |p| p.write_u64(0, 2)).unwrap();
            pool.commit_txn(false).unwrap();
            pool.flush().unwrap();
        }
        let pager = Pager::open(&path).unwrap();
        let pool = BufferPool::with_capacity(pager, 16).unwrap();
        assert!(!pool.recovery_report().unwrap().did_work());
        assert_eq!(pool.with_page(pid, |p| p.read_u64(0)).unwrap(), 2);
    }

    #[test]
    fn unlogged_mode_skips_the_wal() {
        let (_dir, pool) = pool(16);
        pool.set_logging(false).unwrap();
        pool.begin_txn().unwrap();
        let pid = pool.allocate_page().unwrap();
        pool.with_page_mut(pid, |p| p.write_u64(0, 1)).unwrap();
        pool.commit_txn(true).unwrap();
        assert_eq!(pool.stats().wal_appends, 0);
        // Rollback still works in memory without the log.
        pool.begin_txn().unwrap();
        pool.with_page_mut(pid, |p| p.write_u64(0, 2)).unwrap();
        pool.rollback_txn().unwrap();
        assert_eq!(pool.with_page(pid, |p| p.read_u64(0)).unwrap(), 1);
        pool.set_logging(true).unwrap();
    }

    #[test]
    fn injected_wal_crash_fails_commit_and_rolls_back() {
        let (_dir, pool) = pool(16);
        pool.begin_txn().unwrap();
        let pid = pool.allocate_page().unwrap();
        pool.with_page_mut(pid, |p| p.write_u64(0, 77)).unwrap();
        pool.commit_txn(true).unwrap();
        pool.begin_txn().unwrap();
        pool.with_page_mut(pid, |p| p.write_u64(0, 88)).unwrap();
        pool.inject_crash(CrashPoint::WalAppend(0));
        assert!(pool.commit_txn(true).is_err());
        // The failed commit rolled back in memory.
        assert_eq!(pool.with_page(pid, |p| p.read_u64(0)).unwrap(), 77);
        // The pool is dead for writes from here on.
        assert!(pool.flush().is_err());
    }

    // ------------------------------------------------------------------
    // Snapshot reads
    // ------------------------------------------------------------------

    #[test]
    fn snapshot_read_hides_in_flight_transaction() {
        let (_dir, pool) = pool(16);
        let pool = Arc::new(pool);
        pool.begin_txn().unwrap();
        let pid = pool.allocate_page().unwrap();
        pool.with_page_mut(pid, |p| p.write_u64(0, 1)).unwrap();
        pool.commit_txn(false).unwrap();

        pool.begin_txn().unwrap();
        pool.with_page_mut(pid, |p| p.write_u64(0, 999)).unwrap();
        // The writer sees its own mutation; a pinned epoch sees the last
        // committed value.
        assert_eq!(pool.with_page(pid, |p| p.read_u64(0)).unwrap(), 999);
        let pin = pool.pin_epoch();
        assert_eq!(
            pool.with_page_at(pin.epoch(), pid, |p| p.read_u64(0))
                .unwrap(),
            1
        );
        pool.commit_txn(false).unwrap();
        assert!(pool.current_epoch() > pin.epoch(), "commit publishes");
        // The old pin stays frozen; a fresh one sees the commit.
        assert_eq!(
            pool.with_page_at(pin.epoch(), pid, |p| p.read_u64(0))
                .unwrap(),
            1
        );
        let fresh = pool.pin_epoch();
        assert_eq!(
            pool.with_page_at(fresh.epoch(), pid, |p| p.read_u64(0))
                .unwrap(),
            999
        );
    }

    #[test]
    fn snapshot_read_hides_stolen_uncommitted_pages() {
        let (_dir, pool) = pool(8);
        let pool = Arc::new(pool);
        pool.begin_txn().unwrap();
        let base = pool.allocate_page().unwrap();
        pool.with_page_mut(base, |p| p.write_u64(0, 7)).unwrap();
        pool.commit_txn(false).unwrap();
        pool.begin_txn().unwrap();
        pool.with_page_mut(base, |p| p.write_u64(0, 700)).unwrap();
        // Evict the uncommitted page to disk (steal).
        for _ in 0..32 {
            let pid = pool.allocate_page().unwrap();
            pool.with_page_mut(pid, |p| p.write_u64(0, 1)).unwrap();
        }
        assert!(pool.stats().writebacks > 0, "steal must have happened");
        // Even though the disk copy holds 700, a pinned read serves the
        // pending before-image.
        let pin = pool.pin_epoch();
        assert_eq!(
            pool.with_page_at(pin.epoch(), base, |p| p.read_u64(0))
                .unwrap(),
            7
        );
        let page = pool.pin_at(pin.epoch(), base).unwrap();
        assert_eq!(page.read_u64(0), 7);
        drop(page);
        pool.rollback_txn().unwrap();
        assert_eq!(pool.with_page(base, |p| p.read_u64(0)).unwrap(), 7);
        let fresh = pool.pin_epoch();
        assert_eq!(
            pool.with_page_at(fresh.epoch(), base, |p| p.read_u64(0))
                .unwrap(),
            7
        );
    }

    #[test]
    fn snapshot_pin_serves_before_image() {
        let (_dir, pool) = pool(16);
        let pool = Arc::new(pool);
        pool.begin_txn().unwrap();
        let pid = pool.allocate_page().unwrap();
        pool.with_page_mut(pid, |p| p.write_u64(0, 11)).unwrap();
        pool.commit_txn(false).unwrap();
        pool.begin_txn().unwrap();
        pool.with_page_mut(pid, |p| p.write_u64(0, 22)).unwrap();
        let epoch = pool.pin_epoch();
        let pin = pool.pin_at(epoch.epoch(), pid).unwrap();
        assert_eq!(pin.read_u64(0), 11);
        assert_eq!(pin.page_id(), pid);
        // Pending-backed pins hold no frame pin.
        assert_eq!(pool.pinned_frames(), 0);
        drop(pin);
        drop(epoch);
        pool.commit_txn(false).unwrap();
        let epoch = pool.pin_epoch();
        let pin = pool.pin_at(epoch.epoch(), pid).unwrap();
        assert_eq!(pin.read_u64(0), 22);
        assert_eq!(pool.pinned_frames(), 1);
    }

    #[test]
    fn committed_catalog_root_ignores_in_flight_change() {
        let (_dir, pool) = pool(16);
        let pool = Arc::new(pool);
        pool.begin_txn().unwrap();
        let pid = pool.allocate_page().unwrap();
        pool.set_catalog_root(pid);
        pool.commit_txn(false).unwrap();
        pool.begin_txn().unwrap();
        let other = pool.allocate_page().unwrap();
        pool.set_catalog_root(other);
        assert_eq!(pool.catalog_root(), other);
        let pin = pool.pin_epoch();
        assert_eq!(pool.catalog_entry_at(pin.epoch()).unwrap().1, pid);
        pool.commit_txn(false).unwrap();
        assert_eq!(pool.catalog_entry_at(pin.epoch()).unwrap().1, pid);
        let fresh = pool.pin_epoch();
        assert_eq!(pool.catalog_entry_at(fresh.epoch()).unwrap().1, other);
    }

    #[test]
    fn concurrent_readers_count_every_access() {
        use std::sync::atomic::AtomicU64;
        let (_dir, pool) = pool(64);
        let mut pids = Vec::new();
        for i in 0..32u64 {
            let pid = pool.allocate_page().unwrap();
            pool.with_page_mut(pid, |p| p.write_u64(0, i * 7)).unwrap();
            pids.push(pid);
        }
        pool.flush().unwrap();
        pool.reset_stats();
        let done = AtomicU64::new(0);
        const READERS: usize = 4;
        const ROUNDS: usize = 500;
        std::thread::scope(|s| {
            for t in 0..READERS {
                let pool = &pool;
                let pids = &pids;
                let done = &done;
                s.spawn(move || {
                    for r in 0..ROUNDS {
                        let idx = (t * 31 + r * 17) % pids.len();
                        let v = pool.with_page(pids[idx], |p| p.read_u64(0)).unwrap();
                        assert_eq!(v, idx as u64 * 7, "torn read");
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(done.load(Ordering::Relaxed), (READERS * ROUNDS) as u64);
        // Atomic counters lose nothing: every access is either a hit or a
        // miss, and all pages stayed resident (no eviction pressure).
        let stats = pool.stats();
        assert_eq!(stats.page_reads(), (READERS * ROUNDS) as u64);
    }
}
