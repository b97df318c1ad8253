//! Write-ahead log: the durability and atomicity substrate of the engine.
//!
//! The WAL lives in a sibling file (`<db>.wal`) next to the database file and
//! records, per transaction, full physical page images plus a commit record.
//! Recovery is ARIES-lite, simplified by the engine's single-writer design
//! (at most one transaction is ever active):
//!
//! * **Redo.** At commit, the after-image of every page the transaction
//!   dirtied is appended, followed by a [`WalRecordKind::Commit`] record
//!   carrying the file-header state (page count, catalog root). One fsync
//!   covers every commit record written since the previous fsync ("group
//!   fsync"); implicit auto-commits defer the fsync to the next explicit
//!   commit, eviction or checkpoint.
//! * **Undo.** Dirty pages of the *active* transaction may be stolen
//!   (written to the data file before commit) under memory pressure. Before
//!   the data write, the page's before-image is appended as a
//!   [`WalRecordKind::Undo`] record and the log is fsynced — the
//!   WAL-before-data rule. Recovery restores stolen pages of transactions
//!   that never committed.
//! * **Checkpoint.** [`crate::buffer::BufferPool::flush`] writes every dirty
//!   page and the header to the data file, fsyncs it, then truncates the log.
//!   Replaying a log that was already checkpointed is harmless because redo
//!   applies full page images (idempotent).
//!
//! Because every record carries a full page image, recovery reduces to: for
//! each page, the *last* applicable record in log order — the last committed
//! after-image or the last loser before-image, whichever comes later — is the
//! page's true content. (A loser's before-image equals the committed state at
//! its transaction start, so it supersedes any earlier committed image, and a
//! later committed image supersedes an aborted steal.)
//!
//! ## The commit queue
//!
//! The log is split into three coordination domains so that committers never
//! serialize behind each other's fsyncs:
//!
//! * the **enqueue side** (`WalQueue`): appends — always made under the
//!   buffer pool's io latch, which is what keeps the log in commit order —
//!   encode their frame and push it onto a pending queue, advancing the
//!   logical `end` LSN. When no group-commit leader holds the file, the
//!   appender opportunistically drains the queue through to the file
//!   ("write-through"), so single-threaded behaviour — including where
//!   write errors surface — is identical to a direct write.
//! * the **file side** (`WalFile`): the file handle, its `flushed` cursor
//!   and the write/fsync machinery, behind its own mutex. Whoever holds it
//!   is the group-commit *leader*: it drains every pending frame (one
//!   `write_at` per frame, in enqueue order) and issues ONE fsync that
//!   durably covers every commit record drained so far.
//! * the **shared side** (`WalShared`): the durable-LSN watermark,
//!   fsync/group accounting, the poison slot and the follower parking lot.
//!   Followers of a group commit block on the watermark (bounded condvar
//!   waits), never on the fsync itself.
//!
//! Lock order is `io latch → WalFile → WalQueue`; the leader takes only the
//! file and queue locks, so it can never deadlock against a committer
//! holding the io latch.
//!
//! ## On-disk format
//!
//! File header (16 bytes): magic `CRIMWAL1`, then the base LSN (`u64`). LSNs
//! are monotone byte positions `base + file_offset`; truncating the log at a
//! checkpoint advances the base so LSNs never move backwards.
//!
//! Each record is framed as `[len: u32][crc32: u32][body]` with the CRC taken
//! over the body. A torn tail (short frame or CRC mismatch) ends the scan:
//! everything after the last intact record is discarded on open, which is
//! exactly the atomicity contract — an interrupted append never surfaces a
//! half-written transaction.

use crate::crc32::crc32;
use crate::error::{StorageError, StorageResult};
use crate::io::{DiskIo, RetryPolicy, StorageIo};
use crate::page::{PageId, PAGE_SIZE};
use crate::pager::Pager;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fs::OpenOptions;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard, TryLockError};
use std::time::Duration;

const WAL_MAGIC: &[u8; 8] = b"CRIMWAL1";
const WAL_HEADER: u64 = 16;
const FRAME_HEADER: usize = 8;

/// An empty frame with its header reserved: the caller appends the body
/// and [`Wal::append_frame`] fills in the header, so the body is written
/// into the frame once instead of being built and then copied.
fn frame_with_body_capacity(body_len: usize) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER + body_len);
    frame.resize(FRAME_HEADER, 0);
    frame
}

/// Log sequence number: a monotone byte position in the log. LSN 0 is "never
/// logged".
pub type Lsn = u64;

/// Lock a std mutex, ignoring poisoning: every guarded structure here is
/// kept consistent before any operation that could panic, and a poisoned
/// commit path must keep failing loudly through the WAL poison slot, not by
/// propagating lock panics.
fn lock<T>(m: &StdMutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Kinds of log record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalRecordKind {
    /// After-image of a page, logged at commit time.
    PageImage,
    /// Before-image of a page, logged when an uncommitted dirty page is
    /// stolen (written to the data file under memory pressure).
    Undo,
    /// Transaction commit, carrying the file-header state to restore.
    Commit,
}

impl WalRecordKind {
    fn to_u8(self) -> u8 {
        match self {
            WalRecordKind::PageImage => 1,
            WalRecordKind::Undo => 2,
            WalRecordKind::Commit => 3,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => WalRecordKind::PageImage,
            2 => WalRecordKind::Undo,
            3 => WalRecordKind::Commit,
            _ => return None,
        })
    }
}

/// A decoded record header (images are read lazily during recovery — see
/// [`Wal::read_image_at`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecordMeta {
    /// What kind of record this is.
    pub kind: WalRecordKind,
    /// Transaction the record belongs to.
    pub txn: u64,
    /// Page the record describes (images/undos) or `0` for commits.
    pub pid: u64,
    /// For commits: the file page count at commit time.
    pub page_count: u64,
    /// For commits: the catalog root page at commit time.
    pub catalog_root: u64,
    /// For commits: the user metadata page at commit time.
    pub user_meta: u64,
    /// File offset of the page image payload (images/undos).
    pub image_offset: u64,
}

/// Counters describing WAL activity since the last [`reset`](Wal::reset) of
/// statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended.
    pub appends: u64,
    /// Bytes appended (frames + payloads).
    pub bytes: u64,
    /// fsync calls issued on the log file.
    pub syncs: u64,
    /// Committed transactions.
    pub commits: u64,
    /// Full page images appended (commit after-images + steal undo images).
    /// `bytes / (page_images × PAGE_SIZE)` is the log-bytes-per-data-byte
    /// ratio the bulk-load bench budgets (≤ 1.1×).
    pub page_images: u64,
    /// Group-commit fsync rounds that covered at least one commit record.
    pub group_rounds: u64,
    /// Commit records made durable across those rounds (the sum of group
    /// sizes; `group_members - group_rounds` is the number of fsyncs group
    /// commit saved).
    pub group_members: u64,
}

/// Outcome of crash recovery, reported by
/// [`crate::db::Database::recovery_report`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Bytes of log scanned.
    pub wal_bytes: u64,
    /// Intact records found.
    pub records: u64,
    /// Committed transactions whose effects were replayed.
    pub committed_txns: u64,
    /// Uncommitted (loser) transactions rolled back.
    pub loser_txns: u64,
    /// Pages restored from committed after-images.
    pub pages_redone: u64,
    /// Pages restored from loser before-images.
    pub pages_undone: u64,
    /// `true` when the log ended in a torn (partially written) record.
    pub torn_tail: bool,
}

impl RecoveryReport {
    /// `true` when recovery changed anything on disk.
    pub fn did_work(&self) -> bool {
        self.pages_redone + self.pages_undone > 0
    }
}

/// One encoded record waiting in the commit queue: framed bytes not yet
/// written to the log file.
struct PendingFrame {
    bytes: Vec<u8>,
    /// 1 when the frame is a commit record (group-size accounting).
    commits: u64,
}

/// The in-memory tail of the log: frames enqueued (under the io latch) but
/// not yet written to the file. Guarded by its own short-lived mutex so
/// enqueues never block behind a leader's in-flight group fsync.
#[derive(Default)]
struct WalQueue {
    frames: VecDeque<PendingFrame>,
}

/// The log file and its write cursor. Holding its mutex makes a thread the
/// group-commit leader: only the leader writes or fsyncs the file.
struct WalFile {
    io: Box<dyn StorageIo>,
    retry: RetryPolicy,
    /// Absolute LSN of file offset 0.
    base: Lsn,
    /// Absolute LSN up to which frames have been written to the file.
    flushed: Lsn,
    /// Commit records written to the file since the last fsync.
    unsynced_commits: u64,
}

/// State shared between committers and the group-commit leader without any
/// file or io lock: the durable watermark, sync accounting, the poison slot
/// and the follower parking lot.
pub(crate) struct WalShared {
    /// Absolute LSN up to which the log is known durable (fsynced).
    durable: AtomicU64,
    syncs: AtomicU64,
    group_rounds: AtomicU64,
    group_members: AtomicU64,
    /// First fatal log failure, if any. Once set, every writer surfaces
    /// `WriterPoisoned`; readers keep serving committed memory.
    poisoned: StdMutex<Option<String>>,
    wait_lock: StdMutex<()>,
    wait_cv: Condvar,
}

impl WalShared {
    fn new(durable: Lsn) -> Arc<WalShared> {
        Arc::new(WalShared {
            durable: AtomicU64::new(durable),
            syncs: AtomicU64::new(0),
            group_rounds: AtomicU64::new(0),
            group_members: AtomicU64::new(0),
            poisoned: StdMutex::new(None),
            wait_lock: StdMutex::new(()),
            wait_cv: Condvar::new(),
        })
    }

    pub(crate) fn durable(&self) -> Lsn {
        self.durable.load(Ordering::Acquire)
    }

    pub(crate) fn poisoned(&self) -> Option<String> {
        lock(&self.poisoned).clone()
    }

    /// Record the first fatal failure (first writer wins).
    pub(crate) fn poison(&self, why: &str) {
        let mut slot = lock(&self.poisoned);
        if slot.is_none() {
            *slot = Some(why.to_string());
        }
    }

    /// Wake every follower parked on the durable watermark.
    pub(crate) fn notify_all(&self) {
        drop(lock(&self.wait_lock));
        self.wait_cv.notify_all();
    }

    /// Park until the leader makes progress. The wait is bounded so a lost
    /// wakeup costs at most one short timeout, not a hang.
    pub(crate) fn wait_for_progress(&self) {
        let guard = lock(&self.wait_lock);
        let _ = self.wait_cv.wait_timeout(guard, Duration::from_millis(2));
    }
}

/// Write every pending frame to the file, in enqueue order, one `write_at`
/// per frame at the `flushed` cursor. On failure the frame goes back to the
/// queue front: the cursor has not advanced, so a later drain retries the
/// same frame at the same offset (a torn transient write is repaired by its
/// own retry, and `flushed + pending` always accounts for `end`).
fn drain_into(f: &mut WalFile, queue: &StdMutex<WalQueue>) -> StorageResult<()> {
    loop {
        let Some(frame) = lock(queue).frames.pop_front() else {
            return Ok(());
        };
        let offset = f.flushed - f.base;
        let retry = f.retry;
        let io = &mut f.io;
        if let Err(e) = retry.run(|| io.write_at(offset, &frame.bytes)) {
            lock(queue).frames.push_front(frame);
            return Err(e.into());
        }
        f.flushed += frame.bytes.len() as u64;
        f.unsynced_commits += frame.commits;
    }
}

/// Fsync the file if the durable watermark is behind the flushed cursor,
/// then publish the new watermark and the group accounting. fsync failures
/// are *not* retried: after a failed fsync the kernel may have dropped the
/// dirty pages, so a retry that succeeds proves nothing.
fn sync_flushed(f: &mut WalFile, shared: &WalShared) -> StorageResult<()> {
    if shared.durable() < f.flushed {
        f.io.sync()?;
        shared.syncs.fetch_add(1, Ordering::Relaxed);
        if f.unsynced_commits > 0 {
            shared.group_rounds.fetch_add(1, Ordering::Relaxed);
            shared
                .group_members
                .fetch_add(f.unsynced_commits, Ordering::Relaxed);
            f.unsynced_commits = 0;
        }
        shared.durable.store(f.flushed, Ordering::Release);
    }
    Ok(())
}

/// The WAL's concurrency handles, cloneable onto the buffer pool so
/// `wait_durable` can lead or follow a group commit without the io latch.
#[derive(Clone)]
pub(crate) struct CommitHandles {
    file: Arc<StdMutex<WalFile>>,
    queue: Arc<StdMutex<WalQueue>>,
    shared: Arc<WalShared>,
}

impl CommitHandles {
    pub(crate) fn durable(&self) -> Lsn {
        self.shared.durable()
    }

    pub(crate) fn poisoned(&self) -> Option<String> {
        self.shared.poisoned()
    }

    pub(crate) fn poison(&self, why: &str) {
        self.shared.poison(why);
    }

    pub(crate) fn notify_all(&self) {
        self.shared.notify_all();
    }

    pub(crate) fn wait_for_progress(&self) {
        self.shared.wait_for_progress();
    }

    /// Try to become the group-commit leader. `Ok(true)`: led a round
    /// (drained the queue and fsynced whatever was behind the watermark).
    /// `Ok(false)`: another leader holds the file — park and re-check.
    /// `Err`: the round failed; the caller decides about poisoning.
    pub(crate) fn try_lead_sync(&self) -> StorageResult<bool> {
        let mut f = match self.file.try_lock() {
            Ok(f) => f,
            Err(TryLockError::WouldBlock) => return Ok(false),
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
        };
        drain_into(&mut f, &self.queue)?;
        sync_flushed(&mut f, &self.shared)?;
        Ok(true)
    }

    /// Lead a group-commit round, waiting for the file if another leader
    /// holds it (background-checkpoint path).
    pub(crate) fn lead_sync_blocking(&self) -> StorageResult<()> {
        let mut f = lock(&self.file);
        drain_into(&mut f, &self.queue)?;
        sync_flushed(&mut f, &self.shared)
    }
}

/// The write-ahead log.
pub struct Wal {
    file: Arc<StdMutex<WalFile>>,
    queue: Arc<StdMutex<WalQueue>>,
    shared: Arc<WalShared>,
    path: PathBuf,
    /// Mirror of the file-side base LSN (changes only at open/reset, which
    /// both hold the file lock).
    base: Lsn,
    /// Absolute end-of-log LSN: the next *enqueue* position. Advanced under
    /// the io latch, which serializes appends and keeps the log in commit
    /// order.
    end: Lsn,
    next_txn: u64,
    /// Enqueue-side counters; fsync and group counters live in `shared`.
    stats: WalStats,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("end", &self.end)
            .field("durable", &self.shared.durable())
            .finish()
    }
}

/// The WAL path for a database file: the same path with `.wal` appended
/// (`repo.crimson` → `repo.crimson.wal`).
pub fn wal_path_for(db_path: &Path) -> PathBuf {
    let mut os = db_path.as_os_str().to_owned();
    os.push(".wal");
    PathBuf::from(os)
}

impl Wal {
    fn from_parts(io: Box<dyn StorageIo>, path: PathBuf, base: Lsn) -> Self {
        let start = base + WAL_HEADER;
        Wal {
            file: Arc::new(StdMutex::new(WalFile {
                io,
                retry: RetryPolicy::default(),
                base,
                flushed: start,
                unsynced_commits: 0,
            })),
            queue: Arc::new(StdMutex::new(WalQueue::default())),
            shared: WalShared::new(start),
            path,
            base,
            end: start,
            next_txn: 1,
            stats: WalStats::default(),
        }
    }

    /// Create a fresh (empty) log, truncating any existing file.
    pub fn create(path: impl AsRef<Path>) -> StorageResult<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let wal = Self::from_parts(Box::new(DiskIo::new(file)), path, 0);
        {
            let mut f = lock(&wal.file);
            write_header(&mut f, 0)?;
        }
        Ok(wal)
    }

    /// Open an existing log (creating an empty one when absent), dropping any
    /// torn tail so subsequent appends start after the last intact record.
    pub fn open(path: impl AsRef<Path>) -> StorageResult<Self> {
        let path = path.as_ref().to_path_buf();
        if !path.exists() {
            return Self::create(path);
        }
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut io: Box<dyn StorageIo> = Box::new(DiskIo::new(file));
        let len = io.len()?;
        if len < WAL_HEADER {
            // Interrupted creation: start over.
            drop(io);
            return Self::create(path);
        }
        let mut header = [0u8; WAL_HEADER as usize];
        let n = io.read_at(0, &mut header)?;
        if n < WAL_HEADER as usize {
            return Err(StorageError::Corrupted(
                "write-ahead log header too short".to_string(),
            ));
        }
        if &header[0..8] != WAL_MAGIC {
            return Err(StorageError::InvalidDatabase(
                "write-ahead log has a bad magic number".to_string(),
            ));
        }
        let base = u64::from_le_bytes(header[8..16].try_into().expect("16-byte header"));
        let mut wal = Self::from_parts(io, path, base);
        // Position end after the last intact record and drop any torn tail.
        let (metas, _torn) = wal.scan_raw()?;
        wal.next_txn = metas.iter().map(|m| m.txn).max().unwrap_or(0) + 1;
        let valid = wal.end - wal.base;
        {
            let mut f = lock(&wal.file);
            f.io.set_len(valid)?;
            f.flushed = wal.end;
        }
        wal.shared.durable.store(wal.end, Ordering::Release);
        Ok(wal)
    }

    /// Replace the I/O backend in place: `f` receives the current backend
    /// and returns the one to use from now on (typically wrapping it in a
    /// fault injector).
    pub(crate) fn wrap_io(&mut self, f: impl FnOnce(Box<dyn StorageIo>) -> Box<dyn StorageIo>) {
        struct Placeholder;
        impl StorageIo for Placeholder {
            fn read_at(&mut self, _: u64, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::other("I/O backend is being replaced"))
            }
            fn write_at(&mut self, _: u64, _: &[u8]) -> io::Result<()> {
                Err(io::Error::other("I/O backend is being replaced"))
            }
            fn sync(&mut self) -> io::Result<()> {
                Err(io::Error::other("I/O backend is being replaced"))
            }
            fn set_len(&mut self, _: u64) -> io::Result<()> {
                Err(io::Error::other("I/O backend is being replaced"))
            }
            fn len(&mut self) -> io::Result<u64> {
                Err(io::Error::other("I/O backend is being replaced"))
            }
        }
        let mut file = lock(&self.file);
        let current = std::mem::replace(&mut file.io, Box::new(Placeholder));
        file.io = f(current);
    }

    /// Configure how transient I/O errors are retried.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        lock(&self.file).retry = policy;
    }

    /// Absolute LSN of the end of the log (next append position).
    pub fn end_lsn(&self) -> Lsn {
        self.end
    }

    /// Absolute LSN of the first record position in the (un-truncated) log.
    /// `end_lsn() - start_lsn()` is the current log backlog in bytes.
    pub fn start_lsn(&self) -> Lsn {
        self.base + WAL_HEADER
    }

    /// Absolute LSN up to which the log is durable.
    pub fn durable_lsn(&self) -> Lsn {
        self.shared.durable()
    }

    /// Counters since the last [`Wal::reset_stats`].
    pub fn stats(&self) -> WalStats {
        WalStats {
            syncs: self.shared.syncs.load(Ordering::Relaxed),
            group_rounds: self.shared.group_rounds.load(Ordering::Relaxed),
            group_members: self.shared.group_members.load(Ordering::Relaxed),
            ..self.stats
        }
    }

    /// Reset activity counters.
    pub fn reset_stats(&mut self) {
        self.stats = WalStats::default();
        self.shared.syncs.store(0, Ordering::Relaxed);
        self.shared.group_rounds.store(0, Ordering::Relaxed);
        self.shared.group_members.store(0, Ordering::Relaxed);
    }

    /// The concurrency handles the buffer pool parks committers on.
    pub(crate) fn commit_handles(&self) -> CommitHandles {
        CommitHandles {
            file: Arc::clone(&self.file),
            queue: Arc::clone(&self.queue),
            shared: Arc::clone(&self.shared),
        }
    }

    /// Record a fatal log failure: every subsequent writer surfaces
    /// `WriterPoisoned`.
    pub(crate) fn poison(&self, why: &str) {
        self.shared.poison(why);
    }

    /// The recorded fatal failure, if any.
    pub(crate) fn poisoned(&self) -> Option<String> {
        self.shared.poisoned()
    }

    /// Allocate the next transaction id.
    pub fn next_txn_id(&mut self) -> u64 {
        let id = self.next_txn;
        self.next_txn += 1;
        id
    }

    /// Append a page image (after-image at commit; `undo = true` for a
    /// before-image logged at steal time). Returns the record's LSN.
    pub fn append_image(
        &mut self,
        kind: WalRecordKind,
        txn: u64,
        pid: PageId,
        image: &[u8],
    ) -> StorageResult<Lsn> {
        debug_assert_eq!(image.len(), PAGE_SIZE);
        debug_assert!(kind != WalRecordKind::Commit);
        let mut frame = frame_with_body_capacity(1 + 16 + PAGE_SIZE);
        frame.push(kind.to_u8());
        frame.extend_from_slice(&txn.to_le_bytes());
        frame.extend_from_slice(&pid.0.to_le_bytes());
        frame.extend_from_slice(image);
        let lsn = self.append_frame(frame, 0)?;
        self.stats.page_images += 1;
        Ok(lsn)
    }

    /// Append a commit record carrying the file-header state.
    pub fn append_commit(
        &mut self,
        txn: u64,
        page_count: u64,
        catalog_root: u64,
        user_meta: u64,
    ) -> StorageResult<Lsn> {
        let mut frame = frame_with_body_capacity(1 + 32);
        frame.push(WalRecordKind::Commit.to_u8());
        frame.extend_from_slice(&txn.to_le_bytes());
        frame.extend_from_slice(&page_count.to_le_bytes());
        frame.extend_from_slice(&catalog_root.to_le_bytes());
        frame.extend_from_slice(&user_meta.to_le_bytes());
        let lsn = self.append_frame(frame, 1)?;
        self.stats.commits += 1;
        Ok(lsn)
    }

    /// Seal and enqueue a frame built by [`frame_with_body_capacity`] plus
    /// its body: fill in the reserved header's length and body CRC.
    fn append_frame(&mut self, mut frame: Vec<u8>, commits: u64) -> StorageResult<Lsn> {
        let (header, body) = frame.split_at_mut(FRAME_HEADER);
        header[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&crc32(body).to_le_bytes());
        let lsn = self.end;
        let len = frame.len() as u64;
        lock(&self.queue).frames.push_back(PendingFrame {
            bytes: frame,
            commits,
        });
        self.end += len;
        // Opportunistic write-through: when no group-commit leader holds the
        // file, drain here so write failures surface at the append site (the
        // legacy contract — a failed append rolls its transaction back).
        // Under contention the enqueue stands and the leader writes it.
        let drained = match self.file.try_lock() {
            Ok(mut f) => drain_into(&mut f, &self.queue),
            Err(TryLockError::WouldBlock) => Ok(()),
            Err(TryLockError::Poisoned(e)) => drain_into(&mut e.into_inner(), &self.queue),
        };
        if let Err(e) = drained {
            // Un-enqueue this frame. Appends are serialized by the io latch
            // and a failed drain stops at the failing frame, so this frame
            // is still the newest entry; removing it and giving back its LSN
            // range lets the caller roll back as if nothing had been logged.
            let popped = lock(&self.queue)
                .frames
                .pop_back()
                .expect("failed append leaves its frame queued");
            debug_assert_eq!(popped.bytes.len() as u64, len);
            self.end = lsn;
            return Err(e);
        }
        self.stats.appends += 1;
        self.stats.bytes += len;
        Ok(lsn)
    }

    /// Make the whole log durable (no-op when already durable): drain the
    /// commit queue to the file and fsync if the durable watermark is
    /// behind.
    pub fn sync(&mut self) -> StorageResult<()> {
        let mut f = lock(&self.file);
        drain_into(&mut f, &self.queue)?;
        sync_flushed(&mut f, &self.shared)
    }

    /// Truncate the log (checkpoint). The base LSN advances so LSNs remain
    /// monotone across truncations.
    pub fn reset(&mut self) -> StorageResult<()> {
        let mut f = lock(&self.file);
        drain_into(&mut f, &self.queue)?;
        self.base = self.end;
        f.base = self.base;
        write_header(&mut f, self.base)?;
        f.io.set_len(WAL_HEADER)?;
        f.io.sync()?;
        self.end = self.base + WAL_HEADER;
        f.flushed = self.end;
        f.unsynced_commits = 0;
        self.shared.durable.store(self.end, Ordering::Release);
        Ok(())
    }

    /// Scan all intact records, returning their headers and whether the scan
    /// stopped at a torn tail. Drains any pending frames first (the scan
    /// reads the file), then positions `self.end` after the last intact
    /// record.
    pub(crate) fn scan_raw(&mut self) -> StorageResult<(Vec<RecordMeta>, bool)> {
        let mut f = lock(&self.file);
        drain_into(&mut f, &self.queue)?;
        let file_len = f.io.len()?;
        let mut metas = Vec::new();
        let mut offset = WAL_HEADER;
        let mut torn = false;
        let mut header = [0u8; FRAME_HEADER];
        while offset + FRAME_HEADER as u64 <= file_len {
            let retry = f.retry;
            let io = &mut f.io;
            let got = retry.run(|| io.read_at(offset, &mut header));
            match got {
                Ok(n) if n == FRAME_HEADER => {}
                Ok(_) => {
                    torn = true;
                    break;
                }
                Err(e) => return Err(e.into()),
            }
            let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as u64;
            let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
            if len == 0
                || len > (PAGE_SIZE + 64) as u64
                || offset + FRAME_HEADER as u64 + len > file_len
            {
                torn = true;
                break;
            }
            let mut body = vec![0u8; len as usize];
            let body_offset = offset + FRAME_HEADER as u64;
            let io = &mut f.io;
            let got = retry.run(|| io.read_at(body_offset, &mut body));
            match got {
                Ok(n) if n == body.len() => {}
                Ok(_) => {
                    torn = true;
                    break;
                }
                Err(e) => return Err(e.into()),
            }
            if crc32(&body) != crc {
                torn = true;
                break;
            }
            match decode_body(offset, &body) {
                Some(meta) => metas.push(meta),
                None => {
                    torn = true;
                    break;
                }
            }
            offset += FRAME_HEADER as u64 + len;
        }
        if offset < file_len {
            torn = true;
        }
        self.end = self.base + offset;
        f.flushed = self.end;
        Ok((metas, torn))
    }

    /// Read a page image at the file offset recorded by
    /// [`Wal::scan_raw`]. Frame CRCs were already validated by the scan, so
    /// the bytes returned here are exactly what the logger wrote.
    pub(crate) fn read_image_at(&mut self, image_offset: u64) -> StorageResult<Vec<u8>> {
        let mut image = vec![0u8; PAGE_SIZE];
        let mut f = lock(&self.file);
        let retry = f.retry;
        let io = &mut f.io;
        let n = retry.run(|| io.read_at(image_offset, &mut image))?;
        if n < PAGE_SIZE {
            return Err(StorageError::Corrupted(
                "write-ahead log image truncated".to_string(),
            ));
        }
        Ok(image)
    }

    /// The latest *committed* after-image of `pid` still present in the
    /// un-truncated log, re-validating frame CRCs along the way. This is
    /// the WAL-based repair source for a page that fails its checksum on
    /// disk: every committed write since the last checkpoint is still in
    /// the log, so the newest committed image *is* the page's true content.
    ///
    /// Returns `None` when the log holds no committed image for the page
    /// (e.g. the page was last written before the last checkpoint).
    pub(crate) fn latest_committed_image(&mut self, pid: PageId) -> StorageResult<Option<Vec<u8>>> {
        let (metas, _torn) = self.scan_raw()?;
        let committed: HashSet<u64> = metas
            .iter()
            .filter(|m| m.kind == WalRecordKind::Commit)
            .map(|m| m.txn)
            .collect();
        let best = metas.iter().rfind(|m| {
            m.kind == WalRecordKind::PageImage && m.pid == pid.0 && committed.contains(&m.txn)
        });
        match best {
            Some(m) => Ok(Some(self.read_image_at(m.image_offset)?)),
            None => Ok(None),
        }
    }
}

fn write_header(f: &mut WalFile, base: u64) -> StorageResult<()> {
    let mut header = [0u8; WAL_HEADER as usize];
    header[0..8].copy_from_slice(WAL_MAGIC);
    header[8..16].copy_from_slice(&base.to_le_bytes());
    let retry = f.retry;
    let io = &mut f.io;
    retry.run(|| io.write_at(0, &header))?;
    f.io.sync()?;
    Ok(())
}

fn decode_body(file_offset: u64, body: &[u8]) -> Option<RecordMeta> {
    let kind = WalRecordKind::from_u8(*body.first()?)?;
    let u64_at = |off: usize| -> Option<u64> {
        body.get(off..off + 8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    };
    match kind {
        WalRecordKind::PageImage | WalRecordKind::Undo => {
            if body.len() != 1 + 16 + PAGE_SIZE {
                return None;
            }
            Some(RecordMeta {
                kind,
                txn: u64_at(1)?,
                pid: u64_at(9)?,
                page_count: 0,
                catalog_root: 0,
                user_meta: 0,
                image_offset: file_offset + FRAME_HEADER as u64 + 17,
            })
        }
        WalRecordKind::Commit => {
            if body.len() != 1 + 32 {
                return None;
            }
            Some(RecordMeta {
                kind,
                txn: u64_at(1)?,
                page_count: u64_at(9)?,
                catalog_root: u64_at(17)?,
                user_meta: u64_at(25)?,
                pid: 0,
                image_offset: 0,
            })
        }
    }
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// Replay the log against the data file: restore each page to the payload of
/// its last applicable record (last committed after-image or last loser
/// before-image, whichever is later in the log), restore the header from the
/// last commit record, fsync the data file, then truncate the log.
pub(crate) fn recover(pager: &mut Pager, wal: &mut Wal) -> StorageResult<RecoveryReport> {
    let (metas, torn) = wal.scan_raw()?;
    let mut report = RecoveryReport {
        wal_bytes: wal.end_lsn() - (wal.base + WAL_HEADER),
        records: metas.len() as u64,
        torn_tail: torn,
        ..Default::default()
    };
    if metas.is_empty() {
        wal.reset()?;
        return Ok(report);
    }

    // Analysis: which transactions committed, and what header state the last
    // one recorded.
    let mut committed: HashMap<u64, ()> = HashMap::new();
    let mut losers: HashMap<u64, ()> = HashMap::new();
    let mut last_commit: Option<RecordMeta> = None;
    for m in &metas {
        match m.kind {
            WalRecordKind::Commit => {
                committed.insert(m.txn, ());
                losers.remove(&m.txn);
                last_commit = Some(*m);
            }
            WalRecordKind::PageImage | WalRecordKind::Undo => {
                if !committed.contains_key(&m.txn) {
                    losers.insert(m.txn, ());
                }
            }
        }
    }
    // A transaction both seen before its commit and committed later is not a
    // loser; rebuild the loser set properly.
    losers.retain(|txn, _| !committed.contains_key(txn));
    report.committed_txns = committed.len() as u64;
    report.loser_txns = losers.len() as u64;

    // Per page: the last applicable full-image record decides the content.
    let mut last_for_page: HashMap<u64, RecordMeta> = HashMap::new();
    for m in &metas {
        let applicable = match m.kind {
            WalRecordKind::PageImage => committed.contains_key(&m.txn),
            WalRecordKind::Undo => losers.contains_key(&m.txn),
            WalRecordKind::Commit => false,
        };
        if applicable {
            last_for_page.insert(m.pid, *m);
        }
    }

    // Header state: keep the checkpointed header unless a later commit
    // superseded it.
    let mut page_count = pager.page_count();
    let mut catalog_root = pager.catalog_root();
    let mut user_meta = pager.user_meta();
    if let Some(c) = last_commit {
        page_count = page_count.max(c.page_count);
        catalog_root = PageId(c.catalog_root);
        user_meta = PageId(c.user_meta);
    }
    pager.restore_header(page_count, catalog_root, user_meta, wal.end_lsn());

    // Apply images. Pages at or beyond the recovered page count are
    // unreachable garbage from loser allocations; skip them.
    let mut pids: Vec<u64> = last_for_page.keys().copied().collect();
    pids.sort_unstable();
    for pid in pids {
        let m = last_for_page[&pid];
        if pid >= page_count {
            continue;
        }
        let image = wal.read_image_at(m.image_offset)?;
        let page = crate::page::Page::from_bytes(image);
        pager.write_page(PageId(pid), &page)?;
        match m.kind {
            WalRecordKind::PageImage => report.pages_redone += 1,
            WalRecordKind::Undo => report.pages_undone += 1,
            WalRecordKind::Commit => unreachable!(),
        }
    }
    pager.sync()?;
    wal.reset()?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempfile::tempdir;

    #[test]
    fn append_scan_roundtrip() {
        let dir = tempdir().unwrap();
        let mut wal = Wal::create(dir.path().join("t.wal")).unwrap();
        let image = vec![7u8; PAGE_SIZE];
        let l1 = wal
            .append_image(WalRecordKind::PageImage, 1, PageId(3), &image)
            .unwrap();
        let l2 = wal.append_commit(1, 4, 2, 0).unwrap();
        assert!(l2 > l1);
        wal.sync().unwrap();
        let (metas, torn) = wal.scan_raw().unwrap();
        assert!(!torn);
        assert_eq!(metas.len(), 2);
        assert_eq!(metas[0].kind, WalRecordKind::PageImage);
        assert_eq!(metas[0].pid, 3);
        assert_eq!(metas[1].kind, WalRecordKind::Commit);
        assert_eq!(metas[1].page_count, 4);
        let back = wal.read_image_at(metas[0].image_offset).unwrap();
        assert_eq!(back, image);
    }

    #[test]
    fn torn_tail_is_dropped_on_open() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.wal");
        {
            let mut wal = Wal::create(&path).unwrap();
            wal.append_commit(1, 2, 0, 0).unwrap();
            wal.append_commit(2, 3, 0, 0).unwrap();
            wal.sync().unwrap();
        }
        // Chop the last record in half.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 10).unwrap();
        drop(f);
        let mut wal = Wal::open(&path).unwrap();
        let (metas, torn) = wal.scan_raw().unwrap();
        assert!(!torn, "open() must have truncated the torn tail");
        assert_eq!(metas.len(), 1);
        assert_eq!(metas[0].page_count, 2);
        // Appending after the torn tail keeps the log parseable.
        wal.append_commit(3, 5, 0, 0).unwrap();
        let (metas, _) = wal.scan_raw().unwrap();
        assert_eq!(metas.len(), 2);
    }

    #[test]
    fn corrupt_crc_ends_scan() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.wal");
        {
            let mut wal = Wal::create(&path).unwrap();
            wal.append_commit(1, 2, 0, 0).unwrap();
            wal.append_commit(2, 3, 0, 0).unwrap();
            wal.sync().unwrap();
        }
        // Flip a byte inside the second record's body.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let mut wal = Wal::open(&path).unwrap();
        let (metas, _) = wal.scan_raw().unwrap();
        assert_eq!(metas.len(), 1);
    }

    #[test]
    fn reset_advances_base_lsn() {
        let dir = tempdir().unwrap();
        let mut wal = Wal::create(dir.path().join("t.wal")).unwrap();
        wal.append_commit(1, 2, 0, 0).unwrap();
        let end_before = wal.end_lsn();
        wal.reset().unwrap();
        assert!(wal.end_lsn() >= end_before);
        let (metas, torn) = wal.scan_raw().unwrap();
        assert!(metas.is_empty());
        assert!(!torn);
        // LSNs after the reset are larger than any before it.
        let lsn = wal.append_commit(2, 2, 0, 0).unwrap();
        assert!(lsn >= end_before);
    }

    #[test]
    fn injected_crash_tears_the_append() {
        use crate::io::{shared_schedule, FaultIo, FaultSchedule, FileKind};
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.wal");
        let mut wal = Wal::create(&path).unwrap();
        wal.append_commit(1, 2, 0, 0).unwrap();
        let schedule = shared_schedule(FaultSchedule::inert());
        schedule.lock().crash_at_wal_append(0);
        let s = schedule.clone();
        wal.wrap_io(move |inner| Box::new(FaultIo::new(inner, FileKind::Wal, s)));
        assert!(wal.append_commit(2, 3, 0, 0).is_err());
        assert!(schedule.lock().crashed());
        // Everything after the crash fails.
        assert!(wal.append_commit(3, 4, 0, 0).is_err());
        assert!(wal.sync().is_err());
        // Reopening drops the torn half-record.
        let mut wal = Wal::open(&path).unwrap();
        let (metas, _) = wal.scan_raw().unwrap();
        assert_eq!(metas.len(), 1);
        assert_eq!(metas[0].txn, 1);
    }

    #[test]
    fn latest_committed_image_picks_newest_committed() {
        let dir = tempdir().unwrap();
        let mut wal = Wal::create(dir.path().join("t.wal")).unwrap();
        let old = vec![1u8; PAGE_SIZE];
        let new = vec![2u8; PAGE_SIZE];
        let uncommitted = vec![3u8; PAGE_SIZE];
        wal.append_image(WalRecordKind::PageImage, 1, PageId(5), &old)
            .unwrap();
        wal.append_commit(1, 6, 0, 0).unwrap();
        wal.append_image(WalRecordKind::PageImage, 2, PageId(5), &new)
            .unwrap();
        wal.append_commit(2, 6, 0, 0).unwrap();
        // A later image from a transaction that never committed must not win.
        wal.append_image(WalRecordKind::PageImage, 3, PageId(5), &uncommitted)
            .unwrap();
        wal.sync().unwrap();
        let got = wal.latest_committed_image(PageId(5)).unwrap().unwrap();
        assert_eq!(got, new);
        assert!(wal.latest_committed_image(PageId(9)).unwrap().is_none());
    }

    #[test]
    fn group_accounting_counts_rounds_and_members() {
        let dir = tempdir().unwrap();
        let mut wal = Wal::create(dir.path().join("t.wal")).unwrap();
        // Three commit records, one fsync: one round of three members.
        wal.append_commit(1, 2, 0, 0).unwrap();
        wal.append_commit(2, 2, 0, 0).unwrap();
        wal.append_commit(3, 2, 0, 0).unwrap();
        wal.sync().unwrap();
        let stats = wal.stats();
        assert_eq!(stats.group_rounds, 1);
        assert_eq!(stats.group_members, 3);
        // A sync with nothing new is free.
        wal.sync().unwrap();
        assert_eq!(wal.stats().syncs, 1);
        // A lone commit is a round of one.
        wal.append_commit(4, 2, 0, 0).unwrap();
        wal.sync().unwrap();
        let stats = wal.stats();
        assert_eq!(stats.group_rounds, 2);
        assert_eq!(stats.group_members, 4);
    }

    #[test]
    fn commit_handles_lead_and_observe_durability() {
        let dir = tempdir().unwrap();
        let mut wal = Wal::create(dir.path().join("t.wal")).unwrap();
        let handles = wal.commit_handles();
        let lsn = wal.append_commit(1, 2, 0, 0).unwrap();
        // Write-through happened, but durability requires a led round.
        assert!(handles.durable() <= lsn);
        assert!(handles.try_lead_sync().unwrap());
        assert!(handles.durable() > lsn);
        assert!(handles.poisoned().is_none());
        handles.poison("test poison");
        assert_eq!(handles.poisoned().as_deref(), Some("test poison"));
    }

    #[test]
    fn wal_path_suffix() {
        assert_eq!(
            wal_path_for(Path::new("/tmp/x/repo.crimson")),
            PathBuf::from("/tmp/x/repo.crimson.wal")
        );
    }
}
