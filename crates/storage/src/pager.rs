//! File-backed pager: reads, writes and allocates fixed-size pages.
//!
//! The pager owns the database file. Page 0 is the file header carrying a
//! magic number, a format version, the allocated page count and the page ids
//! of the catalog root. All higher-level structures (heap files, B+trees,
//! catalog) live in pages allocated through [`Pager::allocate_page`].
//!
//! ## Media-fault detection (format v2)
//!
//! Format v2 adds two checksum layers:
//!
//! * The header page carries a CRC32 of its own full 8 KiB (computed with
//!   the checksum field zeroed), so a flipped bit in the header surfaces as
//!   a typed [`StorageError::InvalidDatabase`] at open, never a panic or a
//!   silently wrong catalog root.
//! * Every data page has a CRC32 of its full content, kept in a sidecar
//!   checksum file (`<db>.sum`, rewritten atomically at every
//!   [`Pager::sync`], i.e. at checkpoint and recovery). Checksums live out
//!   of line because pages use all `PAGE_SIZE` bytes for payload (heap
//!   cells pack down from the page end), so an in-page trailer would
//!   change every page layout. Entries are verified on every disk read; a
//!   mismatch is a typed [`StorageError::CorruptPage`].
//!
//! Only v2 files open; any other version is a typed
//! [`StorageError::InvalidDatabase`]. A missing or damaged sidecar
//! degrades to "unverified" (never a false corruption report) and heals at
//! the next checkpoint.
//!
//! [`Pager::write_page`] records the new checksum **in memory only**; the
//! sidecar file is rewritten at the next [`Pager::sync`]. Between
//! checkpoints, disk pages can therefore be newer than the persisted
//! sidecar — from eviction write-backs and from the background
//! checkpointer's pre-flush of committed dirty pages. That window is safe
//! because every such write is WAL-covered (WAL-before-data): after a
//! crash, recovery rewrites each covered page from the log and the
//! checkpoint that ends recovery persists fresh checksums. The sidecar is
//! only ever trusted for pages the log no longer covers.
//!
//! All file I/O goes through the injectable [`StorageIo`] seam; transient
//! failures (`ErrorKind::Interrupted`) are retried with bounded exponential
//! backoff per the configured [`RetryPolicy`].

use crate::crc32::crc32;
use crate::error::{StorageError, StorageResult};
use crate::io::{DiskIo, RetryPolicy, StorageIo};
use crate::page::{Page, PageId, PAGE_SIZE};
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"CRIMSON1";
/// The one format this build reads and writes.
const FORMAT_VERSION: u32 = 2;

const SUM_MAGIC: &[u8; 8] = b"CRIMSUM1";
const SUM_VERSION: u32 = 1;
/// Sidecar layout: magic(8) version(4) page_count(8).
const SUM_HEADER: usize = 20;

// Header layout (page 0):
//   0..8    magic
//   8..12   format version (u32)
//   12..20  page count (u64)
//   20..28  catalog root page (u64)
//   28..36  user metadata page (u64, reserved)
//   36..44  checkpoint LSN (u64): the WAL position of the last checkpoint
//   44..48  header CRC32 (v2+): CRC of the full header page with this
//           field zeroed
const HDR_VERSION: usize = 8;
const HDR_PAGE_COUNT: usize = 12;
const HDR_CATALOG_ROOT: usize = 20;
const HDR_USER_META: usize = 28;
const HDR_CHECKPOINT_LSN: usize = 36;
const HDR_HEADER_CRC: usize = 44;

/// Parse a little-endian `u32` out of the header, surfacing a typed
/// corruption error instead of panicking when the slice is short.
fn header_u32(header: &[u8], offset: usize, what: &str) -> StorageResult<u32> {
    header
        .get(offset..offset + 4)
        .and_then(|s| s.try_into().ok())
        .map(u32::from_le_bytes)
        .ok_or_else(|| StorageError::InvalidDatabase(format!("header truncated reading {what}")))
}

/// Parse a little-endian `u64` out of the header (typed error, no panic).
fn header_u64(header: &[u8], offset: usize, what: &str) -> StorageResult<u64> {
    header
        .get(offset..offset + 8)
        .and_then(|s| s.try_into().ok())
        .map(u64::from_le_bytes)
        .ok_or_else(|| StorageError::InvalidDatabase(format!("header truncated reading {what}")))
}

/// The sidecar checksum file living next to a database file.
pub fn sum_path_for(db_path: &Path) -> PathBuf {
    let mut os = db_path.as_os_str().to_os_string();
    os.push(".sum");
    PathBuf::from(os)
}

/// Outcome of verifying one page against the checksum table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PageVerdict {
    /// Checksum known and matched.
    Verified,
    /// No checksum recorded for this page (missing or damaged sidecar);
    /// the content was accepted unverified.
    Unverified,
}

/// The pager: owns the file handle and the header page.
pub struct Pager {
    io: Box<dyn StorageIo>,
    path: PathBuf,
    page_count: u64,
    catalog_root: PageId,
    user_meta: PageId,
    checkpoint_lsn: u64,
    header_dirty: bool,
    fresh: bool,
    /// Per-page CRC32 table, indexed by page id. `None` = unknown (page 0,
    /// missing or damaged sidecar, freshly allocated pages).
    checksums: Vec<Option<u32>>,
    /// The sidecar existed but failed its own validation at open.
    sum_damaged: bool,
    retry: RetryPolicy,
}

impl std::fmt::Debug for Pager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pager")
            .field("path", &self.path)
            .field("page_count", &self.page_count)
            .field("catalog_root", &self.catalog_root)
            .finish()
    }
}

impl Pager {
    /// Create a new database file, truncating any existing file at `path`.
    pub fn create(path: impl AsRef<Path>) -> StorageResult<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        // A stale sidecar from a previous database at this path would
        // produce false corruption reports; drop it.
        let _ = std::fs::remove_file(sum_path_for(&path));
        let mut pager = Pager {
            io: Box::new(DiskIo::new(file)),
            path,
            page_count: 1, // header page
            catalog_root: PageId::NULL,
            user_meta: PageId::NULL,
            checkpoint_lsn: 0,
            header_dirty: true,
            fresh: true,
            checksums: vec![None],
            sum_damaged: false,
            retry: RetryPolicy::default(),
        };
        pager.write_header()?;
        Ok(pager)
    }

    /// Open an existing database file.
    pub fn open(path: impl AsRef<Path>) -> StorageResult<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut io: Box<dyn StorageIo> = Box::new(DiskIo::new(file));
        let file_len = io.len()?;
        if file_len < PAGE_SIZE as u64 {
            return Err(StorageError::InvalidDatabase(format!(
                "file is {file_len} bytes, too short to hold the {PAGE_SIZE}-byte header page"
            )));
        }
        let mut header = vec![0u8; PAGE_SIZE];
        let n = io.read_at(0, &mut header)?;
        if n < PAGE_SIZE {
            return Err(StorageError::InvalidDatabase(format!(
                "short read of the header page ({n} of {PAGE_SIZE} bytes)"
            )));
        }
        if &header[0..8] != MAGIC {
            return Err(StorageError::InvalidDatabase(
                "bad magic number".to_string(),
            ));
        }
        let version = header_u32(&header, HDR_VERSION, "format version")?;
        if version != FORMAT_VERSION {
            return Err(StorageError::InvalidDatabase(format!(
                "unsupported format version {version} (this build reads version {FORMAT_VERSION})"
            )));
        }
        let stored = header_u32(&header, HDR_HEADER_CRC, "header checksum")?;
        header[HDR_HEADER_CRC..HDR_HEADER_CRC + 4].copy_from_slice(&[0u8; 4]);
        let actual = crc32(&header);
        if stored != actual {
            return Err(StorageError::InvalidDatabase(format!(
                "header page checksum mismatch \
                 (expected {stored:#010x}, found {actual:#010x}): \
                 the header page is corrupt"
            )));
        }
        let page_count = header_u64(&header, HDR_PAGE_COUNT, "page count")?;
        if page_count == 0 {
            return Err(StorageError::InvalidDatabase(
                "header records zero pages (the header page itself is page 0)".to_string(),
            ));
        }
        let catalog_root = header_u64(&header, HDR_CATALOG_ROOT, "catalog root")?;
        if catalog_root >= page_count {
            return Err(StorageError::InvalidDatabase(format!(
                "catalog root {catalog_root} lies beyond the page count {page_count}"
            )));
        }
        let user_meta = header_u64(&header, HDR_USER_META, "user metadata page")?;
        let checkpoint_lsn = header_u64(&header, HDR_CHECKPOINT_LSN, "checkpoint LSN")?;
        let (checksums, sum_damaged) = load_checksums(&sum_path_for(&path), page_count);
        Ok(Pager {
            io,
            path,
            page_count,
            catalog_root: PageId(catalog_root),
            user_meta: PageId(user_meta),
            checkpoint_lsn,
            header_dirty: false,
            fresh: false,
            checksums,
            sum_damaged,
            retry: RetryPolicy::default(),
        })
    }

    /// `true` when this pager was just created (no recovery needed).
    pub(crate) fn is_fresh(&self) -> bool {
        self.fresh
    }

    /// `true` when the sidecar checksum file existed but failed its own
    /// validation at open (all pages degrade to unverified until the next
    /// checkpoint rebuilds it).
    pub fn checksum_sidecar_damaged(&self) -> bool {
        self.sum_damaged
    }

    /// Replace the I/O backend in place: `f` receives the current backend
    /// and returns the one to use from now on (typically wrapping it in a
    /// fault injector).
    pub(crate) fn wrap_io(&mut self, f: impl FnOnce(Box<dyn StorageIo>) -> Box<dyn StorageIo>) {
        let placeholder: Box<dyn StorageIo> = Box::new(PoisonIo);
        let current = std::mem::replace(&mut self.io, placeholder);
        self.io = f(current);
    }

    /// Configure how transient I/O errors are retried.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// The WAL position recorded by the last checkpoint.
    pub fn checkpoint_lsn(&self) -> u64 {
        self.checkpoint_lsn
    }

    /// Record the WAL position of a checkpoint (persisted on the next header
    /// write).
    pub fn set_checkpoint_lsn(&mut self, lsn: u64) {
        self.checkpoint_lsn = lsn;
        self.header_dirty = true;
    }

    /// Overwrite the in-memory header state wholesale. Used by crash
    /// recovery (restoring the state of the last committed transaction) and
    /// by transaction rollback (restoring the begin-time snapshot).
    pub(crate) fn restore_header(
        &mut self,
        page_count: u64,
        catalog_root: PageId,
        user_meta: PageId,
        checkpoint_lsn: u64,
    ) {
        self.page_count = page_count;
        self.catalog_root = catalog_root;
        self.user_meta = user_meta;
        self.checkpoint_lsn = checkpoint_lsn;
        self.header_dirty = true;
    }

    /// Path of the underlying database file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of pages allocated so far (including the header page).
    pub fn page_count(&self) -> u64 {
        self.page_count
    }

    /// The page id of the catalog root, or NULL when not yet assigned.
    pub fn catalog_root(&self) -> PageId {
        self.catalog_root
    }

    /// Record the page id of the catalog root.
    pub fn set_catalog_root(&mut self, pid: PageId) {
        self.catalog_root = pid;
        self.header_dirty = true;
    }

    /// An extra application-defined metadata page id (reserved for callers).
    pub fn user_meta(&self) -> PageId {
        self.user_meta
    }

    /// Set the application-defined metadata page id.
    pub fn set_user_meta(&mut self, pid: PageId) {
        self.user_meta = pid;
        self.header_dirty = true;
    }

    /// Allocate a fresh page at the end of the file and return its id.
    /// The page contents on disk are undefined until first written.
    pub fn allocate_page(&mut self) -> StorageResult<PageId> {
        let pid = PageId(self.page_count);
        self.page_count += 1;
        self.header_dirty = true;
        // Whatever bytes the file holds at this offset are undefined until
        // the page is first written, so its checksum is unknown.
        *self.entry_mut(pid) = None;
        Ok(pid)
    }

    fn entry_mut(&mut self, pid: PageId) -> &mut Option<u32> {
        let idx = pid.0 as usize;
        if idx >= self.checksums.len() {
            self.checksums.resize(idx + 1, None);
        }
        &mut self.checksums[idx]
    }

    fn entry(&self, pid: PageId) -> Option<u32> {
        self.checksums.get(pid.0 as usize).copied().flatten()
    }

    /// `true` when a checksum is recorded for this page (reads of it are
    /// verified).
    pub(crate) fn checksum_known(&self, pid: PageId) -> bool {
        self.entry(pid).is_some()
    }

    /// Read the raw bytes of a page, zero-filling past end-of-file (the
    /// file may be shorter than the logical page count, and the trailing
    /// page may be short if a crash interrupted a write). Transient errors
    /// are retried per the policy. No checksum verification.
    fn read_page_raw(&mut self, pid: PageId) -> StorageResult<Vec<u8>> {
        let offset = pid.offset();
        let io = &mut self.io;
        let buf = self.retry.run(|| {
            let mut buf = vec![0u8; PAGE_SIZE];
            let _ = io.read_at(offset, &mut buf)?;
            Ok(buf)
        })?;
        Ok(buf)
    }

    /// Verify `buf` against the recorded checksum of `pid`.
    fn verify_buf(&self, pid: PageId, buf: &[u8]) -> Result<PageVerdict, (u32, u32)> {
        match self.entry(pid) {
            None => Ok(PageVerdict::Unverified),
            Some(expected) => {
                let found = crc32(buf);
                if expected == found {
                    Ok(PageVerdict::Verified)
                } else {
                    Err((expected, found))
                }
            }
        }
    }

    /// Read a page from disk, verifying its checksum when one is recorded.
    /// Reading a page that was allocated but never written returns a zeroed
    /// page. A checksum mismatch is re-read once (to rule out a transient
    /// in-flight corruption) and then surfaces as
    /// [`StorageError::CorruptPage`].
    pub fn read_page(&mut self, pid: PageId) -> StorageResult<Page> {
        if pid.0 >= self.page_count {
            return Err(StorageError::InvalidPage(pid.0));
        }
        let mut mismatch = (0u32, 0u32);
        for _ in 0..2 {
            let buf = self.read_page_raw(pid)?;
            match self.verify_buf(pid, &buf) {
                Ok(_) => return Ok(Page::from_bytes(buf)),
                Err(pair) => mismatch = pair,
            }
        }
        Err(StorageError::CorruptPage {
            page: pid.0,
            expected: mismatch.0,
            found: mismatch.1,
        })
    }

    /// Verify a page's on-disk bytes without materialising a [`Page`].
    /// Used by the scrubber.
    pub(crate) fn verify_page(&mut self, pid: PageId) -> StorageResult<PageVerdict> {
        if pid.0 >= self.page_count {
            return Err(StorageError::InvalidPage(pid.0));
        }
        let mut mismatch = (0u32, 0u32);
        for _ in 0..2 {
            let buf = self.read_page_raw(pid)?;
            match self.verify_buf(pid, &buf) {
                Ok(v) => return Ok(v),
                Err(pair) => mismatch = pair,
            }
        }
        Err(StorageError::CorruptPage {
            page: pid.0,
            expected: mismatch.0,
            found: mismatch.1,
        })
    }

    /// Record the checksum of a page's *current* disk content (used to
    /// backfill unknown entries; the content is trusted as-is).
    pub(crate) fn backfill_checksum(&mut self, pid: PageId) -> StorageResult<()> {
        if pid.0 >= self.page_count {
            return Err(StorageError::InvalidPage(pid.0));
        }
        let buf = self.read_page_raw(pid)?;
        *self.entry_mut(pid) = Some(crc32(&buf));
        Ok(())
    }

    /// Write a page to disk and record its checksum. Transient errors are
    /// retried per the policy.
    pub fn write_page(&mut self, pid: PageId, page: &Page) -> StorageResult<()> {
        if pid.0 >= self.page_count {
            return Err(StorageError::InvalidPage(pid.0));
        }
        let offset = pid.offset();
        let bytes = page.bytes();
        let io = &mut self.io;
        self.retry.run(|| io.write_at(offset, bytes))?;
        *self.entry_mut(pid) = Some(crc32(bytes));
        Ok(())
    }

    /// Persist the header page if it changed since the last sync.
    pub fn write_header(&mut self) -> StorageResult<()> {
        if !self.header_dirty {
            return Ok(());
        }
        let mut page = Page::new();
        page.write_bytes(0, MAGIC);
        page.write_u32(HDR_VERSION, FORMAT_VERSION);
        page.write_u64(HDR_PAGE_COUNT, self.page_count);
        page.write_u64(HDR_CATALOG_ROOT, self.catalog_root.0);
        page.write_u64(HDR_USER_META, self.user_meta.0);
        page.write_u64(HDR_CHECKPOINT_LSN, self.checkpoint_lsn);
        // CRC over the full header page with the checksum field zeroed.
        page.write_u32(HDR_HEADER_CRC, crc32(page.bytes()));
        let bytes = page.bytes();
        let io = &mut self.io;
        self.retry.run(|| io.write_at(0, bytes))?;
        self.header_dirty = false;
        Ok(())
    }

    /// Compute checksums for every page that lacks one, from current disk
    /// content: the heal path for a missing or damaged sidecar; it trusts
    /// the bytes as they stand.
    fn backfill_unknown(&mut self) -> StorageResult<()> {
        for raw in 1..self.page_count {
            let pid = PageId(raw);
            if !self.checksum_known(pid) {
                self.backfill_checksum(pid)?;
            }
        }
        Ok(())
    }

    /// Atomically rewrite the sidecar checksum file.
    fn save_checksums(&mut self) -> StorageResult<()> {
        let n = self.page_count as usize;
        let bitmap_len = n.div_ceil(8);
        let mut out = Vec::with_capacity(SUM_HEADER + bitmap_len + 4 * n + 4);
        out.extend_from_slice(SUM_MAGIC);
        out.extend_from_slice(&SUM_VERSION.to_le_bytes());
        out.extend_from_slice(&self.page_count.to_le_bytes());
        let mut bitmap = vec![0u8; bitmap_len];
        for (i, entry) in self.checksums.iter().take(n).enumerate() {
            if entry.is_some() {
                bitmap[i / 8] |= 1 << (i % 8);
            }
        }
        out.extend_from_slice(&bitmap);
        for i in 0..n {
            let v = self.checksums.get(i).copied().flatten().unwrap_or(0);
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&crc32(&out).to_le_bytes());

        let final_path = sum_path_for(&self.path);
        let tmp_path = {
            let mut os = final_path.as_os_str().to_os_string();
            os.push(".tmp");
            PathBuf::from(os)
        };
        let mut tmp = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        tmp.write_all(&out)?;
        tmp.sync_all()?;
        drop(tmp);
        std::fs::rename(&tmp_path, &final_path)?;
        self.sum_damaged = false;
        Ok(())
    }

    /// Flush everything (header + OS buffers) to stable storage and persist
    /// the checksum table, first filling in the checksum of every page that
    /// lacks one.
    pub fn sync(&mut self) -> StorageResult<()> {
        self.backfill_unknown()?;
        self.save_checksums()?;
        self.write_header()?;
        self.io.sync()?;
        Ok(())
    }
}

/// Load the sidecar checksum file. Any problem (missing file, bad magic,
/// failed self-CRC, size mismatch) degrades to "all unknown" — never a
/// false corruption report. Returns `(entries, damaged)` where `damaged`
/// means the file existed but failed validation.
fn load_checksums(path: &Path, page_count: u64) -> (Vec<Option<u32>>, bool) {
    let unknown = vec![None; page_count as usize];
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(_) => return (unknown, false), // no sidecar: v2 file before first checkpoint
    };
    if bytes.len() < SUM_HEADER + 4 || &bytes[0..8] != SUM_MAGIC {
        return (unknown, true);
    }
    let body_len = bytes.len() - 4;
    let stored = u32::from_le_bytes(bytes[body_len..].try_into().unwrap());
    if crc32(&bytes[..body_len]) != stored {
        return (unknown, true);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != SUM_VERSION {
        return (unknown, true);
    }
    let recorded = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let n = recorded.min(page_count) as usize;
    let bitmap_len = (recorded as usize).div_ceil(8);
    let entries_start = SUM_HEADER + bitmap_len;
    if entries_start + 4 * recorded as usize != body_len {
        return (unknown, true);
    }
    let bitmap = &bytes[SUM_HEADER..entries_start];
    let mut entries = vec![None; page_count as usize];
    for (i, entry) in entries.iter_mut().take(n).enumerate() {
        if bitmap[i / 8] & (1 << (i % 8)) != 0 {
            let at = entries_start + 4 * i;
            *entry = Some(u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()));
        }
    }
    (entries, false)
}

/// Placeholder backend used only inside `wrap_io`'s swap; never operated on.
struct PoisonIo;

impl StorageIo for PoisonIo {
    fn read_at(&mut self, _: u64, _: &mut [u8]) -> std::io::Result<usize> {
        Err(std::io::Error::other("I/O backend is being replaced"))
    }
    fn write_at(&mut self, _: u64, _: &[u8]) -> std::io::Result<()> {
        Err(std::io::Error::other("I/O backend is being replaced"))
    }
    fn sync(&mut self) -> std::io::Result<()> {
        Err(std::io::Error::other("I/O backend is being replaced"))
    }
    fn set_len(&mut self, _: u64) -> std::io::Result<()> {
        Err(std::io::Error::other("I/O backend is being replaced"))
    }
    fn len(&mut self) -> std::io::Result<u64> {
        Err(std::io::Error::other("I/O backend is being replaced"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempfile::tempdir;

    #[test]
    fn create_allocate_write_read() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.crdb");
        let mut pager = Pager::create(&path).unwrap();
        let pid = pager.allocate_page().unwrap();
        assert_eq!(pid, PageId(1));
        let mut page = Page::new();
        page.write_bytes(0, b"hello pages");
        pager.write_page(pid, &page).unwrap();
        let back = pager.read_page(pid).unwrap();
        assert_eq!(back.read_bytes(0, 11), b"hello pages");
    }

    #[test]
    fn reopen_preserves_header() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.crdb");
        {
            let mut pager = Pager::create(&path).unwrap();
            let p1 = pager.allocate_page().unwrap();
            let p2 = pager.allocate_page().unwrap();
            pager.set_catalog_root(p1);
            pager.set_user_meta(p2);
            let mut page = Page::new();
            page.write_u64(0, 777);
            pager.write_page(p2, &page).unwrap();
            pager.sync().unwrap();
        }
        let mut pager = Pager::open(&path).unwrap();
        assert_eq!(pager.page_count(), 3);
        assert_eq!(pager.catalog_root(), PageId(1));
        assert_eq!(pager.user_meta(), PageId(2));
        let page = pager.read_page(PageId(2)).unwrap();
        assert_eq!(page.read_u64(0), 777);
    }

    #[test]
    fn open_rejects_truncated_file() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.crdb");
        {
            let mut pager = Pager::create(&path).unwrap();
            pager.sync().unwrap();
        }
        // Chop the header page short; open must fail with a typed error, not
        // a panic.
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(100).unwrap();
        drop(file);
        match Pager::open(&path) {
            Err(StorageError::InvalidDatabase(msg)) => {
                assert!(msg.contains("too short"), "unexpected message: {msg}")
            }
            other => panic!("expected InvalidDatabase, got {other:?}"),
        }
    }

    #[test]
    fn open_rejects_wrong_version() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.crdb");
        {
            let mut pager = Pager::create(&path).unwrap();
            pager.sync().unwrap();
        }
        // Rewrite the version field with a future version number.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HDR_VERSION..HDR_VERSION + 4].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match Pager::open(&path) {
            Err(StorageError::InvalidDatabase(msg)) => {
                assert!(msg.contains("version 99"), "unexpected message: {msg}")
            }
            other => panic!("expected InvalidDatabase, got {other:?}"),
        }
    }

    #[test]
    fn open_rejects_corrupt_header_fields() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.crdb");
        {
            let mut pager = Pager::create(&path).unwrap();
            pager.sync().unwrap();
        }
        // A catalog root beyond the page count is structural corruption. In
        // v2 the header CRC trips first, which is equally typed.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HDR_CATALOG_ROOT..HDR_CATALOG_ROOT + 8].copy_from_slice(&77u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Pager::open(&path),
            Err(StorageError::InvalidDatabase(_))
        ));
    }

    #[test]
    fn header_bit_flip_is_detected_at_open() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.crdb");
        {
            let mut pager = Pager::create(&path).unwrap();
            pager.allocate_page().unwrap();
            pager.sync().unwrap();
        }
        // Flip one bit in a header byte no structural check looks at: only
        // the header CRC can catch it.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[100] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        match Pager::open(&path) {
            Err(StorageError::InvalidDatabase(msg)) => {
                assert!(msg.contains("checksum"), "unexpected message: {msg}")
            }
            other => panic!("expected InvalidDatabase, got {other:?}"),
        }
    }

    #[test]
    fn data_bit_flip_is_detected_as_corrupt_page() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.crdb");
        let pid = {
            let mut pager = Pager::create(&path).unwrap();
            let pid = pager.allocate_page().unwrap();
            let mut page = Page::new();
            page.write_bytes(0, b"precious phylogeny");
            pager.write_page(pid, &page).unwrap();
            pager.sync().unwrap();
            pid
        };
        let mut bytes = std::fs::read(&path).unwrap();
        let at = pid.offset() as usize + 7;
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let mut pager = Pager::open(&path).unwrap();
        match pager.read_page(pid) {
            Err(StorageError::CorruptPage {
                page,
                expected,
                found,
            }) => {
                assert_eq!(page, pid.0);
                assert_ne!(expected, found);
            }
            other => panic!("expected CorruptPage, got {other:?}"),
        }
    }

    #[test]
    fn v1_file_is_refused_at_open() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.crdb");
        {
            let mut pager = Pager::create(&path).unwrap();
            let pid = pager.allocate_page().unwrap();
            let mut page = Page::new();
            page.write_u64(0, 4242);
            pager.write_page(pid, &page).unwrap();
            pager.sync().unwrap();
        }
        // Rewrite the header as a v1 header (no CRC field) and drop the
        // sidecar, as the previous format laid a file out.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HDR_VERSION..HDR_VERSION + 4].copy_from_slice(&1u32.to_le_bytes());
        bytes[HDR_HEADER_CRC..HDR_HEADER_CRC + 4].copy_from_slice(&[0u8; 4]);
        std::fs::write(&path, &bytes).unwrap();
        std::fs::remove_file(sum_path_for(&path)).unwrap();

        match Pager::open(&path) {
            Err(StorageError::InvalidDatabase(msg)) => {
                assert!(msg.contains("version 1"), "unexpected message: {msg}")
            }
            other => panic!("a v1 file must be refused, got {other:?}"),
        }
        // The file is left as it was: nothing was upgraded in place.
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
    }

    #[test]
    fn damaged_sidecar_degrades_to_unverified_and_heals() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.crdb");
        let pid = {
            let mut pager = Pager::create(&path).unwrap();
            let pid = pager.allocate_page().unwrap();
            let mut page = Page::new();
            page.write_u64(0, 11);
            pager.write_page(pid, &page).unwrap();
            pager.sync().unwrap();
            pid
        };
        // Corrupt the sidecar itself.
        let sum = sum_path_for(&path);
        let mut bytes = std::fs::read(&sum).unwrap();
        let last = bytes.len() - 10;
        bytes[last] ^= 0xFF;
        std::fs::write(&sum, &bytes).unwrap();

        let mut pager = Pager::open(&path).unwrap();
        assert!(pager.checksum_sidecar_damaged());
        assert!(!pager.checksum_known(pid));
        assert_eq!(pager.read_page(pid).unwrap().read_u64(0), 11);
        pager.sync().unwrap();
        assert!(!pager.checksum_sidecar_damaged());
        assert!(pager.checksum_known(pid));
    }

    #[test]
    fn checkpoint_lsn_roundtrips_through_header() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.crdb");
        {
            let mut pager = Pager::create(&path).unwrap();
            pager.set_checkpoint_lsn(0xAB_CDEF);
            pager.sync().unwrap();
        }
        let pager = Pager::open(&path).unwrap();
        assert_eq!(pager.checkpoint_lsn(), 0xAB_CDEF);
    }

    #[test]
    fn open_rejects_non_database() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("junk.bin");
        std::fs::write(&path, vec![0u8; PAGE_SIZE]).unwrap();
        assert!(matches!(
            Pager::open(&path),
            Err(StorageError::InvalidDatabase(_))
        ));
    }

    #[test]
    fn read_unwritten_allocated_page_is_zeroed() {
        let dir = tempdir().unwrap();
        let mut pager = Pager::create(dir.path().join("t.crdb")).unwrap();
        let pid = pager.allocate_page().unwrap();
        let page = pager.read_page(pid).unwrap();
        assert!(page.bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn out_of_range_page_errors() {
        let dir = tempdir().unwrap();
        let mut pager = Pager::create(dir.path().join("t.crdb")).unwrap();
        assert!(matches!(
            pager.read_page(PageId(5)),
            Err(StorageError::InvalidPage(5))
        ));
        let page = Page::new();
        assert!(matches!(
            pager.write_page(PageId(5), &page),
            Err(StorageError::InvalidPage(5))
        ));
    }

    #[test]
    fn many_pages_roundtrip() {
        let dir = tempdir().unwrap();
        let mut pager = Pager::create(dir.path().join("t.crdb")).unwrap();
        let mut pids = Vec::new();
        for i in 0..64u64 {
            let pid = pager.allocate_page().unwrap();
            let mut page = Page::new();
            page.write_u64(0, i * 31);
            pager.write_page(pid, &page).unwrap();
            pids.push(pid);
        }
        for (i, pid) in pids.iter().enumerate() {
            let page = pager.read_page(*pid).unwrap();
            assert_eq!(page.read_u64(0), i as u64 * 31);
        }
    }
}
