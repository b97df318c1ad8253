//! Slotted-page heap files: unordered collections of variable-length records.
//!
//! Each heap page is laid out as
//!
//! ```text
//! +------------+---------------------+---------------->   <----------------+
//! | header     | slot directory ...  |   free space    ...   record cells  |
//! +------------+---------------------+---------------->   <----------------+
//! 0            12                    12+4*slots        free_end        PAGE_SIZE
//! ```
//!
//! * header: `slot_count: u16`, `free_end: u16`, `next_page: u64`
//! * slot: `offset: u16`, `len: u16`. A deleted slot keeps its cell offset
//!   and length but has the high bit of the offset set (the tombstone bit —
//!   offsets are < 8192, so bit 15 is always free); legacy tombstones with
//!   offset 0 are also recognised. Keeping the cell location lets a later
//!   insert of a compatible (equal-or-smaller) record reclaim the dead cell
//!   instead of growing the file.
//!
//! Records are addressed by [`RecordId`] = (page, slot), which is the stable
//! physical id the rest of the system (indexes, node labels) refers to.

use crate::buffer::{BufferPool, PageSource};
use crate::error::{StorageError, StorageResult};
use crate::page::{Page, PageId, PAGE_SIZE};
use serde::{Deserialize, Serialize};

const HDR_SLOT_COUNT: usize = 0;
const HDR_FREE_END: usize = 2;
const HDR_NEXT_PAGE: usize = 4;
const HEADER_SIZE: usize = 12;
const SLOT_SIZE: usize = 4;
/// High bit of a slot's offset field: set when the slot is a tombstone whose
/// cell can be reclaimed. Cell offsets are bounded by `PAGE_SIZE` (8192), so
/// bit 15 never collides with a live offset.
const TOMBSTONE: u16 = 0x8000;

/// `true` when a raw slot offset denotes a live record.
#[inline]
fn slot_is_live(offset_raw: u16) -> bool {
    offset_raw != 0 && offset_raw & TOMBSTONE == 0
}

/// Maximum record payload that fits on one page.
pub const MAX_RECORD_SIZE: usize = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE;

/// Stable identifier of a record in a heap file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RecordId {
    /// Page holding the record.
    pub page: u64,
    /// Slot index within the page.
    pub slot: u16,
}

impl RecordId {
    /// Pack into a single `u64` (page in the high 48 bits, slot in the low 16)
    /// for storage inside B+tree payloads.
    pub fn to_u64(self) -> u64 {
        (self.page << 16) | self.slot as u64
    }

    /// Inverse of [`RecordId::to_u64`].
    pub fn from_u64(v: u64) -> Self {
        RecordId {
            page: v >> 16,
            slot: (v & 0xFFFF) as u16,
        }
    }
}

impl std::fmt::Display for RecordId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}:{}", self.page, self.slot)
    }
}

/// A heap file: a linked list of slotted pages.
#[derive(Debug, Clone)]
pub struct HeapFile {
    first_page: PageId,
    last_page: PageId,
}

impl HeapFile {
    /// Create a new heap file with one empty page.
    pub fn create(pool: &BufferPool) -> StorageResult<Self> {
        let first = pool.allocate_page()?;
        pool.with_page_mut(first, init_heap_page)?;
        Ok(HeapFile {
            first_page: first,
            last_page: first,
        })
    }

    /// Open a heap file for read-only use: the tail pointer is left at the
    /// first page instead of being located (only [`HeapFile::insert`] needs
    /// the tail), so opening costs zero page reads. Snapshot readers build
    /// catalog handles once per pinned commit point; this keeps that cheap.
    pub fn open_read_only(first_page: PageId) -> Self {
        HeapFile {
            first_page,
            last_page: first_page,
        }
    }

    /// Re-open a heap file given its first page (walks to find the tail).
    pub fn open<S: PageSource>(pool: S, first_page: PageId) -> StorageResult<Self> {
        let mut last = first_page;
        loop {
            let next = pool.with_page(last, |p| PageId(p.read_u64(HDR_NEXT_PAGE)))?;
            if next.is_null() {
                break;
            }
            last = next;
        }
        Ok(HeapFile {
            first_page,
            last_page: last,
        })
    }

    /// First page id (persisted in the catalog).
    pub fn first_page(&self) -> PageId {
        self.first_page
    }

    /// Insert a record, returning its id. The tail page is tried first
    /// (fresh slot, then a compatible tombstoned slot whose dead cell is
    /// large enough); only when the tail has no room does the file grow.
    pub fn insert(&mut self, pool: &BufferPool, data: &[u8]) -> StorageResult<RecordId> {
        if data.len() > MAX_RECORD_SIZE {
            return Err(StorageError::RecordTooLarge(data.len()));
        }
        // Try the tail page first: append into free space, or reclaim a
        // compatible dead slot before growing the file.
        let inserted = pool.with_page_mut(self.last_page, |p| {
            try_insert(p, data).or_else(|| try_reuse(p, data))
        })?;
        if let Some(slot) = inserted {
            return Ok(RecordId {
                page: self.last_page.0,
                slot,
            });
        }
        // Allocate and link a new tail page.
        let new_page = pool.allocate_page()?;
        pool.with_page_mut(new_page, init_heap_page)?;
        pool.with_page_mut(self.last_page, |p| p.write_u64(HDR_NEXT_PAGE, new_page.0))?;
        self.last_page = new_page;
        let slot = pool
            .with_page_mut(new_page, |p| try_insert(p, data))?
            .expect("fresh page always has room for a record below MAX_RECORD_SIZE");
        Ok(RecordId {
            page: new_page.0,
            slot,
        })
    }

    /// Start a bulk append: a push-style writer that fills pages
    /// sequentially. The existing tail page is used first through the
    /// ordinary per-row path (so tombstoned cells there are still
    /// reclaimed); once it is full, rows are batched and each fresh page is
    /// written with a single page mutation — no tail-chain walk, no
    /// per-row latch round trip.
    pub fn begin_bulk<'h, 'p>(
        &'h mut self,
        pool: &'p BufferPool,
    ) -> StorageResult<HeapBulkWriter<'h, 'p>> {
        Ok(HeapBulkWriter {
            pool,
            tail_open: true,
            page: self.last_page,
            buf: Vec::with_capacity(PAGE_SIZE),
            lens: Vec::new(),
            used: HEADER_SIZE,
            heap: self,
        })
    }

    /// Append every record produced by `rows` (see [`HeapFile::begin_bulk`]
    /// for the page-filling strategy), returning the new record ids in
    /// order.
    pub fn bulk_append<I, K>(&mut self, pool: &BufferPool, rows: I) -> StorageResult<Vec<RecordId>>
    where
        I: IntoIterator<Item = K>,
        K: AsRef<[u8]>,
    {
        let mut writer = self.begin_bulk(pool)?;
        let mut rids = Vec::new();
        for row in rows {
            rids.push(writer.append(row.as_ref())?);
        }
        writer.finish()?;
        Ok(rids)
    }

    /// Fetch a record's bytes.
    pub fn get<S: PageSource>(&self, pool: S, rid: RecordId) -> StorageResult<Vec<u8>> {
        pool.with_page(PageId(rid.page), |p| read_slot(p, rid.slot))?
    }

    /// Delete a record. The slot is tombstoned with its cell location kept,
    /// so a later insert of an equal-or-smaller record can reclaim the dead
    /// cell (space is never compacted).
    pub fn delete(&self, pool: &BufferPool, rid: RecordId) -> StorageResult<()> {
        pool.with_page_mut(PageId(rid.page), |p| {
            let slot_count = p.read_u16(HDR_SLOT_COUNT);
            if rid.slot >= slot_count {
                return Err(StorageError::InvalidRecord {
                    page: rid.page,
                    slot: rid.slot,
                });
            }
            let slot_off = HEADER_SIZE + rid.slot as usize * SLOT_SIZE;
            let offset = p.read_u16(slot_off);
            if !slot_is_live(offset) {
                return Err(StorageError::InvalidRecord {
                    page: rid.page,
                    slot: rid.slot,
                });
            }
            p.write_u16(slot_off, offset | TOMBSTONE);
            Ok(())
        })?
    }

    /// Scan every live record. Returns `(RecordId, bytes)` pairs in physical
    /// order. The whole scan materializes page-by-page, never holding more
    /// than one page's records at a time in the closure.
    pub fn scan<S: PageSource>(&self, pool: S) -> StorageResult<ScanIter<S>> {
        Ok(ScanIter {
            pool,
            current_page: self.first_page,
            buffer: Vec::new(),
            buffer_pos: 0,
            done: false,
        })
    }

    /// Count live records.
    pub fn len<S: PageSource>(&self, pool: S) -> StorageResult<usize> {
        let mut count = 0usize;
        let mut page = self.first_page;
        loop {
            let (n, next) = pool.with_page(page, |p| {
                let slot_count = p.read_u16(HDR_SLOT_COUNT);
                let mut live = 0usize;
                for s in 0..slot_count {
                    let slot_off = HEADER_SIZE + s as usize * SLOT_SIZE;
                    if slot_is_live(p.read_u16(slot_off)) {
                        live += 1;
                    }
                }
                (live, PageId(p.read_u64(HDR_NEXT_PAGE)))
            })?;
            count += n;
            if next.is_null() {
                break;
            }
            page = next;
        }
        Ok(count)
    }
}

/// Push-style bulk appender over a heap file (see
/// [`HeapFile::begin_bulk`]).
///
/// Rows aimed at a fresh page are batched in a flat buffer and written with
/// one page mutation when the page is full (or at [`HeapBulkWriter::finish`]);
/// the page's successor is allocated first so the next-pointer lands in the
/// same mutation — every fresh page is dirtied exactly once. Record ids are
/// handed out immediately (the target page is allocated before buffering
/// starts), so callers can stream rows and index entries in one pass.
pub struct HeapBulkWriter<'h, 'p> {
    heap: &'h mut HeapFile,
    pool: &'p BufferPool,
    /// While `true`, rows go through the ordinary per-row path on the
    /// pre-existing tail page, which still reclaims tombstoned cells there.
    tail_open: bool,
    /// Page the buffered rows will be written to (already allocated).
    page: PageId,
    /// Cell bytes of the buffered rows, concatenated in append order.
    buf: Vec<u8>,
    /// Length of each buffered row.
    lens: Vec<u16>,
    /// Bytes of `page` consumed by the header plus buffered cells + slots.
    used: usize,
}

impl HeapBulkWriter<'_, '_> {
    /// Append one record, returning its id.
    pub fn append(&mut self, data: &[u8]) -> StorageResult<RecordId> {
        if data.len() > MAX_RECORD_SIZE {
            return Err(StorageError::RecordTooLarge(data.len()));
        }
        if self.tail_open {
            // The pre-existing tail: fresh slot or a reclaimable tombstone.
            let inserted = self.pool.with_page_mut(self.page, |p| {
                try_insert(p, data).or_else(|| try_reuse(p, data))
            })?;
            if let Some(slot) = inserted {
                return Ok(RecordId {
                    page: self.page.0,
                    slot,
                });
            }
            // Tail full: link a fresh page and switch to batching.
            let fresh = self.pool.allocate_page()?;
            self.pool
                .with_page_mut(self.page, |p| p.write_u64(HDR_NEXT_PAGE, fresh.0))?;
            self.pool.hint_cold(self.page);
            self.tail_open = false;
            self.page = fresh;
            self.heap.last_page = fresh;
            self.used = HEADER_SIZE;
        } else if self.used + data.len() + SLOT_SIZE > PAGE_SIZE {
            // Current fresh page is full: allocate its successor first so
            // the chain pointer is part of the page's single write.
            let next = self.pool.allocate_page()?;
            self.flush(next)?;
            self.page = next;
            self.heap.last_page = next;
            self.used = HEADER_SIZE;
        }
        let slot = self.lens.len() as u16;
        self.buf.extend_from_slice(data);
        self.lens.push(data.len() as u16);
        self.used += data.len() + SLOT_SIZE;
        Ok(RecordId {
            page: self.page.0,
            slot,
        })
    }

    /// Write the buffered rows to `self.page` in one mutation, replicating
    /// the per-row layout exactly (cells packed downward from the page end,
    /// slots in append order).
    fn flush(&mut self, next: PageId) -> StorageResult<()> {
        let lens = std::mem::take(&mut self.lens);
        let buf = std::mem::take(&mut self.buf);
        self.pool.with_page_mut(self.page, |p| {
            let mut cell_end = PAGE_SIZE;
            let mut src = 0usize;
            for (i, &len) in lens.iter().enumerate() {
                let len = len as usize;
                cell_end -= len;
                p.write_bytes(cell_end, &buf[src..src + len]);
                src += len;
                let slot_off = HEADER_SIZE + i * SLOT_SIZE;
                p.write_u16(slot_off, cell_end as u16);
                p.write_u16(slot_off + 2, len as u16);
            }
            p.write_u16(HDR_SLOT_COUNT, lens.len() as u16);
            p.write_u16(HDR_FREE_END, cell_end as u16);
            p.write_u64(HDR_NEXT_PAGE, next.0);
        })?;
        // Bulk-filled pages are write-once; let the clock evict them without
        // a second chance.
        self.pool.hint_cold(self.page);
        Ok(())
    }

    /// Flush the pending page (if any) and end the bulk append. Must be
    /// called; dropping the writer flushes best-effort but swallows errors.
    pub fn finish(mut self) -> StorageResult<()> {
        if !self.tail_open && !self.lens.is_empty() {
            self.flush(PageId::NULL)?;
        }
        self.lens.clear();
        Ok(())
    }
}

impl Drop for HeapBulkWriter<'_, '_> {
    fn drop(&mut self) {
        if !self.tail_open && !self.lens.is_empty() {
            let _ = self.flush(PageId::NULL);
        }
    }
}

/// Iterator over the live records of a heap file. Generic over the
/// [`PageSource`], so the same scan serves the writer's current view and
/// concurrent snapshot readers.
pub struct ScanIter<S: PageSource> {
    pool: S,
    current_page: PageId,
    buffer: Vec<(RecordId, Vec<u8>)>,
    buffer_pos: usize,
    done: bool,
}

impl<S: PageSource> ScanIter<S> {
    fn refill(&mut self) -> StorageResult<()> {
        let pool = self.pool;
        self.buffer.clear();
        self.buffer_pos = 0;
        while self.buffer.is_empty() && !self.done {
            let page = self.current_page;
            let next = pool.with_page(page, |p| {
                let slot_count = p.read_u16(HDR_SLOT_COUNT);
                for s in 0..slot_count {
                    let slot_off = HEADER_SIZE + s as usize * SLOT_SIZE;
                    let offset_raw = p.read_u16(slot_off);
                    let len = p.read_u16(slot_off + 2) as usize;
                    if slot_is_live(offset_raw) {
                        self.buffer.push((
                            RecordId {
                                page: page.0,
                                slot: s,
                            },
                            p.read_bytes(offset_raw as usize, len).to_vec(),
                        ));
                    }
                }
                PageId(p.read_u64(HDR_NEXT_PAGE))
            })?;
            if next.is_null() {
                self.done = true;
            } else {
                self.current_page = next;
            }
        }
        Ok(())
    }
}

impl<S: PageSource> Iterator for ScanIter<S> {
    type Item = StorageResult<(RecordId, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.buffer_pos >= self.buffer.len() {
            if let Err(e) = self.refill() {
                return Some(Err(e));
            }
            if self.buffer.is_empty() {
                return None;
            }
        }
        let item = self.buffer[self.buffer_pos].clone();
        self.buffer_pos += 1;
        Some(Ok(item))
    }
}

// ---------------------------------------------------------------------------
// Page-level helpers
// ---------------------------------------------------------------------------

fn init_heap_page(p: &mut Page) {
    p.write_u16(HDR_SLOT_COUNT, 0);
    p.write_u16(HDR_FREE_END, PAGE_SIZE as u16);
    p.write_u64(HDR_NEXT_PAGE, 0);
}

/// Try to insert `data` into the page; returns the slot on success or `None`
/// when the page lacks room.
fn try_insert(p: &mut Page, data: &[u8]) -> Option<u16> {
    let slot_count = p.read_u16(HDR_SLOT_COUNT) as usize;
    let free_end = p.read_u16(HDR_FREE_END) as usize;
    let slots_end = HEADER_SIZE + slot_count * SLOT_SIZE;
    let needed = data.len() + SLOT_SIZE;
    if free_end < slots_end || free_end - slots_end < needed {
        return None;
    }
    let new_free_end = free_end - data.len();
    p.write_bytes(new_free_end, data);
    let slot_off = HEADER_SIZE + slot_count * SLOT_SIZE;
    p.write_u16(slot_off, new_free_end as u16);
    p.write_u16(slot_off + 2, data.len() as u16);
    p.write_u16(HDR_SLOT_COUNT, (slot_count + 1) as u16);
    p.write_u16(HDR_FREE_END, new_free_end as u16);
    Some(slot_count as u16)
}

fn read_slot(p: &Page, slot: u16) -> StorageResult<Vec<u8>> {
    let slot_count = p.read_u16(HDR_SLOT_COUNT);
    if slot >= slot_count {
        return Err(StorageError::InvalidRecord { page: 0, slot });
    }
    let slot_off = HEADER_SIZE + slot as usize * SLOT_SIZE;
    let offset_raw = p.read_u16(slot_off);
    let len = p.read_u16(slot_off + 2) as usize;
    if !slot_is_live(offset_raw) {
        return Err(StorageError::InvalidRecord { page: 0, slot });
    }
    Ok(p.read_bytes(offset_raw as usize, len).to_vec())
}

/// Reclaim a tombstoned slot whose dead cell is large enough for `data`.
/// Returns the slot on success. The cell keeps its original length bound in
/// the page (shrinkage inside a reused cell is not reclaimed), but no new
/// free space or slot-directory space is consumed.
fn try_reuse(p: &mut Page, data: &[u8]) -> Option<u16> {
    let slot_count = p.read_u16(HDR_SLOT_COUNT);
    for s in 0..slot_count {
        let slot_off = HEADER_SIZE + s as usize * SLOT_SIZE;
        let offset_raw = p.read_u16(slot_off);
        if offset_raw & TOMBSTONE == 0 {
            continue;
        }
        let offset = offset_raw & !TOMBSTONE;
        let len = p.read_u16(slot_off + 2) as usize;
        if offset == 0 || len < data.len() {
            continue;
        }
        p.write_bytes(offset as usize, data);
        p.write_u16(slot_off, offset);
        p.write_u16(slot_off + 2, data.len() as u16);
        return Some(s);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::Pager;
    use tempfile::tempdir;

    fn pool() -> (tempfile::TempDir, BufferPool) {
        let dir = tempdir().unwrap();
        let pager = Pager::create(dir.path().join("t.crdb")).unwrap();
        (dir, BufferPool::with_capacity(pager, 64).unwrap())
    }

    #[test]
    fn record_id_packing() {
        let rid = RecordId {
            page: 123456,
            slot: 789,
        };
        assert_eq!(RecordId::from_u64(rid.to_u64()), rid);
        assert_eq!(rid.to_string(), "r123456:789");
    }

    #[test]
    fn insert_and_get() {
        let (_d, pool) = pool();
        let mut heap = HeapFile::create(&pool).unwrap();
        let a = heap.insert(&pool, b"first record").unwrap();
        let b = heap.insert(&pool, b"second record, a bit longer").unwrap();
        assert_eq!(heap.get(&pool, a).unwrap(), b"first record");
        assert_eq!(heap.get(&pool, b).unwrap(), b"second record, a bit longer");
        assert_eq!(heap.len(&pool).unwrap(), 2);
    }

    #[test]
    fn insert_spills_to_new_pages() {
        let (_d, pool) = pool();
        let mut heap = HeapFile::create(&pool).unwrap();
        let payload = vec![7u8; 1000];
        let mut rids = Vec::new();
        for _ in 0..100 {
            rids.push(heap.insert(&pool, &payload).unwrap());
        }
        // 100 × 1 KiB cannot fit on one 8 KiB page.
        let distinct_pages: std::collections::HashSet<u64> = rids.iter().map(|r| r.page).collect();
        assert!(distinct_pages.len() > 1);
        for rid in &rids {
            assert_eq!(heap.get(&pool, *rid).unwrap().len(), 1000);
        }
        assert_eq!(heap.len(&pool).unwrap(), 100);
    }

    #[test]
    fn oversized_record_rejected() {
        let (_d, pool) = pool();
        let mut heap = HeapFile::create(&pool).unwrap();
        let too_big = vec![0u8; MAX_RECORD_SIZE + 1];
        assert!(matches!(
            heap.insert(&pool, &too_big),
            Err(StorageError::RecordTooLarge(_))
        ));
        let just_fits = vec![0u8; MAX_RECORD_SIZE];
        assert!(heap.insert(&pool, &just_fits).is_ok());
    }

    #[test]
    fn delete_and_scan() {
        let (_d, pool) = pool();
        let mut heap = HeapFile::create(&pool).unwrap();
        let a = heap.insert(&pool, b"a").unwrap();
        let b = heap.insert(&pool, b"b").unwrap();
        let c = heap.insert(&pool, b"c").unwrap();
        heap.delete(&pool, b).unwrap();
        let rows: Vec<(RecordId, Vec<u8>)> = heap
            .scan(&pool)
            .unwrap()
            .collect::<StorageResult<Vec<_>>>()
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, a);
        assert_eq!(rows[1].0, c);
        assert!(heap.get(&pool, b).is_err());
        assert_eq!(heap.len(&pool).unwrap(), 2);
    }

    #[test]
    fn delete_insert_roundtrip_reuses_slots_without_growing() {
        let (_d, pool) = pool();
        let mut heap = HeapFile::create(&pool).unwrap();
        // Fill the single page close to capacity with equal-sized records
        // (14 × (500 + 4) bytes ≈ 7 KiB of the 8 KiB page).
        let payload = vec![3u8; 500];
        let mut rids = Vec::new();
        for _ in 0..14 {
            let rid = heap.insert(&pool, &payload).unwrap();
            assert_eq!(rid.page, heap.first_page().0, "fill must stay on one page");
            rids.push(rid);
        }
        let pages_before = pool.page_count();
        // Delete/insert cycles of compatible records must reclaim the dead
        // slots on the (only) page instead of growing the file.
        for round in 0..10 {
            for i in (0..rids.len()).step_by(2) {
                heap.delete(&pool, rids[i]).unwrap();
            }
            for i in (0..rids.len()).step_by(2) {
                let fresh = vec![round as u8; 500];
                let rid = heap.insert(&pool, &fresh).unwrap();
                assert_eq!(rid.page, rids[i].page, "reinsert must reuse a dead slot");
                rids[i] = rid;
                assert_eq!(heap.get(&pool, rid).unwrap(), fresh);
            }
        }
        assert_eq!(pool.page_count(), pages_before, "page count must stay flat");
        // Smaller records also fit dead cells; the slot directory never grows.
        heap.delete(&pool, rids[0]).unwrap();
        let small = heap.insert(&pool, b"tiny").unwrap();
        assert_eq!(small.page, rids[0].page);
        assert_eq!(heap.get(&pool, small).unwrap(), b"tiny");
        assert_eq!(pool.page_count(), pages_before);
    }

    // ------------------------------------------------------------------
    // Bulk append
    // ------------------------------------------------------------------

    #[test]
    fn bulk_append_roundtrip_and_scan_order() {
        let (_d, pool) = pool();
        let mut heap = HeapFile::create(&pool).unwrap();
        let rows: Vec<Vec<u8>> = (0..500)
            .map(|i| format!("bulk-row-{i:04}").into_bytes())
            .collect();
        let rids = heap.bulk_append(&pool, &rows).unwrap();
        assert_eq!(rids.len(), rows.len());
        for (rid, row) in rids.iter().zip(&rows) {
            assert_eq!(&heap.get(&pool, *rid).unwrap(), row);
        }
        assert_eq!(heap.len(&pool).unwrap(), 500);
        // Physical scan yields the rows in append order.
        let scanned: Vec<(RecordId, Vec<u8>)> = heap
            .scan(&pool)
            .unwrap()
            .collect::<StorageResult<_>>()
            .unwrap();
        assert_eq!(scanned.len(), 500);
        for ((rid, bytes), expected) in scanned.iter().zip(&rows) {
            assert_eq!(bytes, expected);
            assert!(heap.get(&pool, *rid).is_ok());
        }
    }

    #[test]
    fn bulk_append_matches_row_at_a_time_layout() {
        // The same rows inserted one-by-one and bulk-appended must land on
        // the same number of pages (the bulk path replicates the slotted
        // layout exactly).
        let rows: Vec<Vec<u8>> = (0..300).map(|i| vec![i as u8; 100 + (i % 7)]).collect();
        let (_d1, pool1) = pool();
        let mut one_by_one = HeapFile::create(&pool1).unwrap();
        for row in &rows {
            one_by_one.insert(&pool1, row).unwrap();
        }
        let (_d2, pool2) = pool();
        let mut bulk = HeapFile::create(&pool2).unwrap();
        let rids = bulk.bulk_append(&pool2, &rows).unwrap();
        assert_eq!(pool1.page_count(), pool2.page_count());
        // And the record ids agree page-for-page, slot-for-slot.
        let mut slow = HeapFile::create(&pool1).unwrap();
        let slow_rids: Vec<RecordId> = rows
            .iter()
            .map(|r| slow.insert(&pool1, r).unwrap())
            .collect();
        for (a, b) in rids.iter().zip(&slow_rids) {
            assert_eq!(a.slot, b.slot);
        }
    }

    #[test]
    fn bulk_append_continues_after_existing_rows() {
        let (_d, pool) = pool();
        let mut heap = HeapFile::create(&pool).unwrap();
        let a = heap.insert(&pool, b"existing-1").unwrap();
        let b = heap.insert(&pool, b"existing-2").unwrap();
        let rows: Vec<Vec<u8>> = (0..200).map(|i| vec![7u8; 200 + i % 5]).collect();
        let rids = heap.bulk_append(&pool, &rows).unwrap();
        // Bulk rows start on the old tail page, after the existing slots.
        assert_eq!(rids[0].page, a.page);
        assert_eq!(rids[0].slot, 2);
        assert_eq!(heap.get(&pool, a).unwrap(), b"existing-1");
        assert_eq!(heap.get(&pool, b).unwrap(), b"existing-2");
        assert_eq!(heap.len(&pool).unwrap(), 202);
        // Inserting after the bulk lands on the new tail, not the first page.
        let tail_rid = heap.insert(&pool, b"after-bulk").unwrap();
        assert_eq!(tail_rid.page, rids.last().unwrap().page);
    }

    #[test]
    fn bulk_append_reclaims_tail_tombstones_before_growing() {
        // Regression for delete→bulk-load churn: tombstoned cells on the
        // tail page must be reclaimed before fresh pages are allocated.
        let (_d, pool) = pool();
        let mut heap = HeapFile::create(&pool).unwrap();
        let payload = vec![3u8; 500];
        // 16 × (500 + 4) + 12 header bytes ≈ 8.1 KiB: the page is full, so
        // reclaiming dead cells is a bulk row's only way to stay on it.
        let rids: Vec<RecordId> = (0..16)
            .map(|_| heap.insert(&pool, &payload).unwrap())
            .collect();
        let rids = &rids[..14];
        let pages_before = pool.page_count();
        for round in 0..10 {
            // Tombstone every other slot, then bulk-load compatible rows.
            for rid in rids.iter().step_by(2) {
                heap.delete(&pool, *rid).unwrap();
            }
            let fresh: Vec<Vec<u8>> = (0..7).map(|_| vec![round as u8; 500]).collect();
            let new_rids = heap.bulk_append(&pool, &fresh).unwrap();
            for (new_rid, row) in new_rids.iter().zip(&fresh) {
                assert_eq!(
                    new_rid.page,
                    heap.first_page().0,
                    "bulk row must reuse a dead slot on the tail page"
                );
                assert_eq!(&heap.get(&pool, *new_rid).unwrap(), row);
            }
            assert_eq!(
                pool.page_count(),
                pages_before,
                "page count must stay flat under delete→bulk churn"
            );
        }
        // A bulk larger than the reclaimable space spills to fresh pages
        // only after the tail is exhausted.
        for rid in rids.iter().step_by(2) {
            heap.delete(&pool, *rid).unwrap();
        }
        let big: Vec<Vec<u8>> = (0..30).map(|i| vec![i as u8; 500]).collect();
        let new_rids = heap.bulk_append(&pool, &big).unwrap();
        assert_eq!(
            new_rids[0].page,
            heap.first_page().0,
            "tail reclaimed first"
        );
        assert!(new_rids.last().unwrap().page > heap.first_page().0);
        assert!(pool.page_count() > pages_before);
    }

    #[test]
    fn bulk_append_oversized_row_rejected() {
        let (_d, pool) = pool();
        let mut heap = HeapFile::create(&pool).unwrap();
        let too_big = vec![0u8; MAX_RECORD_SIZE + 1];
        assert!(matches!(
            heap.bulk_append(&pool, [&too_big]),
            Err(StorageError::RecordTooLarge(_))
        ));
        // Max-size rows bulk-fill one page each.
        let just_fits = vec![0u8; MAX_RECORD_SIZE];
        let rids = heap.bulk_append(&pool, vec![&just_fits; 3]).unwrap();
        assert_eq!(rids.len(), 3);
        for rid in &rids {
            assert_eq!(heap.get(&pool, *rid).unwrap().len(), MAX_RECORD_SIZE);
        }
    }

    #[test]
    fn bulk_append_empty_iterator_is_noop() {
        let (_d, pool) = pool();
        let mut heap = HeapFile::create(&pool).unwrap();
        let pages = pool.page_count();
        let rids = heap.bulk_append(&pool, Vec::<Vec<u8>>::new()).unwrap();
        assert!(rids.is_empty());
        assert_eq!(pool.page_count(), pages);
        assert_eq!(heap.len(&pool).unwrap(), 0);
    }

    #[test]
    fn bulk_append_survives_flush_and_reopen() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.crdb");
        let first;
        let rids: Vec<RecordId>;
        let rows: Vec<Vec<u8>> = (0..1000).map(|i| format!("r{i}").into_bytes()).collect();
        {
            let pager = Pager::create(&path).unwrap();
            let pool = BufferPool::with_capacity(pager, 16).unwrap();
            let mut heap = HeapFile::create(&pool).unwrap();
            first = heap.first_page();
            rids = heap.bulk_append(&pool, &rows).unwrap();
            pool.flush().unwrap();
        }
        let pager = Pager::open(&path).unwrap();
        let pool = BufferPool::with_capacity(pager, 16).unwrap();
        let heap = HeapFile::open(&pool, first).unwrap();
        for (rid, row) in rids.iter().zip(&rows) {
            assert_eq!(&heap.get(&pool, *rid).unwrap(), row);
        }
    }

    #[test]
    fn double_delete_errors() {
        let (_d, pool) = pool();
        let mut heap = HeapFile::create(&pool).unwrap();
        let rid = heap.insert(&pool, b"once").unwrap();
        heap.delete(&pool, rid).unwrap();
        assert!(heap.delete(&pool, rid).is_err());
    }

    #[test]
    fn reopen_finds_tail_page() {
        let (_d, pool) = pool();
        let first;
        {
            let mut heap = HeapFile::create(&pool).unwrap();
            first = heap.first_page();
            let payload = vec![1u8; 2000];
            for _ in 0..20 {
                heap.insert(&pool, &payload).unwrap();
            }
        }
        let mut heap = HeapFile::open(&pool, first).unwrap();
        assert_eq!(heap.len(&pool).unwrap(), 20);
        // Inserting after reopen appends to the real tail, not the first page.
        let rid = heap.insert(&pool, b"tail insert").unwrap();
        assert_eq!(heap.get(&pool, rid).unwrap(), b"tail insert");
        assert_eq!(heap.len(&pool).unwrap(), 21);
    }

    #[test]
    fn scan_empty_heap() {
        let (_d, pool) = pool();
        let heap = HeapFile::create(&pool).unwrap();
        assert_eq!(heap.scan(&pool).unwrap().count(), 0);
        assert_eq!(heap.len(&pool).unwrap(), 0);
    }

    #[test]
    fn get_invalid_slot_errors() {
        let (_d, pool) = pool();
        let mut heap = HeapFile::create(&pool).unwrap();
        let rid = heap.insert(&pool, b"x").unwrap();
        let bogus = RecordId {
            page: rid.page,
            slot: 99,
        };
        assert!(heap.get(&pool, bogus).is_err());
        assert!(heap.delete(&pool, bogus).is_err());
    }

    #[test]
    fn many_records_survive_flush_and_reopen() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("t.crdb");
        let first;
        let rids: Vec<RecordId>;
        {
            let pager = Pager::create(&path).unwrap();
            let pool = BufferPool::with_capacity(pager, 16).unwrap();
            let mut heap = HeapFile::create(&pool).unwrap();
            first = heap.first_page();
            rids = (0..500)
                .map(|i| {
                    heap.insert(&pool, format!("record-{i}").as_bytes())
                        .unwrap()
                })
                .collect();
            pool.flush().unwrap();
        }
        let pager = Pager::open(&path).unwrap();
        let pool = BufferPool::with_capacity(pager, 16).unwrap();
        let heap = HeapFile::open(&pool, first).unwrap();
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(
                heap.get(&pool, *rid).unwrap(),
                format!("record-{i}").as_bytes()
            );
        }
    }
}
