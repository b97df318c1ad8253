//! The `Database` facade: tables, rows and secondary indexes in one place.
//!
//! This is the interface the Crimson repository manager programs against.
//! It deliberately looks like a minimal embedded record store rather than a
//! SQL engine: Crimson's queries are point lookups, range scans and full
//! scans, all of which are expressed directly.
//!
//! ## Concurrent reads
//!
//! The engine is single-writer, many-reader. The [`Database`] value is the
//! writer: mutations take `&mut self` and serialize on the buffer pool's io
//! latch. Any number of [`DbReader`] handles (see [`Database::reader`]) may
//! read concurrently from other threads: a reader pins an epoch
//! ([`DbReader::pin_epoch`]) and reads through the resulting [`EpochView`]
//! ([`DbReader::at_epoch`]) — the buffer pool's version chains serve every
//! page as of that commit sequence, so neither the writer's in-flight
//! transaction nor a later commit is visible. The [`DbRead`] trait is
//! implemented by the writer ([`Database`]) and by [`EpochView`], which lets
//! higher layers write their query engines once; each read operation is
//! itself written once, as a provided method of [`DbRead`]. Everything else
//! the buffer pool offers (statistics, fault injection, scrubbing,
//! durability waits) is reached through [`Database::pool`].

use crate::btree::BTree;
use crate::buffer::{
    BufferPool, CheckpointPolicy, CheckpointerGuard, EpochPin, PageSource, PinnedPage,
};
use crate::catalog::{Catalog, IndexMeta, RawIndexMeta, TableMeta};
use crate::error::{StorageError, StorageResult};
use crate::heap::{HeapFile, RecordId};
use crate::page::{Page, PageId};
use crate::pager::Pager;
use crate::schema::{Row, Schema};
use crate::value::Value;
use crate::wal::Lsn;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// Identifier of a table (its position in the catalog).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableId(pub usize);

/// Identifier of a raw B+tree index (its position in the catalog).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RawIndexId(pub usize);

/// Read-only record-store surface shared by the writer ([`Database`], which
/// reads its own current state) and pinned snapshot readers
/// ([`EpochView`], which read one committed state). Higher layers write
/// their query engines generically over this trait.
///
/// Every operation is written once, here: a handle supplies only its page
/// source and catalog metadata (`&BufferPool` for the writer,
/// [`EpochSnapshot`] for a pinned view), and each method is monomorphized
/// per source, so no page access goes through dynamic dispatch. The trait
/// is sealed; the handles above are its only implementations.
pub trait DbRead: sealed::Access {
    /// Look up a table id by name.
    fn table(&self, name: &str) -> StorageResult<TableId> {
        self.access()
            .1
            .catalog
            .table_id(name)
            .map(TableId)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Names of all tables in creation order.
    fn table_names(&self) -> Vec<String> {
        let meta = self.access().1;
        meta.catalog.tables.iter().map(|t| t.name.clone()).collect()
    }

    /// The schema of a table.
    fn schema(&self, table: TableId) -> StorageResult<&Schema> {
        self.access().1.table_meta(table).map(|t| &t.schema)
    }

    /// Look up a raw index id by name.
    fn raw_index(&self, name: &str) -> StorageResult<RawIndexId> {
        self.access()
            .1
            .catalog
            .raw_indexes
            .iter()
            .position(|r| r.name == name)
            .map(RawIndexId)
            .ok_or_else(|| StorageError::UnknownIndex(name.to_string()))
    }

    /// Fetch a row by record id.
    fn get(&self, table: TableId, rid: RecordId) -> StorageResult<Row> {
        let (src, meta) = self.access();
        let bytes = meta.heap(table)?.get(src, rid)?;
        meta.table_meta(table)?.schema.decode_row(&bytes)
    }

    /// Scan every row of a table, in physical order.
    fn scan(&self, table: TableId) -> StorageResult<Vec<(RecordId, Row)>> {
        let (src, meta) = self.access();
        let schema = &meta.table_meta(table)?.schema;
        let mut out = Vec::new();
        for item in meta.heap(table)?.scan(src)? {
            let (rid, bytes) = item?;
            out.push((rid, schema.decode_row(&bytes)?));
        }
        Ok(out)
    }

    /// Number of rows in a table.
    fn row_count(&self, table: TableId) -> StorageResult<usize> {
        let (src, meta) = self.access();
        meta.heap(table)?.len(src)
    }

    /// Exact-match lookup through the index on `column`.
    fn index_lookup(
        &self,
        table: TableId,
        column: &str,
        value: &Value,
    ) -> StorageResult<Vec<RecordId>> {
        let (src, meta) = self.access();
        let unique = meta.index_meta(table, column)?.unique;
        let btree = meta.index(table, column)?;
        if unique {
            Ok(btree
                .get(src, &value.key_bytes())?
                .map(RecordId::from_u64)
                .into_iter()
                .collect())
        } else {
            // Non-unique keys carry a record-id suffix; scan the value prefix.
            let low = value.key_bytes();
            let mut high = low.clone();
            high.extend_from_slice(&[0xFF; 9]);
            let mut out = Vec::new();
            for item in btree.range(src, Some(&low), Some(&high))? {
                let (_, v) = item?;
                out.push(RecordId::from_u64(v));
            }
            Ok(out)
        }
    }

    /// Exact-match lookup through the index on `column`, returning full rows.
    fn lookup_rows(
        &self,
        table: TableId,
        column: &str,
        value: &Value,
    ) -> StorageResult<Vec<(RecordId, Row)>> {
        self.index_lookup(table, column, value)?
            .into_iter()
            .map(|rid| Ok((rid, self.get(table, rid)?)))
            .collect()
    }

    /// Range scan through the index on `column`: `low ≤ value < high`
    /// (`None` = unbounded). Returns record ids in key order.
    fn index_range(
        &self,
        table: TableId,
        column: &str,
        low: Option<&Value>,
        high: Option<&Value>,
    ) -> StorageResult<Vec<RecordId>> {
        let (src, meta) = self.access();
        meta.index_meta(table, column)?;
        let btree = meta.index(table, column)?;
        let low_key = low.map(|v| v.key_bytes());
        let high_key = high.map(|v| v.key_bytes());
        let mut out = Vec::new();
        for item in btree.range(src, low_key.as_deref(), high_key.as_deref())? {
            let (_, v) = item?;
            out.push(RecordId::from_u64(v));
        }
        Ok(out)
    }

    /// The row with the largest key in the index on `column` (on a unique
    /// id index, the row with the highest id), or `None` when the index is
    /// empty: one rightmost-spine walk and one row fetch, however many
    /// rows the table holds.
    fn index_last(&self, table: TableId, column: &str) -> StorageResult<Option<Row>> {
        let (src, meta) = self.access();
        meta.index_meta(table, column)?;
        match meta.index(table, column)?.last_entry(src)? {
            Some((_, rid)) => Ok(Some(self.get(table, RecordId::from_u64(rid))?)),
            None => Ok(None),
        }
    }

    /// Point lookup in a raw index.
    fn raw_get(&self, id: RawIndexId, key: &[u8]) -> StorageResult<Option<u64>> {
        let (src, meta) = self.access();
        meta.raw_btree(id)?.get(src, key)
    }

    /// Number of entries in a raw index (full scan).
    fn raw_len(&self, id: RawIndexId) -> StorageResult<usize> {
        let (src, meta) = self.access();
        meta.raw_btree(id)?.len(src)
    }

    /// Visit the first raw-index entry in `low ≤ key < high` with `f` on
    /// the borrowed in-page key bytes — an allocation-free point probe for
    /// covering keys.
    fn raw_first_in_range<R>(
        &self,
        id: RawIndexId,
        low: &[u8],
        high: &[u8],
        f: impl FnOnce(&[u8], u64) -> R,
    ) -> StorageResult<Option<R>> {
        let (src, meta) = self.access();
        meta.raw_btree(id)?.first_in_range(src, low, high, f)
    }

    /// Walk a raw-index key range (`low ≤ key < high`, `None` = unbounded)
    /// in order, calling `f` per entry straight from the pinned leaf
    /// frames; `f` returning `Ok(false)` stops the scan early.
    fn raw_scan(
        &self,
        id: RawIndexId,
        low: Option<&[u8]>,
        high: Option<&[u8]>,
        f: &mut dyn FnMut(&[u8], u64) -> StorageResult<bool>,
    ) -> StorageResult<()> {
        let (src, meta) = self.access();
        for item in meta.raw_btree(id)?.range(src, low, high)? {
            let (key, value) = item?;
            if !f(&key, value)? {
                break;
            }
        }
        Ok(())
    }
}

/// The seal on [`DbRead`]: the accessor every read operation is written
/// against, and the catalog metadata it hands out. Both are nameable only
/// inside this module, so no other crate can implement [`DbRead`].
mod sealed {
    use super::*;

    /// In-memory handles derived from the on-disk catalog: table metadata,
    /// heap files and B+tree roots. The writer owns one (kept in lockstep
    /// with its mutations); every [`DbReader`] caches one per recent commit
    /// point, shared by the [`EpochView`]s pinned at it.
    pub struct Meta {
        pub(super) catalog: Catalog,
        pub(super) heaps: HashMap<usize, HeapFile>,
        pub(super) indexes: HashMap<(usize, String), BTree>,
        pub(super) raw: Vec<BTree>,
    }

    /// A read handle's page source and the catalog metadata valid for it.
    pub trait Access {
        /// Where pages come from: `&BufferPool` for the writer,
        /// [`EpochSnapshot`] for a pinned view.
        type Source<'s>: PageSource
        where
            Self: 's;

        /// The page source and metadata every [`DbRead`] operation reads.
        fn access(&self) -> (Self::Source<'_>, &Meta);
    }
}

use sealed::{Access, Meta};

impl Meta {
    fn empty() -> Meta {
        Meta {
            catalog: Catalog::new(),
            heaps: HashMap::new(),
            indexes: HashMap::new(),
            raw: Vec::new(),
        }
    }

    /// Build the handles from the catalog read through `src`. `for_write`
    /// additionally locates every heap's tail page (needed only by
    /// `insert`); readers skip that walk, so their per-commit catalog
    /// refresh costs O(catalog pages), not O(heap pages).
    fn load_from<S: PageSource>(src: S, for_write: bool) -> StorageResult<Meta> {
        let catalog = Catalog::load(src)?;
        let mut heaps = HashMap::new();
        let mut indexes = HashMap::new();
        for (tid, table) in catalog.tables.iter().enumerate() {
            let first = PageId(table.heap_first_page);
            let heap = if for_write {
                HeapFile::open(src, first)?
            } else {
                HeapFile::open_read_only(first)
            };
            heaps.insert(tid, heap);
            for idx in &table.indexes {
                indexes.insert(
                    (tid, idx.column.clone()),
                    BTree::open(PageId(idx.root_page)),
                );
            }
        }
        let raw = catalog
            .raw_indexes
            .iter()
            .map(|r| BTree::open(PageId(r.root_page)))
            .collect();
        Ok(Meta {
            catalog,
            heaps,
            indexes,
            raw,
        })
    }

    fn table_meta(&self, table: TableId) -> StorageResult<&TableMeta> {
        self.catalog
            .tables
            .get(table.0)
            .ok_or_else(|| StorageError::UnknownTable(format!("#{}", table.0)))
    }

    fn index_meta(&self, table: TableId, column: &str) -> StorageResult<&IndexMeta> {
        self.table_meta(table)?
            .indexes
            .iter()
            .find(|i| i.column == column)
            .ok_or_else(|| StorageError::UnknownIndex(column.to_string()))
    }

    fn heap(&self, table: TableId) -> StorageResult<&HeapFile> {
        self.heaps
            .get(&table.0)
            .ok_or_else(|| StorageError::UnknownTable(format!("#{}", table.0)))
    }

    fn index(&self, table: TableId, column: &str) -> StorageResult<&BTree> {
        self.indexes
            .get(&(table.0, column.to_string()))
            .ok_or_else(|| StorageError::UnknownIndex(column.to_string()))
    }

    fn raw_btree(&self, id: RawIndexId) -> StorageResult<&BTree> {
        self.raw
            .get(id.0)
            .ok_or_else(|| StorageError::UnknownIndex(format!("raw #{}", id.0)))
    }
}

/// An embedded, disk-backed record store with secondary B+tree indexes.
/// This value is the single writer; spawn [`DbReader`]s for concurrent
/// snapshot reads.
pub struct Database {
    pool: Arc<BufferPool>,
    meta: Meta,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.meta.catalog.tables.len())
            .field("buffer", &self.pool)
            .finish()
    }
}

impl Database {
    /// Create a new database file with the default buffer-pool capacity.
    pub fn create(path: impl AsRef<Path>) -> StorageResult<Self> {
        Self::create_with_capacity(path, BufferPool::DEFAULT_CAPACITY)
    }

    /// Create a new database file with an explicit buffer-pool capacity
    /// (in pages). Used by the repository-scale experiment (E9).
    pub fn create_with_capacity(path: impl AsRef<Path>, pages: usize) -> StorageResult<Self> {
        let pager = Pager::create(path)?;
        let pool = BufferPool::with_capacity(pager, pages)?;
        Ok(Database {
            pool: Arc::new(pool),
            meta: Meta::empty(),
        })
    }

    /// Open an existing database file.
    pub fn open(path: impl AsRef<Path>) -> StorageResult<Self> {
        Self::open_with_capacity(path, BufferPool::DEFAULT_CAPACITY)
    }

    /// Open an existing database file with an explicit buffer-pool capacity.
    /// Opening runs crash recovery against the sibling write-ahead log;
    /// committed transactions since the last checkpoint are replayed and
    /// interrupted ones rolled back before the catalog is read (see
    /// [`BufferPool::recovery_report`], reached through [`Database::pool`]).
    pub fn open_with_capacity(path: impl AsRef<Path>, pages: usize) -> StorageResult<Self> {
        let pager = Pager::open(path)?;
        let pool = BufferPool::with_capacity(pager, pages)?;
        let mut db = Database {
            pool: Arc::new(pool),
            meta: Meta::empty(),
        };
        db.reload_meta()?;
        Ok(db)
    }

    /// (Re)build the in-memory catalog, heap and index handles from the
    /// on-disk catalog. Called at open and after a transaction rollback
    /// (rolled-back DDL may have invalidated cached roots and table ids).
    fn reload_meta(&mut self) -> StorageResult<()> {
        self.meta = Meta::load_from(&*self.pool, true)?;
        Ok(())
    }

    /// A concurrent snapshot reader over this database's buffer pool.
    /// Readers see the last committed state only; they never block behind —
    /// and are never torn by — the writer's in-flight transaction.
    pub fn reader(&self) -> DbReader {
        DbReader {
            pool: Arc::clone(&self.pool),
            epoch_meta: Mutex::new(Vec::new()),
        }
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Begin an explicit transaction. Every mutation until
    /// [`Database::commit`] is atomic: it either becomes durable as a group
    /// or is invisible after a crash or [`Database::rollback`]. The engine
    /// is single-writer; nested `begin` is an error.
    pub fn begin(&mut self) -> StorageResult<()> {
        self.pool.begin_txn()?;
        Ok(())
    }

    /// Commit the open transaction: page after-images and a commit record
    /// are appended to the write-ahead log and fsynced (group fsync).
    pub fn commit(&mut self) -> StorageResult<()> {
        match self.pool.commit_txn(true) {
            Ok(_) => Ok(()),
            Err(e) => {
                // The pool already rolled the pages back; bring the cached
                // metadata in line with them.
                let _ = self.reload_meta();
                Err(e)
            }
        }
    }

    /// Commit the open transaction *asynchronously*: the commit is logged
    /// and visible (atomic on crash) but not yet durable. The returned
    /// commit LSN can be handed to [`BufferPool::wait_durable`]; the next
    /// synchronous commit, group fsync or checkpoint also covers it.
    pub fn commit_async(&mut self) -> StorageResult<Lsn> {
        match self.pool.commit_txn(false) {
            Ok(lsn) => Ok(lsn),
            Err(e) => {
                // The pool already rolled the pages back; bring the cached
                // metadata in line with them.
                let _ = self.reload_meta();
                Err(e)
            }
        }
    }

    /// Start the background checkpoint thread on this database's buffer
    /// pool (see `BufferPool::start_checkpointer`). The returned guard
    /// stops and joins the thread when dropped.
    pub fn start_checkpointer(&self, policy: CheckpointPolicy) -> CheckpointerGuard {
        self.pool.start_checkpointer(policy)
    }

    /// Roll back the open transaction: all page mutations, allocations and
    /// catalog changes since `begin` are undone in memory.
    pub fn rollback(&mut self) -> StorageResult<()> {
        let result = self.pool.rollback_txn();
        let reload = self.reload_meta();
        result.and(reload)
    }

    /// Run `f` inside the open transaction, or wrap it in an implicit
    /// (auto-commit) transaction of its own. Auto-commits append to the log
    /// without fsyncing — they are atomic on crash but only become durable
    /// at the next explicit commit, eviction or checkpoint.
    fn autocommit<T>(&mut self, f: impl FnOnce(&mut Self) -> StorageResult<T>) -> StorageResult<T> {
        if self.pool.in_txn() {
            return f(self);
        }
        self.pool.begin_txn()?;
        match f(self) {
            Ok(v) => match self.pool.commit_txn(false) {
                Ok(_) => Ok(v),
                Err(e) => {
                    // The pool rolled the pages back; the cached catalog /
                    // heap / index handles must follow them.
                    let _ = self.reload_meta();
                    Err(e)
                }
            },
            Err(e) => {
                if self.pool.rollback_txn().is_ok() {
                    let _ = self.reload_meta();
                }
                Err(e)
            }
        }
    }

    /// Open an existing database in **degraded read-only mode**: mutation
    /// entry points fail with [`StorageError::ReadOnly`], and a verification
    /// pass quarantines every page whose checksum fails (without attempting
    /// repair writes), so intact data stays readable around the damage.
    /// Crash recovery still runs first — it rewrites every page covered by
    /// the log, which is itself a repair.
    pub fn open_degraded(path: impl AsRef<Path>, pages: usize) -> StorageResult<Self> {
        let pager = Pager::open(path)?;
        let pool = BufferPool::with_capacity(pager, pages)?;
        pool.set_read_only(true);
        pool.scrub()?;
        let mut db = Database {
            pool: Arc::new(pool),
            meta: Meta::empty(),
        };
        // Read-only catalog load: skip the heap tail-page walk (only
        // `insert` needs it, and inserts are refused) so damage in a heap
        // chain cannot block the open.
        db.meta = Meta::load_from(&*db.pool, false)?;
        Ok(db)
    }

    // ------------------------------------------------------------------
    // DDL
    // ------------------------------------------------------------------

    /// Create a table and return its id.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> StorageResult<TableId> {
        self.autocommit(|db| db.create_table_inner(name, schema))
    }

    fn create_table_inner(&mut self, name: &str, schema: Schema) -> StorageResult<TableId> {
        if self.meta.catalog.table_id(name).is_some() {
            return Err(StorageError::AlreadyExists(name.to_string()));
        }
        let heap = HeapFile::create(&self.pool)?;
        let meta = TableMeta {
            name: name.to_string(),
            schema,
            heap_first_page: heap.first_page().0,
            indexes: Vec::new(),
        };
        self.meta.catalog.tables.push(meta);
        let tid = self.meta.catalog.tables.len() - 1;
        self.meta.heaps.insert(tid, heap);
        self.meta.catalog.save(&self.pool)?;
        Ok(TableId(tid))
    }

    /// Create a secondary index over `column`. Existing rows are indexed
    /// immediately. `unique` enables duplicate-key rejection on later inserts
    /// (and fails now if existing data already violates it).
    pub fn create_index(
        &mut self,
        table: TableId,
        column: &str,
        unique: bool,
    ) -> StorageResult<()> {
        self.autocommit(|db| db.create_index_inner(table, column, unique))
    }

    fn create_index_inner(
        &mut self,
        table: TableId,
        column: &str,
        unique: bool,
    ) -> StorageResult<()> {
        let meta = self.meta.table_meta(table)?;
        let col_idx = meta.schema.column_index(column)?;
        if meta.indexes.iter().any(|i| i.column == column) {
            return Err(StorageError::AlreadyExists(format!(
                "{}.{}",
                meta.name, column
            )));
        }
        let index_name = format!("{}_{}_idx", meta.name, column);
        let mut btree = BTree::create(&self.pool)?;
        // Index existing rows.
        let schema = meta.schema.clone();
        let heap = self.meta.heap(table)?.clone();
        for item in heap.scan(&*self.pool)? {
            let (rid, bytes) = item?;
            let row = schema.decode_row(&bytes)?;
            let value = &row.values[col_idx];
            let key = Self::index_key(value, rid, unique);
            if unique && btree.contains(&*self.pool, &key)? {
                return Err(StorageError::DuplicateKey(format!("{value:?}")));
            }
            btree.insert(&self.pool, &key, rid.to_u64())?;
        }
        let root = btree.root();
        self.meta.catalog.tables[table.0].indexes.push(IndexMeta {
            name: index_name,
            column: column.to_string(),
            unique,
            root_page: root.0,
        });
        self.meta
            .indexes
            .insert((table.0, column.to_string()), btree);
        self.meta.catalog.save(&self.pool)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // DML
    // ------------------------------------------------------------------

    /// Insert a row, maintaining all indexes. Returns the new record id.
    pub fn insert(&mut self, table: TableId, values: &[Value]) -> StorageResult<RecordId> {
        self.autocommit(|db| db.insert_inner(table, values))
    }

    fn insert_inner(&mut self, table: TableId, values: &[Value]) -> StorageResult<RecordId> {
        let meta = self.meta.table_meta(table)?.clone();
        let bytes = meta.schema.encode_row(values)?;
        // Unique checks before any mutation.
        for idx in &meta.indexes {
            if idx.unique {
                let col = meta.schema.column_index(&idx.column)?;
                let key = values[col].key_bytes();
                let btree = self.meta.index(table, &idx.column)?;
                if btree.contains(&*self.pool, &key)? {
                    return Err(StorageError::DuplicateKey(format!("{:?}", values[col])));
                }
            }
        }
        let heap = self
            .meta
            .heaps
            .get_mut(&table.0)
            .expect("heap loaded for every table");
        let rid = heap.insert(&self.pool, &bytes)?;
        for idx in &meta.indexes {
            let col = meta.schema.column_index(&idx.column)?;
            let key = Self::index_key(&values[col], rid, idx.unique);
            let btree = self
                .meta
                .indexes
                .get_mut(&(table.0, idx.column.clone()))
                .expect("index loaded");
            let old_root = btree.root();
            btree.insert(&self.pool, &key, rid.to_u64())?;
            if btree.root() != old_root {
                // Root split: persist the new root page in the catalog.
                let root = btree.root().0;
                let entry = self.meta.catalog.tables[table.0]
                    .indexes
                    .iter_mut()
                    .find(|i| i.column == idx.column)
                    .expect("index metadata exists");
                entry.root_page = root;
                self.meta.catalog.save(&self.pool)?;
            }
        }
        Ok(rid)
    }

    /// Bulk-insert the rows yielded by `produce`, maintaining all indexes.
    ///
    /// `produce` is called with a cleared buffer; it fills in one row's
    /// values and returns `Ok(true)`, or returns `Ok(false)` to end the
    /// stream — so a million-row load reuses one `Vec<Value>` and one encode
    /// buffer instead of allocating per row. Rows stream through the heap's
    /// batched appender; index entries are buffered, sorted, and applied as
    /// one bottom-up bulk build per index (at `fill` × page capacity) when
    /// the run sorts after the index's existing keys, falling back to
    /// ordinary sorted inserts otherwise. Unique-index violations (within
    /// the batch or against existing rows) abort with
    /// [`StorageError::DuplicateKey`]. The catalog is saved once at the end
    /// instead of once per root split; run inside an explicit transaction,
    /// the save (like everything else) only becomes visible at commit.
    pub fn bulk_insert_with<F>(
        &mut self,
        table: TableId,
        fill: f64,
        produce: F,
    ) -> StorageResult<Vec<RecordId>>
    where
        F: FnMut(&mut Vec<Value>) -> StorageResult<bool>,
    {
        self.autocommit(|db| db.bulk_insert_with_inner(table, fill, produce))
    }

    /// Bulk-insert pre-built rows (convenience wrapper over
    /// [`Database::bulk_insert_with`]).
    pub fn bulk_insert<I>(
        &mut self,
        table: TableId,
        fill: f64,
        rows: I,
    ) -> StorageResult<Vec<RecordId>>
    where
        I: IntoIterator<Item = Vec<Value>>,
    {
        let mut iter = rows.into_iter();
        self.bulk_insert_with(table, fill, move |values| match iter.next() {
            Some(row) => {
                *values = row;
                Ok(true)
            }
            None => Ok(false),
        })
    }

    fn bulk_insert_with_inner<F>(
        &mut self,
        table: TableId,
        fill: f64,
        mut produce: F,
    ) -> StorageResult<Vec<RecordId>>
    where
        F: FnMut(&mut Vec<Value>) -> StorageResult<bool>,
    {
        let meta = self.meta.table_meta(table)?.clone();
        let pool = Arc::clone(&self.pool);
        let mut index_runs: Vec<Vec<(Vec<u8>, u64)>> = vec![Vec::new(); meta.indexes.len()];
        let index_cols: Vec<usize> = meta
            .indexes
            .iter()
            .map(|idx| meta.schema.column_index(&idx.column))
            .collect::<StorageResult<_>>()?;
        let mut rids = Vec::new();
        {
            let heap = self
                .meta
                .heaps
                .get_mut(&table.0)
                .expect("heap loaded for every table");
            let mut writer = heap.begin_bulk(&pool)?;
            let mut values: Vec<Value> = Vec::new();
            let mut row_buf: Vec<u8> = Vec::new();
            loop {
                values.clear();
                if !produce(&mut values)? {
                    break;
                }
                meta.schema.encode_row_into(&values, &mut row_buf)?;
                let rid = writer.append(&row_buf)?;
                for (run, (idx, &col)) in index_runs
                    .iter_mut()
                    .zip(meta.indexes.iter().zip(&index_cols))
                {
                    run.push((Self::index_key(&values[col], rid, idx.unique), rid.to_u64()));
                }
                rids.push(rid);
            }
            writer.finish()?;
        }
        let mut catalog_dirty = false;
        for (idx, run) in meta.indexes.iter().zip(index_runs) {
            catalog_dirty |= self.bulk_index_apply(table, &idx.column, idx.unique, fill, run)?;
        }
        if catalog_dirty {
            self.meta.catalog.save(&self.pool)?;
        }
        Ok(rids)
    }

    /// Apply one index's sorted entry run: bulk-append when the run sorts
    /// after every existing key (always true for a fresh index), ordinary
    /// sorted inserts otherwise. Returns whether the root moved.
    fn bulk_index_apply(
        &mut self,
        table: TableId,
        column: &str,
        unique: bool,
        fill: f64,
        mut run: Vec<(Vec<u8>, u64)>,
    ) -> StorageResult<bool> {
        if run.is_empty() {
            return Ok(false);
        }
        run.sort_unstable();
        if unique {
            for pair in run.windows(2) {
                if pair[0].0 == pair[1].0 {
                    return Err(StorageError::DuplicateKey(format!(
                        "bulk insert repeats unique key {:?} in index `{column}`",
                        pair[0].0
                    )));
                }
            }
        }
        let pool = Arc::clone(&self.pool);
        let btree = self
            .meta
            .indexes
            .get_mut(&(table.0, column.to_string()))
            .expect("index loaded");
        let old_root = btree.root();
        let appendable = match btree.last_entry(&*pool)? {
            None => true,
            Some((max, _)) => run[0].0.as_slice() > max.as_slice(),
        };
        if appendable {
            btree.bulk_append(&pool, fill, run)?;
        } else {
            for (key, value) in run {
                if unique && btree.contains(&*pool, &key)? {
                    return Err(StorageError::DuplicateKey(format!(
                        "bulk insert duplicates existing unique key {key:?} in index `{column}`"
                    )));
                }
                btree.insert(&pool, &key, value)?;
            }
        }
        if btree.root() != old_root {
            let root = btree.root().0;
            let entry = self.meta.catalog.tables[table.0]
                .indexes
                .iter_mut()
                .find(|i| i.column == column)
                .expect("index metadata exists");
            entry.root_page = root;
            return Ok(true);
        }
        Ok(false)
    }

    /// Delete a row by record id, maintaining indexes.
    pub fn delete(&mut self, table: TableId, rid: RecordId) -> StorageResult<()> {
        self.autocommit(|db| db.delete_inner(table, rid))
    }

    fn delete_inner(&mut self, table: TableId, rid: RecordId) -> StorageResult<()> {
        let meta = self.meta.table_meta(table)?.clone();
        let row = self.get(table, rid)?;
        for idx in &meta.indexes {
            let col = meta.schema.column_index(&idx.column)?;
            let key = Self::index_key(&row.values[col], rid, idx.unique);
            let btree = self.meta.index(table, &idx.column)?;
            btree.delete(&self.pool, &key, Some(rid.to_u64()))?;
        }
        let heap = self.meta.heap(table)?.clone();
        heap.delete(&self.pool, rid)
    }

    // ------------------------------------------------------------------
    // Index access paths
    // ------------------------------------------------------------------

    // ------------------------------------------------------------------
    // Raw (table-less) B+tree indexes
    // ------------------------------------------------------------------

    /// Create a raw B+tree index mapping application-encoded keys to `u64`
    /// payloads, with no backing heap table. Use for covering indexes where
    /// the key bytes carry the whole entry (e.g. the node-interval index).
    pub fn create_raw_index(&mut self, name: &str) -> StorageResult<RawIndexId> {
        self.autocommit(|db| db.create_raw_index_inner(name))
    }

    fn create_raw_index_inner(&mut self, name: &str) -> StorageResult<RawIndexId> {
        if self.meta.catalog.raw_indexes.iter().any(|r| r.name == name) {
            return Err(StorageError::AlreadyExists(name.to_string()));
        }
        let btree = BTree::create(&self.pool)?;
        self.meta.catalog.raw_indexes.push(RawIndexMeta {
            name: name.to_string(),
            root_page: btree.root().0,
        });
        self.meta.raw.push(btree);
        self.meta.catalog.save(&self.pool)?;
        Ok(RawIndexId(self.meta.raw.len() - 1))
    }

    /// Insert a key/value pair into a raw index. Root splits are persisted
    /// in the catalog.
    pub fn raw_insert(&mut self, id: RawIndexId, key: &[u8], value: u64) -> StorageResult<()> {
        self.autocommit(|db| db.raw_insert_inner(id, key, value))
    }

    fn raw_insert_inner(&mut self, id: RawIndexId, key: &[u8], value: u64) -> StorageResult<()> {
        let btree = self
            .meta
            .raw
            .get_mut(id.0)
            .ok_or_else(|| StorageError::UnknownIndex(format!("raw #{}", id.0)))?;
        let old_root = btree.root();
        btree.insert(&self.pool, key, value)?;
        if btree.root() != old_root {
            self.meta.catalog.raw_indexes[id.0].root_page = btree.root().0;
            self.meta.catalog.save(&self.pool)?;
        }
        Ok(())
    }

    /// Bulk-insert a strictly ascending run of `(key, value)` entries into a
    /// raw index, packing fresh leaves bottom-up at `fill` × page capacity.
    ///
    /// Every key must sort after the index's existing keys (the covering
    /// interval indexes satisfy this by construction: keys embed a
    /// monotonically increasing tree id). Out-of-order or duplicate input is
    /// rejected with a typed error, and the enclosing (or automatic)
    /// transaction rolls any partially written run back. The catalog
    /// is saved once at the end when the root moved; inside an explicit
    /// transaction nothing becomes visible until commit. Returns the number
    /// of entries loaded.
    pub fn bulk_raw_insert<K, I>(
        &mut self,
        id: RawIndexId,
        fill: f64,
        entries: I,
    ) -> StorageResult<usize>
    where
        K: AsRef<[u8]>,
        I: IntoIterator<Item = (K, u64)>,
    {
        self.autocommit(|db| db.bulk_raw_insert_inner(id, fill, entries))
    }

    fn bulk_raw_insert_inner<K, I>(
        &mut self,
        id: RawIndexId,
        fill: f64,
        entries: I,
    ) -> StorageResult<usize>
    where
        K: AsRef<[u8]>,
        I: IntoIterator<Item = (K, u64)>,
    {
        let pool = Arc::clone(&self.pool);
        let btree = self
            .meta
            .raw
            .get_mut(id.0)
            .ok_or_else(|| StorageError::UnknownIndex(format!("raw #{}", id.0)))?;
        let old_root = btree.root();
        let loaded = btree.bulk_append(&pool, fill, entries)?;
        if btree.root() != old_root {
            self.meta.catalog.raw_indexes[id.0].root_page = btree.root().0;
            self.meta.catalog.save(&self.pool)?;
        }
        Ok(loaded)
    }

    /// Remove one entry with exactly `key` from a raw index. Returns `true`
    /// when an entry was removed. Used by repair/corruption tooling and the
    /// integrity-check test harness.
    pub fn raw_delete(&mut self, id: RawIndexId, key: &[u8]) -> StorageResult<bool> {
        self.autocommit(|db| {
            let btree = db.meta.raw_btree(id)?.clone();
            btree.delete(&db.pool, key, None)
        })
    }

    // ------------------------------------------------------------------
    // Maintenance
    // ------------------------------------------------------------------

    /// Checkpoint: persist the catalog, write every dirty page and the
    /// header to the data file, fsync it, and truncate the write-ahead log.
    /// Fails while a transaction is open (commit or roll back first).
    pub fn flush(&mut self) -> StorageResult<()> {
        if self.pool.in_txn() {
            return Err(StorageError::TransactionActive);
        }
        self.meta.catalog.save(&self.pool)?;
        self.pool.flush()
    }

    /// The buffer pool under this database: statistics, cache control,
    /// fault injection, scrubbing, recovery and durability state.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    // ------------------------------------------------------------------
    // Internal helpers
    // ------------------------------------------------------------------

    fn index_key(value: &Value, rid: RecordId, unique: bool) -> Vec<u8> {
        let mut key = value.key_bytes();
        if !unique {
            key.extend_from_slice(&rid.to_u64().to_be_bytes());
        }
        key
    }
}

impl Access for Database {
    type Source<'s> = &'s BufferPool;

    #[inline]
    fn access(&self) -> (&BufferPool, &Meta) {
        (&self.pool, &self.meta)
    }
}

impl DbRead for Database {}

impl<T: DbRead> Access for &T {
    type Source<'s>
        = T::Source<'s>
    where
        Self: 's;

    #[inline]
    fn access(&self) -> (T::Source<'_>, &Meta) {
        T::access(self)
    }
}

impl<T: DbRead> DbRead for &T {}

/// Entries kept in a reader's pinned-epoch metadata cache. Read brackets
/// are short, so a handful of recent commit points covers the traffic.
const EPOCH_META_CACHE: usize = 8;

/// A [`PageSource`] frozen at a pinned snapshot epoch: every page resolves
/// to its newest version at or before the epoch, and the catalog root is
/// the one the governing commit published. Reads through this source are
/// stable across any number of concurrent commits — no retry bracket.
#[derive(Clone, Copy)]
pub struct EpochSnapshot<'a> {
    pool: &'a BufferPool,
    epoch: u64,
    root: PageId,
}

impl PageSource for EpochSnapshot<'_> {
    fn with_page<R>(&self, pid: PageId, f: impl FnOnce(&Page) -> R) -> StorageResult<R> {
        self.pool.with_page_at(self.epoch, pid, f)
    }

    fn pin_page(&self, pid: PageId) -> StorageResult<PinnedPage> {
        self.pool.pin_at(self.epoch, pid)
    }

    fn catalog_root(&self) -> PageId {
        self.root
    }
}

/// A concurrent snapshot reader over a database's buffer pool. `Send +
/// Sync`: share one across threads or create one per thread — they are
/// cheap (an `Arc` plus cached catalog handles).
///
/// Every read runs on a pinned epoch: pin one ([`DbReader::pin_epoch`])
/// and read through the frozen [`EpochView`] ([`DbReader::at_epoch`]).
/// Pages touched by the writer's open transaction read as their
/// before-images and later commits stay invisible, so a reader never
/// blocks behind an in-flight load and a multi-page operation completes
/// without retrying (see `crimson`'s `RepositoryReader`).
pub struct DbReader {
    pool: Arc<BufferPool>,
    /// Pinned-epoch metadata cache, keyed by the governing commit
    /// sequence (most recent first, bounded at [`EPOCH_META_CACHE`]).
    epoch_meta: Mutex<Vec<(u64, Arc<Meta>)>>,
}

impl DbReader {
    /// Pin the current commit sequence as a snapshot epoch (see
    /// [`BufferPool::pin_epoch`]). Pair with [`DbReader::at_epoch`] to
    /// read a view frozen at the pinned sequence.
    pub fn pin_epoch(&self) -> EpochPin {
        self.pool.pin_epoch()
    }

    /// A read view frozen at `pin`'s epoch: the catalog and every page
    /// resolve as of that commit sequence, stable across concurrent
    /// commits for the life of the pin. Fails with
    /// [`StorageError::SnapshotRetired`] if the epoch's versions were
    /// already collected (re-pin and retry).
    pub fn at_epoch(&self, pin: &EpochPin) -> StorageResult<EpochView<'_>> {
        let epoch = pin.epoch();
        let (seq, root) = self.pool.catalog_entry_at(epoch)?;
        let source = EpochSnapshot {
            pool: &self.pool,
            epoch,
            root,
        };
        let meta = self.epoch_meta_for(seq, source)?;
        Ok(EpochView {
            reader: self,
            epoch,
            root,
            meta,
        })
    }

    /// The cached metadata for the commit point `seq`, built through
    /// `source` on a miss. Two pins with the same governing sequence share
    /// one `Meta` — no commit happened between them, so every derived
    /// handle is identical.
    fn epoch_meta_for(&self, seq: u64, source: EpochSnapshot<'_>) -> StorageResult<Arc<Meta>> {
        {
            let mut cache = self.epoch_meta.lock();
            if let Some(pos) = cache.iter().position(|(s, _)| *s == seq) {
                let entry = cache.remove(pos);
                let meta = Arc::clone(&entry.1);
                cache.insert(0, entry);
                return Ok(meta);
            }
        }
        // Build outside the cache lock: catalog loading reads pages.
        let meta = Arc::new(Meta::load_from(source, false)?);
        let mut cache = self.epoch_meta.lock();
        if !cache.iter().any(|(s, _)| *s == seq) {
            cache.insert(0, (seq, Arc::clone(&meta)));
            cache.truncate(EPOCH_META_CACHE);
        }
        Ok(meta)
    }

    /// Report a snapshot retry (a re-pin after
    /// [`StorageError::SnapshotRetired`] or a `Busy` give-up) into the pool's `reader_retries` counter, so checkpoints'
    /// effect on reader tail latency is observable.
    pub fn note_snapshot_retry(&self) {
        self.pool.note_reader_retry();
    }

    /// Block until the write-ahead log is durable up to `lsn`, leading or
    /// following a group fsync as needed. Readers expose this so a
    /// durability barrier can be awaited *without* holding the single
    /// writer: a server thread that asynchronously committed through the
    /// writer can release it, then wait here while other connections'
    /// commits ride the same fsync round.
    pub fn wait_durable(&self, lsn: Lsn) -> StorageResult<()> {
        self.pool.wait_durable(lsn)
    }

    /// Absolute LSN up to which the write-ahead log is known durable.
    pub fn durable_lsn(&self) -> Lsn {
        self.pool.durable_lsn()
    }
}

/// A [`DbRead`] view frozen at a pinned snapshot epoch (see
/// [`DbReader::pin_epoch`] / [`DbReader::at_epoch`]): every read resolves
/// against the version chains as of one commit sequence, so a multi-page
/// operation — or a whole batch of operations — runs against a single
/// frozen state with no retry bracket, however fast the writer commits.
///
/// Borrows its [`DbReader`] (whose bounded cache owns the catalog
/// metadata); the caller keeps the [`EpochPin`] alive for as long as the
/// view is used.
#[derive(Clone)]
pub struct EpochView<'a> {
    reader: &'a DbReader,
    epoch: u64,
    root: PageId,
    meta: Arc<Meta>,
}

impl EpochView<'_> {
    /// The pinned commit sequence this view reads at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl std::fmt::Debug for EpochView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochView")
            .field("epoch", &self.epoch)
            .finish()
    }
}

impl<'a> Access for EpochView<'a> {
    type Source<'s>
        = EpochSnapshot<'a>
    where
        Self: 's;

    #[inline]
    fn access(&self) -> (EpochSnapshot<'a>, &Meta) {
        let source = EpochSnapshot {
            pool: &self.reader.pool,
            epoch: self.epoch,
            root: self.root,
        };
        (source, &self.meta)
    }
}

impl DbRead for EpochView<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::ValueType;
    use tempfile::tempdir;

    fn species_schema() -> Schema {
        Schema::new(vec![
            ColumnDef::not_null("name", ValueType::Text),
            ColumnDef::not_null("node_id", ValueType::Int),
            ColumnDef::new("time", ValueType::Float),
        ])
    }

    fn fresh() -> (tempfile::TempDir, Database) {
        let dir = tempdir().unwrap();
        let db = Database::create(dir.path().join("db.crdb")).unwrap();
        (dir, db)
    }

    #[test]
    fn create_insert_get() {
        let (_d, mut db) = fresh();
        let t = db.create_table("species", species_schema()).unwrap();
        let rid = db
            .insert(t, &[Value::text("Bha"), Value::Int(1), Value::Float(2.25)])
            .unwrap();
        let row = db.get(t, rid).unwrap();
        assert_eq!(row.values[0], Value::text("Bha"));
        assert_eq!(db.row_count(t).unwrap(), 1);
        assert_eq!(db.table_names(), vec!["species"]);
        assert_eq!(db.table("species").unwrap(), t);
        assert!(db.table("nope").is_err());
    }

    #[test]
    fn duplicate_table_rejected() {
        let (_d, mut db) = fresh();
        db.create_table("t", species_schema()).unwrap();
        assert!(matches!(
            db.create_table("t", species_schema()),
            Err(StorageError::AlreadyExists(_))
        ));
    }

    #[test]
    fn schema_validation_on_insert() {
        let (_d, mut db) = fresh();
        let t = db.create_table("species", species_schema()).unwrap();
        assert!(db
            .insert(t, &[Value::Int(1), Value::Int(2), Value::Null])
            .is_err());
        assert!(db.insert(t, &[Value::text("x")]).is_err());
    }

    #[test]
    fn unique_index_enforced() {
        let (_d, mut db) = fresh();
        let t = db.create_table("species", species_schema()).unwrap();
        db.create_index(t, "name", true).unwrap();
        db.insert(t, &[Value::text("Bha"), Value::Int(1), Value::Null])
            .unwrap();
        let err = db.insert(t, &[Value::text("Bha"), Value::Int(2), Value::Null]);
        assert!(matches!(err, Err(StorageError::DuplicateKey(_))));
        // Different key is fine.
        db.insert(t, &[Value::text("Lla"), Value::Int(2), Value::Null])
            .unwrap();
    }

    #[test]
    fn non_unique_index_lookup() {
        let (_d, mut db) = fresh();
        let t = db.create_table("nodes", species_schema()).unwrap();
        db.create_index(t, "name", false).unwrap();
        for i in 0..10 {
            db.insert(t, &[Value::text("dup"), Value::Int(i), Value::Null])
                .unwrap();
        }
        db.insert(t, &[Value::text("solo"), Value::Int(99), Value::Null])
            .unwrap();
        assert_eq!(
            db.index_lookup(t, "name", &Value::text("dup"))
                .unwrap()
                .len(),
            10
        );
        assert_eq!(
            db.index_lookup(t, "name", &Value::text("solo"))
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            db.index_lookup(t, "name", &Value::text("missing"))
                .unwrap()
                .len(),
            0
        );
        let rows = db.lookup_rows(t, "name", &Value::text("solo")).unwrap();
        assert_eq!(rows[0].1.values[1], Value::Int(99));
    }

    #[test]
    fn index_created_after_data_covers_existing_rows() {
        let (_d, mut db) = fresh();
        let t = db.create_table("nodes", species_schema()).unwrap();
        for i in 0..50 {
            db.insert(
                t,
                &[
                    Value::text(format!("n{i}")),
                    Value::Int(i),
                    Value::Float(i as f64),
                ],
            )
            .unwrap();
        }
        db.create_index(t, "node_id", true).unwrap();
        let hits = db.index_lookup(t, "node_id", &Value::Int(31)).unwrap();
        assert_eq!(hits.len(), 1);
        let row = db.get(t, hits[0]).unwrap();
        assert_eq!(row.values[0], Value::text("n31"));
    }

    #[test]
    fn index_range_scan_on_float_time() {
        let (_d, mut db) = fresh();
        let t = db.create_table("nodes", species_schema()).unwrap();
        db.create_index(t, "time", false).unwrap();
        for i in 0..100 {
            db.insert(
                t,
                &[
                    Value::text(format!("n{i}")),
                    Value::Int(i),
                    Value::Float(i as f64 * 0.1),
                ],
            )
            .unwrap();
        }
        // time >= 5.0 (the paper's "total weight exceeds t" predicate)
        let hits = db
            .index_range(t, "time", Some(&Value::Float(5.0)), None)
            .unwrap();
        assert_eq!(hits.len(), 50);
        // 2.0 <= time < 3.0
        let hits = db
            .index_range(
                t,
                "time",
                Some(&Value::Float(2.0)),
                Some(&Value::Float(3.0)),
            )
            .unwrap();
        assert_eq!(hits.len(), 10);
        // Results come back ordered by time.
        let times: Vec<f64> = hits
            .iter()
            .map(|rid| db.get(t, *rid).unwrap().values[2].as_float().unwrap())
            .collect();
        for w in times.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn delete_removes_from_indexes() {
        let (_d, mut db) = fresh();
        let t = db.create_table("nodes", species_schema()).unwrap();
        db.create_index(t, "name", false).unwrap();
        let rid = db
            .insert(t, &[Value::text("gone"), Value::Int(1), Value::Null])
            .unwrap();
        db.insert(t, &[Value::text("kept"), Value::Int(2), Value::Null])
            .unwrap();
        db.delete(t, rid).unwrap();
        assert!(db.get(t, rid).is_err());
        assert_eq!(
            db.index_lookup(t, "name", &Value::text("gone"))
                .unwrap()
                .len(),
            0
        );
        assert_eq!(
            db.index_lookup(t, "name", &Value::text("kept"))
                .unwrap()
                .len(),
            1
        );
        assert_eq!(db.row_count(t).unwrap(), 1);
    }

    #[test]
    fn scan_returns_all_rows() {
        let (_d, mut db) = fresh();
        let t = db.create_table("nodes", species_schema()).unwrap();
        for i in 0..20 {
            db.insert(
                t,
                &[Value::text(format!("n{i}")), Value::Int(i), Value::Null],
            )
            .unwrap();
        }
        let rows = db.scan(t).unwrap();
        assert_eq!(rows.len(), 20);
    }

    #[test]
    fn persistence_across_reopen() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("db.crdb");
        {
            let mut db = Database::create(&path).unwrap();
            let t = db.create_table("species", species_schema()).unwrap();
            db.create_index(t, "name", true).unwrap();
            db.create_index(t, "time", false).unwrap();
            for i in 0..1000 {
                db.insert(
                    t,
                    &[
                        Value::text(format!("sp{i}")),
                        Value::Int(i),
                        Value::Float(i as f64),
                    ],
                )
                .unwrap();
            }
            db.flush().unwrap();
        }
        let db = Database::open(&path).unwrap();
        let t = db.table("species").unwrap();
        assert_eq!(db.row_count(t).unwrap(), 1000);
        let hits = db.index_lookup(t, "name", &Value::text("sp500")).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(db.get(t, hits[0]).unwrap().values[1], Value::Int(500));
        let range = db
            .index_range(t, "time", Some(&Value::Float(990.0)), None)
            .unwrap();
        assert_eq!(range.len(), 10);
    }

    #[test]
    fn small_buffer_pool_many_rows() {
        let dir = tempdir().unwrap();
        let mut db = Database::create_with_capacity(dir.path().join("db.crdb"), 16).unwrap();
        let t = db.create_table("nodes", species_schema()).unwrap();
        db.create_index(t, "node_id", true).unwrap();
        for i in 0..2000 {
            db.insert(
                t,
                &[
                    Value::text(format!("n{i}")),
                    Value::Int(i),
                    Value::Float(i as f64),
                ],
            )
            .unwrap();
        }
        for probe in [0i64, 555, 1999] {
            let hits = db.index_lookup(t, "node_id", &Value::Int(probe)).unwrap();
            assert_eq!(hits.len(), 1, "probe {probe}");
        }
        assert!(db.pool().stats().evictions > 0);
        assert!(db.pool().page_count() > 16);
    }

    #[test]
    fn raw_index_roundtrip_and_persistence() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("db.crdb");
        {
            let mut db = Database::create(&path).unwrap();
            let idx = db.create_raw_index("intervals").unwrap();
            assert!(matches!(
                db.create_raw_index("intervals"),
                Err(StorageError::AlreadyExists(_))
            ));
            // Enough entries to split the root so the catalog root update is
            // exercised.
            for i in 0..5000u64 {
                let mut key = i.to_be_bytes().to_vec();
                key.extend_from_slice(&[0xAB; 9]); // covering payload bytes
                db.raw_insert(idx, &key, i * 2).unwrap();
            }
            db.flush().unwrap();
        }
        let db = Database::open(&path).unwrap();
        let idx = db.raw_index("intervals").unwrap();
        assert!(db.raw_index("missing").is_err());
        let mut probe = 1234u64.to_be_bytes().to_vec();
        probe.extend_from_slice(&[0xAB; 9]);
        assert_eq!(db.raw_get(idx, &probe).unwrap(), Some(2468));
        assert_eq!(db.raw_len(idx).unwrap(), 5000);
        // Bounded range scan decodes covering keys without heap access.
        let low = 100u64.to_be_bytes();
        let high = 110u64.to_be_bytes();
        let mut hits: Vec<(Vec<u8>, u64)> = Vec::new();
        db.raw_scan(idx, Some(&low), Some(&high), &mut |key, value| {
            hits.push((key.to_vec(), value));
            Ok(true)
        })
        .unwrap();
        assert_eq!(hits.len(), 10);
        assert_eq!(hits[0].1, 200);
        assert_eq!(&hits[0].0[8..], &[0xAB; 9]);
    }

    #[test]
    fn duplicate_index_rejected_and_unknown_column() {
        let (_d, mut db) = fresh();
        let t = db.create_table("nodes", species_schema()).unwrap();
        db.create_index(t, "name", false).unwrap();
        assert!(matches!(
            db.create_index(t, "name", false),
            Err(StorageError::AlreadyExists(_))
        ));
        assert!(matches!(
            db.create_index(t, "ghost", false),
            Err(StorageError::UnknownColumn(_))
        ));
        assert!(db.index_lookup(t, "ghost", &Value::Int(1)).is_err());
    }

    #[test]
    fn unique_index_creation_fails_on_existing_duplicates() {
        let (_d, mut db) = fresh();
        let t = db.create_table("nodes", species_schema()).unwrap();
        db.insert(t, &[Value::text("dup"), Value::Int(1), Value::Null])
            .unwrap();
        db.insert(t, &[Value::text("dup"), Value::Int(2), Value::Null])
            .unwrap();
        assert!(matches!(
            db.create_index(t, "name", true),
            Err(StorageError::DuplicateKey(_))
        ));
    }

    #[test]
    fn cold_cache_reads_still_work() {
        let (_d, mut db) = fresh();
        let t = db.create_table("nodes", species_schema()).unwrap();
        db.create_index(t, "node_id", true).unwrap();
        for i in 0..500 {
            db.insert(
                t,
                &[Value::text(format!("n{i}")), Value::Int(i), Value::Null],
            )
            .unwrap();
        }
        db.pool().clear_cache().unwrap();
        db.pool().reset_stats();
        let hits = db.index_lookup(t, "node_id", &Value::Int(123)).unwrap();
        assert_eq!(hits.len(), 1);
        assert!(db.pool().stats().misses > 0);
        assert_eq!(db.pool().stats().hit_ratio(), db.pool().stats().hit_ratio());
    }

    #[test]
    fn raw_delete_removes_entry() {
        let (_d, mut db) = fresh();
        let idx = db.create_raw_index("ivl").unwrap();
        db.raw_insert(idx, b"key-a", 1).unwrap();
        db.raw_insert(idx, b"key-b", 2).unwrap();
        assert!(db.raw_delete(idx, b"key-a").unwrap());
        assert!(!db.raw_delete(idx, b"key-a").unwrap());
        assert_eq!(db.raw_get(idx, b"key-a").unwrap(), None);
        assert_eq!(db.raw_get(idx, b"key-b").unwrap(), Some(2));
        assert_eq!(db.raw_len(idx).unwrap(), 1);
    }

    // ------------------------------------------------------------------
    // Bulk loading
    // ------------------------------------------------------------------

    fn species_row(i: i64) -> Vec<Value> {
        vec![
            Value::text(format!("sp{i:05}")),
            Value::Int(i),
            Value::Float(i as f64 * 0.5),
        ]
    }

    #[test]
    fn bulk_insert_builds_fresh_indexes_bottom_up() {
        let (_d, mut db) = fresh();
        let t = db.create_table("species", species_schema()).unwrap();
        db.create_index(t, "node_id", true).unwrap();
        db.create_index(t, "name", false).unwrap();
        db.create_index(t, "time", false).unwrap();
        let rids = db.bulk_insert(t, 0.9, (0..5000).map(species_row)).unwrap();
        assert_eq!(rids.len(), 5000);
        assert_eq!(db.row_count(t).unwrap(), 5000);
        // Unique point lookups, non-unique lookups and range scans all work.
        for probe in [0i64, 1234, 4999] {
            let hits = db.index_lookup(t, "node_id", &Value::Int(probe)).unwrap();
            assert_eq!(hits.len(), 1, "probe {probe}");
            let row = db.get(t, hits[0]).unwrap();
            assert_eq!(row.values[0], Value::text(format!("sp{probe:05}")));
        }
        assert_eq!(
            db.index_lookup(t, "name", &Value::text("sp00777"))
                .unwrap()
                .len(),
            1
        );
        let range = db
            .index_range(
                t,
                "time",
                Some(&Value::Float(100.0)),
                Some(&Value::Float(110.0)),
            )
            .unwrap();
        assert_eq!(range.len(), 20);
        // Ordinary inserts keep working on the bulk-built indexes.
        db.insert(
            t,
            &[Value::text("zzz"), Value::Int(5000), Value::Float(1.0)],
        )
        .unwrap();
        assert_eq!(
            db.index_lookup(t, "node_id", &Value::Int(5000))
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn bulk_insert_second_batch_appends_or_falls_back() {
        let (_d, mut db) = fresh();
        let t = db.create_table("species", species_schema()).unwrap();
        db.create_index(t, "node_id", true).unwrap();
        db.create_index(t, "name", false).unwrap();
        db.bulk_insert(t, 0.9, (0..1000).map(species_row)).unwrap();
        // Second batch: node_id keys sort after the first batch (bulk
        // append); the interleaving names force the per-row fallback.
        let rows: Vec<Vec<Value>> = (1000..2000)
            .map(|i| {
                vec![
                    Value::text(format!("aa{i:05}")), // sorts before sp*
                    Value::Int(i),
                    Value::Float(i as f64),
                ]
            })
            .collect();
        db.bulk_insert(t, 0.9, rows).unwrap();
        assert_eq!(db.row_count(t).unwrap(), 2000);
        for probe in [0i64, 999, 1000, 1999] {
            assert_eq!(
                db.index_lookup(t, "node_id", &Value::Int(probe))
                    .unwrap()
                    .len(),
                1,
                "probe {probe}"
            );
        }
        assert_eq!(
            db.index_lookup(t, "name", &Value::text("aa01500"))
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            db.index_lookup(t, "name", &Value::text("sp00500"))
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn bulk_insert_rejects_duplicate_unique_keys() {
        let (_d, mut db) = fresh();
        let t = db.create_table("species", species_schema()).unwrap();
        db.create_index(t, "node_id", true).unwrap();
        // Duplicate within the batch.
        let rows = vec![species_row(1), species_row(1)];
        assert!(matches!(
            db.bulk_insert(t, 1.0, rows),
            Err(StorageError::DuplicateKey(_))
        ));
        // The failed bulk rolled back: nothing landed.
        assert_eq!(db.row_count(t).unwrap(), 0);
        // Duplicate against an existing row (fallback path).
        db.insert(t, &species_row(5)).unwrap();
        let rows = vec![species_row(3), species_row(5)];
        assert!(matches!(
            db.bulk_insert(t, 1.0, rows),
            Err(StorageError::DuplicateKey(_))
        ));
        assert_eq!(db.row_count(t).unwrap(), 1);
    }

    #[test]
    fn bulk_insert_validates_schema() {
        let (_d, mut db) = fresh();
        let t = db.create_table("species", species_schema()).unwrap();
        let rows = vec![vec![Value::Int(1), Value::Int(2), Value::Null]];
        assert!(matches!(
            db.bulk_insert(t, 1.0, rows),
            Err(StorageError::SchemaMismatch(_))
        ));
        assert_eq!(db.row_count(t).unwrap(), 0);
    }

    #[test]
    fn bulk_insert_persists_across_reopen() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("db.crdb");
        {
            let mut db = Database::create(&path).unwrap();
            let t = db.create_table("species", species_schema()).unwrap();
            db.create_index(t, "node_id", true).unwrap();
            db.create_index(t, "time", false).unwrap();
            db.begin().unwrap();
            db.bulk_insert(t, 0.9, (0..3000).map(species_row)).unwrap();
            db.commit().unwrap();
            db.flush().unwrap();
        }
        let db = Database::open(&path).unwrap();
        let t = db.table("species").unwrap();
        assert_eq!(db.row_count(t).unwrap(), 3000);
        let hits = db.index_lookup(t, "node_id", &Value::Int(2500)).unwrap();
        assert_eq!(hits.len(), 1);
        let range = db
            .index_range(t, "time", Some(&Value::Float(1495.0)), None)
            .unwrap();
        assert_eq!(range.len(), 10);
    }

    #[test]
    fn bulk_raw_insert_appends_sorted_runs() {
        let (_d, mut db) = fresh();
        let idx = db.create_raw_index("ivl").unwrap();
        let first: Vec<([u8; 8], u64)> = (0..4000u64).map(|i| (i.to_be_bytes(), i)).collect();
        assert_eq!(db.bulk_raw_insert(idx, 0.9, first).unwrap(), 4000);
        let second: Vec<([u8; 8], u64)> = (4000..8000u64).map(|i| (i.to_be_bytes(), i)).collect();
        assert_eq!(db.bulk_raw_insert(idx, 0.9, second).unwrap(), 4000);
        assert_eq!(db.raw_len(idx).unwrap(), 8000);
        for probe in [0u64, 3999, 4000, 7999] {
            assert_eq!(db.raw_get(idx, &probe.to_be_bytes()).unwrap(), Some(probe));
        }
        // Out-of-order and duplicate runs are rejected with typed errors.
        let stale: Vec<([u8; 8], u64)> = vec![(100u64.to_be_bytes(), 1)];
        assert!(matches!(
            db.bulk_raw_insert(idx, 0.9, stale),
            Err(StorageError::BulkOutOfOrder(_))
        ));
        let dup: Vec<([u8; 8], u64)> = vec![(7999u64.to_be_bytes(), 1)];
        assert!(matches!(
            db.bulk_raw_insert(idx, 0.9, dup),
            Err(StorageError::DuplicateKey(_))
        ));
        assert_eq!(db.raw_len(idx).unwrap(), 8000);
    }

    #[test]
    fn bulk_apis_join_open_transaction_and_roll_back() {
        let (_d, mut db) = fresh();
        let t = db.create_table("species", species_schema()).unwrap();
        db.create_index(t, "node_id", true).unwrap();
        let idx = db.create_raw_index("ivl").unwrap();
        db.begin().unwrap();
        db.bulk_insert(t, 0.9, (0..500).map(species_row)).unwrap();
        db.bulk_raw_insert(idx, 0.9, (0..500u64).map(|i| (i.to_be_bytes(), i)))
            .unwrap();
        assert_eq!(db.row_count(t).unwrap(), 500);
        db.rollback().unwrap();
        assert_eq!(db.row_count(t).unwrap(), 0);
        assert_eq!(db.raw_len(idx).unwrap(), 0);
        assert_eq!(
            db.index_lookup(t, "node_id", &Value::Int(42))
                .unwrap()
                .len(),
            0
        );
        // The structures still work after the rollback.
        db.insert(t, &species_row(1)).unwrap();
        db.raw_insert(idx, &1u64.to_be_bytes(), 1).unwrap();
        assert_eq!(db.row_count(t).unwrap(), 1);
        assert_eq!(db.raw_len(idx).unwrap(), 1);
    }

    #[test]
    fn bulk_load_wal_bytes_stay_near_data_bytes() {
        use crate::page::PAGE_SIZE;
        let dir = tempdir().unwrap();
        // A pool far smaller than the load forces eviction (and steals)
        // mid-transaction; fresh pages must still reach the log exactly
        // once, as their commit-time after-image.
        let mut db = Database::create_with_capacity(dir.path().join("db.crdb"), 64).unwrap();
        let t = db.create_table("species", species_schema()).unwrap();
        db.create_index(t, "node_id", true).unwrap();
        db.pool().reset_stats();
        db.begin().unwrap();
        db.bulk_insert(t, 0.9, (0..20_000).map(species_row))
            .unwrap();
        db.commit().unwrap();
        let stats = db.pool().stats();
        assert!(stats.evictions > 0, "the load must overflow the pool");
        db.flush().unwrap();
        let data_bytes = (db.pool().stats().page_writes() * PAGE_SIZE as u64) as f64;
        let ratio = db.pool().stats().wal_bytes as f64 / data_bytes;
        assert!(
            ratio <= 1.1,
            "WAL bytes must stay within 1.1x of data bytes, got {ratio:.3} \
             ({} WAL bytes, {} page writes)",
            db.pool().stats().wal_bytes,
            db.pool().stats().page_writes()
        );
        assert!(db.pool().stats().wal_page_images > 0);
    }

    // ------------------------------------------------------------------
    // Snapshot readers
    // ------------------------------------------------------------------

    /// Run `f` on a fresh epoch pinned through `reader`.
    fn pinned<R>(reader: &DbReader, f: impl FnOnce(&EpochView<'_>) -> R) -> R {
        let pin = reader.pin_epoch();
        f(&reader.at_epoch(&pin).unwrap())
    }

    #[test]
    fn reader_sees_committed_rows_only() {
        let (_d, mut db) = fresh();
        let t = db.create_table("species", species_schema()).unwrap();
        db.create_index(t, "name", true).unwrap();
        db.insert(t, &[Value::text("Bha"), Value::Int(1), Value::Null])
            .unwrap();
        let reader = db.reader();
        assert_eq!(pinned(&reader, |v| v.table("species").unwrap()), t);
        assert_eq!(pinned(&reader, |v| v.row_count(t).unwrap()), 1);

        // An open transaction's inserts are invisible to the reader...
        db.begin().unwrap();
        db.insert(t, &[Value::text("Lla"), Value::Int(2), Value::Null])
            .unwrap();
        assert_eq!(db.row_count(t).unwrap(), 2, "writer sees its own insert");
        assert_eq!(
            pinned(&reader, |v| v.row_count(t).unwrap()),
            1,
            "reader must not"
        );
        assert!(pinned(&reader, |v| v
            .lookup_rows(t, "name", &Value::text("Lla"))
            .unwrap()
            .is_empty()));

        // ...until the commit lands.
        db.commit().unwrap();
        assert_eq!(pinned(&reader, |v| v.row_count(t).unwrap()), 2);
        let rows = pinned(&reader, |v| {
            v.lookup_rows(t, "name", &Value::text("Lla")).unwrap()
        });
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1.values[1], Value::Int(2));
    }

    #[test]
    fn reader_survives_rollback() {
        let (_d, mut db) = fresh();
        let t = db.create_table("species", species_schema()).unwrap();
        db.insert(t, &[Value::text("Bha"), Value::Int(1), Value::Null])
            .unwrap();
        let reader = db.reader();
        db.begin().unwrap();
        for i in 0..50 {
            db.insert(
                t,
                &[
                    Value::text(format!("x{i}")),
                    Value::Int(10 + i),
                    Value::Null,
                ],
            )
            .unwrap();
        }
        assert_eq!(pinned(&reader, |v| v.row_count(t).unwrap()), 1);
        db.rollback().unwrap();
        assert_eq!(pinned(&reader, |v| v.row_count(t).unwrap()), 1);
        assert_eq!(db.row_count(t).unwrap(), 1);
    }

    #[test]
    fn reader_refreshes_catalog_after_ddl() {
        let (_d, mut db) = fresh();
        let t = db.create_table("first", species_schema()).unwrap();
        db.insert(t, &[Value::text("a"), Value::Int(1), Value::Null])
            .unwrap();
        let reader = db.reader();
        assert!(pinned(&reader, |v| v.table("second").is_err()));
        let t2 = db.create_table("second", species_schema()).unwrap();
        db.insert(t2, &[Value::text("b"), Value::Int(2), Value::Null])
            .unwrap();
        // A fresh pin picks up the new table after the auto-commits.
        assert_eq!(pinned(&reader, |v| v.table("second").unwrap()), t2);
        assert_eq!(pinned(&reader, |v| v.row_count(t2).unwrap()), 1);
    }

    #[test]
    fn concurrent_readers_during_writes() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (_d, mut db) = fresh();
        let t = db.create_table("nodes", species_schema()).unwrap();
        db.create_index(t, "node_id", true).unwrap();
        for i in 0..200 {
            db.insert(
                t,
                &[Value::text(format!("n{i}")), Value::Int(i), Value::Null],
            )
            .unwrap();
        }
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..3 {
                let reader = db.reader();
                let stop = &stop;
                s.spawn(move || {
                    let mut rounds = 0u64;
                    while !stop.load(Ordering::Relaxed) || rounds < 50 {
                        // Row counts only ever grow by whole committed
                        // transactions of 10 rows.
                        let n = pinned(&reader, |v| v.row_count(t).unwrap());
                        assert!(n >= 200 && (n - 200) % 10 == 0, "torn count {n}");
                        let rows = pinned(&reader, |v| {
                            v.lookup_rows(t, "node_id", &Value::Int(42)).unwrap()
                        });
                        assert_eq!(rows.len(), 1);
                        rounds += 1;
                        if rounds > 5000 {
                            break;
                        }
                    }
                });
            }
            // Writer: 20 transactions of 10 rows each.
            for batch in 0..20 {
                db.begin().unwrap();
                for i in 0..10 {
                    let id = 1000 + batch * 10 + i;
                    db.insert(
                        t,
                        &[Value::text(format!("w{id}")), Value::Int(id), Value::Null],
                    )
                    .unwrap();
                }
                db.commit().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(db.row_count(t).unwrap(), 400);
    }

    // ------------------------------------------------------------------
    // Versioned (epoch-pinned) reads
    // ------------------------------------------------------------------

    #[test]
    fn pinned_epoch_sees_frozen_state_across_commits() {
        let (_d, mut db) = fresh();
        let t = db.create_table("species", species_schema()).unwrap();
        for i in 0..5 {
            db.insert(t, &species_row(i)).unwrap();
        }
        let reader = db.reader();
        let pin = reader.pin_epoch();
        let view = reader.at_epoch(&pin).unwrap();
        assert_eq!(view.row_count(t).unwrap(), 5);

        // Many commits land while the pin is held; the pinned view must
        // not move, however many versions of the hot pages are published.
        for batch in 0..20 {
            db.begin().unwrap();
            for i in 0..10 {
                db.insert(t, &species_row(100 + batch * 10 + i)).unwrap();
            }
            db.commit().unwrap();
            assert_eq!(
                view.row_count(t).unwrap(),
                5,
                "pinned epoch moved after commit {batch}"
            );
        }
        assert_eq!(db.row_count(t).unwrap(), 205, "writer sees every commit");
        assert!(
            db.pool().version_pages() > 0,
            "held pin must keep versions alive"
        );

        // A fresh pin sees the new state; dropping every pin lets GC clear
        // all stored history (no leaked versions).
        let pin2 = reader.pin_epoch();
        let view2 = reader.at_epoch(&pin2).unwrap();
        assert_eq!(view2.row_count(t).unwrap(), 205);
        drop(view2);
        drop(pin2);
        drop(view);
        drop(pin);
        assert_eq!(db.pool().pinned_epochs(), 0);
        assert_eq!(
            db.pool().version_pages(),
            0,
            "version chains must clear once no epoch is pinned"
        );
        assert_eq!(db.pool().version_floor(), db.pool().current_epoch());
    }

    #[test]
    fn crowded_pins_retire_oldest_epoch() {
        let (_d, mut db) = fresh();
        let t = db.create_table("species", species_schema()).unwrap();
        db.insert(t, &species_row(0)).unwrap();
        let reader = db.reader();

        // One pin per inter-commit window, each insert dirtying the same
        // heap page: after more than VERSION_CHAIN_CAP distinct pinned
        // epochs crowd that page's chain, the hard cap retires the oldest.
        let mut pins = Vec::new();
        for i in 1..=(crate::buffer::BufferPool::VERSION_CHAIN_CAP as i64 + 2) {
            pins.push(reader.pin_epoch());
            db.insert(t, &species_row(i)).unwrap();
        }
        let oldest = reader.at_epoch(&pins[0]);
        assert!(
            matches!(oldest, Err(StorageError::SnapshotRetired { .. })),
            "oldest pin must be retired by the chain cap, got {oldest:?}"
        );
        // The newest pins still resolve, and a retired reader recovers by
        // re-pinning.
        let newest = pins.last().unwrap();
        assert!(reader.at_epoch(newest).is_ok());
        drop(pins);
        let fresh_pin = reader.pin_epoch();
        let view = reader.at_epoch(&fresh_pin).unwrap();
        assert_eq!(
            view.row_count(t).unwrap(),
            crate::buffer::BufferPool::VERSION_CHAIN_CAP + 3
        );
    }

    #[test]
    fn async_commit_survives_clean_close_without_explicit_flush() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("db.crdb");
        {
            let mut db = Database::create(&path).unwrap();
            let t = db.create_table("species", species_schema()).unwrap();
            db.begin().unwrap();
            db.insert(t, &species_row(7)).unwrap();
            // Acknowledged but not yet durable: the frames sit in the
            // pipelined commit queue until some later sync.
            db.commit_async().unwrap();
            // Clean close with no flush/wait: Drop must drain + fsync the
            // pending WAL frames.
        }
        let db = Database::open(&path).unwrap();
        let t = db.table("species").unwrap();
        assert_eq!(
            db.row_count(t).unwrap(),
            1,
            "async commit lost across a clean close"
        );
    }
}
