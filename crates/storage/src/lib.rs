//! # crimson-storage — embedded relational storage engine
//!
//! The Crimson paper stores phylogenetic trees "in relational form" inside a
//! relational database and builds indexes over node labels, species names and
//! evolutionary times. This crate is the from-scratch substrate standing in
//! for that DBMS: a small, disk-backed, page-oriented storage engine with
//!
//! * a file-backed **pager** ([`pager::Pager`]) managing fixed-size pages,
//! * a **write-ahead log** ([`wal::Wal`]) with CRC-framed physical
//!   page-image records, group fsync on commit, redo/undo crash recovery
//!   and log truncation at checkpoints — see below,
//! * one **CRC-32** ([`crc32::crc32`], IEEE polynomial, slicing-by-16)
//!   behind every page, header, sidecar, WAL-frame and wire-frame checksum,
//! * a fixed-capacity **buffer pool** ([`buffer::BufferPool`]) with clock
//!   (second-chance) eviction, `Arc<Page>` frames, frame pinning for
//!   in-flight scans, and zero-clone write-back — see below,
//! * **slotted-page heap files** ([`heap::HeapFile`]) holding variable-length
//!   records addressed by [`heap::RecordId`],
//! * **B+tree indexes** ([`btree::BTree`]) over order-preserving binary keys,
//!   supporting point lookups and range scans (the access paths Crimson needs
//!   for species names, node labels and cumulative evolutionary time),
//! * **raw indexes** ([`db::Database::create_raw_index`]): table-less
//!   B+trees for covering keys — the persistence vehicle of the interval
//!   index behind Crimson's structure queries,
//! * a typed **row/schema layer** ([`schema`], [`value`]) and a **catalog**
//!   ([`catalog`]) persisting table, index and raw-index metadata,
//! * a [`db::Database`] facade tying the pieces together.
//!
//! ## Buffer pool: sharded latches, clock eviction, snapshot reads
//!
//! Residency is bounded by a fixed frame capacity; the pool never grows past
//! it whatever the file size. The page table is sharded (16 short-held
//! mutexes) and each frame carries its own read/write latch, atomic pin
//! count and reference bit, so any number of reader threads hit the cache
//! concurrently; file I/O, the WAL and the single open transaction
//! serialize on one writer/io latch (latch order: io → shard map → frame →
//! mvcc registry → version map). All statistics counters are atomic.
//! Eviction is clock
//! second-chance: every access sets a frame's reference bit, and the hand
//! sweeps shards round-robin clearing bits until it finds an unpinned,
//! unreferenced victim. Dirty victims are written back through a borrow of
//! the frame (`Page` is never cloned on the write path). Pinned frames
//! ([`buffer::BufferPool::pin`]) are skipped by the sweep; a pool whose
//! every frame is pinned surfaces [`StorageError::PoolExhausted`] instead
//! of growing. Range scans pin one leaf at a time and decode entries lazily
//! from the pinned frame, so a scan neither copies whole leaves nor has its
//! leaf evicted mid-read.
//!
//! Concurrent readers see **versioned committed snapshots** (MVCC): a
//! transaction's first touch of a page publishes its before-image into a
//! bounded per-page version chain, and each commit graduates those images
//! into committed history stamped with the commit sequence. A reader pins
//! a snapshot **epoch** ([`buffer::BufferPool::pin_epoch`],
//! [`db::DbReader::at_epoch`]) and reads every page as of that sequence —
//! an in-flight transaction is invisible, readers never block behind the
//! writer, and a pinned multi-page read never retries however fast commits
//! land. The [`buffer::PageSource`] trait makes the B+tree, heap and
//! catalog read paths generic over the current view, the committed view
//! ([`buffer::Snapshot`]) and the pinned-epoch view ([`db::EpochSnapshot`]);
//! `ARCHITECTURE.md` documents the latching protocol and the epoch-pinning
//! rule in full.
//!
//! ## Transactions, write-ahead logging and recovery
//!
//! Every [`db::Database`] mutation runs inside a transaction — the caller's
//! explicit [`db::Database::begin`]/[`db::Database::commit`]/
//! [`db::Database::rollback`], or an implicit auto-commit per operation. At
//! commit the after-image of every dirtied page plus a commit record is
//! appended to the sibling `.wal` file (one fsync covers the group); the
//! buffer pool enforces WAL-before-data on eviction and flush, logging a
//! before-image first whenever an uncommitted dirty page must be stolen.
//! [`db::Database::flush`] is a checkpoint: it makes the data file durable
//! and truncates the log. Opening an existing file replays the log — redo
//! for committed transactions, undo for losers — before anything reads the
//! catalog ([`db::Database::recovery_report`]). `ARCHITECTURE.md` documents
//! the on-disk formats and the recovery protocol in full.
//!
//! The engine intentionally supports exactly the operational envelope the
//! paper's workload requires — bulk load, point/range reads, secondary
//! indexes, atomic durable transactions, single-writer/many-reader
//! concurrency — rather than a SQL surface or multi-writer concurrency.
//! See `DESIGN.md` §2 for the substitution argument.
//!
//! ```
//! use storage::db::Database;
//! use storage::schema::{ColumnDef, Schema};
//! use storage::value::{Value, ValueType};
//!
//! let dir = tempfile::tempdir().unwrap();
//! let mut db = Database::create(dir.path().join("example.crdb")).unwrap();
//! let schema = Schema::new(vec![
//!     ColumnDef::new("name", ValueType::Text),
//!     ColumnDef::new("weight", ValueType::Float),
//! ]);
//! let table = db.create_table("species", schema).unwrap();
//! db.insert(table, &[Value::text("Bha"), Value::Float(0.75)]).unwrap();
//! db.create_index(table, "name", true).unwrap();
//! let hits = db.index_lookup(table, "name", &Value::text("Bha")).unwrap();
//! assert_eq!(hits.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod btree;
pub mod buffer;
pub mod catalog;
pub mod crc32;
pub mod db;
pub mod error;
pub mod heap;
pub mod io;
pub mod page;
pub mod pager;
pub mod schema;
pub mod value;
pub mod wal;

pub use buffer::{
    CheckpointPolicy, CheckpointerGuard, CrashPoint, EpochPin, PageSource, PinnedPage,
    ScrubOptions, ScrubStats, Snapshot,
};
pub use db::{Database, DbRead, DbReader, EpochSnapshot, EpochView, RawIndexId, TableId};
pub use error::{StorageError, StorageResult};
pub use heap::RecordId;
pub use io::{
    shared_schedule, FaultConfig, FaultSchedule, FaultStats, FileKind, RetryPolicy,
    SharedFaultSchedule,
};
pub use page::{PageId, PAGE_SIZE};
pub use schema::{ColumnDef, Row, Schema};
pub use value::{Value, ValueType};
pub use wal::RecoveryReport;
