//! Media-fault robustness: checksum detection on the read path, WAL-based
//! page repair, quarantine of unrepairable pages, transient-error retry,
//! fsync poisoning, scrubbing, and degraded read-only opens.

use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use storage::buffer::BufferPool;
use storage::db::{Database, DbRead};
use storage::pager::Pager;
use storage::{
    shared_schedule, FaultConfig, FaultSchedule, PageId, ScrubOptions, StorageError, PAGE_SIZE,
};
use tempfile::tempdir;

/// XOR one byte of the database file at `offset`, bypassing the pool's file
/// handle (the page cache makes the damage visible to the same process).
fn corrupt_byte(path: &Path, offset: u64) {
    let mut f = OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .unwrap();
    f.seek(SeekFrom::Start(offset)).unwrap();
    let mut b = [0u8; 1];
    f.read_exact(&mut b).unwrap();
    b[0] ^= 0xA5;
    f.seek(SeekFrom::Start(offset)).unwrap();
    f.write_all(&b).unwrap();
    f.sync_all().unwrap();
}

/// Build a small pool, commit 32 identifiable pages in one transaction
/// without checkpointing, and return (pool, pids). The pool holds only 8
/// frames, so most committed pages live exclusively on disk + WAL.
fn committed_pages(path: &Path) -> (BufferPool, Vec<PageId>) {
    let pager = Pager::create(path).unwrap();
    let pool = BufferPool::with_capacity(pager, 8).unwrap();
    pool.begin_txn().unwrap();
    let mut pids = Vec::new();
    for i in 0..32u64 {
        let pid = pool.allocate_page().unwrap();
        pool.with_page_mut(pid, |p| p.write_u64(100, 0xC0FFEE00 + i))
            .unwrap();
        pids.push(pid);
    }
    pool.commit_txn(true).unwrap();
    (pool, pids)
}

#[test]
fn corrupt_pages_are_repaired_from_the_wal_end_to_end() {
    let dir = tempdir().unwrap();
    let path = dir.path().join("db.crdb");
    let (pool, pids) = committed_pages(&path);

    // Smash a body byte of every committed page that reached the disk
    // (resident-only pages have no disk copy before a checkpoint). Resident
    // frames keep serving from memory; evicted pages must be detected and
    // healed from the committed WAL images.
    let file_len = std::fs::metadata(&path).unwrap().len();
    let mut smashed = 0u64;
    for pid in &pids {
        let offset = pid.0 * PAGE_SIZE as u64 + 4000;
        if offset < file_len {
            corrupt_byte(&path, offset);
            smashed += 1;
        }
    }
    assert!(
        smashed >= 8,
        "the 8-frame pool must have evicted pages to disk"
    );
    for (i, pid) in pids.iter().enumerate() {
        let v = pool.with_page(*pid, |p| p.read_u64(100)).unwrap();
        assert_eq!(
            v,
            0xC0FFEE00 + i as u64,
            "page {} must read back intact",
            pid.0
        );
    }
    let stats = pool.stats();
    assert!(
        stats.repaired_pages > 0,
        "at least one page must be WAL-repaired"
    );
    assert_eq!(stats.quarantined_pages, 0);
    assert!(pool.quarantined_pages().is_empty());
    assert!(!pool.is_poisoned());

    // The repair rewrote good bytes: a fresh open verifies cleanly.
    drop(pool);
    let pool = BufferPool::new(Pager::open(&path).unwrap()).unwrap();
    for (i, pid) in pids.iter().enumerate() {
        let v = pool.with_page(*pid, |p| p.read_u64(100)).unwrap();
        assert_eq!(v, 0xC0FFEE00 + i as u64);
    }
}

#[test]
fn unrepairable_page_is_quarantined_and_fails_fast() {
    let dir = tempdir().unwrap();
    let path = dir.path().join("db.crdb");
    let (pool, pids) = committed_pages(&path);
    // Checkpoint: data reaches disk, the WAL is truncated — no repair
    // source remains. Drop the cache so the next read goes to disk.
    pool.flush().unwrap();
    pool.clear_cache().unwrap();

    let victim = pids[7];
    corrupt_byte(&path, victim.0 * PAGE_SIZE as u64 + 512);

    let err = pool.with_page(victim, |p| p.read_u64(100)).unwrap_err();
    assert!(
        matches!(err, StorageError::CorruptPage { page, .. } if page == victim.0),
        "expected CorruptPage for page {}, got {err:?}",
        victim.0
    );
    // Second read fails fast out of the quarantine list, no re-read.
    let err = pool.with_page(victim, |p| p.read_u64(100)).unwrap_err();
    assert!(matches!(err, StorageError::CorruptPage { .. }));
    assert_eq!(pool.quarantined_pages(), vec![victim.0]);
    assert_eq!(pool.stats().quarantined_pages, 1);

    // Other pages stay readable.
    let v = pool.with_page(pids[0], |p| p.read_u64(100)).unwrap();
    assert_eq!(v, 0xC0FFEE00);
}

#[test]
fn transient_read_errors_are_retried_with_backoff() {
    let dir = tempdir().unwrap();
    let path = dir.path().join("db.crdb");
    let (pool, pids) = committed_pages(&path);
    pool.flush().unwrap();
    pool.clear_cache().unwrap();

    // Every read fails transiently until the 3-fault budget is spent. The
    // default retry policy allows 4 attempts, so the read succeeds.
    let schedule = shared_schedule(
        FaultSchedule::from_seed(
            42,
            FaultConfig {
                read_error: 1.0,
                ..FaultConfig::default()
            },
        )
        .with_fault_budget(3),
    );
    pool.install_fault_schedule(schedule.clone()).unwrap();

    let v = pool.with_page(pids[3], |p| p.read_u64(100)).unwrap();
    assert_eq!(v, 0xC0FFEE03);
    let stats = schedule.lock().stats();
    assert_eq!(
        stats.read_errors, 3,
        "all three budgeted faults were injected"
    );
    assert!(!pool.is_poisoned());
}

#[test]
fn fsync_failure_poisons_the_writer_but_readers_survive() {
    let dir = tempdir().unwrap();
    let path = dir.path().join("db.crdb");
    let (pool, pids) = committed_pages(&path);

    let schedule = shared_schedule(
        FaultSchedule::from_seed(
            7,
            FaultConfig {
                sync_error: 1.0,
                ..FaultConfig::default()
            },
        )
        .with_fault_budget(1),
    );
    pool.install_fault_schedule(schedule).unwrap();

    pool.begin_txn().unwrap();
    let pid = pool.allocate_page().unwrap();
    pool.with_page_mut(pid, |p| p.write_u64(0x20, 99)).unwrap();
    let err = pool.commit_txn(true).unwrap_err();
    assert!(
        matches!(err, StorageError::Io(_)),
        "fsync fault surfaces as I/O"
    );
    assert!(pool.is_poisoned());

    // The writer is gone: no new transactions, no checkpoints.
    assert!(matches!(
        pool.begin_txn(),
        Err(StorageError::WriterPoisoned(_))
    ));
    assert!(matches!(pool.flush(), Err(StorageError::WriterPoisoned(_))));

    // Reads keep serving the last committed state.
    let v = pool.with_page(pids[0], |p| p.read_u64(100)).unwrap();
    assert_eq!(v, 0xC0FFEE00);
}

#[test]
fn scrub_detects_and_repairs_latent_corruption() {
    let dir = tempdir().unwrap();
    let path = dir.path().join("db.crdb");
    let (pool, pids) = committed_pages(&path);

    // Latent damage on disk; the WAL still holds committed images.
    for pid in pids.iter().take(5) {
        corrupt_byte(&path, pid.0 * PAGE_SIZE as u64 + 2048);
    }
    let stats = pool.scrub(ScrubOptions::default()).unwrap();
    assert!(stats.pages_scanned >= pids.len() as u64);
    assert!(
        stats.pages_repaired >= 1,
        "scrub must heal from WAL or memory: {stats:?}"
    );
    assert_eq!(stats.pages_quarantined, 0, "{stats:?}");

    for (i, pid) in pids.iter().enumerate() {
        let v = pool.with_page(*pid, |p| p.read_u64(100)).unwrap();
        assert_eq!(v, 0xC0FFEE00 + i as u64);
    }
    assert!(pool.quarantined_pages().is_empty());
}

#[test]
fn degraded_open_quarantines_damage_and_rejects_writes() {
    let dir = tempdir().unwrap();
    let path = dir.path().join("db.crdb");
    {
        let mut db = Database::create(&path).unwrap();
        let t = db
            .create_table(
                "t",
                storage::Schema::new(vec![storage::ColumnDef::not_null(
                    "id",
                    storage::ValueType::Int,
                )]),
            )
            .unwrap();
        for i in 0..2000i64 {
            db.insert(t, &[storage::Value::Int(i)]).unwrap();
        }
        db.flush().unwrap();
    }
    // Damage the last page (user data, allocated after the catalog).
    let page_count = {
        let pager = Pager::open(&path).unwrap();
        pager.page_count()
    };
    assert!(page_count > 4, "need a multi-page file, got {page_count}");
    let victim = page_count - 1;
    corrupt_byte(&path, victim * PAGE_SIZE as u64 + 1000);

    let db = Database::open_degraded(&path, 64).unwrap();
    assert!(db.pool().read_only());
    assert_eq!(db.pool().quarantined_pages(), vec![victim]);

    // Mutations are refused with a typed error.
    let mut db = db;
    let t = db.table("t").unwrap();
    let err = db.insert(t, &[storage::Value::Int(-1)]).unwrap_err();
    assert!(
        matches!(err, StorageError::ReadOnly),
        "degraded mode must refuse writes, got {err:?}"
    );
}

#[test]
fn header_corruption_is_a_typed_invalid_database_error() {
    let dir = tempdir().unwrap();
    let path = dir.path().join("db.crdb");
    {
        let (pool, _) = committed_pages(&path);
        pool.flush().unwrap();
    }
    // Flip a byte deep in the header page (beyond the magic): the v2
    // full-header checksum must reject it as a typed error, not a panic.
    corrupt_byte(&path, 52);
    match Pager::open(&path) {
        Err(StorageError::InvalidDatabase(_)) | Err(StorageError::Corrupted(_)) => {}
        other => panic!("expected typed header-corruption error, got {other:?}"),
    }
}
