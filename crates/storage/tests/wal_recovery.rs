//! Database-level crash-recovery tests: transactions, auto-commit routing,
//! crash injection at WAL-append / data-write / checkpoint-truncate points,
//! and torn-tail fuzzing of the log file.

use storage::db::{Database, DbRead};
use storage::schema::{ColumnDef, Schema};
use storage::value::{Value, ValueType};
use storage::CrashPoint;
use tempfile::tempdir;

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::not_null("id", ValueType::Int),
        ColumnDef::not_null("name", ValueType::Text),
    ])
}

fn row(i: i64) -> Vec<Value> {
    vec![Value::Int(i), Value::text(format!("row-{i}"))]
}

#[test]
fn committed_transaction_survives_reopen_without_flush() {
    let dir = tempdir().unwrap();
    let path = dir.path().join("db.crdb");
    {
        let mut db = Database::create(&path).unwrap();
        let t = db.create_table("t", schema()).unwrap();
        db.create_index(t, "id", true).unwrap();
        db.begin().unwrap();
        for i in 0..200 {
            db.insert(t, &row(i)).unwrap();
        }
        db.commit().unwrap();
        // No flush: the dirty pages die with the process.
    }
    let db = Database::open(&path).unwrap();
    let report = db
        .pool()
        .recovery_report()
        .expect("pre-existing file reports recovery");
    assert!(report.committed_txns >= 1);
    assert!(report.pages_redone >= 1);
    let t = db.table("t").unwrap();
    assert_eq!(db.row_count(t).unwrap(), 200);
    assert_eq!(db.index_lookup(t, "id", &Value::Int(137)).unwrap().len(), 1);
}

#[test]
fn uncommitted_transaction_is_invisible_on_reopen() {
    let dir = tempdir().unwrap();
    let path = dir.path().join("db.crdb");
    {
        let mut db = Database::create(&path).unwrap();
        let t = db.create_table("t", schema()).unwrap();
        db.begin().unwrap();
        for i in 0..50 {
            db.insert(t, &row(i)).unwrap();
        }
        db.commit().unwrap();
        db.begin().unwrap();
        for i in 100..400 {
            db.insert(t, &row(i)).unwrap();
        }
        // Crash without commit.
    }
    let db = Database::open(&path).unwrap();
    let t = db.table("t").unwrap();
    assert_eq!(
        db.row_count(t).unwrap(),
        50,
        "only the committed rows may survive"
    );
}

#[test]
fn rollback_undoes_ddl_and_dml() {
    let dir = tempdir().unwrap();
    let mut db = Database::create(dir.path().join("db.crdb")).unwrap();
    let t = db.create_table("keep", schema()).unwrap();
    db.insert(t, &row(1)).unwrap();
    db.begin().unwrap();
    let t2 = db.create_table("gone", schema()).unwrap();
    db.insert(t2, &row(2)).unwrap();
    db.insert(t, &row(3)).unwrap();
    db.rollback().unwrap();
    assert!(db.table("gone").is_err(), "rolled-back table must vanish");
    let t = db.table("keep").unwrap();
    assert_eq!(db.row_count(t).unwrap(), 1);
    // The database stays fully usable after the rollback.
    db.insert(t, &row(4)).unwrap();
    assert_eq!(db.row_count(t).unwrap(), 2);
}

#[test]
fn failed_autocommit_insert_rolls_back_cleanly() {
    let dir = tempdir().unwrap();
    let mut db = Database::create(dir.path().join("db.crdb")).unwrap();
    let t = db.create_table("t", schema()).unwrap();
    db.create_index(t, "id", true).unwrap();
    db.insert(t, &row(1)).unwrap();
    // Duplicate key: the auto-commit transaction fails and rolls back.
    assert!(db.insert(t, &row(1)).is_err());
    assert_eq!(db.row_count(t).unwrap(), 1);
    db.insert(t, &row(2)).unwrap();
    assert_eq!(db.row_count(t).unwrap(), 2);
}

/// Drive a workload with a crash injected at the `n`-th WAL append; reopen
/// and check that exactly the pre-crash committed state is visible.
fn crash_at_wal_append(n: u64) {
    let dir = tempdir().unwrap();
    let path = dir.path().join("db.crdb");
    let committed_rows;
    {
        let mut db = Database::create(&path).unwrap();
        let t = db.create_table("t", schema()).unwrap();
        db.create_index(t, "id", true).unwrap();
        db.begin().unwrap();
        for i in 0..40 {
            db.insert(t, &row(i)).unwrap();
        }
        db.commit().unwrap();
        committed_rows = 40;
        db.pool().inject_crash(CrashPoint::WalAppend(n));
        db.begin().unwrap();
        let mut failed = false;
        for i in 100..200 {
            if db.insert(t, &row(i)).is_err() {
                failed = true;
                break;
            }
        }
        if !failed && db.commit().is_err() {
            failed = true;
        }
        if !failed {
            // The workload needed fewer appends than the crash point; the
            // second transaction committed intact. Nothing to recover.
            return;
        }
    }
    let db = Database::open(&path).unwrap();
    let t = db.table("t").unwrap();
    assert_eq!(
        db.row_count(t).unwrap(),
        committed_rows,
        "crash at WAL append {n}: only committed rows may survive"
    );
    for i in 0..40 {
        assert_eq!(
            db.index_lookup(t, "id", &Value::Int(i)).unwrap().len(),
            1,
            "crash at WAL append {n}: committed row {i} lost"
        );
    }
}

#[test]
fn crash_points_during_wal_appends() {
    for n in 0..6 {
        crash_at_wal_append(n);
    }
}

/// Crash at the `n`-th data-file page write (eviction write-back under a
/// tiny pool, i.e. a steal, or checkpoint flush).
fn crash_at_data_write(n: u64) {
    let dir = tempdir().unwrap();
    let path = dir.path().join("db.crdb");
    {
        // Tiny pool: the second transaction must steal pages.
        let mut db = Database::create_with_capacity(&path, 16).unwrap();
        let t = db.create_table("t", schema()).unwrap();
        db.create_index(t, "id", true).unwrap();
        db.begin().unwrap();
        for i in 0..60 {
            db.insert(t, &row(i)).unwrap();
        }
        db.commit().unwrap();
        db.pool().inject_crash(CrashPoint::DataWrite(n));
        db.begin().unwrap();
        let mut failed = false;
        for i in 1000..1600 {
            if db.insert(t, &row(i)).is_err() {
                failed = true;
                break;
            }
        }
        if !failed {
            failed = db.commit().is_err();
        }
        if !failed {
            // The workload committed before the crash point was reached;
            // nothing further to assert for this n.
            return;
        }
    }
    let db = Database::open(&path).unwrap();
    let t = db.table("t").unwrap();
    assert_eq!(
        db.row_count(t).unwrap(),
        60,
        "crash at data write {n}: only committed rows may survive"
    );
    assert_eq!(db.index_lookup(t, "id", &Value::Int(42)).unwrap().len(), 1);
    assert_eq!(
        db.index_lookup(t, "id", &Value::Int(1000)).unwrap().len(),
        0
    );
}

#[test]
fn crash_points_during_data_writes() {
    for n in [0, 1, 2, 4, 8, 16, 32] {
        crash_at_data_write(n);
    }
}

#[test]
fn crash_before_checkpoint_truncation_is_harmless() {
    let dir = tempdir().unwrap();
    let path = dir.path().join("db.crdb");
    {
        let mut db = Database::create(&path).unwrap();
        let t = db.create_table("t", schema()).unwrap();
        db.begin().unwrap();
        for i in 0..80 {
            db.insert(t, &row(i)).unwrap();
        }
        db.commit().unwrap();
        db.pool().inject_crash(CrashPoint::CheckpointTruncate);
        // The checkpoint makes the data durable, then "dies" before
        // truncating the log.
        assert!(db.flush().is_err());
    }
    // Replaying the already-checkpointed log must be idempotent.
    let db = Database::open(&path).unwrap();
    let t = db.table("t").unwrap();
    assert_eq!(db.row_count(t).unwrap(), 80);
}

#[test]
fn torn_wal_tails_recover_to_a_committed_prefix() {
    let dir = tempdir().unwrap();
    let path = dir.path().join("db.crdb");
    let wal_path = storage::wal::wal_path_for(&path);
    {
        let mut db = Database::create(&path).unwrap();
        let t = db.create_table("t", schema()).unwrap();
        for batch in 0..4 {
            db.begin().unwrap();
            for i in 0..25 {
                db.insert(t, &row(batch * 100 + i)).unwrap();
            }
            db.commit().unwrap();
        }
        // Crash: drop without flush. The WAL holds all four transactions.
    }
    let wal_bytes = std::fs::read(&wal_path).unwrap();
    let db_bytes = std::fs::read(&path).unwrap();
    // Truncate the log at various points; each reopen must land on a clean
    // prefix of whole committed transactions (row count divisible by 25).
    // Early cuts may even truncate away the auto-committed DDL, leaving no
    // table at all.
    let cuts: Vec<usize> = (0..=10)
        .map(|i| 16 + (wal_bytes.len() - 16) * i / 10)
        .collect();
    for cut in cuts {
        std::fs::write(&path, &db_bytes).unwrap();
        std::fs::write(&wal_path, &wal_bytes[..cut]).unwrap();
        let db = Database::open(&path).unwrap();
        let rows = match db.table("t") {
            Ok(t) => db.row_count(t).unwrap(),
            Err(_) => 0,
        };
        assert_eq!(
            rows % 25,
            0,
            "cut at {cut}: partial transaction visible ({rows} rows)"
        );
        // Recovery truncated the log, so a second open is clean.
        drop(db);
        let db = Database::open(&path).unwrap();
        let rows2 = match db.table("t") {
            Ok(t) => db.row_count(t).unwrap(),
            Err(_) => 0,
        };
        assert_eq!(rows2, rows);
    }
}

// ---------------------------------------------------------------------------
// Crash injection during bulk loads
// ---------------------------------------------------------------------------

/// Load `base` rows (committed), then crash an in-flight bulk insert at the
/// given point; reopening must recover to exactly the committed pre-bulk
/// state, with the table and its indexes fully usable.
fn crash_during_bulk(point: CrashPoint) {
    let dir = tempdir().unwrap();
    let path = dir.path().join("db.crdb");
    {
        // A small pool forces eviction (steals) mid-bulk for the DataWrite
        // points.
        let mut db = Database::create_with_capacity(&path, 32).unwrap();
        let t = db.create_table("t", schema()).unwrap();
        db.create_index(t, "id", true).unwrap();
        db.begin().unwrap();
        db.bulk_insert(t, 0.9, (0..500).map(row)).unwrap();
        db.commit().unwrap();
        db.pool().inject_crash(point);
        db.begin().unwrap();
        let result = db
            .bulk_insert(t, 0.9, (1000..9000).map(row))
            .and_then(|_| db.commit());
        assert!(
            result.is_err(),
            "the injected crash must interrupt the bulk load ({point:?})"
        );
        // Crash: drop without flush.
    }
    let db = Database::open(&path).unwrap();
    let report = db.pool().recovery_report().expect("recovery must run");
    assert!(report.committed_txns >= 1, "{point:?}: {report:?}");
    let t = db.table("t").unwrap();
    assert_eq!(
        db.row_count(t).unwrap(),
        500,
        "{point:?}: only the committed pre-bulk rows may survive"
    );
    for probe in [0i64, 250, 499] {
        assert_eq!(
            db.index_lookup(t, "id", &Value::Int(probe)).unwrap().len(),
            1
        );
    }
    assert!(db
        .index_lookup(t, "id", &Value::Int(1500))
        .unwrap()
        .is_empty());
}

#[test]
fn crash_points_during_bulk_wal_appends() {
    // The bulk commit group is hundreds of page images long; cut it at the
    // start, a little in, and mid-group.
    for n in [0, 3, 40] {
        crash_during_bulk(CrashPoint::WalAppend(n));
    }
}

#[test]
fn crash_points_during_bulk_data_writes() {
    // Evictions stream bulk pages to the data file mid-transaction; failing
    // those writes kills the load before any commit record exists.
    for n in [0, 4, 12] {
        crash_during_bulk(CrashPoint::DataWrite(n));
    }
}

#[test]
fn interrupted_bulk_leaves_no_torn_index() {
    // After recovering from a mid-bulk crash, the next bulk load must work
    // and land exactly once.
    let dir = tempdir().unwrap();
    let path = dir.path().join("db.crdb");
    {
        let mut db = Database::create(&path).unwrap();
        let t = db.create_table("t", schema()).unwrap();
        db.create_index(t, "id", true).unwrap();
        db.pool().inject_crash(CrashPoint::WalAppend(5));
        db.begin().unwrap();
        let result = db
            .bulk_insert(t, 0.9, (0..2000).map(row))
            .and_then(|_| db.commit());
        assert!(result.is_err());
    }
    let mut db = Database::open(&path).unwrap();
    let t = db.table("t").unwrap();
    assert_eq!(db.row_count(t).unwrap(), 0);
    db.bulk_insert(t, 0.9, (0..2000).map(row)).unwrap();
    assert_eq!(db.row_count(t).unwrap(), 2000);
    assert_eq!(
        db.index_lookup(t, "id", &Value::Int(1999)).unwrap().len(),
        1
    );
}
