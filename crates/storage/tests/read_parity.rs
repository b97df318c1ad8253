//! Read-surface parity: every [`DbRead`] operation answers the same through
//! the writer (`&Database`) and through an [`EpochView`] pinned at the same
//! commit. Both handles run the one provided implementation over different
//! page sources (`&BufferPool` and `EpochSnapshot`), so any divergence is a
//! page-source or catalog-metadata bug.
//!
//! The fixture has one table with a unique and a non-unique index, one
//! deleted row (a stale record id), an id table whose highest half was
//! deleted (leaving the rightmost leaves of its index empty) and one raw
//! index; the probes cover exact lookups, open and closed ranges, last
//! index entries, an early-stopping `raw_scan` and unknown table, index,
//! column and record ids.

use storage::db::{Database, DbRead, RawIndexId, TableId};
use storage::schema::{ColumnDef, Schema};
use storage::value::{Value, ValueType};
use storage::RecordId;

/// Raw-index key for entry `i`: a big-endian rank plus a covering suffix.
fn raw_key(i: u64) -> Vec<u8> {
    let mut key = i.to_be_bytes().to_vec();
    key.extend_from_slice(&[0xAB; 5]);
    key
}

/// A committed database: `species(name UNIQUE, clade, weight)` with 300
/// rows (clades repeat every 7 rows) minus the row named `S13`,
/// `ids(id UNIQUE)` holding ids 0..1,000 of the 2,000 inserted, and a raw
/// index `intervals` of 500 entries. Returns the deleted row's record id.
fn build(db: &mut Database) -> RecordId {
    let schema = Schema::new(vec![
        ColumnDef::new("name", ValueType::Text),
        ColumnDef::new("clade", ValueType::Int),
        ColumnDef::new("weight", ValueType::Float),
    ]);
    let t = db.create_table("species", schema).unwrap();
    db.create_index(t, "name", true).unwrap();
    db.create_index(t, "clade", false).unwrap();
    let raw = db.create_raw_index("intervals").unwrap();
    db.begin().unwrap();
    let mut deleted = None;
    for i in 0..300i64 {
        let rid = db
            .insert(
                t,
                &[
                    Value::text(format!("S{i}")),
                    Value::Int(i % 7),
                    Value::Float(i as f64 * 0.25),
                ],
            )
            .unwrap();
        if i == 13 {
            deleted = Some(rid);
        }
    }
    db.bulk_raw_insert(raw, 0.9, (0..500u64).map(|i| (raw_key(i), i * 3)))
        .unwrap();
    db.delete(t, deleted.unwrap()).unwrap();
    let ids = db
        .create_table(
            "ids",
            Schema::new(vec![ColumnDef::new("id", ValueType::Int)]),
        )
        .unwrap();
    db.create_index(ids, "id", true).unwrap();
    let rids: Vec<RecordId> = (0..2_000i64)
        .map(|i| db.insert(ids, &[Value::Int(i)]).unwrap())
        .collect();
    for &rid in &rids[1_000..] {
        db.delete(ids, rid).unwrap();
    }
    db.commit().unwrap();
    deleted.unwrap()
}

/// Every `DbRead` operation's answer on `d`, each rendered with `Debug` so
/// errors compare too.
fn answers<D: DbRead>(d: D, stale: RecordId) -> Vec<String> {
    let mut out = Vec::new();
    let mut note = |label: &str, answer: String| out.push(format!("{label}: {answer}"));

    // Catalog lookups.
    let t = d.table("species").unwrap();
    let raw = d.raw_index("intervals").unwrap();
    let ghost_table = TableId(99);
    let ghost_raw = RawIndexId(99);
    note("table", format!("{t:?}"));
    note("table unknown", format!("{:?}", d.table("ghost")));
    note("table_names", format!("{:?}", d.table_names()));
    note("schema", format!("{:?}", d.schema(t)));
    note("schema unknown", format!("{:?}", d.schema(ghost_table)));
    note("raw_index", format!("{raw:?}"));
    note("raw_index unknown", format!("{:?}", d.raw_index("ghost")));

    // Heap reads.
    let rows = d.scan(t).unwrap();
    note("scan", format!("{rows:?}"));
    note("scan unknown", format!("{:?}", d.scan(ghost_table)));
    note("row_count", format!("{:?}", d.row_count(t)));
    note(
        "row_count unknown",
        format!("{:?}", d.row_count(ghost_table)),
    );
    for (rid, _) in rows.iter().step_by(37) {
        note("get", format!("{:?}", d.get(t, *rid)));
    }
    note("get stale", format!("{:?}", d.get(t, stale)));
    note(
        "get unknown table",
        format!("{:?}", d.get(ghost_table, rows[0].0)),
    );

    // Table indexes: exact lookups on the unique and non-unique index.
    for (column, value) in [
        ("name", Value::text("S42")),
        ("name", Value::text("S13")),
        ("name", Value::text("nobody")),
        ("clade", Value::Int(3)),
        ("clade", Value::Int(6)),
        ("clade", Value::Int(70)),
        ("weight", Value::Float(1.0)),
    ] {
        note(
            &format!("index_lookup {column}={value:?}"),
            format!("{:?}", d.index_lookup(t, column, &value)),
        );
        note(
            &format!("lookup_rows {column}={value:?}"),
            format!("{:?}", d.lookup_rows(t, column, &value)),
        );
    }
    let ids = d.table("ids").unwrap();
    for (table, column) in [
        (t, "name"),
        (t, "clade"),
        (t, "weight"),
        (ids, "id"),
        (ghost_table, "name"),
    ] {
        note(
            &format!("index_last {table:?}.{column}"),
            format!("{:?}", d.index_last(table, column)),
        );
    }
    note(
        "index_lookup unknown table",
        format!(
            "{:?}",
            d.index_lookup(ghost_table, "name", &Value::text("S1"))
        ),
    );

    // Table indexes: open and closed ranges.
    let (s100, s200) = (Value::text("S100"), Value::text("S200"));
    let (c2, c5) = (Value::Int(2), Value::Int(5));
    for (column, low, high) in [
        ("name", Some(&s100), Some(&s200)),
        ("name", Some(&s200), None),
        ("name", None, Some(&s100)),
        ("name", None, None),
        ("clade", Some(&c2), Some(&c5)),
        ("clade", Some(&c5), None),
        ("clade", None, Some(&c2)),
        ("clade", Some(&c5), Some(&c2)),
        ("weight", None, None),
    ] {
        note(
            &format!("index_range {column} {low:?}..{high:?}"),
            format!("{:?}", d.index_range(t, column, low, high)),
        );
    }

    // Raw index.
    for i in [0u64, 250, 499, 500, 10_000] {
        note(
            &format!("raw_get {i}"),
            format!("{:?}", d.raw_get(raw, &raw_key(i))),
        );
    }
    note(
        "raw_get short key",
        format!("{:?}", d.raw_get(raw, &[0, 1])),
    );
    note(
        "raw_get unknown",
        format!("{:?}", d.raw_get(ghost_raw, &raw_key(1))),
    );
    note("raw_len", format!("{:?}", d.raw_len(raw)));
    note("raw_len unknown", format!("{:?}", d.raw_len(ghost_raw)));
    let owned = |k: &[u8], v: u64| (k.to_vec(), v);
    for (low, high) in [(0u64, 1u64), (17, 40), (480, 900), (600, 700), (40, 17)] {
        note(
            &format!("raw_first_in_range {low}..{high}"),
            format!(
                "{:?}",
                d.raw_first_in_range(raw, &low.to_be_bytes(), &high.to_be_bytes(), owned)
            ),
        );
    }
    note(
        "raw_first_in_range unknown",
        format!("{:?}", d.raw_first_in_range(ghost_raw, &[], &[0xFF], owned)),
    );
    let (k100, k120, k490) = (
        100u64.to_be_bytes(),
        120u64.to_be_bytes(),
        490u64.to_be_bytes(),
    );
    for (low, high, limit) in [
        (None, None, usize::MAX),
        (Some(&k100[..]), Some(&k120[..]), usize::MAX),
        (Some(&k490[..]), None, usize::MAX),
        (None, Some(&k100[..]), usize::MAX),
        (Some(&k100[..]), None, 3),
        (None, None, 1),
    ] {
        let mut seen = Vec::new();
        let result = d.raw_scan(raw, low, high, &mut |key, value| {
            seen.push((key.to_vec(), value));
            Ok(seen.len() < limit)
        });
        note(
            &format!("raw_scan {low:?}..{high:?} stop after {limit}"),
            format!("{result:?} {seen:?}"),
        );
    }
    let mut visited = 0;
    let result = d.raw_scan(ghost_raw, None, None, &mut |_, _| {
        visited += 1;
        Ok(true)
    });
    note("raw_scan unknown", format!("{result:?} visited {visited}"));
    out
}

#[test]
fn writer_and_pinned_view_answer_every_read_identically() {
    let dir = tempfile::tempdir().unwrap();
    let mut db = Database::create(dir.path().join("parity.crdb")).unwrap();
    let stale = build(&mut db);
    let reader = db.reader();
    let pin = reader.pin_epoch();
    let view = reader.at_epoch(&pin).unwrap();

    let from_writer = answers(&db, stale);
    let from_view = answers(&view, stale);
    assert_eq!(from_writer.len(), from_view.len());
    for (w, v) in from_writer.iter().zip(&from_view) {
        assert_eq!(w, v, "writer and pinned view disagree");
    }

    // The probes see real data: the deleted row is gone, both index kinds
    // hit, and the early-stopping scan stopped.
    let t = db.table("species").unwrap();
    assert_eq!(db.row_count(t).unwrap(), 299);
    assert!(db.get(t, stale).is_err());
    assert_eq!(
        db.index_lookup(t, "name", &Value::text("S42"))
            .unwrap()
            .len(),
        1
    );
    assert_eq!(
        db.index_lookup(t, "clade", &Value::Int(3)).unwrap().len(),
        43
    );
    let last = |table: TableId, column: &str| db.index_last(table, column).unwrap().unwrap();
    assert_eq!(last(t, "name").values[0], Value::text("S99"));
    // The highest 1,000 ids are gone, emptying the rightmost leaves of
    // the index: the last entry is the highest surviving id.
    let ids = db.table("ids").unwrap();
    assert_eq!(last(ids, "id").values[0], Value::Int(999));
    let raw = db.raw_index("intervals").unwrap();
    assert_eq!(db.raw_len(raw).unwrap(), 500);
    let mut seen = 0;
    db.raw_scan(raw, None, None, &mut |_, _| {
        seen += 1;
        Ok(seen < 3)
    })
    .unwrap();
    assert_eq!(seen, 3, "an early stop ends the scan");
}
