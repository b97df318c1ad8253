//! Failure-mode coverage for `Repository::integrity_check`.
//!
//! The happy path (a report with matching counts) is exercised all over the
//! crash-recovery suites; these tests corrupt a *closed* repository file
//! through the raw storage engine — an orphan node row, a deleted node row,
//! a stripped content-address row, a flipped stored root hash, a renamed
//! leaf, a missing interval entry, a contradictory interval mapping, a
//! flipped interval leaf flag, swapped interval row locators — reopen it,
//! and assert that the check fails with the specific
//! `CrimsonError::CorruptRepository` message for that corruption. A file
//! laid out without the depth column, with the node and tree rows of a
//! build that still stored hierarchical labels, with the 11-column node
//! rows that carried `leaf_of_tree`, or with a raw index this build
//! retired, is refused at open.
//! (Damage inside the packed depth blocks is covered by `depth.rs`'s unit
//! tests, which can re-encode a block.)

use crimson::prelude::*;
use phylo::builder::figure1_tree;
use std::path::Path;
use storage::value::Value;
use storage::{ColumnDef, Database, DbRead, RawIndexId, Schema, ValueType};

/// Build a small repository with one tree + species data, checkpoint it and
/// close it, returning its path.
fn build_repo(dir: &tempfile::TempDir) -> std::path::PathBuf {
    let path = dir.path().join("victim.crimson");
    let mut repo = Repository::create(
        &path,
        RepositoryOptions {
            buffer_pool_pages: 256,
            ..Default::default()
        },
    )
    .unwrap();
    let tree = figure1_tree();
    let handle = repo.load_tree("fig1", &tree).unwrap();
    let mut seqs = std::collections::HashMap::new();
    seqs.insert("Bha".to_string(), "ACGT".to_string());
    repo.load_species(handle, &seqs).unwrap();
    repo.view()
        .integrity_check()
        .expect("pristine repository passes");
    repo.flush().unwrap();
    path
}

fn reopen_and_expect_corrupt(path: &Path, needle: &str) {
    let repo = Repository::open(path, RepositoryOptions::default()).unwrap();
    match repo.view().integrity_check() {
        Err(CrimsonError::CorruptRepository(msg)) => {
            assert!(
                msg.contains(needle),
                "error should mention `{needle}`, got: {msg}"
            );
        }
        other => panic!("integrity check must fail with CorruptRepository, got {other:?}"),
    }
}

#[test]
fn orphan_node_row_is_detected() {
    let dir = tempfile::tempdir().unwrap();
    let path = build_repo(&dir);
    {
        // Tamper through the raw storage engine: a node row pointing at a
        // tree that is not in the catalog (what an un-rolled-back partial
        // load would leave behind).
        let mut db = Database::open(&path).unwrap();
        let nodes = db.table("nodes").unwrap();
        let ghost_tree: i64 = 999;
        db.insert(
            nodes,
            &[
                Value::Int((ghost_tree << 32) | 1), // node_id
                Value::Int(ghost_tree),             // tree_id
                Value::Int(-1),                     // parent_id
                Value::text("ghost"),               // name
                Value::Null,                        // branch_length
                Value::Float(0.0),                  // root_dist
                Value::Int(0),                      // depth
                Value::Int(0),                      // preorder
                Value::Bool(true),                  // is_leaf
                Value::Float(0.0),                  // subtree_height
            ],
        )
        .unwrap();
        db.flush().unwrap();
    }
    reopen_and_expect_corrupt(&path, "orphan node row");
}

#[test]
fn deleted_node_row_breaks_tree_counts() {
    let dir = tempfile::tempdir().unwrap();
    let path = build_repo(&dir);
    {
        let mut db = Database::open(&path).unwrap();
        let nodes = db.table("nodes").unwrap();
        // Delete the physically first node row of the tree.
        let (rid, _) = db.scan(nodes).unwrap().into_iter().next().unwrap();
        db.delete(nodes, rid).unwrap();
        db.flush().unwrap();
    }
    reopen_and_expect_corrupt(&path, "nodes/leaves but");
}

#[test]
fn stripped_tree_stats_row_is_corruption() {
    let dir = tempfile::tempdir().unwrap();
    let path = build_repo(&dir);
    {
        let mut db = Database::open(&path).unwrap();
        let stats = db.table("tree_stats").unwrap();
        let (rid, _) = db.scan(stats).unwrap().into_iter().next().unwrap();
        db.delete(stats, rid).unwrap();
        db.flush().unwrap();
    }
    reopen_and_expect_corrupt(&path, "has no tree_stats row");
    // Hash-based reads name the damage instead of answering.
    let repo = Repository::open(&path, RepositoryOptions::default()).unwrap();
    let handle = repo.view().tree_by_name("fig1").unwrap().handle;
    for result in [
        repo.view().tree_stats(handle).map(|_| ()),
        repo.view().trees_equal(handle, handle).map(|_| ()),
        repo.view()
            .compare_stored(handle, handle, false)
            .map(|_| ()),
    ] {
        match result {
            Err(CrimsonError::CorruptRepository(msg)) => {
                assert!(msg.contains("has no tree_stats row"), "got: {msg}")
            }
            other => panic!("expected CorruptRepository, got {other:?}"),
        }
    }
    // An unknown handle stays a caller mistake, not corruption.
    assert!(matches!(
        repo.view().tree_stats(TreeHandle(999)),
        Err(CrimsonError::UnknownTreeId(999))
    ));
}

#[test]
fn flipped_root_hash_byte_is_detected() {
    let dir = tempfile::tempdir().unwrap();
    let path = build_repo(&dir);
    {
        let mut db = Database::open(&path).unwrap();
        let stats = db.table("tree_stats").unwrap();
        let (rid, row) = db.scan(stats).unwrap().into_iter().next().unwrap();
        let mut values = row.values;
        let mut hash = values[1].as_bytes().unwrap().to_vec();
        hash[7] ^= 0x10;
        values[1] = Value::bytes(hash);
        db.delete(stats, rid).unwrap();
        db.insert(stats, &values).unwrap();
        db.flush().unwrap();
    }
    reopen_and_expect_corrupt(&path, "contradicts its tree_stats row");
}

#[test]
fn renamed_leaf_contradicts_the_stored_root_hash() {
    let dir = tempfile::tempdir().unwrap();
    let path = build_repo(&dir);
    {
        // Rename leaf `Lla` in its node row, keeping every index consistent
        // with the row: only the recomputed root hash can tell.
        let mut db = Database::open(&path).unwrap();
        let nodes = db.table("nodes").unwrap();
        let (rid, row) = db
            .scan(nodes)
            .unwrap()
            .into_iter()
            .find(|(_, row)| row.values[3].as_text() == Some("Lla"))
            .unwrap();
        let mut values = row.values;
        values[3] = Value::text("Llz");
        db.delete(nodes, rid).unwrap();
        let moved = db.insert(nodes, &values).unwrap();
        let ivl = db.raw_index("ivl_by_pre").unwrap();
        let (key, _) = raw_entries(&db, ivl)
            .into_iter()
            .find(|&(_, locator)| locator == rid.to_u64())
            .unwrap();
        assert!(db.raw_delete(ivl, &key).unwrap());
        db.raw_insert(ivl, &key, moved.to_u64()).unwrap();
        db.flush().unwrap();
    }
    reopen_and_expect_corrupt(&path, "root hash of tree `fig1` recomputed from its nodes");
}

#[test]
fn missing_interval_entry_is_detected() {
    let dir = tempfile::tempdir().unwrap();
    let path = build_repo(&dir);
    {
        let mut db = Database::open(&path).unwrap();
        let ivl = db.raw_index("ivl_by_pre").unwrap();
        let (first_key, _) = raw_entries(&db, ivl).into_iter().next().unwrap();
        assert!(db.raw_delete(ivl, &first_key).unwrap());
        db.flush().unwrap();
    }
    reopen_and_expect_corrupt(&path, "interval indexes hold");
}

#[test]
fn contradictory_interval_mapping_is_detected() {
    let dir = tempfile::tempdir().unwrap();
    let path = build_repo(&dir);
    {
        let mut db = Database::open(&path).unwrap();
        let ivl = db.raw_index("ivl_by_node").unwrap();
        let (key, packed) = raw_entries(&db, ivl).into_iter().next().unwrap();
        // Shift the stored pre-order rank by one: the mapping now
        // contradicts the node row's rank (count stays intact, so only the
        // per-node consistency check can catch it).
        let pre = (packed >> 32) as u32;
        let end = packed as u32;
        let wrong = (((pre + 1) as u64) << 32) | (end + 1) as u64;
        assert!(db.raw_delete(ivl, &key).unwrap());
        db.raw_insert(ivl, &key, wrong).unwrap();
        db.flush().unwrap();
    }
    reopen_and_expect_corrupt(&path, "contradicts its pre-order rank");
}

/// Every `(key, value)` entry of a raw index, in key order.
fn raw_entries(db: &Database, id: RawIndexId) -> Vec<(Vec<u8>, u64)> {
    let mut out = Vec::new();
    db.raw_scan(id, None, None, &mut |key, value| {
        out.push((key.to_vec(), value));
        Ok(true)
    })
    .unwrap();
    out
}

/// Rewrite the `ivl_by_pre` entries of a closed repository file through
/// the raw storage engine: `edit` gets every `(key, locator)` pair in key
/// order and may change any of them.
fn tamper_ivl_by_pre(path: &Path, edit: impl FnOnce(&mut [(Vec<u8>, u64)])) {
    let mut db = Database::open(path).unwrap();
    let ivl = db.raw_index("ivl_by_pre").unwrap();
    let mut entries = raw_entries(&db, ivl);
    for (key, _) in &entries {
        assert!(db.raw_delete(ivl, key).unwrap());
    }
    edit(&mut entries);
    for (key, locator) in &entries {
        db.raw_insert(ivl, key, *locator).unwrap();
    }
    db.flush().unwrap();
}

#[test]
fn flipped_interval_leaf_flag_is_detected() {
    let dir = tempfile::tempdir().unwrap();
    let path = build_repo(&dir);
    // The last byte of an entry key is its leaf flag, which `leaves` and
    // `leaves_under` answer from without reading the row.
    tamper_ivl_by_pre(&path, |entries| {
        let key = &mut entries.iter_mut().find(|(k, _)| k[24] == 1).unwrap().0;
        key[24] = 0;
    });
    reopen_and_expect_corrupt(&path, "contradicts the node row");
}

#[test]
fn swapped_interval_locators_are_detected() {
    let dir = tempfile::tempdir().unwrap();
    let path = build_repo(&dir);
    tamper_ivl_by_pre(&path, |entries| {
        let root_locator = entries[0].1;
        entries[0].1 = entries[1].1;
        entries[1].1 = root_locator;
    });
    reopen_and_expect_corrupt(&path, "contradicts the node row");
}

/// Every table of the current layout beside `trees` and `nodes`.
const OTHER_TABLES: [&str; 8] = [
    "species",
    "query_history",
    "experiments",
    "experiment_results",
    "experiment_clades",
    "tree_stats",
    "depth_blocks",
    "depth_minima",
];

/// Every raw index of the current layout.
const RAW_INDEXES: [&str; 2] = ["ivl_by_pre", "ivl_by_node"];

/// Lay out a file with the given `trees` and `nodes` columns, the
/// single-column `tables` and the raw `indexes`, and return the message
/// with which `open` and `open_degraded` both refuse it.
fn refusal_of_layout(
    trees: Vec<ColumnDef>,
    nodes: Vec<ColumnDef>,
    tables: &[&str],
    indexes: &[&str],
) -> String {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("older.crimson");
    {
        let mut db = Database::create(&path).unwrap();
        db.create_table("trees", Schema::new(trees)).unwrap();
        db.create_table("nodes", Schema::new(nodes)).unwrap();
        for table in tables {
            let id = ColumnDef::not_null("id", ValueType::Int);
            db.create_table(table, Schema::new(vec![id])).unwrap();
        }
        for index in indexes {
            db.create_raw_index(index).unwrap();
        }
        db.flush().unwrap();
    }
    let [open, degraded] = [
        Repository::open(&path, RepositoryOptions::default()).map(|_| ()),
        Repository::open_degraded(&path, RepositoryOptions::default()).map(|_| ()),
    ]
    .map(|result| match result {
        Err(CrimsonError::CorruptRepository(msg)) => msg,
        other => panic!("expected a typed refusal, got {other:?}"),
    });
    assert_eq!(open, degraded);
    open
}

/// `(name, type)` pairs as not-null columns.
fn columns(spec: &[(&str, ValueType)]) -> Vec<ColumnDef> {
    spec.iter()
        .map(|&(name, ty)| ColumnDef::not_null(name, ty))
        .collect()
}

/// The `trees` columns of every layout since the depth column.
const TREES: [(&str, ValueType); 5] = [
    ("tree_id", ValueType::Int),
    ("name", ValueType::Text),
    ("root_node", ValueType::Int),
    ("node_count", ValueType::Int),
    ("leaf_count", ValueType::Int),
];

/// The leading `nodes` columns, through `preorder`, of every layout,
/// followed by `rest`.
fn nodes_columns(rest: &[(&str, ValueType)]) -> Vec<ColumnDef> {
    let mut nodes = columns(&[("node_id", ValueType::Int), ("tree_id", ValueType::Int)]);
    nodes.extend([
        ColumnDef::not_null("parent_id", ValueType::Int),
        ColumnDef::new("name", ValueType::Text),
        ColumnDef::new("branch_length", ValueType::Float),
    ]);
    nodes.extend(columns(&[
        ("root_dist", ValueType::Float),
        ("depth", ValueType::Int),
        ("preorder", ValueType::Int),
    ]));
    nodes.extend(columns(rest));
    nodes
}

#[test]
fn repository_without_depth_column_is_refused_at_open() {
    // The layout of a build before the depth column: every other table
    // and raw index, but no `depth_blocks` / `depth_minima`.
    let ids = || columns(&[("id", ValueType::Int)]);
    let tables = [&["frames"], &OTHER_TABLES[..6]].concat();
    let msg = refusal_of_layout(ids(), ids(), &tables, &RAW_INDEXES);
    assert!(msg.contains("depth_blocks"), "{msg}");
}

#[test]
fn repository_with_label_columns_is_refused_at_open() {
    // The layout of a build that stored hierarchical labels: `nodes` rows
    // with `frame_id` and `label` columns, `trees` rows with
    // `frame_depth`, and a `frames` table.
    let trees = columns(&[&TREES[..], &[("frame_depth", ValueType::Int)]].concat());
    let nodes = nodes_columns(&[
        ("frame_id", ValueType::Int),
        ("label", ValueType::Bytes),
        ("is_leaf", ValueType::Bool),
        ("leaf_of_tree", ValueType::Int),
        ("subtree_height", ValueType::Float),
    ]);
    let tables = [&["frames"], &OTHER_TABLES[..]].concat();
    let msg = refusal_of_layout(trees, nodes, &tables, &RAW_INDEXES);
    assert!(msg.contains("`trees` table"), "{msg}");
    assert!(msg.contains("must be reloaded"), "{msg}");
}

#[test]
fn repository_with_leaf_of_tree_column_is_refused_at_open() {
    // The layout of a build whose 11-column `nodes` rows carried a
    // `leaf_of_tree` column (the tree id on leaves, -1 elsewhere).
    let nodes = nodes_columns(&[
        ("is_leaf", ValueType::Bool),
        ("leaf_of_tree", ValueType::Int),
        ("subtree_height", ValueType::Float),
    ]);
    let msg = refusal_of_layout(columns(&TREES), nodes, &OTHER_TABLES, &RAW_INDEXES);
    assert!(msg.contains("`nodes` table"), "{msg}");
    assert!(msg.contains("must be reloaded"), "{msg}");
}

#[test]
fn repository_with_clade_refs_index_is_refused_at_open() {
    // The current layout plus the `clade_refs` reference index that
    // older builds created in every file.
    let nodes = nodes_columns(&[
        ("is_leaf", ValueType::Bool),
        ("subtree_height", ValueType::Float),
    ]);
    let indexes = [&RAW_INDEXES[..], &["clade_refs"]].concat();
    let msg = refusal_of_layout(columns(&TREES), nodes, &OTHER_TABLES, &indexes);
    assert!(msg.contains("`clade_refs` index"), "{msg}");
    assert!(msg.contains("must be reloaded"), "{msg}");
}

#[test]
fn repository_with_clade_hash_indexes_is_refused_at_open() {
    // The current layout plus the per-node and global clade-hash indexes
    // that older builds created in every file.
    let nodes = nodes_columns(&[
        ("is_leaf", ValueType::Bool),
        ("subtree_height", ValueType::Float),
    ]);
    let indexes = [&RAW_INDEXES[..], &["clade_hash_by_pre", "clade_hash_idx"]].concat();
    let msg = refusal_of_layout(columns(&TREES), nodes, &OTHER_TABLES, &indexes);
    assert!(msg.contains("`clade_hash_by_pre` index"), "{msg}");
    assert!(msg.contains("must be reloaded"), "{msg}");
}
