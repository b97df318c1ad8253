//! Failure-mode coverage for `Repository::integrity_check`.
//!
//! The happy path (a report with matching counts) is exercised all over the
//! crash-recovery suites; these tests corrupt a *closed* repository file
//! through the raw storage engine — an orphan node row, a deleted node row,
//! a stripped content-address row, a missing interval entry, a
//! contradictory interval mapping — reopen it,
//! and assert that the check fails with the specific
//! `CrimsonError::CorruptRepository` message for that corruption. A file
//! laid out without the depth column, or with the node and tree rows of a
//! build that still stored hierarchical labels, is refused at open. (Damage inside
//! the packed depth blocks is covered by `depth.rs`'s unit tests, which
//! can re-encode a block.)

use crimson::prelude::*;
use phylo::builder::figure1_tree;
use std::path::Path;
use storage::value::Value;
use storage::Database;

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
                Value::Int(ghost_tree),             // leaf_of_tree
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
fn missing_interval_entry_is_detected() {
    let dir = tempfile::tempdir().unwrap();
    let path = build_repo(&dir);
    {
        let mut db = Database::open(&path).unwrap();
        let ivl = db.raw_index("ivl_by_pre").unwrap();
        let (first_key, _) = db
            .raw_range(ivl, None, None)
            .unwrap()
            .next()
            .unwrap()
            .unwrap();
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
        let (key, packed) = db
            .raw_range(ivl, None, None)
            .unwrap()
            .next()
            .unwrap()
            .unwrap();
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

#[test]
fn repository_without_depth_column_is_refused_at_open() {
    // Lay out a file the way a build before the depth column did: every
    // other table and raw index, but no `depth_blocks` / `depth_minima`.
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("old.crimson");
    {
        let mut db = Database::create(&path).unwrap();
        let schema = || {
            storage::Schema::new(vec![storage::ColumnDef::not_null(
                "id",
                storage::ValueType::Int,
            )])
        };
        for table in [
            "trees",
            "nodes",
            "frames",
            "species",
            "query_history",
            "experiments",
            "experiment_results",
            "experiment_clades",
            "tree_stats",
        ] {
            db.create_table(table, schema()).unwrap();
        }
        for index in [
            "ivl_by_pre",
            "ivl_by_node",
            "clade_hash_by_pre",
            "clade_hash_idx",
            "clade_refs",
        ] {
            db.create_raw_index(index).unwrap();
        }
        db.flush().unwrap();
    }
    for result in [
        Repository::open(&path, RepositoryOptions::default()).map(|_| ()),
        Repository::open_degraded(&path, RepositoryOptions::default()).map(|_| ()),
    ] {
        match result {
            Err(CrimsonError::CorruptRepository(msg)) => {
                assert!(msg.contains("depth_blocks"), "{msg}")
            }
            other => panic!("expected a typed refusal, got {other:?}"),
        }
    }
}

#[test]
fn repository_with_label_columns_is_refused_at_open() {
    // Lay out a file the way a build that stored hierarchical labels did:
    // the current tables and raw indexes, but `nodes` rows with `frame_id`
    // and `label` columns, `trees` rows with `frame_depth`, and a `frames`
    // table.
    use storage::{ColumnDef, Schema, ValueType};
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("labelled.crimson");
    {
        let mut db = Database::create(&path).unwrap();
        let ints = |names: &[&str]| {
            Schema::new(
                names
                    .iter()
                    .map(|n| ColumnDef::not_null(*n, ValueType::Int))
                    .collect(),
            )
        };
        db.create_table(
            "trees",
            Schema::new(vec![
                ColumnDef::not_null("tree_id", ValueType::Int),
                ColumnDef::not_null("name", ValueType::Text),
                ColumnDef::not_null("root_node", ValueType::Int),
                ColumnDef::not_null("node_count", ValueType::Int),
                ColumnDef::not_null("leaf_count", ValueType::Int),
                ColumnDef::not_null("frame_depth", ValueType::Int),
            ]),
        )
        .unwrap();
        db.create_table(
            "nodes",
            Schema::new(vec![
                ColumnDef::not_null("node_id", ValueType::Int),
                ColumnDef::not_null("tree_id", ValueType::Int),
                ColumnDef::not_null("parent_id", ValueType::Int),
                ColumnDef::new("name", ValueType::Text),
                ColumnDef::new("branch_length", ValueType::Float),
                ColumnDef::not_null("root_dist", ValueType::Float),
                ColumnDef::not_null("depth", ValueType::Int),
                ColumnDef::not_null("preorder", ValueType::Int),
                ColumnDef::not_null("frame_id", ValueType::Int),
                ColumnDef::not_null("label", ValueType::Bytes),
                ColumnDef::not_null("is_leaf", ValueType::Bool),
                ColumnDef::not_null("leaf_of_tree", ValueType::Int),
                ColumnDef::not_null("subtree_height", ValueType::Float),
            ]),
        )
        .unwrap();
        db.create_table(
            "frames",
            ints(&[
                "frame_id",
                "tree_id",
                "root_node",
                "parent_frame",
                "source_node",
                "rank",
            ]),
        )
        .unwrap();
        for table in [
            "species",
            "query_history",
            "experiments",
            "experiment_results",
            "experiment_clades",
            "tree_stats",
            "depth_blocks",
            "depth_minima",
        ] {
            db.create_table(table, ints(&["id"])).unwrap();
        }
        for index in [
            "ivl_by_pre",
            "ivl_by_node",
            "clade_hash_by_pre",
            "clade_hash_idx",
            "clade_refs",
        ] {
            db.create_raw_index(index).unwrap();
        }
        db.flush().unwrap();
    }
    for result in [
        Repository::open(&path, RepositoryOptions::default()).map(|_| ()),
        Repository::open_degraded(&path, RepositoryOptions::default()).map(|_| ()),
    ] {
        match result {
            Err(CrimsonError::CorruptRepository(msg)) => {
                assert!(msg.contains("`trees` table"), "{msg}");
                assert!(msg.contains("must be reloaded"), "{msg}");
            }
            other => panic!("expected a typed refusal, got {other:?}"),
        }
    }
}
