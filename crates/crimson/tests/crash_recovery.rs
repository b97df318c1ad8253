//! Crash-injection harness for the repository layer.
//!
//! Each scenario loads a committed baseline tree, injects a simulated crash
//! at a WAL-append, data-write (eviction / checkpoint flush) or
//! checkpoint-truncation point, attempts a second load, "dies" (drops the
//! repository without flushing), reopens, and asserts that exactly the
//! committed loads are visible:
//!
//! * [`Repository::integrity_check`] passes — no orphan node / species
//!   rows, interval indexes consistent with the node table;
//! * the structure queries on the recovered data agree with the in-memory
//!   tree that was loaded;
//! * the Query Repository holds exactly one `Load` entry per committed load
//!   (loads and their history entries commit atomically).

mod common;

use common::Oracle;
use crimson::prelude::*;
use phylo::newick;
use simulation::birth_death::yule_tree;
use storage::CrashPoint;
use tempfile::tempdir;

fn small_opts() -> RepositoryOptions {
    // A tiny pool forces evictions (steals) during the victim load, so
    // data-write crash points land on the eviction path too.
    RepositoryOptions {
        buffer_pool_pages: 32,
        ..Default::default()
    }
}

fn tree_newick(leaves: usize, seed: u64) -> String {
    newick::write(&yule_tree(leaves, 1.0, seed))
}

/// Check the structure queries on the recovered tree stored under
/// `handle` against the Newick text it was loaded from.
fn cross_validate(repo: &Repository, handle: TreeHandle, newick_text: &str) {
    let oracle = Oracle::new(handle, &newick::parse(newick_text).unwrap());
    let leaves = repo.view().leaves(handle).expect("leaves");
    assert!(!leaves.is_empty());
    for i in 0..20usize {
        let a = leaves[(i * 7) % leaves.len()];
        let b = leaves[(i * 13 + 3) % leaves.len()];
        let fast = repo.view().lca(a, b).expect("lca");
        assert_eq!(
            fast,
            oracle.lca(a, b),
            "lca({a}, {b}) disagrees after recovery"
        );
    }
    let sample: Vec<StoredNodeId> = leaves.iter().step_by(5).take(24).copied().collect();
    // The stored clade comes in pre-order; compare sets.
    let mut clade = repo.view().minimal_spanning_clade(&sample).expect("clade");
    clade.sort_unstable();
    assert_eq!(
        clade,
        oracle.spanning_clade(&sample),
        "spanning clade disagrees after recovery"
    );
    let proj = repo.view().project(handle, &sample).expect("projection");
    common::assert_same_projection(
        &proj,
        &oracle.project(&sample),
        "projection disagrees after recovery",
    );
}

/// Run one crash scenario; returns the number of committed trees observed
/// after recovery (1 = crash interrupted the victim load, 2 = the workload
/// outran the injection point).
fn crash_scenario(point: CrashPoint) -> usize {
    let dir = tempdir().unwrap();
    let path = dir.path().join("repo.crimson");
    let base = tree_newick(90, 7);
    let victim = tree_newick(260, 8);
    let victim_committed;
    {
        let mut repo = Repository::create(&path, small_opts()).unwrap();
        repo.load_newick("base", &base).unwrap();
        repo.pool().inject_crash(point);
        victim_committed = repo.load_newick("victim", &victim).is_ok();
        // Crash: drop without flush.
    }
    let repo = Repository::open(&path, small_opts()).unwrap();
    let report = repo.recovery_report().expect("reopen must report recovery");
    let committed = if victim_committed { 2 } else { 1 };

    let integrity = repo
        .view()
        .integrity_check()
        .unwrap_or_else(|e| panic!("integrity check failed after crash at {point:?}: {e}"));
    assert_eq!(
        integrity.trees as usize, committed,
        "crash at {point:?}: wrong tree count (recovery: {report:?})"
    );
    // The Query Repository matches the committed loads exactly.
    let loads = repo.view().history_of_kind(QueryKind::Load).unwrap();
    assert_eq!(
        loads.len(),
        committed,
        "crash at {point:?}: history entries must match committed loads"
    );

    let base_rec = repo
        .view()
        .tree_by_name("base")
        .expect("committed baseline must survive");
    cross_validate(&repo, base_rec.handle, &base);
    if victim_committed {
        let victim_rec = repo
            .view()
            .tree_by_name("victim")
            .expect("committed victim must survive");
        cross_validate(&repo, victim_rec.handle, &victim);
    } else {
        assert!(
            repo.view().find_tree("victim").unwrap().is_none(),
            "crash at {point:?}: interrupted load must be invisible"
        );
    }
    committed
}

#[test]
fn crash_during_wal_appends_recovers_committed_state() {
    let mut interrupted = 0;
    for n in [0u64, 1, 2, 3, 5, 9, 17, 33] {
        if crash_scenario(CrashPoint::WalAppend(n)) == 1 {
            interrupted += 1;
        }
    }
    assert!(
        interrupted >= 4,
        "most WAL-append points must interrupt the load"
    );
}

#[test]
fn crash_during_evictions_recovers_committed_state() {
    let mut interrupted = 0;
    for n in [0u64, 1, 2, 4, 8, 16, 32] {
        if crash_scenario(CrashPoint::DataWrite(n)) == 1 {
            interrupted += 1;
        }
    }
    assert!(
        interrupted >= 3,
        "most data-write points must interrupt the load"
    );
}

#[test]
fn crash_at_group_fsync_is_all_or_nothing_and_cross_validates() {
    // The group fsync is the batched durability point: when it fails, the
    // victim load surfaces an error and the writer is poisoned, but the
    // victim's log records may already sit in the WAL file (fsync failure
    // leaves durability *indeterminate*, not rolled back). After reopen the
    // victim is therefore recovered fully or not at all — and whatever is
    // present must pass the integrity check and agree with the in-memory
    // tree.
    for n in [0u64, 1] {
        let dir = tempdir().unwrap();
        let path = dir.path().join("repo.crimson");
        let base = tree_newick(90, 21);
        let victim = tree_newick(200, 22);
        let victim_committed;
        {
            let mut repo = Repository::create(&path, small_opts()).unwrap();
            repo.load_newick("base", &base).unwrap();
            repo.pool().inject_crash(CrashPoint::WalSync(n));
            victim_committed = repo.load_newick("victim", &victim).is_ok();
            // Crash: drop without flush.
        }
        let repo = Repository::open(&path, small_opts()).unwrap();
        let integrity = repo
            .view()
            .integrity_check()
            .unwrap_or_else(|e| panic!("integrity failed after group-fsync crash {n}: {e}"));
        // All-or-nothing per member: the victim is a whole tree or absent.
        let victim_present = repo.view().find_tree("victim").unwrap().is_some();
        if victim_committed {
            assert!(victim_present, "acknowledged load must survive (n={n})");
        }
        let committed = if victim_present { 2 } else { 1 };
        assert_eq!(integrity.trees as usize, committed, "n={n}");
        assert_eq!(
            repo.view().history_of_kind(QueryKind::Load).unwrap().len(),
            committed,
            "n={n}: loads and history commit atomically"
        );
        let base_rec = repo.view().tree_by_name("base").unwrap();
        cross_validate(&repo, base_rec.handle, &base);
        if victim_present {
            let victim_rec = repo.view().tree_by_name("victim").unwrap();
            cross_validate(&repo, victim_rec.handle, &victim);
        }
    }
}

#[test]
fn crash_before_checkpoint_truncation_replays_idempotently() {
    let dir = tempdir().unwrap();
    let path = dir.path().join("repo.crimson");
    let base = tree_newick(90, 11);
    {
        let mut repo = Repository::create(&path, small_opts()).unwrap();
        repo.load_newick("base", &base).unwrap();
        repo.pool().inject_crash(CrashPoint::CheckpointTruncate);
        // The checkpoint wrote and fsynced the data file, then "died" before
        // truncating the log; replaying the log must be harmless.
        assert!(repo.flush().is_err());
    }
    let repo = Repository::open(&path, small_opts()).unwrap();
    repo.view()
        .integrity_check()
        .expect("integrity after checkpoint crash");
    let base_rec = repo.view().tree_by_name("base").unwrap();
    cross_validate(&repo, base_rec.handle, &base);
    assert_eq!(
        repo.view().history_of_kind(QueryKind::Load).unwrap().len(),
        1
    );
}

#[test]
fn crash_during_gold_standard_load_loses_tree_and_species_together() {
    use simulation::gold::GoldStandardBuilder;
    let dir = tempdir().unwrap();
    let path = dir.path().join("repo.crimson");
    let gold = GoldStandardBuilder::new()
        .leaves(40)
        .sequence_length(60)
        .seed(5)
        .build()
        .unwrap();
    {
        let mut repo = Repository::create(&path, small_opts()).unwrap();
        repo.load_gold_standard("committed", &gold).unwrap();
        // Crash partway through the second gold-standard load: the tree may
        // already be inserted when the species inserts die, but the whole
        // load is one transaction, so neither may survive.
        repo.pool().inject_crash(CrashPoint::WalAppend(2));
        assert!(repo.load_gold_standard("victim", &gold).is_err());
    }
    let repo = Repository::open(&path, small_opts()).unwrap();
    let integrity = repo.view().integrity_check().unwrap();
    assert_eq!(integrity.trees, 1);
    let committed = repo.view().tree_by_name("committed").unwrap();
    assert_eq!(repo.view().species_count(committed.handle).unwrap(), 40);
    assert!(repo.view().find_tree("victim").unwrap().is_none());
    assert_eq!(integrity.species, 40, "no orphan species rows may survive");
}

#[test]
fn clean_reopen_reports_empty_recovery() {
    let dir = tempdir().unwrap();
    let path = dir.path().join("repo.crimson");
    {
        let mut repo = Repository::create(&path, small_opts()).unwrap();
        repo.load_newick("base", &tree_newick(40, 3)).unwrap();
        repo.flush().unwrap();
    }
    let repo = Repository::open(&path, small_opts()).unwrap();
    let report = repo
        .recovery_report()
        .expect("open of existing file reports recovery");
    assert!(
        !report.did_work(),
        "a checkpointed file needs no recovery: {report:?}"
    );
    repo.view().integrity_check().unwrap();
}

#[test]
fn reopen_without_flush_replays_the_load() {
    let dir = tempdir().unwrap();
    let path = dir.path().join("repo.crimson");
    let base = tree_newick(120, 13);
    {
        let mut repo = Repository::create(&path, small_opts()).unwrap();
        repo.load_newick("base", &base).unwrap();
        // No flush: commit durability comes from the WAL alone.
    }
    let repo = Repository::open(&path, small_opts()).unwrap();
    let report = repo.recovery_report().unwrap();
    assert!(report.committed_txns >= 1);
    assert!(report.pages_redone > 0);
    repo.view().integrity_check().unwrap();
    let base_rec = repo.view().tree_by_name("base").unwrap();
    cross_validate(&repo, base_rec.handle, &base);
}

#[test]
fn crash_mid_dedup_store_leaves_no_dangling_hash_state() {
    // Crash partway through a content-addressed store (the miss path: a
    // full load plus its `tree_stats` row, all one transaction). Recovery
    // must leave exactly one stats row per surviving tree — the integrity
    // invariants reject a stats row for a vanished tree and a stored root
    // hash its tree's nodes do not reproduce — and the retried store must
    // succeed and then dedup.
    for point in [
        CrashPoint::WalAppend(2),
        CrashPoint::WalAppend(9),
        CrashPoint::DataWrite(1),
        CrashPoint::DataWrite(8),
    ] {
        let dir = tempdir().unwrap();
        let path = dir.path().join("repo.crimson");
        let base = yule_tree(90, 1.0, 7);
        let victim = yule_tree(260, 1.0, 8);
        let victim_committed;
        {
            let mut repo = Repository::create(&path, small_opts()).unwrap();
            let (_, hit) = repo.store_tree_dedup("base", &base).unwrap();
            assert!(!hit);
            repo.pool().inject_crash(point);
            victim_committed = repo.store_tree_dedup("victim", &victim).is_ok();
            // Crash: drop without flush.
        }
        let mut repo = Repository::open(&path, small_opts()).unwrap();
        let integrity = repo.view().integrity_check().unwrap_or_else(|e| {
            panic!("integrity failed after dedup-store crash at {point:?}: {e}")
        });
        let committed = if victim_committed { 2 } else { 1 };
        assert_eq!(integrity.trees as usize, committed, "crash at {point:?}");
        // Every surviving tree carries its content address.
        for t in repo.view().list_trees().unwrap() {
            repo.view().tree_stats(t.handle).unwrap();
        }
        if !victim_committed {
            assert!(repo.view().find_tree("victim").unwrap().is_none());
            let (_, hit) = repo.store_tree_dedup("victim", &victim).unwrap();
            assert!(!hit, "retried store must be a fresh miss at {point:?}");
        }
        // The recovered (or retried) content addresses still dedup.
        let victim_handle = repo.view().tree_by_name("victim").unwrap().handle;
        let (dup, hit) = repo.store_tree_dedup("victim-dup", &victim).unwrap();
        assert!(hit, "identical tree must dedup after recovery at {point:?}");
        assert_eq!(dup, victim_handle);
        repo.view().integrity_check().unwrap();
    }
}

#[test]
fn async_commit_survives_clean_close() {
    // Clean-close durability for `Durability::Async`: an acknowledged
    // async commit sits in the pipelined WAL queue until some later sync.
    // Dropping the repository without flush() or sync() must drain and
    // fsync that queue (the pool's flush-on-drop), so the tree is present
    // on reopen rather than silently vanishing.
    let dir = tempdir().unwrap();
    let path = dir.path().join("repo.crimson");
    let opts = RepositoryOptions {
        durability: Durability::Async,
        ..small_opts()
    };
    let text = tree_newick(80, 29);
    {
        let mut repo = Repository::create(&path, opts.clone()).unwrap();
        repo.load_newick("async_tree", &text).unwrap();
        // No flush, no sync: drop while the commit may still be queued.
    }
    let repo = Repository::open(&path, opts).unwrap();
    repo.view().integrity_check().unwrap();
    let tree = repo
        .view()
        .tree_by_name("async_tree")
        .expect("async-committed tree lost across a clean close");
    cross_validate(&repo, tree.handle, &text);
}
