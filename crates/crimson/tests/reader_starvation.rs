//! Reader-starvation regression test for versioned (epoch-pinned) reads.
//!
//! Before MVCC, a snapshot read bracketed the pool's read generation and
//! retried when a commit landed mid-operation: a reader with a two-attempt
//! budget racing a writer committing back-to-back was all but guaranteed to
//! exhaust its budget and fail `CrimsonError::Busy`. With versioned reads
//! the same race must observe **zero** re-pins (so not even a two-attempt
//! budget would be touched), zero `Busy` errors and zero cross-validation
//! mismatches, because every operation runs against a pinned epoch that
//! commits cannot disturb — and a long-lived pin must see a frozen tree
//! list across all one hundred commits.

mod common;

use common::Oracle;
use crimson::prelude::*;
use rand::prelude::*;
use simulation::birth_death::yule_tree;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

#[test]
fn two_attempt_reader_never_starves_under_continuous_commits() {
    let dir = tempfile::tempdir().unwrap();
    let mut repo = Repository::create(
        dir.path().join("starve.crimson"),
        RepositoryOptions {
            buffer_pool_pages: 2048,
            ..Default::default()
        },
    )
    .unwrap();
    // Same leaf count (and thus the same generated leaf set) so the
    // stored comparison is well-defined; different seeds give different
    // topologies.
    let tree_a = yule_tree(100, 1.0, 7);
    let ta = repo.load_tree("base_a", &tree_a).unwrap();
    let tb = repo.load_tree("base_b", &yule_tree(100, 1.0, 8)).unwrap();
    let oracle = Oracle::new(ta, &tree_a);
    repo.flush().unwrap();
    let leaves_a = repo.view().leaves(ta).unwrap();
    let baseline = repo.buffer_stats();

    let reader = repo.reader().unwrap();

    let stop = AtomicBool::new(false);
    let queries = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let reader_ref = &reader;
        let stop_ref = &stop;
        let queries_ref = &queries;
        let leaves = &leaves_a;
        let oracle = &oracle;
        scope.spawn(move || {
            let mut rng = StdRng::seed_from_u64(42);
            let mut done = false;
            // Keep querying until the writer finishes, then one more full
            // round so some queries demonstrably overlap the commit storm.
            while !done {
                done = stop_ref.load(Ordering::Relaxed);
                let trees = reader_ref
                    .list_trees()
                    .expect("list_trees must never go Busy");
                assert!(trees.len() >= 2, "base trees must always be visible");
                let cmp = reader_ref
                    .read(|v| v.compare_stored(ta, tb, false))
                    .expect("compare_stored must never go Busy");
                // The bases never change: the multi-page comparison must
                // come back identical every round, whatever commits land.
                assert_eq!(
                    cmp.rf,
                    reader_ref
                        .read(|v| v.compare_stored(ta, tb, false))
                        .unwrap()
                        .rf
                );
                let a = *leaves.choose(&mut rng).unwrap();
                let b = *leaves.choose(&mut rng).unwrap();
                let fast = reader_ref.lca(a, b).expect("lca");
                assert_eq!(fast, oracle.lca(a, b), "lca mismatch under commit storm");
                assert!(
                    reader_ref
                        .read(|v| v.is_ancestor(fast, b))
                        .expect("is_ancestor must never go Busy"),
                    "the lca must cover both nodes"
                );
                queries_ref.fetch_add(3, Ordering::Relaxed);
            }
        });

        // A pinned epoch taken before the storm must see a frozen tree
        // list across every one of the hundred commits.
        let pinned = reader.pin().expect("pin epoch");
        let frozen = pinned.list_trees().expect("pinned list").len();
        assert_eq!(frozen, 2);
        for i in 0..100 {
            let tree = yule_tree(20 + i % 7, 1.0, 1000 + i as u64);
            repo.load_tree(&format!("storm{i}"), &tree)
                .expect("storm load");
            assert_eq!(
                pinned.list_trees().expect("pinned list under storm").len(),
                frozen,
                "pinned epoch saw commit {i}"
            );
        }
        drop(pinned);
        stop.store(true, Ordering::Relaxed);
    });

    assert!(
        queries.load(Ordering::Relaxed) > 0,
        "the reader thread must have run"
    );
    // Zero re-pins: the retry counter (now only the cold snapshot-retired
    // path) never moved, so every read succeeded on its first pin.
    let stats = repo.buffer_stats();
    assert_eq!(
        stats.reader_retries, baseline.reader_retries,
        "versioned reads must not retry under a continuous committer"
    );
    // A fresh snapshot sees everything the storm committed, and nothing
    // leaked from the long-held pin.
    assert_eq!(repo.view().list_trees().unwrap().len(), 102);
    let reader2 = repo.reader().unwrap();
    assert_eq!(reader2.list_trees().unwrap().len(), 102);
    assert_eq!(repo.pool().pinned_epochs(), 0, "leaked epoch pins");
    assert_eq!(repo.pool().version_pages(), 0, "leaked version chains");
}
