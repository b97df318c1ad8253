//! Concurrency stress harness for the shared read path.
//!
//! Four reader threads hammer LCA / ancestor / spanning-clade / projection
//! queries on trees loaded before they start, while the main thread keeps
//! loading new trees, recording history and checkpointing — the shared-
//! service workload the paper pitches. Every fast-path result is
//! cross-validated in-thread against the pre-interval-index `*_reference`
//! implementation (or a semantic invariant), so a single torn read, stale
//! cache entry or latch bug surfaces as an assertion failure, not a flaky
//! number.
//!
//! The harness asserts ≥ 10,000 cross-validated queries across ≥ 4 reader
//! threads with zero mismatches, that every concurrent load committed, and
//! that the repository passes its integrity check afterwards. Run it under
//! `RUST_TEST_THREADS=1` to keep the wall-clock budget honest — the test
//! brings its own threads.

use crimson::prelude::*;
use rand::prelude::*;
use simulation::birth_death::yule_tree;
use std::sync::atomic::{AtomicU64, Ordering};

const READERS: usize = 4;
const ITERS: usize = 800;
const WRITER_LOADS: usize = 6;

#[test]
fn four_readers_cross_validate_while_writer_loads() {
    let dir = tempfile::tempdir().unwrap();
    let mut repo = Repository::create(
        dir.path().join("stress.crimson"),
        RepositoryOptions {
            frame_depth: 8,
            buffer_pool_pages: 2048,
            ..Default::default()
        },
    )
    .unwrap();
    let t1 = repo.load_tree("base1", &yule_tree(300, 1.0, 11)).unwrap();
    let t2 = repo.load_tree("base2", &yule_tree(250, 1.0, 22)).unwrap();
    repo.flush().unwrap();
    let leaves1 = repo.view().leaves(t1).unwrap();
    let leaves2 = repo.view().leaves(t2).unwrap();
    let baseline_stats = repo.buffer_stats();

    let validated = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for reader_id in 0..READERS {
            let reader = repo.reader().unwrap();
            let leaves1 = &leaves1;
            let leaves2 = &leaves2;
            let validated = &validated;
            scope.spawn(move || {
                // Deterministic per-thread seed: the workload is
                // reproducible, the threads diverge.
                let mut rng = StdRng::seed_from_u64(0x9E3779B97F4A7C15 ^ (reader_id as u64 + 1));
                for i in 0..ITERS {
                    let (handle, leaves) = if i % 2 == 0 {
                        (t1, &leaves1[..])
                    } else {
                        (t2, &leaves2[..])
                    };
                    let a = *leaves.choose(&mut rng).expect("non-empty");
                    let b = *leaves.choose(&mut rng).expect("non-empty");

                    // LCA: interval walk vs. Dewey label walk.
                    let fast = reader.lca(a, b).expect("lca");
                    let slow = reader
                        .read(|v| v.lca_label_walk(a, b))
                        .expect("reference lca");
                    assert_eq!(fast, slow, "lca mismatch for ({a}, {b})");
                    validated.fetch_add(1, Ordering::Relaxed);

                    // Ancestor tests: the LCA must cover both arguments, and
                    // a leaf never covers a distinct LCA.
                    assert!(reader.is_ancestor(fast, a).expect("ancestor a"));
                    assert!(reader.is_ancestor(fast, b).expect("ancestor b"));
                    if fast != a {
                        assert!(!reader.is_ancestor(a, fast).expect("reverse"));
                    }
                    validated.fetch_add(2, Ordering::Relaxed);

                    if i % 8 == 0 {
                        let c = *leaves.choose(&mut rng).expect("non-empty");
                        let set = [a, b, c];
                        let mut clade = reader.minimal_spanning_clade(&set).expect("clade");
                        let mut reference = reader
                            .read(|v| v.minimal_spanning_clade_reference(&set))
                            .expect("reference clade");
                        // The fast path yields pre-order, the reference BFS
                        // order; compare as sets.
                        clade.sort();
                        reference.sort();
                        assert_eq!(clade, reference, "clade mismatch for {set:?}");
                        validated.fetch_add(1, Ordering::Relaxed);
                    }

                    if i % 16 == 0 {
                        let sel: Vec<StoredNodeId> = leaves
                            .iter()
                            .skip(i % 5)
                            .step_by(7 + reader_id % 3)
                            .copied()
                            .collect();
                        let fast = reader.project(handle, &sel).expect("projection");
                        let slow = reader
                            .read(|v| v.project_reference(handle, &sel))
                            .expect("reference projection");
                        assert!(
                            phylo::ops::isomorphic_with_lengths(&fast, &slow, 1e-9),
                            "projection mismatch on {} leaves",
                            sel.len()
                        );
                        validated.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }

        // The writer keeps the repository busy the whole time: new trees,
        // history rows, checkpoints. None of this may disturb the readers.
        // The group-commit counters are sampled after every load: they must
        // grow monotonically under concurrency (no lost or torn updates).
        let mut prev = baseline_stats;
        for i in 0..WRITER_LOADS {
            let tree = yule_tree(150 + i * 20, 1.0, 100 + i as u64);
            let handle = repo
                .load_tree(&format!("load{i}"), &tree)
                .expect("concurrent load");
            assert_eq!(repo.view().leaves(handle).unwrap().len(), tree.leaf_count());
            repo.record_query(
                QueryKind::Load,
                serde_json::json!({ "tree": format!("load{i}") }),
                "stress load",
            )
            .expect("history row");
            if i % 2 == 1 {
                repo.flush().expect("checkpoint under readers");
            }
            let now = repo.buffer_stats();
            assert!(now.group_commits > prev.group_commits, "load {i} committed");
            assert!(now.group_commit_members >= prev.group_commit_members);
            assert!(now.fsyncs_saved >= prev.fsyncs_saved);
            // Versioned reads pin an epoch instead of racing the commit:
            // the retry counter (now only the cold snapshot-retired
            // re-pin) must stay flat however fast the writer commits.
            assert_eq!(
                now.reader_retries, baseline_stats.reader_retries,
                "a reader re-pinned under load {i}: versioned reads must not retry"
            );
            assert_eq!(
                now.fsyncs_saved,
                now.group_commit_members - now.group_commits,
                "members-minus-rounds identity broken at load {i}"
            );
            prev = now;
        }
    });

    let total = validated.load(Ordering::Relaxed);
    assert!(
        total >= 10_000,
        "stress harness must cross-validate ≥ 10k queries, got {total}"
    );

    // No counter updates were lost to races: every page request was counted
    // as either a hit or a miss (monotone, and far beyond the baseline).
    let stats = repo.buffer_stats();
    assert!(stats.page_reads() > baseline_stats.page_reads());
    assert_eq!(
        stats.reader_retries, baseline_stats.reader_retries,
        "zero snapshot re-pins across the whole stress run"
    );

    // Version-chain GC leaves nothing pinned behind: with every reader
    // dropped and no transaction open, the pool's version accounting is
    // back to baseline (no leaked epochs, no leaked page versions).
    assert_eq!(repo.pinned_epochs(), 0, "leaked reader epoch pins");
    assert_eq!(repo.version_pages(), 0, "leaked page version chains");

    // Everything the writer did landed, and the repository is intact.
    assert_eq!(repo.view().list_trees().unwrap().len(), 2 + WRITER_LOADS);
    assert_eq!(
        repo.view().history_of_kind(QueryKind::Load).unwrap().len(),
        WRITER_LOADS
    );
    repo.flush().unwrap();
    let report = repo
        .view()
        .integrity_check()
        .expect("integrity after stress");
    assert_eq!(report.trees, 2 + WRITER_LOADS as u64);
}

/// A reader created *before* any tree exists must pick up later commits —
/// the generation-based catalog refresh path.
#[test]
fn reader_created_on_empty_repository_sees_later_loads() {
    let dir = tempfile::tempdir().unwrap();
    let mut repo = Repository::create(
        dir.path().join("fresh.crimson"),
        RepositoryOptions {
            frame_depth: 4,
            buffer_pool_pages: 512,
            ..Default::default()
        },
    )
    .unwrap();
    let reader = repo.reader().unwrap();
    assert!(reader.list_trees().unwrap().is_empty());
    let handle = repo.load_tree("late", &yule_tree(60, 1.0, 3)).unwrap();
    assert_eq!(reader.list_trees().unwrap().len(), 1);
    let leaves = reader.leaves(handle).unwrap();
    assert_eq!(leaves.len(), 60);
    let lca = reader.lca(leaves[0], leaves[59]).unwrap();
    assert_eq!(
        lca,
        reader
            .read(|v| v.lca_label_walk(leaves[0], leaves[59]))
            .unwrap()
    );
}
