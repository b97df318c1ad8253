//! Property tests for the bulk-load fast path: repositories loaded through
//! the streaming bulk pipeline must be indistinguishable — query for query —
//! from repositories loaded through the row-at-a-time reference path, and a
//! crash at any point inside a bulk load must recover to the clean pre-load
//! state.

mod common;

use common::{arena, check_topology, sid, Oracle};
use crimson::prelude::*;
use crimson::repository::RepositoryOptions;
use rand::prelude::*;
use simulation::birth_death::{birth_death_tree, BirthDeathConfig};
use storage::CrashPoint;
use tempfile::tempdir;

fn options() -> RepositoryOptions {
    RepositoryOptions {
        buffer_pool_pages: 512,
        ..Default::default()
    }
}

/// A random birth–death tree with mildly varied shape parameters.
fn random_tree(rng: &mut StdRng) -> phylo::Tree {
    let leaves = rng.gen_range(8usize..60);
    let death = if rng.gen_bool(0.5) { 0.0 } else { 0.3 };
    birth_death_tree(
        &BirthDeathConfig {
            leaves,
            birth_rate: 1.0,
            death_rate: death,
            prune_extinct: death > 0.0 && rng.gen_bool(0.5),
            ..BirthDeathConfig::default()
        }
        .with_seed(rng.gen()),
    )
}

/// Bulk-load and reference-load the same 50 random trees into two
/// repositories, then cross-validate children, leaves, LCA, ancestor
/// tests, spanning clades, projections and the integrity check between
/// them. Stored node ids are `(tree_id << 32) | arena_id` in both
/// repositories, so query answers must be *identical*, not merely
/// isomorphic.
#[test]
fn bulk_and_reference_loads_answer_identically_on_random_trees() {
    let dir = tempdir().unwrap();
    let mut bulk = Repository::create(dir.path().join("bulk.crimson"), options()).unwrap();
    let mut reference = Repository::create(dir.path().join("ref.crimson"), options()).unwrap();
    let mut rng = StdRng::seed_from_u64(20260727);
    for case in 0..50 {
        let tree = random_tree(&mut rng);
        let name = format!("tree-{case}");
        let hb = bulk.load_tree(&name, &tree).unwrap();
        let hr = reference.load_tree_reference(&name, &tree).unwrap();
        assert_eq!(hb, hr, "case {case}: handles must line up");

        // Children and leaves answer the in-memory tree, in pre-order.
        let oracle = Oracle::new(hb, &tree);
        check_topology(&bulk, &oracle);
        check_topology(&reference, &oracle);
        let mut leaves_b = bulk.view().leaves(hb).unwrap();
        leaves_b.sort();

        // LCA + ancestor tests over sampled pairs, also checked against the
        // in-memory tree.
        for _ in 0..12 {
            let a = *leaves_b.choose(&mut rng).unwrap();
            let b = *leaves_b.choose(&mut rng).unwrap();
            let lb = bulk.view().lca(a, b).unwrap();
            let lr = reference.view().lca(a, b).unwrap();
            assert_eq!(lb, lr, "case {case}: lca({a}, {b})");
            assert_eq!(oracle.lca(a, b), lb, "case {case}: in-memory lca disagrees");
            assert!(
                bulk.view().is_ancestor(lb, a).unwrap() && bulk.view().is_ancestor(lb, b).unwrap(),
                "case {case}: lca must cover both"
            );
        }

        // Minimal spanning clade of a random leaf subset.
        let set: Vec<StoredNodeId> = leaves_b
            .choose_multiple(&mut rng, 4.min(leaves_b.len()))
            .copied()
            .collect();
        let mut cb = bulk.view().minimal_spanning_clade(&set).unwrap();
        let mut cr = reference.view().minimal_spanning_clade(&set).unwrap();
        cb.sort();
        cr.sort();
        assert_eq!(cb, cr, "case {case}: spanning clades differ");

        // Projection of an evenly spread leaf sample.
        let sample: Vec<StoredNodeId> = leaves_b.iter().step_by(3).copied().collect();
        if sample.len() >= 2 {
            let pb = bulk.view().project(hb, &sample).unwrap();
            let pr = reference.view().project(hr, &sample).unwrap();
            assert!(
                phylo::ops::isomorphic_with_lengths(&pb, &pr, 1e-9),
                "case {case}: projections differ"
            );
        }

        // The clade hashes recomputed from either stored copy are the
        // in-memory tree's, node for node: the root first, then the rest of
        // the multiset.
        let expected = labeling::tree_hashes(&tree);
        for repo in [&bulk, &reference] {
            let stored = repo.view().clade_hashes(hb).unwrap();
            assert_eq!(stored.len(), tree.node_count(), "case {case}");
            let root = tree.root_unchecked();
            assert_eq!(
                stored[0],
                (sid(hb, root), expected[root.index()]),
                "case {case}"
            );
            for (id, hash) in stored {
                assert_eq!(hash, expected[arena(id).index()], "case {case}: {id}");
            }
        }

        // Node records agree field for field on a sample.
        for &leaf in leaves_b.iter().take(5) {
            assert_eq!(
                bulk.view().node_record(leaf).unwrap(),
                reference.view().node_record(leaf).unwrap(),
                "case {case}: node record differs"
            );
        }
    }
    let rb = bulk.view().integrity_check().unwrap();
    let rr = reference.view().integrity_check().unwrap();
    assert_eq!(rb, rr, "integrity reports must match");
    assert_eq!(rb.trees, 50);
}

/// Bulk-loaded and reference-loaded trees coexist in one repository file:
/// the second and later loads bulk-append behind existing keys (or fall back
/// per index), and cross-tree integrity holds.
#[test]
fn mixed_load_paths_share_one_repository() {
    let dir = tempdir().unwrap();
    let mut repo = Repository::create(dir.path().join("mixed.crimson"), options()).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let mut handles = Vec::new();
    let mut oracles = Vec::new();
    for case in 0..8 {
        let tree = random_tree(&mut rng);
        let name = format!("t{case}");
        let handle = if case % 2 == 0 {
            repo.load_tree(&name, &tree).unwrap()
        } else {
            repo.load_tree_reference(&name, &tree).unwrap()
        };
        handles.push(handle);
        oracles.push(Oracle::new(handle, &tree));
    }
    repo.view().integrity_check().unwrap();
    for (&handle, oracle) in handles.iter().zip(&oracles) {
        let leaves = repo.view().leaves(handle).unwrap();
        let a = leaves[0];
        let b = *leaves.last().unwrap();
        let lca = repo.view().lca(a, b).unwrap();
        assert_eq!(oracle.lca(a, b), lca);
        assert!(repo.view().is_ancestor(lca, b).unwrap());
    }
    // Queries across distinct trees still refuse to mix.
    let l0 = repo.view().leaves(handles[0]).unwrap()[0];
    let l1 = repo.view().leaves(handles[1]).unwrap()[0];
    assert!(repo.view().lca(l0, l1).is_err());
}

/// Crash a bulk load at a sweep of WAL-append and data-write kill points;
/// every recovery must restore the exact pre-load state (committed tree
/// intact, victim invisible, integrity green), and a retried load must then
/// succeed.
#[test]
fn bulk_load_crash_recovers_to_pre_load_state() {
    let committed_tree = simulation::birth_death::yule_tree(120, 1.0, 11);
    let victim_tree = simulation::birth_death::yule_tree(400, 1.0, 12);
    let points = [
        CrashPoint::WalAppend(0),
        CrashPoint::WalAppend(2),
        CrashPoint::WalAppend(25),
        CrashPoint::DataWrite(0),
        CrashPoint::DataWrite(3),
    ];
    for point in points {
        let dir = tempdir().unwrap();
        let path = dir.path().join("crash.crimson");
        {
            // A pool smaller than the victim load forces mid-bulk steals,
            // so the DataWrite points trip while the transaction is open.
            let mut repo = Repository::create(
                &path,
                RepositoryOptions {
                    buffer_pool_pages: 64,
                    ..Default::default()
                },
            )
            .unwrap();
            repo.load_tree("committed", &committed_tree).unwrap();
            repo.pool().inject_crash(point);
            assert!(
                repo.load_tree("victim", &victim_tree).is_err(),
                "{point:?}: the injected crash must interrupt the bulk load"
            );
            // Crash: drop without flush.
        }
        let mut repo = Repository::open(&path, RepositoryOptions::default()).unwrap();
        repo.recovery_report().expect("recovery must be reported");
        repo.view()
            .integrity_check()
            .unwrap_or_else(|e| panic!("{point:?}: integrity after recovery: {e}"));
        let rec = repo.view().tree_by_name("committed").unwrap();
        assert_eq!(rec.node_count as usize, committed_tree.node_count());
        assert!(
            repo.view().find_tree("victim").unwrap().is_none(),
            "{point:?}: interrupted bulk load must vanish"
        );
        // The recovered repository accepts the retried bulk load.
        let handle = repo.load_tree("victim", &victim_tree).unwrap();
        assert_eq!(
            repo.view().tree_record(handle).unwrap().leaf_count as usize,
            victim_tree.leaf_count()
        );
        repo.view().integrity_check().unwrap();
    }
}

/// The bulk path refuses the same invalid inputs as the reference path.
#[test]
fn bulk_load_rejects_empty_and_duplicate_trees() {
    let dir = tempdir().unwrap();
    let mut repo = Repository::create(dir.path().join("r.crimson"), options()).unwrap();
    assert!(repo.load_tree("empty", &phylo::Tree::new()).is_err());
    let tree = simulation::birth_death::yule_tree(16, 1.0, 3);
    repo.load_tree("dup", &tree).unwrap();
    assert!(matches!(
        repo.load_tree("dup", &tree),
        Err(crimson::CrimsonError::DuplicateTree(_))
    ));
    // The failed loads left nothing behind.
    assert_eq!(repo.view().integrity_check().unwrap().trees, 1);
}
