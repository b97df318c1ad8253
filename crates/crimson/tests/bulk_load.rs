//! Property tests for the bulk-load fast path: repositories loaded through
//! the streaming bulk pipeline must be indistinguishable — query for query —
//! from repositories loaded through the row-at-a-time reference path, and a
//! crash at any point inside a bulk load must recover to the clean pre-load
//! state.

use crimson::prelude::*;
use crimson::repository::RepositoryOptions;
use rand::prelude::*;
use simulation::birth_death::{birth_death_tree, BirthDeathConfig};
use storage::CrashPoint;
use tempfile::tempdir;

fn options(frame_depth: usize) -> RepositoryOptions {
    RepositoryOptions {
        frame_depth,
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
/// repositories, then cross-validate LCA, ancestor tests, spanning clades,
/// projections and the integrity check between them. Stored node ids are
/// `(tree_id << 32) | arena_id` in both repositories, so query answers must
/// be *identical*, not merely isomorphic.
#[test]
fn bulk_and_reference_loads_answer_identically_on_random_trees() {
    let dir = tempdir().unwrap();
    let mut bulk = Repository::create(dir.path().join("bulk.crimson"), options(4)).unwrap();
    let mut reference = Repository::create(dir.path().join("ref.crimson"), options(4)).unwrap();
    let mut rng = StdRng::seed_from_u64(20260727);
    for case in 0..50 {
        let tree = random_tree(&mut rng);
        let name = format!("tree-{case}");
        let hb = bulk.load_tree(&name, &tree).unwrap();
        let hr = reference.load_tree_reference(&name, &tree).unwrap();
        assert_eq!(hb, hr, "case {case}: handles must line up");

        let mut leaves_b = bulk.view().leaves(hb).unwrap();
        let mut leaves_r = reference.view().leaves(hr).unwrap();
        leaves_b.sort();
        leaves_r.sort();
        assert_eq!(leaves_b, leaves_r, "case {case}: leaf sets differ");

        // LCA + ancestor tests over sampled pairs, also cross-checked
        // against the reference repository's label-walk implementation.
        for _ in 0..12 {
            let a = *leaves_b.choose(&mut rng).unwrap();
            let b = *leaves_b.choose(&mut rng).unwrap();
            let lb = bulk.view().lca(a, b).unwrap();
            let lr = reference.view().lca(a, b).unwrap();
            assert_eq!(lb, lr, "case {case}: lca({a}, {b})");
            assert_eq!(
                reference.view().lca_label_walk(a, b).unwrap(),
                lb,
                "case {case}: label walk disagrees"
            );
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
    let mut repo = Repository::create(dir.path().join("mixed.crimson"), options(3)).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let mut handles = Vec::new();
    for case in 0..8 {
        let tree = random_tree(&mut rng);
        let name = format!("t{case}");
        let handle = if case % 2 == 0 {
            repo.load_tree(&name, &tree).unwrap()
        } else {
            repo.load_tree_reference(&name, &tree).unwrap()
        };
        handles.push(handle);
    }
    repo.view().integrity_check().unwrap();
    for &handle in &handles {
        let leaves = repo.view().leaves(handle).unwrap();
        let a = leaves[0];
        let b = *leaves.last().unwrap();
        let lca = repo.view().lca(a, b).unwrap();
        assert_eq!(repo.view().lca_label_walk(a, b).unwrap(), lca);
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
                    frame_depth: 8,
                    buffer_pool_pages: 64,
                    ..Default::default()
                },
            )
            .unwrap();
            repo.load_tree("committed", &committed_tree).unwrap();
            repo.inject_crash(point);
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
    let mut repo = Repository::create(dir.path().join("r.crimson"), options(4)).unwrap();
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
