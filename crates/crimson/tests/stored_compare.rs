//! Property test for index-native comparison: for random birth-death trees
//! with random perturbations, the RF / rooted-RF / triplet distances
//! computed by streaming the persistent interval index equal
//! `reconstruction::compare` on the materialized trees **exactly** —
//! distance, max, shared and normalized alike.

use crimson::prelude::*;
use rand::prelude::*;
use reconstruction::compare::{robinson_foulds, rooted_robinson_foulds, triplet_distance};
use simulation::birth_death::yule_tree;
use tempfile::tempdir;

/// Swap the names of `swaps` random leaf pairs — a topology-preserving
/// relabeling that perturbs every comparison metric.
fn swap_leaf_names(tree: &phylo::Tree, swaps: usize, rng: &mut StdRng) -> phylo::Tree {
    let mut out = tree.clone();
    let leaves: Vec<phylo::NodeId> = out.leaf_ids().collect();
    for _ in 0..swaps {
        let a = leaves[rng.gen_range(0..leaves.len())];
        let b = leaves[rng.gen_range(0..leaves.len())];
        if a == b {
            continue;
        }
        let na = out.name(a).unwrap().to_string();
        let nb = out.name(b).unwrap().to_string();
        out.set_name(a, nb).unwrap();
        out.set_name(b, na).unwrap();
    }
    out
}

#[test]
fn index_native_distances_equal_materialized_compare_on_random_trees() {
    let dir = tempdir().unwrap();
    let mut repo = Repository::create(
        dir.path().join("prop.crimson"),
        RepositoryOptions {
            frame_depth: 8,
            buffer_pool_pages: 4096,
            ..Default::default()
        },
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(20260727);

    for case in 0..50u64 {
        let n = 4 + (rng.gen_range(0..90usize));
        let a = yule_tree(n, 1.0, 1000 + case);
        // Perturbation menu: identical copy, leaf-name swaps, or an
        // independently grown topology over the same leaf-name set.
        let b = match case % 3 {
            0 => a.clone(),
            1 => swap_leaf_names(&a, 1 + rng.gen_range(0..n), &mut rng),
            _ => yule_tree(n, 1.0, 5000 + case),
        };

        let ha = repo.load_tree(&format!("a{case}"), &a).unwrap();
        let hb = repo.load_tree(&format!("b{case}"), &b).unwrap();

        // The cubic triplet distance stays cheap below ~40 leaves.
        let triplets = n <= 40;
        let stored = repo.view().compare_stored(ha, hb, triplets).unwrap();
        let rf = robinson_foulds(&a, &b).unwrap();
        let rrf = rooted_robinson_foulds(&a, &b).unwrap();
        assert_eq!(stored.rf, rf, "case {case} (n={n}): unrooted RF differs");
        assert_eq!(
            stored.rooted_rf, rrf,
            "case {case} (n={n}): rooted RF differs"
        );
        if triplets {
            let expected = triplet_distance(&a, &b).unwrap();
            let got = stored.triplet.expect("triplets requested");
            assert!(
                (got - expected).abs() < 1e-15,
                "case {case} (n={n}): triplet distance differs: {got} vs {expected}"
            );
        }

        // Stored-vs-in-memory takes the same streaming path on one side
        // only; it must agree with both the stored-stored and the
        // materialized comparison.
        let mixed = repo.view().compare_stored_with_tree(ha, &b, false).unwrap();
        assert_eq!(mixed.rf, rf, "case {case}: mixed unrooted RF differs");
        assert_eq!(mixed.rooted_rf, rrf, "case {case}: mixed rooted RF differs");

        // Identical-copy cases must be exactly zero with full sharing.
        if case % 3 == 0 {
            assert_eq!(stored.rf.distance, 0);
            assert_eq!(stored.rf.shared * 2, stored.rf.max_distance);
            assert!(stored.clades.iter().all(|c| c.agrees));
        }
    }
    repo.view().integrity_check().unwrap();
}
