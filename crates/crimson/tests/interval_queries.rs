//! Cross-validation and cost assertions for the interval-index structure
//! query engine.
//!
//! * Property tests: on random birth–death trees and random attachment-shape
//!   trees, the stored `lca` / `is_ancestor` / `minimal_spanning_clade` /
//!   `project` must agree with the in-memory tree: the paper's hierarchical
//!   Dewey label walk (built in memory by `labeling`), interval labels and
//!   `phylo`'s projection.
//! * Cost tests: on a 10k-leaf simulated tree, listing the leaves, the
//!   spanning clade and the projection stay within fixed buffer-pool
//!   page-read bounds, asserted via `BufferStats`.
//! * Capacity test: a repository scan over a file much larger than the pool
//!   keeps residency bounded with nonzero evictions.

mod common;

use common::{arena, sid, Oracle};
use crimson::prelude::*;
use labeling::{HierarchicalDewey, LcaScheme};
use phylo::Tree;
use rand::prelude::*;
use simulation::birth_death::yule_tree;
use tempfile::tempdir;

fn fresh_repo(tree: &Tree, pages: usize) -> (tempfile::TempDir, Repository, TreeHandle) {
    let dir = tempdir().unwrap();
    let mut repo = Repository::create(
        dir.path().join("repo.crimson"),
        RepositoryOptions {
            buffer_pool_pages: pages,
            ..Default::default()
        },
    )
    .unwrap();
    let handle = repo.load_tree("t", tree).unwrap();
    (dir, repo, handle)
}

/// Build a random tree from a shape vector (same construction as the
/// labeling property tests): element `i` attaches node `i+1` to parent
/// `shape[i] % (i+1)`, reaching every rooted topology with positive
/// probability.
fn tree_from_shape(shape: &[usize]) -> Tree {
    let mut tree = Tree::new();
    let mut ids = vec![tree.add_node()];
    for (i, &s) in shape.iter().enumerate() {
        let parent = ids[s % (i + 1)];
        let child = tree
            .add_child(
                parent,
                Some(format!("n{}", i + 1)),
                Some((s % 7) as f64 * 0.5 + 0.1),
            )
            .unwrap();
        ids.push(child);
    }
    tree
}

#[test]
fn interval_lca_matches_label_walk_on_random_trees() {
    let mut rng = StdRng::seed_from_u64(0x1CA);
    for case in 0..24 {
        // Alternate birth–death simulations and adversarial random shapes.
        let tree = if case % 2 == 0 {
            yule_tree(rng.gen_range(8usize..80), 1.0, rng.gen_range(0u64..1000))
        } else {
            let len = rng.gen_range(1usize..150);
            let shape: Vec<usize> = (0..len).map(|_| rng.gen_range(0usize..1000)).collect();
            tree_from_shape(&shape)
        };
        let f = rng.gen_range(2usize..10);
        let labels = HierarchicalDewey::build(&tree, f);
        let (_d, repo, handle) = fresh_repo(&tree, 512);
        let rec = repo.view().tree_record(handle).unwrap();

        // Random stored-node pairs: leaves and internals alike.
        let clade = repo.view().minimal_spanning_clade(&[rec.root]).unwrap();
        assert_eq!(
            clade.len(),
            tree.node_count(),
            "case {case}: root clade is the whole tree"
        );
        for _ in 0..60 {
            let a = clade[rng.gen_range(0..clade.len())];
            let b = clade[rng.gen_range(0..clade.len())];
            let stored = repo.view().lca(a, b).unwrap();
            let via_labels = sid(handle, labels.lca(arena(a), arena(b)));
            assert_eq!(stored, via_labels, "case {case}: lca({a}, {b}) f={f}");
            assert_eq!(
                repo.view().is_ancestor(a, b).unwrap(),
                labels.is_ancestor(arena(a), arena(b)),
                "case {case}: is_ancestor({a}, {b})"
            );
        }
    }
}

#[test]
fn interval_clade_and_projection_match_references_on_random_trees() {
    let mut rng = StdRng::seed_from_u64(0xC1ADE);
    for case in 0..12 {
        let tree = yule_tree(rng.gen_range(10usize..60), 1.0, rng.gen_range(0u64..1000));
        let (_d, repo, handle) = fresh_repo(&tree, 512);
        let oracle = Oracle::new(handle, &tree);
        let leaves = repo.view().leaves(handle).unwrap();

        for set_size in [2usize, 3, 5] {
            let set: Vec<StoredNodeId> = leaves
                .choose_multiple(&mut rng, set_size.min(leaves.len()))
                .copied()
                .collect();
            let mut fast = repo.view().minimal_spanning_clade(&set).unwrap();
            fast.sort();
            assert_eq!(
                fast,
                oracle.spanning_clade(&set),
                "case {case}: clade of {set_size} leaves"
            );

            let fast = repo.view().project(handle, &set).unwrap();
            common::assert_same_projection(
                &fast,
                &oracle.project(&set),
                &format!("case {case}: projection of {set_size} leaves"),
            );
        }
    }
}

#[test]
fn projection_matches_reference_on_dense_and_sparse_selections() {
    // Projection has one pair-LCA path (range minima over the depth
    // column) for every selection density: a two-leaf selection of a large
    // tree, mid-size selections, and selections of most leaves must all
    // match the in-memory projection.
    let tree = yule_tree(300, 1.0, 7);
    let (_d, repo, handle) = fresh_repo(&tree, 1024);
    let oracle = Oracle::new(handle, &tree);
    let leaves = repo.view().leaves(handle).unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    for take in [2usize, 5, 20, 150, 290] {
        let set: Vec<StoredNodeId> = leaves.choose_multiple(&mut rng, take).copied().collect();
        let fast = repo.view().project(handle, &set).unwrap();
        common::assert_same_projection(
            &fast,
            &oracle.project(&set),
            &format!("selection of {take} leaves"),
        );
    }
}

/// Page-read ceilings for the 10k-leaf cost test. Each is a fifth of what
/// the hierarchical-label walk (for the clade) and the label walk with
/// uncached row fetches (for the projection) read on the same tree and
/// inputs when those paths were still stored: the interval paths must keep
/// their 5x lead over that baseline.
const CLADE_32_MAX_READS: u64 = 16_141;
const PROJECTION_1000_MAX_READS: u64 = 8_855;
/// Every leaf of the tree with cold caches: one scan of the tree's
/// `ivl_by_pre` entries (98 page reads). Reading each leaf's row instead
/// costs one page read per leaf (10,040).
const LEAVES_10K_MAX_READS: u64 = 200;

#[test]
fn interval_paths_stay_within_page_bounds_on_10k_leaf_tree() {
    let tree = yule_tree(10_000, 1.0, 42);
    let (_d, repo, handle) = fresh_repo(&tree, 8192);
    let oracle = Oracle::new(handle, &tree);
    // --- every leaf of the tree ---
    repo.clear_cache().unwrap();
    repo.pool().reset_stats();
    let leaves = repo.view().leaves(handle).unwrap();
    let leaves_reads = repo.buffer_stats().page_reads();
    assert_eq!(leaves, oracle.leaves());
    eprintln!("leaves/10k: {leaves_reads} page reads (bound {LEAVES_10K_MAX_READS})");
    assert!(
        leaves_reads <= LEAVES_10K_MAX_READS,
        "leaves: read {leaves_reads} pages, bound {LEAVES_10K_MAX_READS}"
    );
    let mut rng = StdRng::seed_from_u64(5);

    // --- minimal spanning clade over 32 random leaves ---
    let set: Vec<StoredNodeId> = leaves.choose_multiple(&mut rng, 32).copied().collect();

    repo.clear_cache().unwrap();
    repo.pool().reset_stats();
    let mut fast = repo.view().minimal_spanning_clade(&set).unwrap();
    let fast_reads = repo.buffer_stats().page_reads();

    fast.sort();
    assert_eq!(fast, oracle.spanning_clade(&set));
    eprintln!("clade/32-leaves: {fast_reads} page reads (bound {CLADE_32_MAX_READS})");
    assert!(
        fast_reads <= CLADE_32_MAX_READS,
        "clade: read {fast_reads} pages, bound {CLADE_32_MAX_READS}"
    );

    // --- projection of 1000 evenly spread leaves ---
    let step = leaves.len() / 1000;
    let sample: Vec<StoredNodeId> = leaves.iter().step_by(step.max(1)).copied().collect();

    repo.clear_cache().unwrap();
    repo.pool().reset_stats();
    let fast = repo.view().project(handle, &sample).unwrap();
    let fast_reads = repo.buffer_stats().page_reads();

    common::assert_same_projection(&fast, &oracle.project(&sample), "projection/1000-leaves");
    eprintln!(
        "projection/1000-leaves: {fast_reads} page reads (bound {PROJECTION_1000_MAX_READS})"
    );
    assert!(
        fast_reads <= PROJECTION_1000_MAX_READS,
        "projection: read {fast_reads} pages, bound {PROJECTION_1000_MAX_READS}"
    );
}

#[test]
fn repository_scan_stays_within_pool_capacity() {
    // A pool far smaller than the repository file: scanning every node must
    // complete, keep residency bounded, and evict.
    let tree = yule_tree(2_000, 1.0, 11);
    let (_d, repo, handle) = fresh_repo(&tree, 64);
    let capacity = repo.pool().capacity();
    assert_eq!(capacity, 64);

    let rec = repo.view().tree_record(handle).unwrap();
    let clade = repo.view().minimal_spanning_clade(&[rec.root]).unwrap();
    assert_eq!(clade.len() as u64, rec.node_count);
    // Touch every node row, sweeping the whole heap through the small pool.
    for &node in &clade {
        let _ = repo.view().node_record(node).unwrap();
        let resident = repo.pool().resident_pages();
        assert!(
            resident <= capacity,
            "resident {resident} exceeded capacity {capacity}"
        );
    }
    assert!(
        repo.buffer_stats().evictions > 0,
        "a scan larger than the pool must evict"
    );
}

#[test]
fn record_cache_serves_repeated_queries() {
    let tree = yule_tree(200, 1.0, 3);
    let (_d, repo, handle) = fresh_repo(&tree, 1024);
    let leaves = repo.view().leaves(handle).unwrap();
    let ((_, _), _) = repo.record_cache_stats();
    // First projection warms the cache; the second is served from it.
    let sample: Vec<StoredNodeId> = leaves.iter().step_by(3).copied().collect();
    let _ = repo.view().project(handle, &sample).unwrap();
    let ((_, misses_after_first), _) = repo.record_cache_stats();
    let _ = repo.view().project(handle, &sample).unwrap();
    let ((hits, misses_after_second), len) = repo.record_cache_stats();
    assert_eq!(
        misses_after_first, misses_after_second,
        "second identical projection must not decode any new rows"
    );
    assert!(hits > 0);
    assert!(len > 0);
}
