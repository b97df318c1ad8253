//! Cross-validation and cost assertions for the interval-index structure
//! query engine.
//!
//! * Property tests: on random birth–death trees and random attachment-shape
//!   trees, the interval implementations of `lca` / `is_ancestor` /
//!   `minimal_spanning_clade` / `project` must agree with the label-walk /
//!   BFS reference implementations (and with the in-memory tree).
//! * Cost tests: on a 10k-leaf simulated tree, the interval paths must beat
//!   the reference paths by ≥5× in buffer-pool page reads, asserted via
//!   `BufferStats` — the scoreboard the benches measure wall-clock on.
//! * Capacity test: a repository scan over a file much larger than the pool
//!   keeps residency bounded with nonzero evictions.

use crimson::prelude::*;
use phylo::Tree;
use rand::prelude::*;
use simulation::birth_death::yule_tree;
use tempfile::tempdir;

fn fresh_repo(
    tree: &Tree,
    frame_depth: usize,
    pages: usize,
) -> (tempfile::TempDir, Repository, TreeHandle) {
    let dir = tempdir().unwrap();
    let mut repo = Repository::create(
        dir.path().join("repo.crimson"),
        RepositoryOptions {
            frame_depth,
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
        let (_d, repo, handle) = fresh_repo(&tree, f, 512);
        let rec = repo.tree_record(handle).unwrap();

        // Random stored-node pairs: leaves and internals alike.
        let clade = repo.minimal_spanning_clade(&[rec.root]).unwrap();
        assert_eq!(
            clade.len(),
            tree.node_count(),
            "case {case}: root clade is the whole tree"
        );
        for _ in 0..60 {
            let a = clade[rng.gen_range(0..clade.len())];
            let b = clade[rng.gen_range(0..clade.len())];
            let via_interval = repo.lca(a, b).unwrap();
            let via_labels = repo.lca_label_walk(a, b).unwrap();
            assert_eq!(via_interval, via_labels, "case {case}: lca({a}, {b}) f={f}");
            assert_eq!(
                repo.is_ancestor(a, b).unwrap(),
                repo.lca_label_walk(a, b).unwrap() == a,
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
        let (_d, repo, handle) = fresh_repo(&tree, rng.gen_range(2usize..8), 512);
        let leaves = repo.leaves(handle).unwrap();

        for set_size in [2usize, 3, 5] {
            let set: Vec<StoredNodeId> = leaves
                .choose_multiple(&mut rng, set_size.min(leaves.len()))
                .copied()
                .collect();
            let mut fast = repo.minimal_spanning_clade(&set).unwrap();
            let mut reference = repo.minimal_spanning_clade_reference(&set).unwrap();
            fast.sort();
            reference.sort();
            assert_eq!(fast, reference, "case {case}: clade of {set_size} leaves");

            let fast = repo.project(handle, &set).unwrap();
            let reference = repo.project_reference(handle, &set).unwrap();
            assert!(
                phylo::ops::isomorphic_with_lengths(&fast, &reference, 1e-9),
                "case {case}: projection of {set_size} leaves\nfast:\n{}\nreference:\n{}",
                phylo::render::ascii(&fast),
                phylo::render::ascii(&reference)
            );
        }
    }
}

#[test]
fn projection_matches_reference_on_dense_and_sparse_selections() {
    // Projection has one pair-LCA path (range minima over the depth
    // column) for every selection density: a two-leaf selection of a large
    // tree, mid-size selections, and selections of most leaves must all
    // match the label-walk reference.
    let tree = yule_tree(300, 1.0, 7);
    let (_d, repo, handle) = fresh_repo(&tree, 8, 1024);
    let leaves = repo.leaves(handle).unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    for take in [2usize, 5, 20, 150, 290] {
        let set: Vec<StoredNodeId> = leaves.choose_multiple(&mut rng, take).copied().collect();
        let fast = repo.project(handle, &set).unwrap();
        let reference = repo.project_reference(handle, &set).unwrap();
        assert!(
            phylo::ops::isomorphic_with_lengths(&fast, &reference, 1e-9),
            "selection of {take} leaves"
        );
    }
}

#[test]
fn interval_paths_read_5x_fewer_pages_on_10k_leaf_tree() {
    let tree = yule_tree(10_000, 1.0, 42);
    let (_d, repo, handle) = fresh_repo(&tree, 16, 8192);
    let leaves = repo.leaves(handle).unwrap();
    let mut rng = StdRng::seed_from_u64(5);

    // --- minimal spanning clade over 32 random leaves ---
    let set: Vec<StoredNodeId> = leaves.choose_multiple(&mut rng, 32).copied().collect();

    repo.clear_cache().unwrap();
    repo.reset_buffer_stats();
    let fast = repo.minimal_spanning_clade(&set).unwrap();
    let fast_reads = repo.buffer_stats().page_reads();

    repo.clear_cache().unwrap();
    repo.reset_buffer_stats();
    let reference = repo.minimal_spanning_clade_reference(&set).unwrap();
    let reference_reads = repo.buffer_stats().page_reads();

    assert_eq!(fast.len(), reference.len());
    eprintln!("clade/32-leaves: interval {fast_reads} page reads, reference {reference_reads}");
    assert!(
        reference_reads >= 5 * fast_reads,
        "clade: interval path read {fast_reads} pages, reference read {reference_reads} — \
         expected ≥5× improvement"
    );

    // --- projection of 1000 evenly spread leaves (dense scan path) ---
    let step = leaves.len() / 1000;
    let sample: Vec<StoredNodeId> = leaves.iter().step_by(step.max(1)).copied().collect();

    repo.clear_cache().unwrap();
    repo.reset_buffer_stats();
    let fast = repo.project(handle, &sample).unwrap();
    let fast_reads = repo.buffer_stats().page_reads();

    repo.clear_cache().unwrap();
    repo.reset_buffer_stats();
    let reference = repo.project_reference(handle, &sample).unwrap();
    let reference_reads = repo.buffer_stats().page_reads();

    assert!(phylo::ops::isomorphic_with_lengths(&fast, &reference, 1e-9));
    eprintln!(
        "projection/1000-leaves: interval {fast_reads} page reads, reference {reference_reads}"
    );
    assert!(
        reference_reads >= 5 * fast_reads,
        "projection: interval path read {fast_reads} pages, reference read {reference_reads} — \
         expected ≥5× improvement"
    );
}

#[test]
fn repository_scan_stays_within_pool_capacity() {
    // A pool far smaller than the repository file: scanning every node must
    // complete, keep residency bounded, and evict.
    let tree = yule_tree(2_000, 1.0, 11);
    let (_d, repo, handle) = fresh_repo(&tree, 8, 64);
    let (_, capacity) = repo.buffer_utilization();
    assert_eq!(capacity, 64);

    let rec = repo.tree_record(handle).unwrap();
    let clade = repo.minimal_spanning_clade(&[rec.root]).unwrap();
    assert_eq!(clade.len() as u64, rec.node_count);
    // Touch every node row, sweeping the whole heap through the small pool.
    for &node in &clade {
        let _ = repo.node_record(node).unwrap();
        let (resident, capacity) = repo.buffer_utilization();
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
    let (_d, repo, handle) = fresh_repo(&tree, 8, 1024);
    let leaves = repo.leaves(handle).unwrap();
    let ((_, _), _) = repo.record_cache_stats();
    // First projection warms the cache; the second is served from it.
    let sample: Vec<StoredNodeId> = leaves.iter().step_by(3).copied().collect();
    let _ = repo.project(handle, &sample).unwrap();
    let ((_, misses_after_first), _) = repo.record_cache_stats();
    let _ = repo.project(handle, &sample).unwrap();
    let ((hits, misses_after_second), len) = repo.record_cache_stats();
    assert_eq!(
        misses_after_first, misses_after_second,
        "second identical projection must not decode any new rows"
    );
    assert!(hits > 0);
    assert!(len > 0);
}
