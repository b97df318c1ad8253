//! Range-minimum LCA over the stored pre-order depth column.
//!
//! * Property tests: `lca` equals the in-memory `Tree::lca` on random
//!   birth–death trees, a depth-10k caterpillar, balanced trees and 1- and
//!   2-node trees, for trees written by every store path (`load_tree`,
//!   and `store_tree_dedup` hits and misses). On the same trees
//!   `children`, `leaves` and `leaves_under` answer the in-memory tree in
//!   pre-order.
//! * Cost test: on the caterpillar, the deepest pair's LCA makes no more
//!   buffer-pool page accesses than a shallow pair's, plus a small
//!   constant.

mod common;

use common::{check_topology, sid, Oracle};
use crimson::prelude::*;
use phylo::builder::{balanced_binary, caterpillar};
use phylo::{NodeId, Tree};
use rand::prelude::*;
use simulation::birth_death::{birth_death_tree, yule_tree, BirthDeathConfig};
use tempfile::tempdir;

fn fresh_repo(pages: usize) -> (tempfile::TempDir, Repository) {
    let dir = tempdir().unwrap();
    let repo = Repository::create(
        dir.path().join("rmq.crimson"),
        RepositoryOptions {
            buffer_pool_pages: pages,
            ..Default::default()
        },
    )
    .unwrap();
    (dir, repo)
}

/// Check `lca` and `is_ancestor` against the in-memory tree on `pairs`
/// drawn from the nodes `present`.
fn check_pairs(
    repo: &Repository,
    handle: TreeHandle,
    tree: &Tree,
    present: &[NodeId],
    pairs: usize,
) {
    let mut rng = StdRng::seed_from_u64(handle.0 ^ tree.node_count() as u64);
    let check = |a: NodeId, b: NodeId| {
        let want = tree.lca(a, b);
        assert_eq!(
            repo.view().lca(sid(handle, a), sid(handle, b)).unwrap(),
            sid(handle, want),
            "lca({a:?}, {b:?}) of a {}-node tree",
            tree.node_count()
        );
        assert_eq!(
            repo.view()
                .is_ancestor(sid(handle, a), sid(handle, b))
                .unwrap(),
            want == a
        );
    };
    if present.len() * present.len() <= pairs {
        for &a in present {
            for &b in present {
                check(a, b);
            }
        }
    } else {
        for _ in 0..pairs {
            check(
                present[rng.gen_range(0..present.len())],
                present[rng.gen_range(0..present.len())],
            );
        }
    }
}

fn all_nodes(tree: &Tree) -> Vec<NodeId> {
    (0..tree.node_count() as u32).map(NodeId).collect()
}

fn one_node_tree() -> Tree {
    let mut t = Tree::new();
    t.add_named_node("solo");
    t
}

fn two_node_tree() -> Tree {
    let mut t = Tree::new();
    let root = t.add_node();
    t.add_child(root, Some("only".into()), Some(1.0)).unwrap();
    t
}

#[test]
fn rmq_lca_matches_in_memory_lca_on_many_shapes() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut trees: Vec<Tree> = vec![
        one_node_tree(),
        two_node_tree(),
        balanced_binary(1, 1.0),
        balanced_binary(6, 0.5),
        balanced_binary(10, 0.5),
        caterpillar(10_000, 0.1),
    ];
    for case in 0..12 {
        trees.push(birth_death_tree(
            &BirthDeathConfig {
                leaves: rng.gen_range(2usize..600),
                birth_rate: 1.0,
                death_rate: if case % 2 == 0 { 0.0 } else { 0.4 },
                prune_extinct: case % 3 != 0,
                ..BirthDeathConfig::default()
            }
            .with_seed(rng.gen_range(0u64..10_000)),
        ));
    }
    let (_d, mut repo) = fresh_repo(2048);
    for (i, tree) in trees.iter().enumerate() {
        let handle = repo.load_tree(&format!("t{i}"), tree).unwrap();
        check_pairs(&repo, handle, tree, &all_nodes(tree), 400);
    }
    // The deepest caterpillar nodes: every pair among the last 120 arena
    // ids (the bottom of the spine and its leaves).
    let cat = &trees[5];
    let handle = repo.view().tree_by_name("t5").unwrap().handle;
    let bottom: Vec<NodeId> = all_nodes(cat).into_iter().rev().take(120).collect();
    check_pairs(&repo, handle, cat, &bottom, usize::MAX);
    let report = repo.view().integrity_check().unwrap();
    assert_eq!(report.trees, trees.len() as u64);
    assert!(report.depth_blocks >= trees.len() as u64);
}

#[test]
fn every_store_path_writes_a_usable_depth_column() {
    let (_d, mut repo) = fresh_repo(2048);
    let tree = yule_tree(500, 1.0, 11);
    let nodes = all_nodes(&tree);

    let bulk = repo.load_tree("bulk", &tree).unwrap();
    check_pairs(&repo, bulk, &tree, &nodes, 600);

    // Dedup: a fresh tree is stored in full, an identical one resolves to
    // the canonical handle; both answer through their depth column.
    let other = yule_tree(300, 1.0, 12);
    let (fresh, hit) = repo.store_tree_dedup("fresh", &other).unwrap();
    assert!(!hit);
    check_pairs(&repo, fresh, &other, &all_nodes(&other), 600);
    let (again, hit) = repo.store_tree_dedup("again", &other).unwrap();
    assert!(hit);
    assert_eq!(again, fresh);
    check_pairs(&repo, again, &other, &all_nodes(&other), 100);

    // Children and leaves answer the in-memory tree on every path.
    for (handle, t) in [(bulk, &tree), (fresh, &other)] {
        check_topology(&repo, &Oracle::new(handle, t));
    }

    // Projections through every path agree with the in-memory projection.
    for (handle, t) in [(bulk, &tree), (fresh, &other)] {
        let names = t.leaf_names();
        let pick: Vec<&str> = names.iter().step_by(7).map(|s| s.as_str()).collect();
        let expected = phylo::ops::project_by_names(t, &pick).unwrap();
        let got = repo.view().project_species(handle, &pick).unwrap();
        assert!(phylo::ops::isomorphic_with_lengths(&got, &expected, 1e-9));
    }
    repo.view().integrity_check().unwrap();
}

#[test]
fn depth_column_survives_reopen_and_serves_snapshot_readers() {
    let dir = tempdir().unwrap();
    let path = dir.path().join("reopen.crimson");
    let tree = yule_tree(400, 1.0, 3);
    let handle = {
        let mut repo = Repository::create(&path, RepositoryOptions::default()).unwrap();
        let h = repo.load_tree("t", &tree).unwrap();
        repo.flush().unwrap();
        h
    };
    let repo = Repository::open(&path, RepositoryOptions::default()).unwrap();
    check_pairs(&repo, handle, &tree, &all_nodes(&tree), 300);
    let reader = repo.reader().unwrap();
    for (a, b) in [(1u32, 700u32), (5, 6), (0, 798), (400, 12)] {
        let (a, b) = (NodeId(a), NodeId(b));
        assert_eq!(
            reader.lca(sid(handle, a), sid(handle, b)).unwrap(),
            sid(handle, tree.lca(a, b))
        );
    }
}

#[test]
fn deepest_pair_lca_costs_no_more_page_accesses_than_a_shallow_pair() {
    let depth = 10_000;
    let tree = caterpillar(depth, 0.1);
    let (_d, mut repo) = fresh_repo(4096);
    let handle = repo.load_tree("cat", &tree).unwrap();
    let leaf = |i: usize| {
        repo.view()
            .require_species_node(handle, &format!("L{i}"))
            .unwrap()
    };
    // L{depth-1} and L{depth} hang off the deepest spine node (depth
    // 9,999); L0 and L1 meet at the root; L0 and L{depth} span every rank.
    let deepest = (leaf(depth - 1), leaf(depth));
    let shallow = (leaf(0), leaf(1));
    let widest = (leaf(0), leaf(depth));
    let cost = |(a, b): (StoredNodeId, StoredNodeId)| {
        repo.clear_cache().unwrap();
        repo.pool().reset_stats();
        let lca = repo.view().lca(a, b).unwrap();
        let stats = repo.buffer_stats();
        (lca, stats.hits + stats.misses)
    };
    let (deep_lca, deep) = cost(deepest);
    let (root_lca, low) = cost(shallow);
    let (wide_lca, wide) = cost(widest);
    let rec = repo.view().node_record(deep_lca).unwrap();
    assert_eq!(rec.depth, depth as u64 - 1);
    assert_eq!(root_lca, repo.view().tree_record(handle).unwrap().root);
    assert_eq!(wide_lca, root_lca);
    eprintln!(
        "caterpillar({depth}) lca page accesses: deepest {deep}, shallow {low}, widest {wide}"
    );
    assert!(
        deep <= low + 4,
        "deepest pair read {deep} pages, shallow pair {low}"
    );
    assert!(
        wide <= low + 4,
        "widest pair read {wide} pages, shallow pair {low}"
    );
}
