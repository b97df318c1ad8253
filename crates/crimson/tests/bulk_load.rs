//! Property tests for the loader: every tree `load_tree` stores must
//! answer every query the way an oracle over the in-memory tree does, and a
//! crash at any point inside a load must recover to the clean pre-load
//! state.
//!
//! The oracles are independent of the loader's single depth-first pass:
//! `labeling`'s parent pointers and interval labels, `phylo`'s own
//! traversals and projection, `labeling::tree_hashes` and the comparison
//! module's clade and split sets.

mod common;

use common::{arena, assert_same_projection, check_topology, node_records, sid, Oracle};
use crimson::prelude::*;
use crimson::repository::RepositoryOptions;
use labeling::IntervalLabels;
use phylo::Tree;
use rand::prelude::*;
use simulation::birth_death::{birth_death_tree, BirthDeathConfig};
use std::collections::HashSet;
use storage::CrashPoint;
use tempfile::tempdir;

fn options() -> RepositoryOptions {
    RepositoryOptions {
        buffer_pool_pages: 512,
        ..Default::default()
    }
}

/// A birth–death tree with mildly varied shape parameters.
fn birth_death(rng: &mut StdRng, leaves: usize, prune: bool) -> Tree {
    let death = if rng.gen_bool(0.5) { 0.0 } else { 0.3 };
    birth_death_tree(
        &BirthDeathConfig {
            leaves,
            birth_rate: 1.0,
            death_rate: death,
            prune_extinct: death > 0.0 && prune,
            ..BirthDeathConfig::default()
        }
        .with_seed(rng.gen()),
    )
}

/// A random birth–death tree of 8 to 59 extant leaves, extinct lineages
/// kept or pruned at random.
fn random_tree(rng: &mut StdRng) -> Tree {
    let leaves = rng.gen_range(8usize..60);
    let prune = rng.gen_bool(0.5);
    birth_death(rng, leaves, prune)
}

/// Check every answer the stored copy of `tree` under `handle` gives
/// against the in-memory oracles: topology, LCA and ancestry over sampled
/// node pairs, a spanning clade, a projection, every node's interval, clade
/// hash and row, and the content-address row.
fn check_against_oracles(
    repo: &Repository,
    handle: TreeHandle,
    tree: &Tree,
    rng: &mut StdRng,
    case: &str,
) {
    let view = repo.view();
    let oracle = Oracle::new(handle, tree);

    // Children, leaves and leaves_under at every node, in pre-order.
    check_topology(repo, &oracle);
    let leaves = oracle.leaves();
    let nodes = oracle.preorder();

    // LCA (the range minimum over the depth column) and ancestor tests
    // over sampled pairs of leaves and of any nodes.
    for i in 0..24 {
        let pool = if i % 2 == 0 { &leaves } else { &nodes };
        let a = *pool.choose(rng).unwrap();
        let b = *pool.choose(rng).unwrap();
        let lca = view.lca(a, b).unwrap();
        assert_eq!(lca, oracle.lca(a, b), "{case}: lca({a}, {b})");
        for (x, y) in [(a, b), (b, a), (lca, a), (lca, b)] {
            assert_eq!(
                view.is_ancestor(x, y).unwrap(),
                oracle.is_ancestor(x, y),
                "{case}: is_ancestor({x}, {y})"
            );
        }
    }

    // Minimal spanning clade of a random leaf subset.
    let set: Vec<StoredNodeId> = leaves
        .choose_multiple(rng, 4.min(leaves.len()))
        .copied()
        .collect();
    let mut clade = view.minimal_spanning_clade(&set).unwrap();
    clade.sort_unstable();
    assert_eq!(clade, oracle.spanning_clade(&set), "{case}: spanning clade");

    // Projection of an evenly spread leaf sample.
    let sample: Vec<StoredNodeId> = leaves.iter().step_by(3).copied().collect();
    if sample.len() >= 2 {
        let stored = view.project(handle, &sample).unwrap();
        assert_same_projection(&stored, &oracle.project(&sample), case);
    }

    // Every node's `(pre, end)` interval, its full row, and its clade hash
    // recomputed from the stored entries: the root first, then the rest.
    let intervals = IntervalLabels::build(tree);
    let records = node_records(handle, tree);
    for v in tree.node_ids() {
        let id = sid(handle, v);
        assert_eq!(
            view.interval_of(id).unwrap(),
            intervals.interval(v),
            "{case}: interval_of({id})"
        );
        assert_eq!(
            view.node_record(id).unwrap(),
            records[v.index()],
            "{case}: node_record({id})"
        );
    }
    let expected = labeling::tree_hashes(tree);
    let root = tree.root_unchecked();
    let stored = view.clade_hashes(handle).unwrap();
    assert_eq!(stored.len(), tree.node_count(), "{case}");
    assert_eq!(
        stored[0],
        (sid(handle, root), expected[root.index()]),
        "{case}"
    );
    for (id, hash) in stored {
        assert_eq!(hash, expected[arena(id).index()], "{case}: hash of {id}");
    }

    // The content address: root hash, the comparison module's own clade
    // and split counts, and the distinct-names flag.
    let stats = view.tree_stats(handle).unwrap();
    assert_eq!(stats.root_hash, expected[root.index()], "{case}: root hash");
    let names: HashSet<Option<&str>> = tree.leaf_ids().map(|l| tree.name(l)).collect();
    let distinct = !names.contains(&None) && names.len() == tree.leaf_count();
    assert_eq!(stats.distinct_leaves, distinct, "{case}: distinct leaves");
    if distinct && tree.leaf_count() >= 4 {
        let rooted = reconstruction::compare::rooted_robinson_foulds(tree, tree).unwrap();
        let unrooted = reconstruction::compare::robinson_foulds(tree, tree).unwrap();
        assert_eq!(stats.rooted_clades, rooted.shared as u64, "{case}: clades");
        assert_eq!(
            stats.unrooted_splits, unrooted.shared as u64,
            "{case}: splits"
        );
    }
    let record = view.tree_record(handle).unwrap();
    assert_eq!(record.root, sid(handle, root), "{case}: root");
    assert_eq!(record.node_count as usize, tree.node_count(), "{case}");
    assert_eq!(record.leaf_count as usize, tree.leaf_count(), "{case}");
}

/// Load 50 random trees into one repository and check each stored copy
/// against the in-memory oracles, then the whole file's integrity.
#[test]
fn bulk_loads_answer_like_in_memory_oracles_on_random_trees() {
    let dir = tempdir().unwrap();
    let mut repo = Repository::create(dir.path().join("bulk.crimson"), options()).unwrap();
    let mut rng = StdRng::seed_from_u64(20260727);
    let mut expected = IntegrityReport {
        trees: 50,
        ..Default::default()
    };
    for case in 0..50 {
        let tree = random_tree(&mut rng);
        let handle = repo.load_tree(&format!("tree-{case}"), &tree).unwrap();
        check_against_oracles(&repo, handle, &tree, &mut rng, &format!("case {case}"));
        let n = tree.node_count() as u64;
        expected.nodes += n;
        expected.interval_entries += n;
        // One depth block row per 256 pre-order ranks.
        expected.depth_blocks += n.div_ceil(256);
    }
    assert_eq!(repo.view().integrity_check().unwrap(), expected);
}

/// Eight loads of distinct topologies over one taxon set, with dedup hits
/// and misses between them. Every load after the first meets existing keys
/// in the `name`, `root_dist` and `subtree_height` indexes, so those runs
/// interleave and take the per-key fallback while `node_id` still
/// bulk-appends. Every stored tree still answers like its oracle, the file
/// passes the integrity check, and queries across trees refuse to mix.
#[test]
fn loads_over_one_taxon_set_interleave_with_existing_keys() {
    let dir = tempdir().unwrap();
    let mut repo = Repository::create(dir.path().join("shared.crimson"), options()).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let mut stored: Vec<(TreeHandle, Tree)> = Vec::new();
    for case in 0..8 {
        // Pruned or pure-birth: exactly the 40 extant taxa S0..S39.
        let tree = birth_death(&mut rng, 40, true);
        let handle = repo.load_tree(&format!("t{case}"), &tree).unwrap();
        stored.push((handle, tree));

        // A copy of an already stored tree resolves to it; a fresh
        // topology is stored in full.
        let (seen_handle, seen) = stored.choose(&mut rng).unwrap().clone();
        let (hit_handle, hit) = repo.store_tree_dedup(&format!("hit{case}"), &seen).unwrap();
        assert!(hit, "case {case}: an identical tree must dedup");
        assert_eq!(hit_handle, seen_handle, "case {case}");
        let fresh = birth_death(&mut rng, 40, true);
        let (fresh_handle, hit) = repo
            .store_tree_dedup(&format!("miss{case}"), &fresh)
            .unwrap();
        assert!(!hit, "case {case}: a new topology must not dedup");
        stored.push((fresh_handle, fresh));
    }
    for (i, (handle, tree)) in stored.iter().enumerate() {
        check_against_oracles(&repo, *handle, tree, &mut rng, &format!("tree {i}"));
    }
    assert_eq!(repo.view().integrity_check().unwrap().trees, 16);
    // Queries across distinct trees still refuse to mix.
    let l0 = repo.view().leaves(stored[0].0).unwrap()[0];
    let l1 = repo.view().leaves(stored[1].0).unwrap()[0];
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

/// The loader refuses an empty tree and a name already in use, and leaves
/// nothing behind.
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
