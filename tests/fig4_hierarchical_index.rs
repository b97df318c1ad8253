//! Experiment E2 — the paper's Figure 4: the layered index structure over
//! the Figure 1 tree, its source nodes, and the §2.1 worked LCA example,
//! both in the in-memory index and in the stored repository (which answers
//! LCA from its interval index and depth column, not from stored labels).

use crimson::prelude::*;
use labeling::prelude::*;
use phylo::builder::figure1_tree;
use phylo::NodeId;

#[test]
fn layered_structure_and_source_nodes() {
    let tree = figure1_tree();
    let index = HierarchicalDewey::build(&tree, 2);

    // With frame depth 2 the depth-3 tree cannot fit in one frame, so layer 0
    // has several frames and a layer above exists — the Figure 4 shape.
    let layer0 = index.layer(0);
    assert!(
        layer0.frame_count() > 1,
        "layer 0 must be decomposed into multiple subtrees"
    );
    assert!(
        index.layer_count() >= 2,
        "a layer-1 tree over the layer-0 subtrees must exist"
    );

    // Every split-off frame records its source node = the parent of its root
    // (the dotted edge from node 6 to node 3 in Figure 4).
    for fid in 0..layer0.frame_count() as u32 {
        let frame = layer0.frame(fid);
        match frame.source {
            Some(source) => {
                assert_eq!(tree.parent(NodeId(frame.root)), Some(NodeId(source)));
            }
            None => assert_eq!(NodeId(frame.root), tree.root_unchecked()),
        }
    }

    // Labels are bounded by f = 2: at most one local component.
    for node in tree.node_ids() {
        assert!(index.label(node).path.len() < 2);
    }
}

#[test]
fn worked_lca_example_across_layers() {
    // §2.1: LCA(Syn, Lla). Syn lives in the frame containing the root; Lla
    // in a split-off frame. The cross-layer procedure resolves the source
    // node and the answer is the tree root (node "1" in Figure 4).
    let tree = figure1_tree();
    let lla = tree.find_leaf_by_name("Lla").unwrap();
    let spy = tree.find_leaf_by_name("Spy").unwrap();
    let syn = tree.find_leaf_by_name("Syn").unwrap();
    for f in [2usize, 3] {
        let index = HierarchicalDewey::build(&tree, f);
        assert_eq!(index.lca(lla, syn), tree.root_unchecked(), "f={f}");
        assert_eq!(index.lca(lla, spy), tree.parent(lla).unwrap(), "f={f}");
        assert!(index.is_ancestor(tree.root_unchecked(), lla));
        assert!(!index.is_ancestor(syn, lla));
    }
}

#[test]
fn stored_lca_reproduces_worked_example() {
    let dir = tempfile::tempdir().unwrap();
    let mut repo = Repository::create(
        dir.path().join("e2.crimson"),
        RepositoryOptions {
            buffer_pool_pages: 256,
            ..Default::default()
        },
    )
    .unwrap();
    let tree = figure1_tree();
    let handle = repo.load_tree("fig1", &tree).unwrap();

    // The stored LCA reproduces the worked example.
    let lla = repo.view().require_species_node(handle, "Lla").unwrap();
    let syn = repo.view().require_species_node(handle, "Syn").unwrap();
    let lca = repo
        .view()
        .node_record(repo.view().lca(lla, syn).unwrap())
        .unwrap();
    assert_eq!(lca.depth, 0, "LCA(Lla, Syn) is the root");
    let spy = repo.view().require_species_node(handle, "Spy").unwrap();
    let lca = repo
        .view()
        .node_record(repo.view().lca(lla, spy).unwrap())
        .unwrap();
    assert_eq!(lca.depth, 2, "LCA(Lla, Spy) is their parent");
}

#[test]
fn stored_lca_agrees_with_all_schemes_on_simulated_tree() {
    // Cross-validation of every label scheme and the repository on one
    // simulated phylogeny.
    let tree = simulation::birth_death::yule_tree(150, 1.0, 5);
    let flat = FlatDewey::build(&tree);
    let hier = HierarchicalDewey::build(&tree, 4);
    let interval = IntervalLabels::build(&tree);

    let dir = tempfile::tempdir().unwrap();
    let mut repo = Repository::create(
        dir.path().join("e2b.crimson"),
        RepositoryOptions {
            buffer_pool_pages: 1024,
            ..Default::default()
        },
    )
    .unwrap();
    let handle = repo.load_tree("sim", &tree).unwrap();

    let leaves: Vec<NodeId> = tree.leaf_ids().collect();
    for i in (0..leaves.len()).step_by(13) {
        for j in (0..leaves.len()).step_by(17) {
            let (a, b) = (leaves[i], leaves[j]);
            let expected = tree.lca(a, b);
            assert_eq!(flat.lca(a, b), expected);
            assert_eq!(hier.lca(a, b), expected);
            assert_eq!(interval.lca(a, b), expected);
            let sa = repo
                .view()
                .require_species_node(handle, tree.name(a).unwrap())
                .unwrap();
            let sb = repo
                .view()
                .require_species_node(handle, tree.name(b).unwrap())
                .unwrap();
            let stored = repo
                .view()
                .node_record(repo.view().lca(sa, sb).unwrap())
                .unwrap();
            assert_eq!(stored.depth as usize, tree.depth(expected));
            assert!((stored.root_distance - tree.root_distance(expected)).abs() < 1e-9);
        }
    }
}
