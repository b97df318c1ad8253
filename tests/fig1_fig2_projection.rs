//! Experiment E1 — the paper's Figures 1 and 2: the sample phylogenetic tree
//! and its projection onto the leaf set {Bha, Lla, Syn}, exercised both
//! in memory and through the disk-backed repository.

use crimson::prelude::*;
use phylo::builder::figure1_tree;
use phylo::ops;

const FIG1_NEWICK: &str = "((Bha:0.75,(Lla:1.0,Spy:1.0):0.5):1.5,Syn:2.5,Bsu:1.25);";

#[test]
fn figure1_tree_matches_newick_form() {
    let built = figure1_tree();
    let parsed = phylo::newick::parse(FIG1_NEWICK).unwrap();
    assert!(ops::isomorphic_with_lengths(&built, &parsed, 1e-9));
    // Edge weights / cumulative evolutionary times from Figure 1.
    for (name, expected) in [
        ("Bha", 2.25),
        ("Lla", 3.0),
        ("Spy", 3.0),
        ("Syn", 2.5),
        ("Bsu", 1.25),
    ] {
        let leaf = built.find_leaf_by_name(name).unwrap();
        assert!(
            (built.root_distance(leaf) - expected).abs() < 1e-12,
            "{name}"
        );
    }
}

#[test]
fn figure2_projection_in_memory() {
    let tree = figure1_tree();
    let projection = ops::project_by_names(&tree, &["Bha", "Lla", "Syn"]).unwrap();
    // Figure 2: Bha keeps 0.75, Lla's two edges merge into 1.5, Syn keeps
    // 2.5, and the interior node keeps its 1.5 edge. 5 nodes total, no unary
    // nodes.
    assert_eq!(projection.leaf_count(), 3);
    assert_eq!(projection.node_count(), 5);
    assert!(ops::is_unary_free(&projection));
    let expected = phylo::newick::parse("((Bha:0.75,Lla:1.5):1.5,Syn:2.5);").unwrap();
    assert!(ops::isomorphic_with_lengths(&projection, &expected, 1e-9));
}

#[test]
fn figure2_projection_through_repository() {
    let dir = tempfile::tempdir().unwrap();
    let mut repo = Repository::create(
        dir.path().join("e1.crimson"),
        RepositoryOptions {
            frame_depth: 2,
            buffer_pool_pages: 256,
            ..Default::default()
        },
    )
    .unwrap();
    let handle = repo.load_newick("fig1", FIG1_NEWICK).unwrap().handle;
    let projection = repo
        .view()
        .project_species(handle, &["Bha", "Lla", "Syn"])
        .unwrap();
    let expected = phylo::newick::parse("((Bha:0.75,Lla:1.5):1.5,Syn:2.5);").unwrap();
    assert!(
        ops::isomorphic_with_lengths(&projection, &expected, 1e-9),
        "stored projection:\n{}",
        phylo::render::ascii(&projection)
    );
    // Projection preserves root-to-leaf evolutionary times.
    for (name, expected) in [("Bha", 2.25), ("Lla", 3.0), ("Syn", 2.5)] {
        let leaf = projection.find_leaf_by_name(name).unwrap();
        assert!(
            (projection.root_distance(leaf) - expected).abs() < 1e-9,
            "{name}"
        );
    }
}

#[test]
fn projection_roundtrips_through_nexus_output() {
    // §3 "Visualizing the results": projections can be emitted as NEXUS.
    let dir = tempfile::tempdir().unwrap();
    let mut repo = Repository::create(
        dir.path().join("e1b.crimson"),
        RepositoryOptions {
            frame_depth: 2,
            buffer_pool_pages: 256,
            ..Default::default()
        },
    )
    .unwrap();
    let handle = repo.load_newick("fig1", FIG1_NEWICK).unwrap().handle;
    let projection = repo
        .view()
        .project_species(handle, &["Bha", "Lla", "Syn"])
        .unwrap();
    let mut doc = phylo::nexus::NexusDocument::new();
    doc.push_tree("projection", projection.clone());
    let text = phylo::nexus::write(&doc);
    let parsed = phylo::nexus::parse(&text).unwrap();
    assert!(ops::isomorphic_with_lengths(
        &parsed.trees[0].tree,
        &projection,
        1e-6
    ));
}
