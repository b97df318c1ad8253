//! Experiment E5 (correctness part) — sampling with respect to an
//! evolutionary time, §2.2 worked example: sampling four species at time 1
//! from the Figure 1 tree yields {Bha, Lla, Syn, Bsu} or {Bha, Spy, Syn, Bsu}.

use crimson::prelude::*;
use phylo::builder::figure1_tree;
use std::collections::HashSet;

fn repo() -> (tempfile::TempDir, Repository, TreeHandle) {
    let dir = tempfile::tempdir().unwrap();
    let mut repo = Repository::create(
        dir.path().join("e5.crimson"),
        RepositoryOptions {
            frame_depth: 2,
            buffer_pool_pages: 256,
            ..Default::default()
        },
    )
    .unwrap();
    let handle = repo.load_tree("fig1", &figure1_tree()).unwrap();
    (dir, repo, handle)
}

#[test]
fn frontier_is_the_papers_four_nodes() {
    let (_d, repo, handle) = repo();
    let frontier = repo.view().time_frontier(handle, 1.0).unwrap();
    assert_eq!(
        frontier.len(),
        4,
        "the paper lists exactly four frontier nodes"
    );
    let mut named: Vec<String> = Vec::new();
    let mut unnamed_depths = Vec::new();
    for node in frontier {
        let rec = repo.view().node_record(node).unwrap();
        match rec.name {
            Some(n) => named.push(n),
            None => unnamed_depths.push(rec.depth),
        }
    }
    named.sort();
    assert_eq!(named, vec!["Bha", "Bsu", "Syn"]);
    // The fourth node is x, the (unnamed) parent of Lla and Spy.
    assert_eq!(unnamed_depths, vec![2]);
}

#[test]
fn sampling_four_species_matches_paper_outcomes() {
    let (_d, repo, handle) = repo();
    let mut seen_lla = false;
    let mut seen_spy = false;
    for seed in 0..20u64 {
        let sample = repo.view().sample_by_time(handle, 1.0, 4, seed).unwrap();
        let names: HashSet<String> = repo.view().names_of(&sample).unwrap().into_iter().collect();
        assert_eq!(names.len(), 4);
        assert!(names.contains("Bha"));
        assert!(names.contains("Syn"));
        assert!(names.contains("Bsu"));
        let lla = names.contains("Lla");
        let spy = names.contains("Spy");
        assert!(lla ^ spy, "exactly one of Lla/Spy must be drawn: {names:?}");
        seen_lla |= lla;
        seen_spy |= spy;
    }
    // Over 20 seeds both outcomes listed in the paper occur.
    assert!(
        seen_lla && seen_spy,
        "both paper outcomes should appear across seeds"
    );
}

#[test]
fn uniform_sampling_covers_all_species_eventually() {
    let (_d, repo, handle) = repo();
    let mut seen: HashSet<String> = HashSet::new();
    for seed in 0..30u64 {
        let sample = repo.view().sample_uniform(handle, 2, seed).unwrap();
        seen.extend(repo.view().names_of(&sample).unwrap());
    }
    assert_eq!(
        seen.len(),
        5,
        "every species should be drawn across 30 two-species samples"
    );
}

#[test]
fn sample_then_project_then_compare_is_consistent() {
    // A miniature end-to-end loop on the Figure 1 tree: the projection of a
    // time-respecting sample matches the in-memory projection over the same
    // species.
    let (_d, repo, handle) = repo();
    let tree = figure1_tree();
    for seed in 0..5u64 {
        let sample = repo.view().sample_by_time(handle, 1.0, 4, seed).unwrap();
        let names = repo.view().names_of(&sample).unwrap();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let stored = repo.view().project(handle, &sample).unwrap();
        let expected = phylo::ops::project_by_names(&tree, &refs).unwrap();
        assert!(phylo::ops::isomorphic_with_lengths(
            &stored, &expected, 1e-9
        ));
    }
}
