//! Experiment E8 (correctness part) — the full CIPRes-style benchmarking
//! pipeline across crates: gold standard generation → repository load →
//! sampling → projection → reconstruction → comparison, plus persistence.

use crimson::experiment::{DistanceSource, EvalSpec, ExperimentRunner, Method};
use crimson::prelude::*;
use reconstruction::prelude::*;
use simulation::gold::GoldStandardBuilder;
use simulation::seqevo::Model;

fn build_gold(leaves: usize, sites: usize, seed: u64) -> simulation::gold::GoldStandard {
    GoldStandardBuilder::new()
        .leaves(leaves)
        .sequence_length(sites)
        .model(Model::Jc69 { rate: 0.1 })
        .seed(seed)
        .build()
        .unwrap()
}

#[test]
fn nj_on_true_distances_is_exact_through_the_whole_stack() {
    let gold = build_gold(200, 0, 11);
    let dir = tempfile::tempdir().unwrap();
    let mut repo =
        Repository::create(dir.path().join("e8.crimson"), RepositoryOptions::default()).unwrap();
    let handle = repo.load_gold_standard("gold", &gold).unwrap();

    let mut manager = ExperimentRunner::new(&mut repo, handle);
    for seed in 0..3u64 {
        let report = manager
            .evaluate(&EvalSpec {
                strategy: SamplingStrategy::Uniform { k: 40 },
                method: Method::NeighborJoining,
                distance_source: DistanceSource::TruePatristic,
                compute_triplets: false,
                seed,
            })
            .unwrap();
        assert_eq!(
            report.rf.distance, 0,
            "seed {seed}: NJ must be exact on true distances"
        );
        assert_eq!(report.sample_size, 40);
    }
}

#[test]
fn sequence_reconstruction_beats_random_baseline() {
    // NJ on JC-corrected sequence distances should share far more splits with
    // the truth than a random tree over the same taxa does.
    let gold = build_gold(100, 1000, 3);
    let dir = tempfile::tempdir().unwrap();
    let mut repo =
        Repository::create(dir.path().join("e8b.crimson"), RepositoryOptions::default()).unwrap();
    let handle = repo.load_gold_standard("gold", &gold).unwrap();

    let mut manager = ExperimentRunner::new(&mut repo, handle);
    let report = manager
        .evaluate(&EvalSpec {
            strategy: SamplingStrategy::Uniform { k: 32 },
            method: Method::NeighborJoining,
            distance_source: DistanceSource::SequencesJc,
            compute_triplets: false,
            seed: 9,
        })
        .unwrap();
    // A "random" comparison tree: reconstruct from a shuffled (wrong) set of
    // distances by comparing against a caterpillar over the same names.
    let mut names = report.reference.leaf_names();
    names.sort();
    let mut random_tree = phylo::Tree::new();
    let mut cur = random_tree.add_node();
    for (i, name) in names.iter().enumerate() {
        if i + 1 == names.len() {
            random_tree
                .add_child(cur, Some(name.clone()), Some(1.0))
                .unwrap();
        } else {
            random_tree
                .add_child(cur, Some(name.clone()), Some(1.0))
                .unwrap();
            cur = random_tree.add_child(cur, None, Some(1.0)).unwrap();
        }
    }
    let random_rf = robinson_foulds(&report.reference, &random_tree).unwrap();
    assert!(
        report.rf.normalized < random_rf.normalized,
        "NJ ({:.3}) must beat an arbitrary caterpillar ({:.3})",
        report.rf.normalized,
        random_rf.normalized
    );
    // And with 1000 sites it should actually be quite good.
    assert!(
        report.rf.normalized < 0.5,
        "got {:.3}",
        report.rf.normalized
    );
}

#[test]
fn upgma_vs_nj_headtohead_produces_reports_for_both() {
    let gold = build_gold(150, 400, 21);
    let dir = tempfile::tempdir().unwrap();
    let mut repo =
        Repository::create(dir.path().join("e8c.crimson"), RepositoryOptions::default()).unwrap();
    let handle = repo.load_gold_standard("gold", &gold).unwrap();
    let mut manager = ExperimentRunner::new(&mut repo, handle);
    let reports = manager
        .evaluate_methods(
            &EvalSpec {
                strategy: SamplingStrategy::Uniform { k: 24 },
                distance_source: DistanceSource::SequencesJc,
                compute_triplets: true,
                seed: 4,
                ..Default::default()
            },
            &[Method::Upgma, Method::NeighborJoining],
        )
        .unwrap();
    assert_eq!(reports.len(), 2);
    for report in &reports {
        assert_eq!(report.sample_size, 24);
        assert!(report.rf.normalized <= 1.0);
        assert!(report.triplet.unwrap() <= 1.0);
        assert_eq!(report.reference.leaf_count(), 24);
        assert_eq!(report.reconstruction.leaf_count(), 24);
    }
    // Both runs were recorded in the query repository.
    assert_eq!(
        repo.view()
            .history_of_kind(crimson::history::QueryKind::Benchmark)
            .unwrap()
            .len(),
        2
    );
}

#[test]
fn repository_persists_full_state_across_reopen() {
    let gold = build_gold(80, 100, 31);
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("persist.crimson");
    let handle;
    {
        let mut repo = Repository::create(&path, RepositoryOptions::default()).unwrap();
        handle = repo.load_gold_standard("gold", &gold).unwrap();
        let mut manager = ExperimentRunner::new(&mut repo, handle);
        manager
            .evaluate(&EvalSpec {
                strategy: SamplingStrategy::Uniform { k: 16 },
                method: Method::Upgma,
                distance_source: DistanceSource::SequencesP,
                compute_triplets: false,
                seed: 2,
            })
            .unwrap();
        repo.flush().unwrap();
    }
    // Reopen: tree, species, history all still there and queryable.
    let repo = Repository::open(&path, RepositoryOptions::default()).unwrap();
    let record = repo.view().tree_by_name("gold").unwrap();
    assert_eq!(record.handle, handle);
    assert_eq!(record.leaf_count, 80);
    assert_eq!(repo.view().species_count(handle).unwrap(), 80);
    assert_eq!(
        repo.view()
            .history_of_kind(crimson::history::QueryKind::Benchmark)
            .unwrap()
            .len(),
        1
    );
    // Structure queries still work from disk.
    let leaves = repo.view().leaves(handle).unwrap();
    let lca = repo
        .view()
        .lca(leaves[0], leaves[leaves.len() - 1])
        .unwrap();
    assert!(repo.view().is_ancestor(lca, leaves[0]).unwrap());
    let projection = repo.view().project(handle, &leaves[..10]).unwrap();
    assert_eq!(projection.leaf_count(), 10);
}

#[test]
fn gold_standard_nexus_roundtrip_through_repository() {
    // Export the gold standard to NEXUS text, load it through the loader, and
    // verify the stored tree matches the original.
    let gold = build_gold(40, 60, 17);
    let nexus_text = phylo::nexus::write(&gold.to_nexus());
    let dir = tempfile::tempdir().unwrap();
    let mut repo =
        Repository::create(dir.path().join("e8d.crimson"), RepositoryOptions::default()).unwrap();
    let report = repo
        .load_nexus_text("gold", &nexus_text, LoadMode::TreeWithSpecies)
        .unwrap();
    assert_eq!(report.species_loaded, 40);
    let stored = repo
        .view()
        .project(report.handle, &repo.view().leaves(report.handle).unwrap())
        .unwrap();
    assert!(phylo::ops::isomorphic(&stored, &gold.tree));
    // Sequences survived the roundtrip byte for byte.
    let names: Vec<String> = gold.sequences.keys().cloned().collect();
    let stored_seqs = repo.view().sequences_for(report.handle, &names).unwrap();
    assert_eq!(stored_seqs, gold.sequences);
}
