//! Integration tests for the persistent experiment subsystem: full-grid
//! sweeps surviving close/reopen, spec-level determinism across worker
//! counts, and crash injection mid-experiment-commit.

use crimson::experiment::cell_seed;
use crimson::prelude::*;
use simulation::gold::{GoldStandard, GoldStandardBuilder};
use simulation::seqevo::Model;
use storage::CrashPoint;
use tempfile::tempdir;

fn build_gold(leaves: usize, sites: usize, seed: u64) -> GoldStandard {
    GoldStandardBuilder::new()
        .leaves(leaves)
        .sequence_length(sites)
        .model(Model::Jc69 { rate: 0.1 })
        .seed(seed)
        .build()
        .unwrap()
}

fn opts() -> RepositoryOptions {
    RepositoryOptions {
        frame_depth: 8,
        buffer_pool_pages: 1024,
        ..Default::default()
    }
}

fn grid_spec(name: &str, seed: u64, workers: usize) -> ExperimentSpec {
    ExperimentSpec {
        name: name.to_string(),
        methods: vec![Method::Upgma, Method::NeighborJoining],
        strategies: vec![
            SamplingStrategy::Uniform { k: 8 },
            SamplingStrategy::Uniform { k: 12 },
            // A generous age keeps the whole tree below the frontier, so
            // the draw always has enough species.
            SamplingStrategy::TimeRespecting { time: 1e6, k: 10 },
        ],
        replicates: 3,
        distance_source: DistanceSource::SequencesJc,
        compute_triplets: false,
        seed,
        workers,
        cell_commits: false,
    }
}

/// Collect the comparable footprint of an experiment: per-result metrics
/// plus each result's (size, agrees) clade rows.
#[allow(clippy::type_complexity)]
fn footprint(
    repo: &Repository,
    experiment: u64,
) -> Vec<(
    String,
    usize,
    usize,
    u64,
    usize,
    (usize, usize, usize),
    (usize, usize, usize),
    Vec<(u32, bool)>,
)> {
    repo.view()
        .experiment_results(experiment)
        .unwrap()
        .iter()
        .map(|r| {
            let clades: Vec<(u32, bool)> = repo
                .view()
                .experiment_clades(r.id)
                .unwrap()
                .iter()
                .map(|c| (c.size, c.agrees))
                .collect();
            (
                r.method.name().to_string(),
                r.strategy_index,
                r.replicate,
                r.cell_seed,
                r.sample_size,
                (r.rf.distance, r.rf.max_distance, r.rf.shared),
                (
                    r.rooted_rf.distance,
                    r.rooted_rf.max_distance,
                    r.rooted_rf.shared,
                ),
                clades,
            )
        })
        .collect()
}

#[test]
fn full_grid_sweep_survives_close_and_reopen() {
    let gold = build_gold(64, 300, 41);
    let dir = tempdir().unwrap();
    let path = dir.path().join("exp.crimson");
    let spec = grid_spec("grid", 2026, 4);
    let (exp_id, before, handle) = {
        let mut repo = Repository::create(&path, opts()).unwrap();
        let handle = repo.load_gold_standard("gold", &gold).unwrap();
        let record = ExperimentRunner::new(&mut repo, handle).run(&spec).unwrap();
        assert_eq!(record.runs, 18, "2 methods × 3 samplings × 3 replicates");
        let before = footprint(&repo, record.id);
        repo.view().integrity_check().unwrap();
        repo.flush().unwrap();
        (record.id, before, handle)
    };

    let repo = Repository::open(&path, opts()).unwrap();
    let report = repo.view().integrity_check().unwrap();
    assert_eq!(report.experiments, 1);
    assert_eq!(report.experiment_results, 18);
    assert!(report.experiment_clades > 0);
    // 1 gold + 18 reconstructions.
    assert_eq!(repo.view().list_trees().unwrap().len(), 19);

    let record = repo.view().experiment_by_name("grid").unwrap();
    assert_eq!(record.id, exp_id);
    assert_eq!(record.gold, handle);
    assert_eq!(record.spec.methods, spec.methods);
    assert_eq!(record.spec.strategies, spec.strategies);
    assert_eq!(record.seed, 2026);
    assert_eq!(
        footprint(&repo, exp_id),
        before,
        "metrics changed on reopen"
    );

    // Every reconstruction is a first-class stored tree: queryable and
    // comparable through the interval index.
    let results = repo.view().experiment_results(exp_id).unwrap();
    for r in &results {
        let tree = repo.view().tree_record(r.recon).unwrap();
        assert_eq!(tree.leaf_count as usize, r.sample_size);
        let leaves = repo.view().leaves(r.recon).unwrap();
        let projection = repo.view().project(r.recon, &leaves).unwrap();
        assert_eq!(projection.leaf_count(), r.sample_size);
        // Index-native self-comparison of a stored reconstruction is exact.
        let self_cmp = repo.view().compare_stored(r.recon, r.recon, false).unwrap();
        assert_eq!(self_cmp.rf.distance, 0);
    }
    // Snapshot readers see the whole catalog too.
    let reader = repo.reader().unwrap();
    assert_eq!(
        reader.read(|v| v.experiment_by_name("grid")).unwrap().id,
        exp_id
    );
    assert_eq!(reader.experiment_results(exp_id).unwrap().len(), 18);
    assert!(!reader
        .read(|v| v.experiment_clades(results[0].id))
        .unwrap()
        .is_empty());

    // The history entry carries spec, seed and tree handles, fetchable like
    // every other kind.
    let history = repo.view().history_of_kind(QueryKind::Experiment).unwrap();
    assert_eq!(history.len(), 1);
    let entry = repo.view().history_entry(history[0].id).unwrap();
    assert_eq!(entry.params["name"], "grid");
    assert_eq!(entry.params["seed"], 2026);
    assert_eq!(entry.params["gold_tree"], handle.0);
    assert_eq!(entry.params["spec"]["replicates"], 3);
    assert_eq!(entry.params["recon_trees"].as_array().unwrap().len(), 18);
    assert_eq!(entry.params["result_ids"].as_array().unwrap().len(), 18);
}

#[test]
fn same_spec_twice_produces_identical_metrics() {
    let gold = build_gold(48, 200, 7);
    let dir = tempdir().unwrap();
    let mut repo = Repository::create(dir.path().join("det.crimson"), opts()).unwrap();
    let handle = repo.load_gold_standard("gold", &gold).unwrap();

    // Same seed, different names AND different worker counts: neither the
    // grid name nor the parallel schedule may leak into the metrics.
    let mut first = grid_spec("first", 99, 1);
    first.compute_triplets = true;
    let mut second = grid_spec("second", 99, 4);
    second.compute_triplets = true;
    let a = ExperimentRunner::new(&mut repo, handle)
        .run(&first)
        .unwrap();
    let b = ExperimentRunner::new(&mut repo, handle)
        .run(&second)
        .unwrap();

    let fa = footprint(&repo, a.id);
    let fb = footprint(&repo, b.id);
    assert_eq!(fa, fb, "same spec must reproduce identical metrics");
    // Triplets too (not part of the footprint tuple).
    let ra = repo.view().experiment_results(a.id).unwrap();
    let rb = repo.view().experiment_results(b.id).unwrap();
    for (x, y) in ra.iter().zip(&rb) {
        assert_eq!(x.triplet, y.triplet);
    }
    // And a third run through `rerun` reproduces them again.
    let c = ExperimentRunner::new(&mut repo, handle)
        .rerun("first", "third")
        .unwrap();
    assert_eq!(footprint(&repo, c.id), fa);
}

#[test]
fn cell_seeds_differ_across_replicates_and_methods() {
    // The reproducibility contract: every cell draws from its own derived
    // seed, so replicates are independent yet reproducible.
    let gold = build_gold(64, 120, 3);
    let dir = tempdir().unwrap();
    let mut repo = Repository::create(dir.path().join("seeds.crimson"), opts()).unwrap();
    let handle = repo.load_gold_standard("gold", &gold).unwrap();
    let spec = ExperimentSpec {
        name: "seeds".to_string(),
        methods: vec![Method::NeighborJoining],
        strategies: vec![SamplingStrategy::Uniform { k: 10 }],
        replicates: 4,
        distance_source: DistanceSource::SequencesJc,
        compute_triplets: false,
        seed: 5,
        workers: 2,
        cell_commits: false,
    };
    let record = ExperimentRunner::new(&mut repo, handle).run(&spec).unwrap();
    let results = repo.view().experiment_results(record.id).unwrap();
    assert_eq!(results.len(), 4);
    let mut samples = std::collections::HashSet::new();
    for (ri, r) in results.iter().enumerate() {
        assert_eq!(r.cell_seed, cell_seed(5, 0, ri));
        // Different replicate seeds draw different samples (the leaves of
        // the stored reconstructions differ).
        let mut names = repo
            .view()
            .names_of(&repo.view().leaves(r.recon).unwrap())
            .unwrap();
        names.sort();
        samples.insert(names);
    }
    assert!(
        samples.len() > 1,
        "replicates must draw distinct samples, got {samples:?}"
    );
}

#[test]
fn cell_commits_sweep_matches_single_transaction_sweep() {
    // The incremental path (one group commit per cell + a finalizing
    // transaction) must persist exactly the same grid as the one-shot
    // transaction, and leave the same queryable record behind.
    let gold = build_gold(64, 200, 53);
    let dir = tempdir().unwrap();
    let path = dir.path().join("cells.crimson");
    let (mono_fp, cells_fp, cells_id) = {
        let mut repo = Repository::create(&path, opts()).unwrap();
        let handle = repo.load_gold_standard("gold", &gold).unwrap();
        let mono = grid_spec("mono", 77, 2);
        let mut cells = grid_spec("cells", 77, 2);
        cells.cell_commits = true;
        let a = ExperimentRunner::new(&mut repo, handle).run(&mono).unwrap();
        let b = ExperimentRunner::new(&mut repo, handle)
            .run(&cells)
            .unwrap();
        assert_eq!(a.runs, b.runs, "both sweeps cover the full grid");
        let record = repo.view().experiment_by_name("cells").unwrap();
        assert_eq!(record.runs, 18, "final row replaces the provisional one");
        assert!(record.wall_ms > 0.0, "final row carries the measured time");
        repo.view().integrity_check().unwrap();
        (footprint(&repo, a.id), footprint(&repo, b.id), b.id)
    };
    assert_eq!(
        mono_fp, cells_fp,
        "cell commits must not change the metrics"
    );

    // Reopen without flush: every per-cell group commit was durable.
    let repo = Repository::open(&path, opts()).unwrap();
    repo.view().integrity_check().unwrap();
    assert_eq!(footprint(&repo, cells_id), cells_fp);
    assert_eq!(
        repo.view()
            .history_of_kind(QueryKind::Experiment)
            .unwrap()
            .len(),
        2
    );
}

#[test]
fn crash_mid_cell_commits_sweep_keeps_committed_prefix() {
    // With per-cell commits an interrupted sweep is *not* all-or-nothing —
    // that is the point: the committed prefix of cells survives, anchored
    // by the provisional experiment row, and the integrity check stays
    // green. A retry under a fresh name completes the study.
    let gold = build_gold(96, 150, 17);
    let dir = tempdir().unwrap();
    let path = dir.path().join("crash-cells.crimson");
    let small = RepositoryOptions {
        frame_depth: 8,
        buffer_pool_pages: 32,
        ..Default::default()
    };
    let mut spec = ExperimentSpec {
        name: "doomed".to_string(),
        methods: vec![Method::Upgma, Method::NeighborJoining],
        strategies: vec![SamplingStrategy::Uniform { k: 24 }],
        replicates: 3,
        distance_source: DistanceSource::SequencesJc,
        compute_triplets: false,
        seed: 23,
        workers: 2,
        cell_commits: true,
    };
    let handle;
    {
        let mut repo = Repository::create(&path, small.clone()).unwrap();
        handle = repo.load_gold_standard("gold", &gold).unwrap();
        repo.flush().unwrap();
        // Deep enough that the provisional row and some cells commit first.
        repo.inject_crash(CrashPoint::WalAppend(60));
        let run = ExperimentRunner::new(&mut repo, handle).run(&spec);
        assert!(run.is_err(), "injected crash must interrupt the sweep");
        // Crash: drop without flush (the in-process cleanup also died).
    }

    let mut repo = Repository::open(&path, small).unwrap();
    repo.recovery_report().expect("reopen reports recovery");
    let report = repo.view().integrity_check().unwrap();
    assert_eq!(
        report.experiments, 1,
        "the provisional row anchors the prefix"
    );
    assert!(
        (report.experiment_results as usize) < 6,
        "the crash must interrupt before the grid completes"
    );
    let record = repo.view().experiment_by_name("doomed").unwrap();
    let committed = repo.view().experiment_results(record.id).unwrap();
    assert_eq!(committed.len() as u64, report.experiment_results);
    for r in &committed {
        // Each committed cell is complete: metrics, clade rows and a
        // queryable reconstruction landed in its own group commit.
        assert!(!repo.view().experiment_clades(r.id).unwrap().is_empty());
        assert_eq!(
            repo.view().leaves(r.recon).unwrap().len(),
            r.sample_size,
            "committed cell's reconstruction must be intact"
        );
    }

    // The study completes under a fresh name on the recovered repository.
    spec.name = "retry".to_string();
    let retry = ExperimentRunner::new(&mut repo, handle).run(&spec).unwrap();
    assert_eq!(retry.runs, 6);
    let after = repo.view().integrity_check().unwrap();
    assert_eq!(after.experiments, 2);
    assert_eq!(after.experiment_results as usize, 6 + committed.len());
}

/// Arm a crash point, attempt a sweep (it must fail), "die" without
/// flushing, reopen and verify that recovery leaves no trace of the
/// experiment; then retry the identical sweep successfully.
fn crash_scenario(point: CrashPoint, label: &str) {
    let gold = build_gold(96, 150, 17);
    let dir = tempdir().unwrap();
    let path = dir.path().join(format!("crash-{label}.crimson"));
    let small = RepositoryOptions {
        frame_depth: 8,
        // A tiny pool forces evictions mid-sweep so data-write crash
        // points land on the steal path as well as the commit path.
        buffer_pool_pages: 32,
        ..Default::default()
    };
    let spec = ExperimentSpec {
        name: "doomed".to_string(),
        methods: vec![Method::Upgma, Method::NeighborJoining],
        strategies: vec![SamplingStrategy::Uniform { k: 24 }],
        replicates: 3,
        distance_source: DistanceSource::SequencesJc,
        compute_triplets: false,
        seed: 23,
        workers: 2,
        cell_commits: false,
    };
    let handle;
    {
        let mut repo = Repository::create(&path, small.clone()).unwrap();
        handle = repo.load_gold_standard("gold", &gold).unwrap();
        repo.flush().unwrap();
        repo.inject_crash(point);
        let run = ExperimentRunner::new(&mut repo, handle).run(&spec);
        assert!(run.is_err(), "{label}: injected crash must interrupt");
        // Crash: drop without flush.
    }

    let mut repo = Repository::open(&path, small).unwrap();
    repo.recovery_report()
        .expect("reopen after crash reports recovery");
    let report = repo.view().integrity_check().unwrap();
    assert_eq!(report.experiments, 0, "{label}: no orphan experiment row");
    assert_eq!(report.experiment_results, 0, "{label}: no orphan results");
    assert_eq!(report.experiment_clades, 0, "{label}: no orphan clade rows");
    assert_eq!(
        repo.view().list_trees().unwrap().len(),
        1,
        "{label}: no orphan reconstructed tree"
    );
    assert!(
        repo.view()
            .history_of_kind(QueryKind::Experiment)
            .unwrap()
            .is_empty(),
        "{label}: no orphan history entry"
    );

    // The retried run succeeds and persists the full grid.
    let record = ExperimentRunner::new(&mut repo, handle).run(&spec).unwrap();
    assert_eq!(record.runs, 6);
    let after = repo.view().integrity_check().unwrap();
    assert_eq!(after.experiments, 1);
    assert_eq!(after.experiment_results, 6);
    assert!(after.experiment_clades > 0);
}

#[test]
fn crash_at_wal_append_mid_commit_leaves_no_orphans() {
    crash_scenario(CrashPoint::WalAppend(5), "wal-append");
}

#[test]
fn crash_at_data_write_mid_sweep_leaves_no_orphans() {
    crash_scenario(CrashPoint::DataWrite(3), "data-write");
}

#[test]
fn crash_at_checkpoint_truncate_after_sweep_keeps_the_experiment() {
    // A crash at checkpoint truncation happens *after* the commit: the
    // experiment must survive recovery intact.
    let gold = build_gold(32, 120, 29);
    let dir = tempdir().unwrap();
    let path = dir.path().join("crash-ckpt.crimson");
    let spec = ExperimentSpec {
        name: "survivor".to_string(),
        methods: vec![Method::NeighborJoining],
        strategies: vec![SamplingStrategy::Uniform { k: 8 }],
        replicates: 2,
        distance_source: DistanceSource::SequencesJc,
        compute_triplets: false,
        seed: 31,
        workers: 2,
        cell_commits: false,
    };
    let (exp_id, before) = {
        let mut repo = Repository::create(&path, opts()).unwrap();
        let handle = repo.load_gold_standard("gold", &gold).unwrap();
        let record = ExperimentRunner::new(&mut repo, handle).run(&spec).unwrap();
        let before = footprint(&repo, record.id);
        repo.inject_crash(CrashPoint::CheckpointTruncate);
        assert!(repo.flush().is_err(), "injected checkpoint crash");
        (record.id, before)
        // Crash: drop without a successful flush.
    };
    let repo = Repository::open(&path, opts()).unwrap();
    repo.view().integrity_check().unwrap();
    assert_eq!(
        repo.view().experiment_by_name("survivor").unwrap().id,
        exp_id
    );
    assert_eq!(footprint(&repo, exp_id), before);
}
