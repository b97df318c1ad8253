//! Fault matrix: randomized fault schedules crossed with representative
//! workloads. Under injected media faults every workload must either
//! complete correctly, fail with a typed error, or repair itself — never
//! panic, and never return wrong results (reads are cross-validated against
//! a fault-free rerun and the in-memory tree that was loaded).

mod common;

use common::Oracle;
use crimson::prelude::*;
use phylo::newick;
use simulation::birth_death::yule_tree;
use simulation::gold::GoldStandardBuilder;
use storage::{shared_schedule, FaultConfig, FaultSchedule, ScrubOptions, SharedFaultSchedule};
use tempfile::tempdir;

fn small_opts() -> RepositoryOptions {
    RepositoryOptions {
        buffer_pool_pages: 48,
        ..Default::default()
    }
}

fn tree_newick(leaves: usize, seed: u64) -> String {
    newick::write(&yule_tree(leaves, 1.0, seed))
}

/// Structure queries on the tree stored under `handle` must agree with
/// the Newick text it was loaded from.
fn cross_validate(repo: &Repository, handle: TreeHandle, newick_text: &str) {
    let oracle = Oracle::new(handle, &newick::parse(newick_text).unwrap());
    let leaves = repo.view().leaves(handle).expect("leaves");
    assert!(!leaves.is_empty());
    for i in 0..12usize {
        let a = leaves[(i * 7) % leaves.len()];
        let b = leaves[(i * 13 + 3) % leaves.len()];
        assert_eq!(repo.view().lca(a, b).expect("lca"), oracle.lca(a, b));
    }
    let sample: Vec<StoredNodeId> = leaves.iter().step_by(4).take(20).copied().collect();
    let mut clade = repo.view().minimal_spanning_clade(&sample).expect("clade");
    clade.sort_unstable();
    assert_eq!(clade, oracle.spanning_clade(&sample));
}

struct Baseline {
    base: TreeHandle,
    /// Newick text the base tree was loaded from.
    base_newick: String,
    gold: TreeHandle,
}

/// Create a clean repository with a committed base tree and gold standard.
fn build_baseline(path: &std::path::Path, seed: u64) -> (Repository, Baseline) {
    let mut repo = Repository::create(path, small_opts()).unwrap();
    let base_newick = tree_newick(90, seed | 1);
    let base = repo.load_newick("base", &base_newick).unwrap().handle;
    let gold_data = GoldStandardBuilder::new()
        .leaves(40)
        .sequence_length(60)
        .seed(seed | 1)
        .build()
        .unwrap();
    let gold = repo.load_gold_standard("gold", &gold_data).unwrap();
    repo.flush().unwrap();
    (
        repo,
        Baseline {
            base,
            base_newick,
            gold,
        },
    )
}

fn install_faults(repo: &Repository, seed: u64) -> SharedFaultSchedule {
    let schedule =
        shared_schedule(FaultSchedule::from_seed(seed, FaultConfig::light()).with_fault_budget(16));
    repo.pool()
        .install_fault_schedule(schedule.clone())
        .unwrap();
    schedule
}

/// After the faulty phase: the repository (in-process, faults disarmed)
/// must be scrubbable; if the scrub quarantines nothing, the catalog and
/// query paths must be fully intact. Then a fresh fault-free open of the
/// same file must come up clean, degraded, or fail typed — never panic.
fn assert_recoverable(repo: Repository, baseline: &Baseline, path: &std::path::Path) {
    if !repo.pool().is_poisoned() {
        let report = repo
            .scrub(ScrubOptions::default())
            .expect("scrub never panics");
        if report.pages.pages_quarantined == 0 {
            repo.view()
                .integrity_check()
                .expect("integrity on clean pages");
            cross_validate(&repo, baseline.base, &baseline.base_newick);
        }
    }
    drop(repo);

    match Repository::open(path, small_opts()) {
        Ok(reopened) => {
            let report = reopened.scrub(ScrubOptions::default()).expect("scrub");
            if report.pages.pages_quarantined == 0 {
                reopened
                    .view()
                    .integrity_check()
                    .expect("integrity after reopen");
            } else {
                // Persisted damage with no repair source left: the degraded
                // open must still produce a survey instead of panicking.
                drop(reopened);
                let (degraded, survey) =
                    Repository::open_degraded(path, small_opts()).expect("degraded open");
                assert!(degraded.pool().read_only());
                assert!(!degraded.pool().quarantined_pages().is_empty());
                let _ = survey.is_clean();
            }
        }
        Err(e) => {
            // A typed refusal is acceptable (e.g. a flipped WAL/header byte);
            // the degraded path may also refuse, but only with a typed error.
            let _ = format!("{e}");
            if let Ok((degraded, _survey)) = Repository::open_degraded(path, small_opts()) {
                assert!(degraded.pool().read_only());
            }
        }
    }
}

#[test]
fn bulk_load_under_fault_schedules() {
    for seed in [3u64, 17, 40, 71] {
        let dir = tempdir().unwrap();
        let path = dir.path().join("repo.crimson");
        let (mut repo, baseline) = build_baseline(&path, seed);
        let schedule = install_faults(&repo, seed);

        let mut loaded = Vec::new();
        for (i, leaves) in [120usize, 150, 180].iter().enumerate() {
            let nwk = tree_newick(*leaves, seed.wrapping_mul(31) + i as u64);
            match repo.load_newick(&format!("bulk-{i}"), &nwk) {
                Ok(report) => loaded.push((report.handle, nwk)),
                Err(e) => {
                    // Typed failure; the repository must stay consistent.
                    let _ = format!("{e}");
                    break;
                }
            }
        }
        schedule.lock().disarm();
        // Heal any latent damage first, then every successfully-loaded tree
        // must answer queries identically on both index paths.
        let report = repo.scrub(ScrubOptions::default()).expect("scrub");
        if report.pages.pages_quarantined == 0 {
            for (handle, nwk) in loaded {
                cross_validate(&repo, handle, &nwk);
            }
        }
        assert_recoverable(repo, &baseline, &path);
    }
}

#[test]
fn experiment_sweeps_under_fault_schedules() {
    for seed in [5u64, 23, 58] {
        let dir = tempdir().unwrap();
        let path = dir.path().join("repo.crimson");
        let (mut repo, baseline) = build_baseline(&path, seed);
        let schedule = install_faults(&repo, seed);

        let spec = ExperimentSpec {
            name: format!("sweep-{seed}"),
            methods: vec![Method::Upgma, Method::NeighborJoining],
            strategies: vec![SamplingStrategy::Uniform { k: 8 }],
            replicates: 2,
            distance_source: DistanceSource::SequencesJc,
            compute_triplets: false,
            seed,
            workers: 2,
            cell_commits: false,
        };
        let gold = baseline.gold;
        match ExperimentRunner::new(&mut repo, gold).run(&spec) {
            Ok(record) => {
                schedule.lock().disarm();
                let results = repo.view().experiment_results(record.id).expect("results");
                assert_eq!(results.len(), spec.methods.len() * spec.replicates);
            }
            Err(e) => {
                let _ = format!("{e}");
            }
        }
        schedule.lock().disarm();
        assert_recoverable(repo, &baseline, &path);
    }
}

#[test]
fn mixed_query_batches_under_fault_schedules() {
    for seed in [9u64, 33, 64] {
        let dir = tempdir().unwrap();
        let path = dir.path().join("repo.crimson");
        let (repo, baseline) = build_baseline(&path, seed);
        let leaves = repo.view().leaves(baseline.base).unwrap();
        let mut batch = QueryBatch::new();
        for i in 0..10usize {
            let a = leaves[(i * 5) % leaves.len()];
            let b = leaves[(i * 11 + 2) % leaves.len()];
            batch.push(BatchQuery::Lca(a, b));
            batch.push(BatchQuery::IsAncestor(a, b));
        }
        batch.push(BatchQuery::SpanningClade(
            leaves.iter().step_by(6).take(12).copied().collect(),
        ));

        let schedule = install_faults(&repo, seed);
        let faulty = batch.execute(&repo, 3).expect("batch dispatch");
        schedule.lock().disarm();
        let reference = batch.execute(&repo, 1).expect("reference batch");

        // Every answer produced under faults must match the fault-free
        // rerun; failures must be typed errors, never wrong answers.
        assert_eq!(faulty.len(), reference.len());
        for (i, (f, r)) in faulty.iter().zip(reference.iter()).enumerate() {
            match (f, r) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        format!("{a:?}"),
                        format!("{b:?}"),
                        "query {i} answer differs"
                    );
                }
                (Err(e), _) => {
                    let _ = format!("{e}");
                }
                (Ok(_), Err(e)) => panic!("reference rerun failed without faults: {e}"),
            }
        }
        assert_recoverable(repo, &baseline, &path);
    }
}

#[test]
fn repeated_checkpoints_under_fault_schedules() {
    for seed in [13u64, 47, 88] {
        let dir = tempdir().unwrap();
        let path = dir.path().join("repo.crimson");
        let (mut repo, baseline) = build_baseline(&path, seed);
        let schedule = install_faults(&repo, seed);

        for round in 0..3u64 {
            let nwk = tree_newick(40, seed.wrapping_mul(7) + round);
            let load = repo.load_newick(&format!("ckpt-{round}"), &nwk);
            let flush = repo.flush();
            if let Err(e) = load.map(|_| ()).and(flush) {
                let _ = format!("{e}");
                break;
            }
        }
        schedule.lock().disarm();
        assert_recoverable(repo, &baseline, &path);
    }
}
