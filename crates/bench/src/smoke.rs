//! Criterion-free smoke profile for the benchmark workloads.
//!
//! This module runs scaled-down versions of the scoreboard experiments (E4
//! structure queries, E6 projection, E7 pattern match) as plain functions
//! returning their page-read counters, and the `#[cfg(test)]` block below
//! bounds those counters in the ordinary test suite: `cargo test -p bench`
//! (or `--release` for truer timings) exercises every workload in seconds.
//! Every answer is checked against the in-memory tree the repository was
//! loaded from.

use crate::workloads;
use crimson::prelude::*;
use labeling::{IntervalLabels, LcaScheme};
use phylo::{NodeId, Tree};
use rand::prelude::*;

/// Buffer-pool page reads (hits + misses) of one structure-query workload,
/// run from a cold pool and cold caches.
#[derive(Debug, Clone, Copy)]
pub struct SmokeCost {
    /// Page reads on the interval-index / depth-column path.
    pub interval_reads: u64,
}

/// Arena node of a stored id: a node stored from arena node `n` of a tree
/// has id `(handle << 32) | n`.
fn arena(id: StoredNodeId) -> NodeId {
    NodeId(id.0 as u32)
}

/// E4 smoke: LCA + ancestor tests over random leaf pairs of a simulated
/// tree. Returns the page-read cost of the LCA batch.
pub fn structure_queries(leaves: usize, pairs: usize, seed: u64) -> SmokeCost {
    let tree = workloads::simulated_tree(leaves, seed);
    let (_dir, repo, handle) = workloads::repository_with_tree(&tree, 4096);
    let stored = repo.view().leaves(handle).expect("leaves");
    let mut rng = StdRng::seed_from_u64(seed);
    let pairs: Vec<(StoredNodeId, StoredNodeId)> = (0..pairs)
        .map(|_| {
            (
                *stored.choose(&mut rng).expect("non-empty"),
                *stored.choose(&mut rng).expect("non-empty"),
            )
        })
        .collect();

    repo.clear_cache().expect("clear cache");
    repo.pool().reset_stats();
    let mut answers = Vec::with_capacity(pairs.len());
    for &(a, b) in &pairs {
        let lca = repo.view().lca(a, b).expect("lca");
        assert!(repo.view().is_ancestor(lca, a).expect("ancestor test"));
        answers.push(lca);
    }
    let interval_reads = repo.buffer_stats().page_reads();
    for (&(a, b), lca) in pairs.iter().zip(answers) {
        let want = tree.lca(arena(a), arena(b));
        assert_eq!(lca.0, (handle.0 << 32) | want.0 as u64, "lca({a}, {b})");
    }
    SmokeCost { interval_reads }
}

/// E4 smoke: minimal spanning clade of random leaf sets.
pub fn spanning_clade(leaves: usize, set_size: usize, seed: u64) -> SmokeCost {
    let tree = workloads::simulated_tree(leaves, seed);
    let (_dir, repo, handle) = workloads::repository_with_tree(&tree, 4096);
    let stored = repo.view().leaves(handle).expect("leaves");
    let mut rng = StdRng::seed_from_u64(seed);
    let set: Vec<StoredNodeId> = stored
        .choose_multiple(&mut rng, set_size)
        .copied()
        .collect();

    repo.clear_cache().expect("clear cache");
    repo.pool().reset_stats();
    let mut clade = repo.view().minimal_spanning_clade(&set).expect("clade");
    let interval_reads = repo.buffer_stats().page_reads();

    let top = set
        .iter()
        .map(|&n| arena(n))
        .reduce(|a, b| tree.lca(a, b))
        .expect("non-empty set");
    let intervals = IntervalLabels::build(&tree);
    let mut want: Vec<u64> = tree
        .node_ids()
        .filter(|&v| intervals.is_ancestor(top, v))
        .map(|v| (handle.0 << 32) | v.0 as u64)
        .collect();
    want.sort_unstable();
    clade.sort_unstable();
    assert_eq!(
        clade.iter().map(|n| n.0).collect::<Vec<_>>(),
        want,
        "stored clade disagrees with the in-memory tree"
    );
    SmokeCost { interval_reads }
}

/// In-memory projection of `tree` onto the stored leaves `sample`.
fn project_in_memory(tree: &Tree, sample: &[StoredNodeId]) -> Tree {
    let names: Vec<&str> = sample
        .iter()
        .map(|&n| tree.name(arena(n)).expect("named leaf"))
        .collect();
    phylo::ops::project_by_names(tree, &names).expect("in-memory projection")
}

/// E6 smoke: projection of an evenly spread leaf sample.
pub fn projection(leaves: usize, sample: usize, seed: u64) -> SmokeCost {
    let tree = workloads::simulated_tree(leaves, seed);
    let (_dir, repo, handle) = workloads::repository_with_tree(&tree, 8192);
    let stored = repo.view().leaves(handle).expect("leaves");
    let step = (stored.len() / sample).max(1);
    let sample: Vec<StoredNodeId> = stored.iter().step_by(step).copied().collect();

    repo.clear_cache().expect("clear cache");
    repo.pool().reset_stats();
    let fast = repo.view().project(handle, &sample).expect("projection");
    let interval_reads = repo.buffer_stats().page_reads();
    assert!(
        phylo::ops::isomorphic_with_lengths(&fast, &project_in_memory(&tree, &sample), 1e-9),
        "stored projection disagrees with the in-memory tree"
    );
    SmokeCost { interval_reads }
}

/// E7 smoke: pattern match of a positive (projected) pattern, which rides on
/// the projection path end to end.
pub fn pattern_match(leaves: usize, pattern_size: usize, seed: u64) -> SmokeCost {
    let tree = workloads::simulated_tree(leaves, seed);
    let (_dir, repo, handle) = workloads::repository_with_tree(&tree, 8192);
    let names = workloads::leaf_subset(&tree, pattern_size);
    let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let pattern = phylo::ops::project_by_names(&tree, &refs).expect("pattern");

    repo.clear_cache().expect("clear cache");
    repo.pool().reset_stats();
    let result = repo.view().pattern_match(handle, &pattern).expect("match");
    let interval_reads = repo.buffer_stats().page_reads();
    assert!(
        result.exact_with_lengths,
        "a pattern projected from the in-memory tree must match exactly"
    );
    SmokeCost { interval_reads }
}

/// Aggregate throughput of one mixed read batch at a given worker count —
/// the concurrent-reads workload behind the scaling smoke.
#[derive(Debug, Clone, Copy)]
pub struct ConcurrencyCost {
    /// Worker threads the batch ran with.
    pub threads: usize,
    /// Queries in the batch.
    pub queries: usize,
    /// Wall-clock seconds for the measured run.
    pub seconds: f64,
}

impl ConcurrencyCost {
    /// Aggregate queries per second.
    pub fn qps(&self) -> f64 {
        self.queries as f64 / self.seconds.max(1e-9)
    }
}

/// Concurrent-reads smoke: build an in-file repository from a simulated
/// tree, fan a deterministic mixed batch (LCA / ancestor / clade /
/// projection) across `threads` snapshot-reader workers via [`QueryBatch`],
/// and measure aggregate throughput. One warm-up pass puts the reader's
/// record/interval caches and the buffer pool in the same steady state for
/// every thread count, so the numbers isolate scaling, not cache luck.
pub fn concurrent_reads(
    leaves: usize,
    queries: usize,
    threads: usize,
    seed: u64,
) -> ConcurrencyCost {
    let tree = workloads::simulated_tree(leaves, seed);
    let (_dir, repo, handle) = workloads::repository_with_tree(&tree, 8192);
    let batch = workloads::mixed_read_batch(&repo, handle, queries, seed);
    let reader = repo.reader().expect("snapshot reader");
    // Warm-up: fills the reader caches; results are checked for errors once.
    for result in batch.execute_on(&reader, threads) {
        result.expect("warm-up query");
    }
    // Best of three runs: a single ~10 ms window is at the mercy of whatever
    // else the machine (or a parallel test binary) is doing; the fastest run
    // is the one that measures the engine rather than the scheduler.
    let mut seconds = f64::MAX;
    for _ in 0..3 {
        let start = std::time::Instant::now();
        let results = batch.execute_on(&reader, threads);
        let elapsed = start.elapsed().as_secs_f64();
        assert!(
            results.iter().all(|r| r.is_ok()),
            "measured batch must succeed"
        );
        assert_eq!(results.len(), batch.len());
        seconds = seconds.min(elapsed);
    }
    ConcurrencyCost {
        threads,
        queries: batch.len(),
        seconds,
    }
}

/// Cost of the E4 load workload: one simulated tree loaded through
/// `load_tree` into a fresh repository, then checkpointed. The counts are
/// deterministic; the wall clock is the best of the runs. The WAL goes to
/// its own file, so a logged load writes each data page at most once.
#[derive(Debug, Clone, Copy)]
pub struct LoadCost {
    /// Node rows loaded (tree nodes).
    pub rows: usize,
    /// Best wall-clock seconds of `load_tree` (excluding the checkpoint).
    pub seconds: f64,
    /// Buffer-pool page accesses (hits + misses) of the load and checkpoint.
    pub page_accesses: u64,
    /// Data-file page writes (checkpoint flushes + eviction write-backs).
    pub page_writes: u64,
    /// Pages in the data file after the load and its checkpoint.
    pub page_count: u64,
    /// WAL bytes appended by the load and its checkpoint.
    pub wal_bytes: u64,
    /// WAL records appended by the load and its checkpoint.
    pub wal_appends: u64,
}

impl LoadCost {
    /// Load throughput in rows per second.
    pub fn rows_per_sec(&self) -> f64 {
        self.rows as f64 / self.seconds.max(1e-9)
    }

    /// Buffer-pool page accesses per loaded row.
    pub fn page_accesses_per_row(&self) -> f64 {
        self.page_accesses as f64 / self.rows.max(1) as f64
    }

    /// WAL bytes per data byte written — the log-overhead ratio the load
    /// budgets at ≤ 1.1× (one after-image per loaded page).
    pub fn wal_ratio(&self) -> f64 {
        let data = (self.page_writes as f64) * storage::PAGE_SIZE as f64;
        self.wal_bytes as f64 / data.max(1.0)
    }
}

/// E4 load smoke: load a simulated tree into a fresh repository `runs`
/// times, checkpoint each, count page accesses, page writes and WAL
/// traffic, and check each load's LCA answers against the in-memory tree
/// and its integrity.
pub fn load_workload(leaves: usize, seed: u64, runs: usize) -> LoadCost {
    let tree = workloads::simulated_tree(leaves, seed);
    let mut best: Option<LoadCost> = None;
    for _ in 0..runs.max(1) {
        let dir = tempfile::tempdir().expect("temp dir");
        let mut repo = crimson::repository::Repository::create(
            dir.path().join("load.crimson"),
            crimson::repository::RepositoryOptions {
                buffer_pool_pages: 4096,
                ..Default::default()
            },
        )
        .expect("create repository");
        repo.pool().reset_stats();
        let start = std::time::Instant::now();
        let handle = repo.load_tree("bench", &tree).expect("load tree");
        let seconds = start.elapsed().as_secs_f64();
        repo.flush().expect("checkpoint");
        let stats = repo.buffer_stats();
        let cost = LoadCost {
            rows: tree.node_count(),
            seconds,
            page_accesses: stats.page_reads(),
            page_writes: stats.page_writes(),
            page_count: repo.pool().page_count(),
            wal_bytes: stats.wal_bytes,
            wal_appends: stats.wal_appends,
        };
        let stored = repo.view().leaves(handle).expect("leaves");
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let a = *stored.choose(&mut rng).expect("non-empty");
            let b = *stored.choose(&mut rng).expect("non-empty");
            let want = tree.lca(arena(a), arena(b));
            let got = repo.view().lca(a, b).expect("lca");
            assert_eq!(got.0, (handle.0 << 32) | want.0 as u64, "lca({a}, {b})");
        }
        repo.view().integrity_check().expect("integrity");
        if best.is_none_or(|b| seconds < b.seconds) {
            best = Some(cost);
        }
    }
    best.expect("at least one run")
}

/// Cost of one persisted experiment sweep — the evaluation workload.
#[derive(Debug, Clone, Copy)]
pub struct EvalSweepCost {
    /// Grid cells executed and persisted (method × sampling × replicate).
    pub runs: usize,
    /// Worker threads the sweep was asked to fan across.
    pub workers: usize,
    /// Worker threads the runner actually used after clamping the request
    /// to the grid size and the machine's available cores. On a one-core
    /// container a 4-worker request runs serially — recording this keeps
    /// BENCH_eval.json numbers interpretable across runners.
    pub effective_workers: usize,
    /// Wall-clock seconds of the whole persisted sweep.
    pub seconds: f64,
}

impl EvalSweepCost {
    /// Aggregate persisted evaluation runs per second.
    pub fn sweeps_per_sec(&self) -> f64 {
        self.runs as f64 / self.seconds.max(1e-9)
    }
}

/// Evaluation smoke: load a gold standard, run a full persisted experiment
/// sweep (2 methods × 3 samplings × 3 replicates) at the given worker
/// count, and measure aggregate throughput. The sweep is verified to have
/// persisted every cell and to pass `integrity_check`.
pub fn eval_sweep(leaves: usize, sites: usize, workers: usize, seed: u64) -> EvalSweepCost {
    let gold = workloads::gold_standard(leaves, sites, seed);
    let (_dir, mut repo, handle) = workloads::repository_with_gold(&gold, 4096);
    let spec = ExperimentSpec {
        name: format!("bench-sweep-w{workers}"),
        methods: vec![Method::Upgma, Method::NeighborJoining],
        strategies: vec![
            SamplingStrategy::Uniform { k: 12 },
            SamplingStrategy::Uniform { k: 16 },
            SamplingStrategy::TimeRespecting { time: 1e6, k: 12 },
        ],
        replicates: 3,
        distance_source: DistanceSource::SequencesJc,
        compute_triplets: false,
        seed,
        workers,
        cell_commits: false,
    };
    let start = std::time::Instant::now();
    let record = ExperimentRunner::new(&mut repo, handle)
        .run(&spec)
        .expect("experiment sweep");
    let seconds = start.elapsed().as_secs_f64();
    assert_eq!(record.runs, 18, "full grid must persist");
    repo.view()
        .integrity_check()
        .expect("integrity after sweep");
    // Mirror of the runner's own clamp: never more threads than grid cells
    // or hardware cores.
    let cores = std::thread::available_parallelism().map_or(usize::MAX, |n| n.get());
    EvalSweepCost {
        runs: record.runs as usize,
        workers,
        effective_workers: workers.clamp(1, record.runs as usize).min(cores),
        seconds,
    }
}

/// Wall-clock cost of comparing two large stored trees: index-native
/// (streaming the interval index) versus materialize-then-compare (two full
/// projections plus the bitset comparison).
#[derive(Debug, Clone, Copy)]
pub struct CompareCost {
    /// Leaves per tree.
    pub leaves: usize,
    /// Seconds for the index-native comparison (best of runs).
    pub native_seconds: f64,
    /// Seconds for materialize-then-compare (best of runs).
    pub materialized_seconds: f64,
}

impl CompareCost {
    /// `materialized / native` — how much the index-native path saves.
    pub fn speedup(&self) -> f64 {
        self.materialized_seconds / self.native_seconds.max(1e-9)
    }
}

/// Comparison smoke: store two simulated trees over the same leaf-name set
/// and time RF (unrooted + rooted) through both paths, cross-validating
/// that they produce identical distances. Caches are dropped before every
/// timed run so both paths pay their page reads.
pub fn compare_workload(leaves: usize, seed: u64, runs: usize) -> CompareCost {
    let a = workloads::simulated_tree(leaves, seed);
    let b = workloads::simulated_tree(leaves, seed + 1);
    let dir = tempfile::tempdir().expect("temp dir");
    let mut repo = crimson::repository::Repository::create(
        dir.path().join("compare.crimson"),
        crimson::repository::RepositoryOptions {
            buffer_pool_pages: 8192,
            ..Default::default()
        },
    )
    .expect("create repository");
    let ha = repo.load_tree("a", &a).expect("load a");
    let hb = repo.load_tree("b", &b).expect("load b");
    let leaves_a = repo.view().leaves(ha).expect("leaves a");
    let leaves_b = repo.view().leaves(hb).expect("leaves b");

    // Cross-validate once: both paths must agree exactly.
    let native = repo
        .view()
        .compare_stored(ha, hb, false)
        .expect("native compare");
    let ta = repo.view().project(ha, &leaves_a).expect("materialize a");
    let tb = repo.view().project(hb, &leaves_b).expect("materialize b");
    let rf = reconstruction::compare::robinson_foulds(&ta, &tb).expect("materialized rf");
    let rrf =
        reconstruction::compare::rooted_robinson_foulds(&ta, &tb).expect("materialized rooted rf");
    assert_eq!(native.rf, rf, "comparison paths disagree");
    assert_eq!(native.rooted_rf, rrf, "rooted comparison paths disagree");

    let mut native_seconds = f64::MAX;
    let mut materialized_seconds = f64::MAX;
    for _ in 0..runs.max(1) {
        repo.clear_cache().expect("clear cache");
        let start = std::time::Instant::now();
        let cmp = repo
            .view()
            .compare_stored(ha, hb, false)
            .expect("native compare");
        native_seconds = native_seconds.min(start.elapsed().as_secs_f64());
        assert_eq!(cmp.rf, rf);

        repo.clear_cache().expect("clear cache");
        let start = std::time::Instant::now();
        let ta = repo.view().project(ha, &leaves_a).expect("materialize a");
        let tb = repo.view().project(hb, &leaves_b).expect("materialize b");
        let m_rf = reconstruction::compare::robinson_foulds(&ta, &tb).expect("rf");
        let _ = reconstruction::compare::rooted_robinson_foulds(&ta, &tb).expect("rrf");
        materialized_seconds = materialized_seconds.min(start.elapsed().as_secs_f64());
        assert_eq!(m_rf, rf);
    }
    CompareCost {
        leaves,
        native_seconds,
        materialized_seconds,
    }
}

/// Recovery smoke: commit one load, crash partway through a second, reopen
/// and return the recovery report (the caller asserts on it). Panics if the
/// recovered repository fails its integrity check or loses the committed
/// tree.
pub fn recovery_workload(leaves: usize, seed: u64) -> storage::RecoveryReport {
    let tree = workloads::simulated_tree(leaves, seed);
    let victim = workloads::simulated_tree(leaves, seed + 1);
    let dir = tempfile::tempdir().expect("temp dir");
    let path = dir.path().join("recovery.crimson");
    {
        let mut repo = crimson::repository::Repository::create(
            &path,
            crimson::repository::RepositoryOptions {
                buffer_pool_pages: 256,
                ..Default::default()
            },
        )
        .expect("create repository");
        repo.load_tree("committed", &tree)
            .expect("load committed tree");
        repo.pool().inject_crash(storage::CrashPoint::WalAppend(3));
        assert!(
            repo.load_tree("victim", &victim).is_err(),
            "injected crash must interrupt"
        );
        // Crash: drop without flush.
    }
    let repo = crimson::repository::Repository::open(
        &path,
        crimson::repository::RepositoryOptions::default(),
    )
    .expect("reopen");
    let report = repo.recovery_report().expect("recovery report");
    repo.view()
        .integrity_check()
        .expect("integrity after recovery");
    let rec = repo
        .view()
        .tree_by_name("committed")
        .expect("committed tree survives");
    assert_eq!(rec.leaf_count as usize, tree.leaf_count());
    assert!(
        repo.view().find_tree("victim").expect("lookup").is_none(),
        "loser load must vanish"
    );
    report
}

/// Throughput and fsync cost of `threads` concurrent committers pushing a
/// fixed number of small transactions through the group-commit path.
#[derive(Debug, Clone, Copy)]
pub struct CommitCost {
    /// Committer threads.
    pub threads: usize,
    /// Transactions committed (each dirties one page, each fsynced
    /// synchronously — by leading or riding a group round).
    pub commits: u64,
    /// Wall-clock seconds for the whole storm.
    pub seconds: f64,
    /// WAL fsync calls actually issued.
    pub wal_syncs: u64,
    /// Fsyncs avoided by riding a shared group round.
    pub fsyncs_saved: u64,
    /// WAL bytes appended.
    pub wal_bytes: u64,
}

impl CommitCost {
    /// Aggregate durable commits per second.
    pub fn commits_per_sec(&self) -> f64 {
        self.commits as f64 / self.seconds.max(1e-9)
    }

    /// Fsyncs issued per committed transaction — below 1.0 whenever group
    /// commit batches, and well below under contention.
    pub fn fsyncs_per_commit(&self) -> f64 {
        self.wal_syncs as f64 / self.commits.max(1) as f64
    }

    /// WAL bytes per dirtied data byte (one page per transaction) — the
    /// log amplification of the commit path.
    pub fn wal_amplification(&self) -> f64 {
        self.wal_bytes as f64 / (self.commits as f64 * storage::PAGE_SIZE as f64).max(1.0)
    }
}

/// Writer-scalability smoke: `threads` committers split `total_txns` small
/// synchronous transactions (one dirtied page each) over a shared buffer
/// pool. Every commit blocks until durable, so the measured throughput is
/// the group-commit pipeline's, not an async queue's.
pub fn commit_workload(threads: usize, total_txns: usize) -> CommitCost {
    use storage::buffer::BufferPool;
    use storage::pager::Pager;
    let dir = tempfile::tempdir().expect("temp dir");
    let pager = Pager::create(dir.path().join("commit.crdb")).expect("create db");
    let pool = std::sync::Arc::new(BufferPool::with_capacity(pager, 8192).expect("buffer pool"));
    pool.reset_stats();
    let per_thread = total_txns / threads;
    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let pool = &pool;
            scope.spawn(move || {
                for k in 0..per_thread {
                    pool.begin_txn_blocking().expect("begin");
                    let pid = pool.allocate_page().expect("allocate");
                    pool.with_page_mut(pid, |p| p.write_u64(0, (t * per_thread + k) as u64))
                        .expect("write");
                    pool.commit_txn(true).expect("commit");
                }
            });
        }
    });
    let seconds = start.elapsed().as_secs_f64();
    let stats = pool.stats();
    assert_eq!(stats.commits, (per_thread * threads) as u64);
    CommitCost {
        threads,
        commits: stats.commits,
        seconds,
        wal_syncs: stats.wal_syncs,
        fsyncs_saved: stats.fsyncs_saved,
        wal_bytes: stats.wal_bytes,
    }
}

/// Read tail latency with and without a concurrent writer + background
/// checkpointer, and the checkpoint activity observed during the busy phase.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointTail {
    /// p99 of single-query read latency with the repository quiescent.
    pub quiescent_p99_us: f64,
    /// p99 while a writer bulk-loads trees and the background checkpointer
    /// flushes behind it.
    pub busy_p99_us: f64,
    /// Queries measured in each phase.
    pub queries: usize,
    /// Data-page flushes during the busy phase (evidence the background
    /// checkpointer actually ran).
    pub busy_flushes: u64,
    /// Snapshot-read retries during the busy phase. Under versioned reads
    /// this counts cold snapshot-retired re-pins and must stay flat.
    pub busy_reader_retries: u64,
    /// Queries that failed `Busy` during the busy phase. The versioned-read
    /// contract makes this invariantly zero; tracked in BENCH_commit.json
    /// so a regression is visible across PRs.
    pub busy_errors: u64,
}

fn p99_us(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    let idx = ((samples.len() as f64) * 0.99).ceil() as usize;
    samples[idx.saturating_sub(1).min(samples.len() - 1)] * 1e6
}

/// Checkpoint-tail smoke: load a base tree into a repository with an
/// aggressive background [`CheckpointPolicy`], measure per-query LCA read
/// latency on a snapshot reader while the repository is quiescent, then
/// again while the main thread keeps bulk-loading trees (group commits +
/// background checkpoints running behind the reads).
pub fn checkpoint_read_tail(leaves: usize, queries: usize, seed: u64) -> CheckpointTail {
    use std::sync::atomic::{AtomicBool, Ordering};
    let tree = workloads::simulated_tree(leaves, seed);
    let dir = tempfile::tempdir().expect("temp dir");
    let mut repo = crimson::repository::Repository::create(
        dir.path().join("tail.crimson"),
        crimson::repository::RepositoryOptions {
            buffer_pool_pages: 8192,
            checkpoint: Some(crimson::CheckpointPolicy {
                wal_bytes: Some(128 * 1024),
                interval: Some(std::time::Duration::from_millis(25)),
            }),
            ..Default::default()
        },
    )
    .expect("create repository");
    assert!(repo.has_checkpointer());
    let handle = repo.load_tree("base", &tree).expect("load base");
    let stored = repo.view().leaves(handle).expect("leaves");
    let reader = repo.reader().expect("snapshot reader");
    let mut rng = StdRng::seed_from_u64(seed);
    let pairs: Vec<(StoredNodeId, StoredNodeId)> = (0..queries)
        .map(|_| {
            (
                *stored.choose(&mut rng).expect("non-empty"),
                *stored.choose(&mut rng).expect("non-empty"),
            )
        })
        .collect();
    let measure = |reader: &crimson::reader::RepositoryReader| -> Vec<f64> {
        pairs
            .iter()
            .map(|&(a, b)| {
                let start = std::time::Instant::now();
                let _ = reader.lca(a, b).expect("lca");
                start.elapsed().as_secs_f64()
            })
            .collect()
    };
    // Warm-up, then the quiescent baseline.
    let _ = measure(&reader);
    let quiescent = measure(&reader);

    // Busy phase: the writer keeps committing bulk loads (each a group
    // commit) so the checkpointer's wal_bytes trigger keeps firing, while
    // the reader re-measures the same query stream.
    let baseline_stats = repo.buffer_stats();
    let stop = AtomicBool::new(false);
    let mut busy = Vec::new();
    let mut busy_errors = 0u64;
    std::thread::scope(|scope| {
        let reader_ref = &reader;
        let stop_ref = &stop;
        let pairs_ref = &pairs;
        let h = scope.spawn(move || {
            let mut samples = Vec::new();
            let mut errors = 0u64;
            'outer: loop {
                for &(a, b) in pairs_ref {
                    if stop_ref.load(Ordering::Relaxed) && samples.len() >= pairs_ref.len() {
                        break 'outer;
                    }
                    let start = std::time::Instant::now();
                    match reader_ref.lca(a, b) {
                        Ok(_) => samples.push(start.elapsed().as_secs_f64()),
                        Err(crimson::CrimsonError::Busy(_)) => errors += 1,
                        Err(e) => panic!("lca under load: {e}"),
                    }
                }
            }
            (samples, errors)
        });
        for i in 0..6u64 {
            let w = workloads::simulated_tree(leaves / 2, seed + 10 + i);
            repo.load_tree(&format!("busy{i}"), &w).expect("busy load");
        }
        stop.store(true, Ordering::Relaxed);
        (busy, busy_errors) = h.join().expect("reader thread");
    });
    let stats = repo.buffer_stats();
    // Stat deltas saturate: a stats reset mid-run (or any counter the pool
    // rebuilds) must read as zero, not underflow-panic in debug.
    CheckpointTail {
        quiescent_p99_us: p99_us(quiescent),
        busy_p99_us: p99_us(busy),
        queries,
        busy_flushes: stats.flushes.saturating_sub(baseline_stats.flushes),
        busy_reader_retries: stats
            .reader_retries
            .saturating_sub(baseline_stats.reader_retries),
        busy_errors,
    }
}

/// Scrub profile: full-file verification throughput on a large repository
/// and a detection/repair pass over deliberately corrupted on-disk pages.
#[derive(Debug, Clone)]
pub struct ScrubProfile {
    /// Leaves in the scrubbed repository's tree.
    pub leaves: usize,
    /// Pages in the database file.
    pub pages: u64,
    /// Wall-clock seconds of one clean `Repository::scrub`: the page scrub
    /// plus the logical integrity check.
    pub clean_seconds: f64,
    /// Wall-clock seconds of one clean page scrub alone (checksums).
    pub page_scrub_seconds: f64,
    /// Wall-clock seconds of one clean integrity check alone (rows,
    /// interval entries, depth columns and recomputed root hashes).
    pub integrity_seconds: f64,
    /// Pages corrupted on disk before the detection pass.
    pub corrupted: u64,
    /// Wall-clock seconds for the detection/repair pass.
    pub detect_seconds: f64,
    /// Pages the detection pass healed in place.
    pub pages_repaired: u64,
    /// Pages the detection pass quarantined (no repair source).
    pub pages_quarantined: u64,
}

impl ScrubProfile {
    /// Page-scrub throughput: pages checksummed per second.
    pub fn pages_per_sec(&self) -> f64 {
        self.pages as f64 / self.page_scrub_seconds.max(1e-9)
    }

    /// Pages per second of the whole `Repository::scrub`, integrity check
    /// included: what `pages_per_sec` measured before the two were timed
    /// apart.
    pub fn clean_pages_per_sec(&self) -> f64 {
        self.pages as f64 / self.clean_seconds.max(1e-9)
    }
}

/// Scrub smoke: load one large simulated tree, checkpoint, then time a
/// clean scrub, its page scrub and integrity check apart, and a pass over a
/// file with eight corrupted pages (which the scrub must detect — and, with
/// the pages still buffer-resident, repair from memory).
pub fn scrub_workload(leaves: usize, seed: u64) -> ScrubProfile {
    use std::io::{Read, Seek, SeekFrom, Write};
    let tree = workloads::simulated_tree(leaves, seed);
    let dir = tempfile::tempdir().expect("temp dir");
    let path = dir.path().join("scrub.crimson");
    let mut repo = crimson::repository::Repository::create(
        &path,
        crimson::repository::RepositoryOptions {
            // Large enough to keep the whole file resident: the repair
            // phase below heals from the in-memory copies.
            buffer_pool_pages: 32_768,
            ..Default::default()
        },
    )
    .expect("create repository");
    repo.load_tree("scrub", &tree).expect("load tree");
    repo.flush().expect("checkpoint");
    let pages = std::fs::metadata(&path).expect("file metadata").len() / storage::PAGE_SIZE as u64;

    let start = std::time::Instant::now();
    let clean = repo.scrub().expect("clean scrub");
    let clean_seconds = start.elapsed().as_secs_f64();
    assert_eq!(clean.pages.pages_quarantined, 0, "clean file: {clean:?}");
    assert!(clean.integrity.is_some(), "clean scrub runs integrity");

    let start = std::time::Instant::now();
    let page_scrub = repo.pool().scrub().expect("clean page scrub");
    let page_scrub_seconds = start.elapsed().as_secs_f64();
    assert_eq!(
        page_scrub.pages_quarantined, 0,
        "clean file: {page_scrub:?}"
    );
    let start = std::time::Instant::now();
    repo.view()
        .integrity_check()
        .expect("clean integrity check");
    let integrity_seconds = start.elapsed().as_secs_f64();

    // Corrupt eight pages behind the pool's back, then let the scrub find
    // them. The frames are still resident, so the damage is healable.
    let corrupted = 8u64.min(pages.saturating_sub(2));
    {
        let mut f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .expect("open db file");
        for i in 0..corrupted {
            let offset = (2 + i) * storage::PAGE_SIZE as u64 + 1024;
            f.seek(SeekFrom::Start(offset)).expect("seek");
            let mut b = [0u8; 1];
            f.read_exact(&mut b).expect("read");
            b[0] ^= 0xFF;
            f.seek(SeekFrom::Start(offset)).expect("seek");
            f.write_all(&b).expect("write");
        }
        f.sync_all().expect("sync");
    }
    let start = std::time::Instant::now();
    let repair = repo.scrub().expect("repair scrub");
    let detect_seconds = start.elapsed().as_secs_f64();
    let detected = repair.pages.pages_repaired + repair.pages.pages_quarantined;
    assert_eq!(
        detected, corrupted,
        "every corrupted page must be detected: {repair:?}"
    );

    ScrubProfile {
        leaves,
        pages,
        clean_seconds,
        page_scrub_seconds,
        integrity_seconds,
        corrupted,
        detect_seconds,
        pages_repaired: repair.pages.pages_repaired,
        pages_quarantined: repair.pages.pages_quarantined,
    }
}

/// Storage and lookup profile of the content-addressed tree store: on-disk
/// bytes of a duplicate-heavy sweep with and without dedup, the equal-tree
/// comparison short-circuit, and the hashing share of a bulk load.
#[derive(Debug, Clone, Copy)]
pub struct DedupCost {
    /// Reconstructions stored in the sweep.
    pub replicates: usize,
    /// Distinct topologies among them (the rest are duplicates).
    pub distinct: usize,
    /// Data-file bytes after storing every replicate as its own tree.
    pub naive_bytes: u64,
    /// Data-file bytes after storing the sweep through `store_tree_dedup`.
    pub dedup_bytes: u64,
    /// Dedup hits the content-addressed store reported.
    pub dedup_hits: usize,
    /// Leaves per tree in the comparison pair.
    pub compare_leaves: usize,
    /// Best-of-runs seconds for `compare_stored` on a hash-equal pair (the
    /// root-hash short-circuit path).
    pub equal_compare_seconds: f64,
    /// Best-of-runs seconds for `compare_stored` on a same-size unequal
    /// pair (the full streamed comparison — what every equal pair paid
    /// before content addressing).
    pub streamed_compare_seconds: f64,
    /// Leaves in the hash-overhead bulk load.
    pub load_leaves: usize,
    /// Best-of-runs seconds for the bulk `load_tree` (hashing included).
    pub bulk_seconds: f64,
    /// Best-of-runs seconds for computing the canonical clade hashes of the
    /// same tree alone — the incremental CPU cost content addressing added
    /// to the loader.
    pub hash_seconds: f64,
}

impl DedupCost {
    /// `dedup_bytes / naive_bytes` — the storage ratio of the sweep.
    pub fn bytes_ratio(&self) -> f64 {
        self.dedup_bytes as f64 / self.naive_bytes.max(1) as f64
    }

    /// `streamed / equal` — how much the root-hash short-circuit saves on
    /// an equal pair.
    pub fn equal_compare_speedup(&self) -> f64 {
        self.streamed_compare_seconds / self.equal_compare_seconds.max(1e-9)
    }

    /// Hash time as a fraction of the whole bulk load.
    pub fn hash_fraction(&self) -> f64 {
        self.hash_seconds / self.bulk_seconds.max(1e-9)
    }
}

/// Content-addressing smoke: store a duplicate-heavy replicate sweep naively
/// and through `store_tree_dedup` and compare data-file bytes; time the
/// equal-pair comparison short-circuit against the streamed path; measure
/// the hashing share of a large bulk load.
pub fn dedup_workload(
    replicates: usize,
    distinct: usize,
    leaves: usize,
    compare_leaves: usize,
    load_leaves: usize,
    seed: u64,
) -> DedupCost {
    assert!(distinct >= 1 && distinct <= replicates);
    let topologies: Vec<phylo::Tree> = (0..distinct)
        .map(|i| workloads::simulated_tree(leaves, seed + i as u64))
        .collect();
    let opts = || crimson::repository::RepositoryOptions {
        buffer_pool_pages: 8192,
        ..Default::default()
    };

    // Naive: every replicate becomes its own fully materialized tree.
    let naive_bytes = {
        let dir = tempfile::tempdir().expect("temp dir");
        let path = dir.path().join("naive.crimson");
        let mut repo =
            crimson::repository::Repository::create(&path, opts()).expect("create repository");
        for i in 0..replicates {
            repo.load_tree(&format!("r{i}"), &topologies[i % distinct])
                .expect("naive store");
        }
        repo.flush().expect("checkpoint");
        std::fs::metadata(&path).expect("file metadata").len()
    };

    // Dedup: duplicates collapse to a reference to the canonical tree.
    let (dedup_bytes, dedup_hits) = {
        let dir = tempfile::tempdir().expect("temp dir");
        let path = dir.path().join("dedup.crimson");
        let mut repo =
            crimson::repository::Repository::create(&path, opts()).expect("create repository");
        let mut hits = 0usize;
        for i in 0..replicates {
            let (_, hit) = repo
                .store_tree_dedup(&format!("r{i}"), &topologies[i % distinct])
                .expect("dedup store");
            hits += hit as usize;
        }
        repo.flush().expect("checkpoint");
        repo.view()
            .integrity_check()
            .expect("integrity after dedup sweep");
        (std::fs::metadata(&path).expect("file metadata").len(), hits)
    };

    // Equal-pair comparison: two stored copies of the same tree short-circuit
    // on their root hashes; an unequal same-size pair pays the streamed
    // comparison both paid before content addressing.
    let (equal_compare_seconds, streamed_compare_seconds) = {
        let tree = workloads::simulated_tree(compare_leaves, seed + 1000);
        let other = workloads::simulated_tree(compare_leaves, seed + 1001);
        let dir = tempfile::tempdir().expect("temp dir");
        let mut repo =
            crimson::repository::Repository::create(dir.path().join("compare.crimson"), opts())
                .expect("create repository");
        let ha = repo.load_tree("a", &tree).expect("load a");
        let hb = repo.load_tree("b", &tree).expect("load b");
        let hc = repo.load_tree("c", &other).expect("load c");
        assert!(repo.view().trees_equal(ha, hb).expect("equality"));
        let mut equal = f64::MAX;
        let mut streamed = f64::MAX;
        for _ in 0..3 {
            let start = std::time::Instant::now();
            let cmp = repo
                .view()
                .compare_stored(ha, hb, false)
                .expect("equal compare");
            equal = equal.min(start.elapsed().as_secs_f64());
            assert_eq!(cmp.rf.distance, 0);
            let start = std::time::Instant::now();
            let cmp = repo
                .view()
                .compare_stored(ha, hc, false)
                .expect("streamed compare");
            streamed = streamed.min(start.elapsed().as_secs_f64());
            assert!(cmp.rf.distance > 0);
        }
        (equal, streamed)
    };

    // Hashing share of a large bulk load: the canonical hash pass is the
    // only CPU the content-addressed loader added, so timing it alone
    // bounds the overhead.
    let (bulk_seconds, hash_seconds) = {
        let tree = workloads::simulated_tree(load_leaves, seed + 2000);
        let mut bulk = f64::MAX;
        for _ in 0..2 {
            let dir = tempfile::tempdir().expect("temp dir");
            let mut repo =
                crimson::repository::Repository::create(dir.path().join("load.crimson"), opts())
                    .expect("create repository");
            let start = std::time::Instant::now();
            repo.load_tree("bench", &tree).expect("load tree");
            bulk = bulk.min(start.elapsed().as_secs_f64());
        }
        let mut hash = f64::MAX;
        for _ in 0..2 {
            let start = std::time::Instant::now();
            let hashes = labeling::tree_hashes(&tree);
            hash = hash.min(start.elapsed().as_secs_f64());
            assert_eq!(hashes.len(), tree.node_count());
        }
        (bulk, hash)
    };

    DedupCost {
        replicates,
        distinct,
        naive_bytes,
        dedup_bytes,
        dedup_hits,
        compare_leaves,
        equal_compare_seconds,
        streamed_compare_seconds,
        load_leaves,
        bulk_seconds,
        hash_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Page-read ceilings for the structure-query smokes. The hierarchical-
    // label walk with uncached row fetches, which the repository no longer
    // stores, read 1,389 (LCA batch), 6,565 (clade), 3,668 (projection) and
    // 1,223 (pattern match) pages on these same trees and inputs. The
    // interval paths had to read fewer pages than it on LCA and pattern
    // match, and at most a fifth of it on clade and projection; each
    // ceiling below is that requirement as a fixed number.
    const LCA_MAX_READS: u64 = 1_388;
    const CLADE_MAX_READS: u64 = 1_313;
    const PROJECTION_MAX_READS: u64 = 733;
    const PATTERN_MAX_READS: u64 = 1_222;

    #[test]
    fn smoke_structure_queries() {
        let cost = structure_queries(800, 32, 42);
        eprintln!("smoke E4 lca: {cost:?} (bound {LCA_MAX_READS})");
        assert!(cost.interval_reads > 0);
        assert!(
            cost.interval_reads <= LCA_MAX_READS,
            "LCA batch read {} pages, bound {LCA_MAX_READS}",
            cost.interval_reads
        );
    }

    #[test]
    fn smoke_spanning_clade() {
        let cost = spanning_clade(800, 16, 42);
        eprintln!("smoke E4 clade: {cost:?} (bound {CLADE_MAX_READS})");
        assert!(
            cost.interval_reads <= CLADE_MAX_READS,
            "clade read {} pages, bound {CLADE_MAX_READS}",
            cost.interval_reads
        );
    }

    #[test]
    fn smoke_projection() {
        let cost = projection(800, 100, 21);
        eprintln!("smoke E6 projection: {cost:?} (bound {PROJECTION_MAX_READS})");
        assert!(
            cost.interval_reads <= PROJECTION_MAX_READS,
            "projection read {} pages, bound {PROJECTION_MAX_READS}",
            cost.interval_reads
        );
    }

    #[test]
    fn smoke_pattern_match() {
        let cost = pattern_match(800, 32, 33);
        eprintln!("smoke E7 pattern match: {cost:?} (bound {PATTERN_MAX_READS})");
        assert!(cost.interval_reads > 0);
        assert!(
            cost.interval_reads <= PATTERN_MAX_READS,
            "pattern match read {} pages, bound {PATTERN_MAX_READS}",
            cost.interval_reads
        );
    }

    #[test]
    fn smoke_concurrent_reads() {
        // The 800-leaf profile at 1/2/4/8 worker threads. The scaling
        // assertion only binds where the hardware can express it.
        let mut costs = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let cost = concurrent_reads(800, 2000, threads, 7);
            eprintln!(
                "smoke concurrent reads: {} threads → {:.0} q/s ({} queries in {:.3}s)",
                cost.threads,
                cost.qps(),
                cost.queries,
                cost.seconds
            );
            costs.push(cost);
        }
        let single = costs[0].qps();
        assert!(single > 0.0);
        // The ≥2.5x assertion only binds when the measurement can be fair:
        // at least 4 hardware threads AND the test binary running serially
        // (RUST_TEST_THREADS=1, as CI's dedicated smoke step sets) — under
        // default libtest parallelism the sibling smoke tests occupy the
        // other cores for the whole window and the number measures the
        // scheduler, not the engine.
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let serial = std::env::var("RUST_TEST_THREADS").as_deref() == Ok("1");
        if hw >= 4 && serial {
            let four = costs[2].qps();
            assert!(
                four >= 2.5 * single,
                "4-thread QueryBatch must reach ≥2.5x single-thread throughput, \
                 got {four:.0} vs {single:.0} q/s on {hw} hardware threads"
            );
        } else {
            eprintln!(
                "skipping the ≥2.5x scaling assertion: {hw} hardware thread(s), \
                 serial run = {serial}"
            );
        }
    }

    #[test]
    fn smoke_load_wal_overhead() {
        let cost = load_workload(800, 42, 1);
        eprintln!("smoke E4 load: {cost:?}");
        assert!(cost.wal_appends > 0, "a logged load must append to the WAL");
        assert!(cost.wal_bytes > 0);
        assert!(
            cost.page_writes <= cost.page_count,
            "a logged load must write each data page at most once, got {cost:?}"
        );
    }

    /// Repo-root path of a machine-readable bench report. Debug builds are
    /// labelled `BENCH_<name>.debug.json` (gitignored): only release-mode
    /// numbers may land under the committed `BENCH_<name>.json` names.
    fn report_path(name: &str) -> std::path::PathBuf {
        let file = if cfg!(debug_assertions) {
            format!("BENCH_{name}.debug.json")
        } else {
            format!("BENCH_{name}.json")
        };
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(file)
    }

    /// Page accesses per loaded row of the 800-leaf load: 204 accesses over
    /// 1,599 rows (0.1276) when the bound was set, in debug and release.
    const MAX_LOAD_PAGE_ACCESSES_PER_ROW: f64 = 0.128;
    /// Data-file pages written by the 800-leaf load and its checkpoint: 67
    /// when the bound was set, in debug and release.
    const MAX_LOAD_PAGE_WRITES: u64 = 67;

    #[test]
    fn smoke_bulk_load() {
        let leaves = 800;
        let cost = load_workload(leaves, 42, 2);
        eprintln!(
            "smoke bulk load: {} rows in {:.3}s ({:.0} rows/s), {} page accesses \
             ({:.3}/row), {} pages written, WAL ratio {:.3}",
            cost.rows,
            cost.seconds,
            cost.rows_per_sec(),
            cost.page_accesses,
            cost.page_accesses_per_row(),
            cost.page_writes,
            cost.wal_ratio()
        );
        assert!(
            cost.wal_ratio() <= 1.1,
            "bulk load must log at most 1.1 bytes per data byte, got {:.3}",
            cost.wal_ratio()
        );
        // Deterministic counts: they bind in every profile, on any core
        // count and under any test parallelism.
        assert!(
            cost.page_accesses_per_row() <= MAX_LOAD_PAGE_ACCESSES_PER_ROW,
            "bulk load must make ≤ {MAX_LOAD_PAGE_ACCESSES_PER_ROW} page accesses per row, \
             got {:.4} ({cost:?})",
            cost.page_accesses_per_row()
        );
        assert!(
            cost.page_writes <= MAX_LOAD_PAGE_WRITES,
            "bulk load must write ≤ {MAX_LOAD_PAGE_WRITES} data pages, got {cost:?}"
        );
        // Machine-readable perf trajectory: the read-path page reads from
        // the sibling smoke profiles plus the load numbers, written at the
        // repo root so successive PRs can be compared.
        let clade = spanning_clade(leaves, 16, 42);
        let proj = projection(leaves, 100, 21);
        let pattern = pattern_match(leaves, 32, 33);
        let report = serde_json::json!({
            "profile": serde_json::json!({
                "leaves": leaves,
                "seed": 42,
                "release": !cfg!(debug_assertions),
                "nproc": std::thread::available_parallelism().map_or(1, |n| n.get())
            }),
            "load": serde_json::json!({
                "rows": cost.rows,
                "bulk_seconds": cost.seconds,
                "bulk_rows_per_sec": cost.rows_per_sec(),
                "page_accesses_per_row": cost.page_accesses_per_row(),
                "data_pages_written": cost.page_writes,
                "wal_bytes": cost.wal_bytes,
                "wal_bytes_per_data_byte": cost.wal_ratio()
            }),
            "read_path_page_reads": serde_json::json!({
                "spanning_clade": clade.interval_reads,
                "projection": proj.interval_reads,
                "pattern_match": pattern.interval_reads
            })
        });
        let path = report_path("load");
        std::fs::write(
            &path,
            serde_json::to_string(&report).expect("serialize report"),
        )
        .expect("write BENCH_load.json");
        eprintln!("wrote {}", path.display());
    }

    #[test]
    fn smoke_eval_sweep() {
        // The evaluation workload: a full persisted sweep at 1 and 4
        // workers, plus the index-native vs materialize-then-compare
        // ratio on a large stored pair. Writes BENCH_eval.json at the
        // repo root (the release CI step asserts on and uploads it).
        let leaves = 200;
        let sites = 150;
        let single = eval_sweep(leaves, sites, 1, 42);
        let multi = eval_sweep(leaves, sites, 4, 42);
        eprintln!(
            "smoke eval sweep: {} runs in {:.3}s @1 worker ({:.1} runs/s), \
             {:.3}s @4 workers ({} effective, {:.1} runs/s)",
            single.runs,
            single.seconds,
            single.sweeps_per_sec(),
            multi.seconds,
            multi.effective_workers,
            multi.sweeps_per_sec()
        );
        assert_eq!(single.runs, multi.runs);
        // The parallel sweep must not lose to the serial one — but only
        // where the comparison is fair: the runner clamps workers to the
        // core count, so on a 1–3 core runner the "4-worker" sweep is
        // (nearly) serial and measures thread-pool overhead plus scheduler
        // noise, not scaling.
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let serial = std::env::var("RUST_TEST_THREADS").as_deref() == Ok("1");
        if hw >= 4 && serial {
            assert!(
                multi.sweeps_per_sec() >= single.sweeps_per_sec(),
                "4-worker sweep must not regress below serial throughput: \
                 {:.1} vs {:.1} runs/s ({} effective workers)",
                multi.sweeps_per_sec(),
                single.sweeps_per_sec(),
                multi.effective_workers
            );
        } else {
            eprintln!(
                "skipping the sweep speedup assertion: {hw} hardware thread(s), \
                 serial run = {serial}"
            );
        }

        // 10k-leaf pair in release (the acceptance target); a lighter pair
        // under the dev profile so plain `cargo test` stays fast.
        let compare_leaves = if cfg!(debug_assertions) {
            2_000
        } else {
            10_000
        };
        let compare = compare_workload(compare_leaves, 11, 2);
        eprintln!(
            "smoke compare: {} leaves, index-native {:.4}s vs materialized {:.4}s → {:.1}x",
            compare.leaves,
            compare.native_seconds,
            compare.materialized_seconds,
            compare.speedup()
        );
        assert!(
            compare.speedup() > 1.0,
            "index-native comparison must beat materialize-then-compare, got {compare:?}"
        );

        let report = serde_json::json!({
            "profile": serde_json::json!({
                "sweep_leaves": leaves,
                "sweep_sites": sites,
                "compare_leaves": compare.leaves,
                "release": !cfg!(debug_assertions)
            }),
            "sweep": serde_json::json!({
                "runs": single.runs,
                "grid": "2 methods x 3 samplings x 3 replicates",
                "hardware_threads": hw,
                "seconds_1_worker": single.seconds,
                "seconds_4_workers": multi.seconds,
                "effective_workers_at_4": multi.effective_workers,
                "runs_per_sec_1_worker": single.sweeps_per_sec(),
                "runs_per_sec_4_workers": multi.sweeps_per_sec()
            }),
            "compare": serde_json::json!({
                "leaves": compare.leaves,
                "native_seconds": compare.native_seconds,
                "materialized_seconds": compare.materialized_seconds,
                "native_over_materialized_speedup": compare.speedup()
            })
        });
        let path = report_path("eval");
        std::fs::write(
            &path,
            serde_json::to_string(&report).expect("serialize report"),
        )
        .expect("write BENCH_eval.json");
        eprintln!("wrote {}", path.display());
    }

    #[test]
    fn smoke_scrub() {
        // 10k-leaf repository in release (the acceptance target); lighter
        // under the dev profile so plain `cargo test` stays fast. Writes
        // BENCH_scrub.json at the repo root (CI uploads it with the other
        // bench artifacts).
        let leaves = if cfg!(debug_assertions) {
            2_000
        } else {
            10_000
        };
        let profile = scrub_workload(leaves, 42);
        eprintln!(
            "smoke scrub: {} pages scrubbed in {:.3}s ({:.0} pages/s), integrity check \
             {:.3}s, both {:.3}s; {} corrupted → {} repaired + {} quarantined in {:.3}s",
            profile.pages,
            profile.page_scrub_seconds,
            profile.pages_per_sec(),
            profile.integrity_seconds,
            profile.clean_seconds,
            profile.corrupted,
            profile.pages_repaired,
            profile.pages_quarantined,
            profile.detect_seconds
        );
        assert!(profile.pages > 0);
        assert_eq!(
            profile.pages_repaired + profile.pages_quarantined,
            profile.corrupted
        );

        let report = serde_json::json!({
            "profile": serde_json::json!({
                "leaves": profile.leaves,
                "seed": 42,
                "release": !cfg!(debug_assertions),
                "nproc": std::thread::available_parallelism().map_or(1, |n| n.get())
            }),
            "scrub": serde_json::json!({
                "pages": profile.pages,
                "page_scrub_seconds": profile.page_scrub_seconds,
                "pages_per_sec": profile.pages_per_sec(),
                "integrity_seconds": profile.integrity_seconds,
                "clean_seconds": profile.clean_seconds,
                "clean_pages_per_sec": profile.clean_pages_per_sec(),
                "corrupted_pages": profile.corrupted,
                "detect_seconds": profile.detect_seconds,
                "pages_repaired": profile.pages_repaired,
                "pages_quarantined": profile.pages_quarantined
            })
        });
        let path = report_path("scrub");
        std::fs::write(
            &path,
            serde_json::to_string(&report).expect("serialize report"),
        )
        .expect("write BENCH_scrub.json");
        eprintln!("wrote {}", path.display());
    }

    #[test]
    fn smoke_group_commit() {
        // Writer scalability: the same total transaction count split across
        // 1 / 4 / 16 / 64 committer threads, every commit synchronously
        // durable. Group commit must both batch fsyncs under contention and
        // scale aggregate commits/s. Writes BENCH_commit.json at the repo
        // root (the CI writer-scalability job asserts on and uploads it).
        let total = if cfg!(debug_assertions) { 256 } else { 2048 };
        let mut costs = Vec::new();
        for threads in [1usize, 4, 16, 64] {
            let cost = commit_workload(threads, total);
            eprintln!(
                "smoke group commit: {:2} threads → {:7.0} commits/s, \
                 {:.3} fsyncs/txn ({} saved), wal amp {:.3}",
                cost.threads,
                cost.commits_per_sec(),
                cost.fsyncs_per_commit(),
                cost.fsyncs_saved,
                cost.wal_amplification()
            );
            assert!(
                cost.wal_amplification() <= 1.1,
                "commit path must log ≤1.1 bytes per data byte: {cost:?}"
            );
            costs.push(cost);
        }
        let serial_run = costs[0];
        let sixteen = costs[2];
        // Under contention the pipeline must batch: followers ride the
        // leader's fsync, so the 16-thread storm needs well under one fsync
        // per transaction.
        assert!(
            sixteen.fsyncs_saved > 0,
            "16 committers never shared an fsync round: {sixteen:?}"
        );
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let serial = std::env::var("RUST_TEST_THREADS").as_deref() == Ok("1");
        if hw >= 4 && serial {
            assert!(
                sixteen.fsyncs_per_commit() < 0.5,
                "16 committers must average <0.5 fsyncs per commit, got {:.3}",
                sixteen.fsyncs_per_commit()
            );
            if !cfg!(debug_assertions) {
                assert!(
                    sixteen.commits_per_sec() >= 4.0 * serial_run.commits_per_sec(),
                    "16 committers must reach ≥4x serial throughput, got {:.0} vs {:.0}",
                    sixteen.commits_per_sec(),
                    serial_run.commits_per_sec()
                );
            }
        } else {
            eprintln!("skipping contended assertions: {hw} hardware thread(s), serial = {serial}");
        }

        // Read tail latency under a background checkpointer + writer.
        let tail = checkpoint_read_tail(800, 2000, 17);
        eprintln!(
            "smoke checkpoint tail: p99 {:.1}µs quiescent vs {:.1}µs busy \
             ({} flushes, {} reader retries, {} busy errors during busy phase)",
            tail.quiescent_p99_us,
            tail.busy_p99_us,
            tail.busy_flushes,
            tail.busy_reader_retries,
            tail.busy_errors
        );
        assert!(
            tail.busy_flushes > 0,
            "the background checkpointer must have flushed during the busy phase"
        );
        assert_eq!(
            tail.busy_errors, 0,
            "versioned reads must never surface Busy under a committing writer"
        );
        if hw >= 4 && serial && !cfg!(debug_assertions) {
            assert!(
                tail.busy_p99_us <= 2.0 * tail.quiescent_p99_us.max(5.0),
                "p99 read during background checkpoint must stay within 2x of quiescent: \
                 {:.1}µs vs {:.1}µs",
                tail.busy_p99_us,
                tail.quiescent_p99_us
            );
        }

        let report = serde_json::json!({
            "profile": serde_json::json!({
                "total_txns": total,
                "pages_per_txn": 1,
                "release": !cfg!(debug_assertions)
            }),
            "commit_throughput": costs
                .iter()
                .map(|c| {
                    serde_json::json!({
                        "threads": c.threads,
                        "commits": c.commits,
                        "seconds": c.seconds,
                        "commits_per_sec": c.commits_per_sec(),
                        "wal_syncs": c.wal_syncs,
                        "fsyncs_per_commit": c.fsyncs_per_commit(),
                        "fsyncs_saved": c.fsyncs_saved,
                        "wal_amplification": c.wal_amplification()
                    })
                })
                .collect::<Vec<_>>(),
            "speedup_16_vs_1": sixteen.commits_per_sec() / serial_run.commits_per_sec().max(1e-9),
            "read_tail_under_checkpoint": serde_json::json!({
                "queries": tail.queries,
                "quiescent_p99_us": tail.quiescent_p99_us,
                "busy_p99_us": tail.busy_p99_us,
                "busy_over_quiescent": tail.busy_p99_us / tail.quiescent_p99_us.max(1e-9),
                "busy_flushes": tail.busy_flushes,
                "busy_reader_retries": tail.busy_reader_retries,
                "busy_errors": tail.busy_errors
            })
        });
        let path = report_path("commit");
        std::fs::write(
            &path,
            serde_json::to_string(&report).expect("serialize report"),
        )
        .expect("write BENCH_commit.json");
        eprintln!("wrote {}", path.display());
    }

    #[test]
    fn smoke_dedup() {
        // Content-addressing profile: a duplicate-heavy replicate sweep
        // (60% duplicates), the equal-pair comparison short-circuit on a
        // large stored pair, and the hashing share of a large bulk load.
        // Writes BENCH_dedup.json at the repo root (the release CI step
        // asserts on and uploads it). Release sizes match the acceptance
        // targets; the dev profile shrinks them so plain `cargo test`
        // stays fast.
        let (replicates, distinct, leaves, compare_leaves, load_leaves) = if cfg!(debug_assertions)
        {
            (120, 48, 48, 2_000, 5_000)
        } else {
            (1_000, 400, 64, 10_000, 100_000)
        };
        let cost = dedup_workload(
            replicates,
            distinct,
            leaves,
            compare_leaves,
            load_leaves,
            42,
        );
        eprintln!(
            "smoke dedup: {} replicates ({} distinct) → {} bytes naive vs {} dedup \
             ({:.1}% — {} hits); equal compare {:.6}s vs streamed {:.6}s → {:.0}x; \
             hash {:.3}s of {:.3}s bulk load ({:.1}%)",
            cost.replicates,
            cost.distinct,
            cost.naive_bytes,
            cost.dedup_bytes,
            100.0 * cost.bytes_ratio(),
            cost.dedup_hits,
            cost.equal_compare_seconds,
            cost.streamed_compare_seconds,
            cost.equal_compare_speedup(),
            cost.hash_seconds,
            cost.bulk_seconds,
            100.0 * cost.hash_fraction()
        );
        // Timing assertions bind only where the measurement is fair (serial
        // test run, release codegen). The report is written first, so the
        // numbers are recorded everywhere, with the thread count they were
        // taken on and whether the gates bound, also when a gate fails.
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let serial = std::env::var("RUST_TEST_THREADS").as_deref() == Ok("1");
        let gates_bind = serial && !cfg!(debug_assertions);

        let report = serde_json::json!({
            "profile": serde_json::json!({
                "replicates": cost.replicates,
                "distinct_topologies": cost.distinct,
                "duplicate_fraction": 1.0 - cost.distinct as f64 / cost.replicates as f64,
                "tree_leaves": leaves,
                "compare_leaves": cost.compare_leaves,
                "load_leaves": cost.load_leaves,
                "release": !cfg!(debug_assertions),
                "nproc": hw,
                "timing_gates_bound": gates_bind
            }),
            "storage": serde_json::json!({
                "naive_bytes": cost.naive_bytes,
                "dedup_bytes": cost.dedup_bytes,
                "dedup_over_naive": cost.bytes_ratio(),
                "dedup_hits": cost.dedup_hits
            }),
            "equal_compare": serde_json::json!({
                "equal_seconds": cost.equal_compare_seconds,
                "streamed_seconds": cost.streamed_compare_seconds,
                "short_circuit_speedup": cost.equal_compare_speedup()
            }),
            "hash_overhead": serde_json::json!({
                "bulk_load_seconds": cost.bulk_seconds,
                "hash_seconds": cost.hash_seconds,
                "hash_fraction_of_load": cost.hash_fraction()
            })
        });
        let path = report_path("dedup");
        std::fs::write(
            &path,
            serde_json::to_string(&report).expect("serialize report"),
        )
        .expect("write BENCH_dedup.json");
        eprintln!("wrote {}", path.display());

        // Every duplicate must have collapsed to a reference.
        assert_eq!(cost.dedup_hits, replicates - distinct);
        // The deterministic acceptance bound: a ≥50%-duplicate sweep stores
        // in at most 60% of the naive bytes.
        assert!(
            cost.bytes_ratio() <= 0.60,
            "deduplicated sweep must use ≤60% of naive bytes, got {:.1}% ({cost:?})",
            100.0 * cost.bytes_ratio()
        );
        if gates_bind {
            assert!(
                cost.equal_compare_speedup() >= 100.0,
                "hash-equal compare must be ≥100x faster than the streamed path, \
                 got {:.0}x ({cost:?})",
                cost.equal_compare_speedup()
            );
            assert!(
                cost.hash_fraction() <= 0.05,
                "canonical hashing must stay within 5% of bulk-load wall time, \
                 got {:.1}% ({cost:?})",
                100.0 * cost.hash_fraction()
            );
        } else {
            eprintln!(
                "skipping dedup timing assertions: {hw} hardware thread(s), \
                 serial = {serial}, release = {}",
                !cfg!(debug_assertions)
            );
        }
    }

    #[test]
    fn smoke_recovery() {
        let report = recovery_workload(400, 9);
        eprintln!("smoke recovery: {report:?}");
        assert!(
            report.committed_txns >= 1,
            "the committed load must replay: {report:?}"
        );
        assert!(
            report.loser_txns >= 1,
            "the interrupted load must be undone: {report:?}"
        );
        assert!(report.pages_redone > 0);
    }

    #[test]
    fn smoke_serve() {
        // The served-engine workload: aggregate read q/s and tail latency
        // over loopback TCP at 1/8/64 connections, the batched-vs-unbatched
        // dispatch ratio at 8 connections, and a mixed read/write level
        // with one writer streaming async loads through the group-commit
        // queue. Writes BENCH_serve.json at the repo root (the CI serve
        // job asserts on and uploads it).
        use crate::serve::{serve_mixed, serve_reads, ServeProfile};
        use crimson_server::dispatch::DispatchConfig;

        let profile = ServeProfile::smoke();
        let batched = DispatchConfig::default().batch_max;
        let mut levels = Vec::new();
        for connections in [1usize, 8, 64] {
            let level = serve_reads(&profile, connections, batched);
            eprintln!(
                "smoke serve: {:2} conns → {:7.0} q/s, p50 {:.2}ms p99 {:.2}ms, \
                 coalesced {:.0}% over {} batches",
                level.connections,
                level.qps,
                level.p50_ms,
                level.p99_ms,
                level.coalesced_fraction * 100.0,
                level.read_batches
            );
            levels.push(level);
        }
        let unbatched8 = serve_reads(&profile, 8, 1);
        let batched8 = levels[1];
        let batch_ratio = batched8.qps / unbatched8.qps.max(1e-9);
        eprintln!(
            "smoke serve: 8-conn batched {:.0} q/s vs unbatched {:.0} q/s (ratio {:.2})",
            batched8.qps, unbatched8.qps, batch_ratio
        );
        let mixed = serve_mixed(&profile, 8);
        eprintln!(
            "smoke serve mixed: {:7.0} read q/s (p50 {:.2}ms p99 {:.2}ms) \
             alongside {} writes (write p99 {:.2}ms)",
            mixed.reads.qps,
            mixed.reads.p50_ms,
            mixed.reads.p99_ms,
            mixed.writes,
            mixed.write_p99_ms
        );

        // Invariants that hold on any hardware: every level completed all
        // its reads error-free (run_reader panics otherwise), batching
        // actually coalesced at 8+ connections, and the writer made
        // progress under read pressure.
        assert!(
            batched8.coalesced_fraction > 0.0,
            "8 pipelined connections must produce at least one coalesced batch"
        );
        assert_eq!(
            unbatched8.coalesced_fraction, 0.0,
            "batch_max 1 must not batch"
        );
        assert!(mixed.writes > 0, "the mixed-level writer must land trees");

        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let serial = std::env::var("RUST_TEST_THREADS").as_deref() == Ok("1");
        if hw >= 4 && serial {
            // The serving claims, asserted only where they are meaningful:
            // connection scaling, batched-dispatch advantage, bounded tail.
            assert!(
                levels[2].qps >= 3.0 * levels[0].qps,
                "64-conn aggregate read q/s must be ≥3x the 1-conn figure: \
                 {:.0} vs {:.0}",
                levels[2].qps,
                levels[0].qps
            );
            if !cfg!(debug_assertions) {
                assert!(
                    batch_ratio >= 1.0,
                    "batched dispatch must not lose to per-request dispatch \
                     at 8 connections: ratio {batch_ratio:.2}"
                );
                assert!(
                    mixed.reads.p99_ms <= 5.0 * mixed.reads.p50_ms.max(0.05),
                    "read p99 must stay within 5x p50 under mixed load: \
                     p50 {:.2}ms p99 {:.2}ms",
                    mixed.reads.p50_ms,
                    mixed.reads.p99_ms
                );
            }
        } else {
            eprintln!(
                "skipping serve scaling assertions: {hw} hardware thread(s), serial = {serial}"
            );
        }

        let level_json = |l: &crate::serve::ServeLevel| {
            serde_json::json!({
                "connections": l.connections,
                "qps": l.qps,
                "p50_ms": l.p50_ms,
                "p99_ms": l.p99_ms,
                "coalesced_fraction": l.coalesced_fraction,
                "read_batches": l.read_batches
            })
        };
        let report = serde_json::json!({
            "profile": serde_json::json!({
                "leaves": profile.leaves,
                "ops_per_conn": profile.ops_per_conn,
                "pipeline": profile.pipeline,
                "dispatch_workers": profile.workers,
                "hw_threads": hw,
                "release": !cfg!(debug_assertions)
            }),
            "read_levels": levels.iter().map(level_json).collect::<Vec<_>>(),
            "scaling_64_vs_1": levels[2].qps / levels[0].qps.max(1e-9),
            "batched_vs_unbatched_8conn": serde_json::json!({
                "batched_qps": batched8.qps,
                "unbatched_qps": unbatched8.qps,
                "ratio": batch_ratio
            }),
            "mixed_8conn": serde_json::json!({
                "reads": level_json(&mixed.reads),
                "p99_over_p50": mixed.reads.p99_ms / mixed.reads.p50_ms.max(1e-9),
                "writes": mixed.writes,
                "write_p99_ms": mixed.write_p99_ms
            })
        });
        let path = report_path("serve");
        std::fs::write(
            &path,
            serde_json::to_string(&report).expect("serialize report"),
        )
        .expect("write BENCH_serve.json");
        eprintln!("wrote {}", path.display());
    }
}
