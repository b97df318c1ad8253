//! The persistent experiment subsystem: stored, queryable, re-runnable
//! evaluation sweeps.
//!
//! The paper's Benchmark Manager (§2.2) samples the gold standard, projects
//! the induced subtree, reconstructs a tree and scores it — and then threw
//! everything but a summary row away. Here "run an experiment" is a stored
//! artifact instead:
//!
//! * every reconstructed tree is persisted as an ordinary stored tree
//!   (through the bulk-load fast path), so it answers LCA/projection/
//!   pattern-match queries and index-native comparisons like any other tree;
//! * spec parameters, per-stage timings, per-method distance metrics and
//!   **per-clade agreement rows** land in the `experiments` /
//!   `experiment_results` / `experiment_clades` catalog tables;
//! * the whole sweep — trees, rows, history record — commits as **one
//!   atomic transaction**: a crash mid-experiment leaves nothing behind;
//! * the (method × sampling × replicate) grid fans out across scoped worker
//!   threads reading a committed snapshot ([`crate::reader`]) while this
//!   writer persists finished runs, in the same spirit as
//!   [`crate::batch::QueryBatch`];
//! * all randomness — sampling draws, replicate seeds — derives
//!   deterministically from the spec's single `seed`, so the same spec
//!   always produces identical metrics.
//!
//! The transient single-run path survives as [`ExperimentRunner::evaluate`]
//! (recorded under [`QueryKind::Benchmark`] like the old manager); persisted
//! sweeps are recorded under [`QueryKind::Experiment`] with their spec, seed
//! and tree handles fetchable from the history like every other kind.

use crate::error::{CrimsonError, CrimsonResult};
use crate::history::QueryKind;
use crate::repository::{
    next_id, ReadCtx, Repository, StoredNodeId, TreeHandle, TreeRecord, BULK_FILL, TREE_SHIFT,
};
use crate::sampling::SamplingStrategy;
use phylo::distance::patristic_matrix;
use phylo::Tree;
use reconstruction::compare::{compare_sources, CladeAgreement, RfResult, SourceComparison};
use reconstruction::distance::{jc_corrected_matrix, k2p_corrected_matrix, p_distance_matrix};
use reconstruction::{neighbor_joining, upgma};
use serde::{Deserialize, Serialize};
use serde_json::json;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;
use storage::db::DbRead;
use storage::value::Value;

/// Reconstruction algorithm to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Method {
    /// UPGMA hierarchical clustering (assumes a molecular clock).
    Upgma,
    /// Neighbor-Joining (assumes additivity only).
    NeighborJoining,
}

impl Method {
    /// Short name used in reports and catalog rows; inverse of
    /// [`Method::parse`].
    pub fn name(self) -> &'static str {
        match self {
            Method::Upgma => "UPGMA",
            Method::NeighborJoining => "NJ",
        }
    }

    /// Parse a stored method name.
    pub fn parse(s: &str) -> Option<Method> {
        Some(match s {
            "UPGMA" => Method::Upgma,
            "NJ" => Method::NeighborJoining,
            _ => return None,
        })
    }
}

/// Where the algorithm's input distances come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DistanceSource {
    /// True patristic distances read off the projected gold standard — the
    /// noise-free upper bound on algorithm performance.
    TruePatristic,
    /// Raw p-distances computed from stored sequences.
    SequencesP,
    /// Jukes–Cantor corrected distances from stored sequences.
    SequencesJc,
    /// Kimura two-parameter corrected distances from stored sequences.
    SequencesK2p,
}

impl DistanceSource {
    /// Short name used in reports and catalog rows; inverse of
    /// [`DistanceSource::parse`].
    pub fn name(self) -> &'static str {
        match self {
            DistanceSource::TruePatristic => "true-patristic",
            DistanceSource::SequencesP => "seq-p",
            DistanceSource::SequencesJc => "seq-jc",
            DistanceSource::SequencesK2p => "seq-k2p",
        }
    }

    /// Parse a stored distance-source name.
    pub fn parse(s: &str) -> Option<DistanceSource> {
        Some(match s {
            "true-patristic" => DistanceSource::TruePatristic,
            "seq-p" => DistanceSource::SequencesP,
            "seq-jc" => DistanceSource::SequencesJc,
            "seq-k2p" => DistanceSource::SequencesK2p,
            _ => return None,
        })
    }
}

/// Timings of the individual pipeline stages, in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StageTimings {
    /// Sampling time.
    pub sampling_ms: f64,
    /// Projection time.
    pub projection_ms: f64,
    /// Distance-matrix construction time.
    pub distances_ms: f64,
    /// Reconstruction time.
    pub reconstruction_ms: f64,
    /// Comparison time.
    pub comparison_ms: f64,
}

/// Specification of one transient evaluation run (the old Benchmark
/// Manager's unit of work).
#[derive(Debug, Clone)]
pub struct EvalSpec {
    /// How to choose the species sample.
    pub strategy: SamplingStrategy,
    /// The algorithm under evaluation.
    pub method: Method,
    /// The algorithm's input distances.
    pub distance_source: DistanceSource,
    /// Whether to also compute the (cubic-time) triplet distance.
    pub compute_triplets: bool,
    /// RNG seed for sampling.
    pub seed: u64,
}

impl Default for EvalSpec {
    fn default() -> Self {
        EvalSpec {
            strategy: SamplingStrategy::Uniform { k: 32 },
            method: Method::NeighborJoining,
            distance_source: DistanceSource::SequencesJc,
            compute_triplets: false,
            seed: 0,
        }
    }
}

/// Result of one transient evaluation run.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// Number of species in the sample.
    pub sample_size: usize,
    /// The evaluated algorithm.
    pub method: Method,
    /// The input distance source.
    pub distance_source: DistanceSource,
    /// Unrooted Robinson–Foulds comparison against the projected truth.
    pub rf: RfResult,
    /// Rooted (clade-based) Robinson–Foulds comparison.
    pub rooted_rf: RfResult,
    /// Triplet distance, when requested.
    pub triplet: Option<f64>,
    /// Per-clade agreement of the reconstruction against the projection.
    pub clades: Vec<CladeAgreement>,
    /// Stage timings.
    pub timings: StageTimings,
    /// The projected gold-standard subtree (the reference answer).
    pub reference: Tree,
    /// The reconstructed tree.
    pub reconstruction: Tree,
}

impl EvalReport {
    /// One line in the style the experiment tables use.
    pub fn summary_row(&self) -> String {
        format!(
            "{:>5} taxa  {:<6} {:<14} RF={:<4} nRF={:.3}  rootedRF={:<4} time[s/p/d/r/c]={:.1}/{:.1}/{:.1}/{:.1}/{:.1}ms",
            self.sample_size,
            self.method.name(),
            self.distance_source.name(),
            self.rf.distance,
            self.rf.normalized,
            self.rooted_rf.distance,
            self.timings.sampling_ms,
            self.timings.projection_ms,
            self.timings.distances_ms,
            self.timings.reconstruction_ms,
            self.timings.comparison_ms,
        )
    }
}

/// Specification of a persisted experiment sweep: the full
/// (method × sampling × replicate) grid, one seed, one distance source.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Unique experiment name (also prefixes the reconstructions' tree
    /// names).
    pub name: String,
    /// The algorithms under evaluation.
    pub methods: Vec<Method>,
    /// The sampling strategies defining the sampled subtrees.
    pub strategies: Vec<SamplingStrategy>,
    /// Independent replicates per (method, strategy) pair.
    pub replicates: usize,
    /// The algorithms' input distances.
    pub distance_source: DistanceSource,
    /// Whether to also compute the (cubic-time) triplet distance.
    pub compute_triplets: bool,
    /// The single root seed every cell seed derives from.
    pub seed: u64,
    /// Worker threads evaluating grid cells against committed snapshots.
    pub workers: usize,
    /// Commit every finished grid cell as its own transaction instead of
    /// one sweep-wide transaction. Cell commits ride the storage engine's
    /// group-commit path (concurrent with evaluation, one fsync per batch
    /// under [`crate::Durability::Sync`], none until the next group fsync
    /// under `Async`), results become visible to readers as they land, and
    /// a provisional catalog row keeps the results→experiments linkage
    /// intact throughout. On a mid-sweep failure the committed result and
    /// clade rows are cleaned up, but reconstructed trees of completed
    /// cells survive as ordinary trees — resume under a fresh name.
    /// Defaults to `false` (the historical all-or-nothing sweep); absent in
    /// stored specs from older repositories.
    #[serde(default)]
    pub cell_commits: bool,
}

/// One persisted experiment (a row of the `experiments` table).
#[derive(Debug, Clone)]
pub struct ExperimentRecord {
    /// Stable experiment id.
    pub id: u64,
    /// Unique name.
    pub name: String,
    /// The gold-standard tree the sweep evaluated against.
    pub gold: TreeHandle,
    /// The full spec, re-runnable as-is.
    pub spec: ExperimentSpec,
    /// Root seed (redundant with `spec.seed`, indexed for convenience).
    pub seed: u64,
    /// Number of result rows (grid cells).
    pub runs: u64,
    /// Wall-clock milliseconds of the whole sweep.
    pub wall_ms: f64,
}

/// One persisted grid cell (a row of the `experiment_results` table).
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Stable result id.
    pub id: u64,
    /// Owning experiment.
    pub experiment: u64,
    /// The evaluated algorithm.
    pub method: Method,
    /// The sampling strategy of this cell.
    pub strategy: SamplingStrategy,
    /// Index of the strategy within the spec's `strategies`.
    pub strategy_index: usize,
    /// Replicate number within the (method, strategy) pair.
    pub replicate: usize,
    /// The cell's derived seed (deterministic in the spec seed).
    pub cell_seed: u64,
    /// Number of species in the sample.
    pub sample_size: usize,
    /// Handle of the persisted reconstructed tree.
    pub recon: TreeHandle,
    /// Unrooted Robinson–Foulds against the projected truth.
    pub rf: RfResult,
    /// Rooted Robinson–Foulds.
    pub rooted_rf: RfResult,
    /// Triplet distance, when the spec requested it.
    pub triplet: Option<f64>,
    /// Stage timings measured in the worker.
    pub timings: StageTimings,
    /// Milliseconds spent persisting this cell (tree + rows).
    pub persist_ms: f64,
}

/// One per-clade agreement row (a row of the `experiment_clades` table):
/// whether the clade rooted at `node` of the stored reconstruction also
/// exists in the projected gold standard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CladeRow {
    /// Owning result.
    pub result: u64,
    /// Stored node id of the clade root in the reconstructed tree.
    pub node: StoredNodeId,
    /// Number of leaves in the clade.
    pub size: u32,
    /// `true` when the projection contains the same clade.
    pub agrees: bool,
}

/// Derive the sampling seed of grid cell (strategy `s`, replicate `r`) from
/// the spec's root seed — a splitmix64 chain, so every cell draws an
/// independent, reproducible stream and the same spec always produces the
/// same metrics. The method index is deliberately *not* mixed in: all
/// methods of a (strategy, replicate) cell evaluate the **same** sample, so
/// their metrics are paired and their stored reconstructions share a leaf
/// set (comparable index-natively).
pub fn cell_seed(seed: u64, strategy: usize, replicate: usize) -> u64 {
    fn splitmix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let mut z = splitmix(seed);
    z = splitmix(z ^ strategy as u64);
    splitmix(z ^ replicate as u64)
}

/// The worker-side outcome of one grid cell: everything the main thread
/// needs to persist it.
#[derive(Debug)]
pub(crate) struct CellEval {
    pub sample_size: usize,
    pub reference: Tree,
    pub reconstruction: Tree,
    pub rf: RfResult,
    pub rooted_rf: RfResult,
    pub triplet: Option<f64>,
    pub clades: Vec<CladeAgreement>,
    pub timings: StageTimings,
}

impl<D: DbRead> ReadCtx<'_, D> {
    /// Evaluate one (method, strategy, seed) cell: sample → project →
    /// distances → reconstruct → compare. Pure read; runs identically on
    /// the writer and on snapshot readers.
    pub(crate) fn evaluate_cell(
        &self,
        gold: TreeHandle,
        method: Method,
        distance_source: DistanceSource,
        strategy: &SamplingStrategy,
        seed: u64,
        compute_triplets: bool,
    ) -> CrimsonResult<CellEval> {
        let mut timings = StageTimings::default();

        let start = Instant::now();
        let sample = self.sample(gold, strategy, seed)?;
        timings.sampling_ms = start.elapsed().as_secs_f64() * 1e3;
        if sample.len() < 3 {
            return Err(CrimsonError::InvalidSample(
                "evaluation runs need at least 3 sampled species".to_string(),
            ));
        }

        let start = Instant::now();
        let reference = self.project(gold, &sample)?;
        timings.projection_ms = start.elapsed().as_secs_f64() * 1e3;

        let start = Instant::now();
        let names = self.names_of(&sample)?;
        let matrix = match distance_source {
            DistanceSource::TruePatristic => patristic_matrix(&reference)?,
            DistanceSource::SequencesP => p_distance_matrix(&self.sequences_for(gold, &names)?)?,
            DistanceSource::SequencesJc => jc_corrected_matrix(&self.sequences_for(gold, &names)?)?,
            DistanceSource::SequencesK2p => {
                k2p_corrected_matrix(&self.sequences_for(gold, &names)?)?
            }
        };
        timings.distances_ms = start.elapsed().as_secs_f64() * 1e3;

        let start = Instant::now();
        let reconstruction = match method {
            Method::Upgma => upgma(&matrix)?,
            Method::NeighborJoining => neighbor_joining(&matrix)?,
        };
        timings.reconstruction_ms = start.elapsed().as_secs_f64() * 1e3;

        // One streaming pass per tree yields RF (both flavours), triplets
        // and the per-clade agreement of the reconstruction — the same
        // engine the index-native stored-tree comparison runs on. When the
        // reconstruction recovers the reference exactly, the canonical root
        // hashes match and the whole comparison (including the O(n³)
        // triplet count) is synthesized in O(n) instead.
        let start = Instant::now();
        let cmp: SourceComparison = match crate::compare::equal_tree_comparison(
            &reference,
            &reconstruction,
            compute_triplets,
        ) {
            Some(cmp) => cmp,
            None => compare_sources::<_, _, CrimsonError>(
                &reference,
                &reconstruction,
                compute_triplets,
            )?,
        };
        timings.comparison_ms = start.elapsed().as_secs_f64() * 1e3;

        Ok(CellEval {
            sample_size: sample.len(),
            reference,
            reconstruction,
            rf: cmp.rf,
            rooted_rf: cmp.rooted_rf,
            triplet: cmp.triplet,
            clades: cmp.clades,
            timings,
        })
    }

    // ------------------------------------------------------------------
    // Experiment catalog reads
    // ------------------------------------------------------------------

    /// All persisted experiments, in id order.
    pub fn list_experiments(&self) -> CrimsonResult<Vec<ExperimentRecord>> {
        let mut rows = self.db.scan(self.tables.experiments)?;
        rows.sort_by_key(|(_, row)| row.values[0].as_int().unwrap_or(0));
        rows.iter()
            .map(|(_, row)| decode_experiment_row(row))
            .collect()
    }

    /// Look up an experiment by name.
    pub fn find_experiment(&self, name: &str) -> CrimsonResult<Option<ExperimentRecord>> {
        let rows = self
            .db
            .lookup_rows(self.tables.experiments, "name", &Value::text(name))?;
        rows.into_iter()
            .next()
            .map(|(_, row)| decode_experiment_row(&row))
            .transpose()
    }

    /// Look up an experiment by name, failing when absent.
    pub fn experiment_by_name(&self, name: &str) -> CrimsonResult<ExperimentRecord> {
        self.find_experiment(name)?
            .ok_or_else(|| CrimsonError::UnknownExperiment(name.to_string()))
    }

    /// All result rows of an experiment, in result-id (= grid cell) order.
    pub fn experiment_results(&self, experiment: u64) -> CrimsonResult<Vec<ExperimentResult>> {
        let rows = self.db.lookup_rows(
            self.tables.experiment_results,
            "exp_id",
            &Value::Int(experiment as i64),
        )?;
        let mut out: Vec<ExperimentResult> = rows
            .iter()
            .map(|(_, row)| decode_result_row(row))
            .collect::<CrimsonResult<_>>()?;
        out.sort_by_key(|r| r.id);
        Ok(out)
    }

    /// The per-clade agreement rows of one result, in node order.
    pub fn experiment_clades(&self, result: u64) -> CrimsonResult<Vec<CladeRow>> {
        let rows = self.db.lookup_rows(
            self.tables.experiment_clades,
            "result_id",
            &Value::Int(result as i64),
        )?;
        let mut out: Vec<CladeRow> = rows
            .iter()
            .map(|(_, row)| CladeRow {
                result: row.values[0].as_int().unwrap_or(0) as u64,
                node: StoredNodeId(row.values[1].as_int().unwrap_or(0) as u64),
                size: row.values[2].as_int().unwrap_or(0) as u32,
                agrees: row.values[3].as_bool().unwrap_or(false),
            })
            .collect();
        out.sort_by_key(|c| c.node);
        Ok(out)
    }
}

fn decode_experiment_row(row: &storage::schema::Row) -> CrimsonResult<ExperimentRecord> {
    let spec_text = row.values[3].as_text().unwrap_or("");
    let spec: ExperimentSpec = serde_json::from_str(spec_text).map_err(|e| {
        CrimsonError::CorruptRepository(format!("experiment spec does not parse: {e}"))
    })?;
    Ok(ExperimentRecord {
        id: row.values[0].as_int().unwrap_or(0) as u64,
        name: row.values[1].as_text().unwrap_or("").to_string(),
        gold: TreeHandle(row.values[2].as_int().unwrap_or(0) as u64),
        spec,
        seed: row.values[4].as_int().unwrap_or(0) as u64,
        runs: row.values[5].as_int().unwrap_or(0) as u64,
        wall_ms: row.values[6].as_float().unwrap_or(0.0),
    })
}

fn decode_result_row(row: &storage::schema::Row) -> CrimsonResult<ExperimentResult> {
    let method_text = row.values[2].as_text().unwrap_or("");
    let method = Method::parse(method_text).ok_or_else(|| {
        CrimsonError::CorruptRepository(format!("unknown stored method `{method_text}`"))
    })?;
    let strategy: SamplingStrategy = serde_json::from_str(row.values[3].as_text().unwrap_or(""))
        .map_err(|e| {
            CrimsonError::CorruptRepository(format!("stored strategy does not parse: {e}"))
        })?;
    let rf_of = |d: usize, m: usize, s: usize| {
        let distance = row.values[d].as_int().unwrap_or(0) as usize;
        let max_distance = row.values[m].as_int().unwrap_or(0) as usize;
        RfResult {
            distance,
            max_distance,
            normalized: if max_distance == 0 {
                0.0
            } else {
                distance as f64 / max_distance as f64
            },
            shared: row.values[s].as_int().unwrap_or(0) as usize,
        }
    };
    Ok(ExperimentResult {
        id: row.values[0].as_int().unwrap_or(0) as u64,
        experiment: row.values[1].as_int().unwrap_or(0) as u64,
        method,
        strategy,
        strategy_index: row.values[4].as_int().unwrap_or(0) as usize,
        replicate: row.values[5].as_int().unwrap_or(0) as usize,
        cell_seed: row.values[6].as_int().unwrap_or(0) as u64,
        sample_size: row.values[7].as_int().unwrap_or(0) as usize,
        recon: TreeHandle(row.values[8].as_int().unwrap_or(0) as u64),
        rf: rf_of(9, 10, 11),
        rooted_rf: rf_of(12, 13, 14),
        triplet: row.values[15].as_float(),
        timings: StageTimings {
            sampling_ms: row.values[16].as_float().unwrap_or(0.0),
            projection_ms: row.values[17].as_float().unwrap_or(0.0),
            distances_ms: row.values[18].as_float().unwrap_or(0.0),
            reconstruction_ms: row.values[19].as_float().unwrap_or(0.0),
            comparison_ms: row.values[20].as_float().unwrap_or(0.0),
        },
        persist_ms: row.values[21].as_float().unwrap_or(0.0),
    })
}

/// One grid cell's coordinates and derived seed.
#[derive(Debug, Clone, Copy)]
struct Cell {
    mi: usize,
    si: usize,
    ri: usize,
    seed: u64,
}

/// The experiment runner: the Benchmark Manager's successor. Bound to one
/// gold-standard tree; [`ExperimentRunner::evaluate`] reproduces the old
/// transient run, [`ExperimentRunner::run`] executes and **persists** a
/// full parallel sweep.
pub struct ExperimentRunner<'a> {
    repo: &'a mut Repository,
    tree: TreeHandle,
}

impl<'a> ExperimentRunner<'a> {
    /// Create a runner for the given gold-standard tree.
    pub fn new(repo: &'a mut Repository, tree: TreeHandle) -> Self {
        ExperimentRunner { repo, tree }
    }

    /// Execute one transient evaluation run (not persisted beyond its
    /// history entry — the old `BenchmarkManager::run`).
    pub fn evaluate(&mut self, spec: &EvalSpec) -> CrimsonResult<EvalReport> {
        let eval = self.repo.view().evaluate_cell(
            self.tree,
            spec.method,
            spec.distance_source,
            &spec.strategy,
            spec.seed,
            spec.compute_triplets,
        )?;
        let report = EvalReport {
            sample_size: eval.sample_size,
            method: spec.method,
            distance_source: spec.distance_source,
            rf: eval.rf,
            rooted_rf: eval.rooted_rf,
            triplet: eval.triplet,
            clades: eval.clades,
            timings: eval.timings,
            reference: eval.reference,
            reconstruction: eval.reconstruction,
        };
        self.repo.record_query(
            QueryKind::Benchmark,
            json!({
                "tree": self.tree.0,
                "method": spec.method.name(),
                "distance_source": spec.distance_source.name(),
                "sample_size": report.sample_size,
                "seed": spec.seed,
            }),
            &format!(
                "{} on {} taxa: RF={} (normalized {:.3})",
                spec.method.name(),
                report.sample_size,
                report.rf.distance,
                report.rf.normalized
            ),
        )?;
        Ok(report)
    }

    /// Run the same transient specification for several methods — the
    /// head-to-head table the demo shows.
    pub fn evaluate_methods(
        &mut self,
        spec: &EvalSpec,
        methods: &[Method],
    ) -> CrimsonResult<Vec<EvalReport>> {
        methods
            .iter()
            .map(|m| {
                let mut s = spec.clone();
                s.method = *m;
                self.evaluate(&s)
            })
            .collect()
    }

    /// Execute and persist a full (method × sampling × replicate) sweep.
    ///
    /// Grid cells are evaluated by `spec.workers` scoped threads against a
    /// committed snapshot of the repository while this writer persists
    /// finished cells (reconstructed tree via the bulk-load path, result
    /// row, per-clade agreement rows) in deterministic cell order. The
    /// entire sweep — every tree, every row, the experiment record and its
    /// history entry — is one atomic transaction.
    pub fn run(&mut self, spec: &ExperimentSpec) -> CrimsonResult<ExperimentRecord> {
        let gold = self.tree;
        run_sweep(self.repo, gold, spec)
    }

    /// Re-run a persisted experiment's spec under a new name (against the
    /// same gold tree it originally ran on). The stored spec carries every
    /// parameter, so the new experiment reproduces the old one's metrics
    /// exactly.
    pub fn rerun(&mut self, existing: &str, new_name: &str) -> CrimsonResult<ExperimentRecord> {
        let record = self.repo.view().experiment_by_name(existing)?;
        let mut spec = record.spec;
        spec.name = new_name.to_string();
        run_sweep(self.repo, record.gold, &spec)
    }
}

fn validate_spec(spec: &ExperimentSpec) -> CrimsonResult<()> {
    if spec.name.is_empty() {
        return Err(CrimsonError::InvalidSample(
            "experiment name must not be empty".to_string(),
        ));
    }
    if spec.methods.is_empty() || spec.strategies.is_empty() || spec.replicates == 0 {
        return Err(CrimsonError::InvalidSample(
            "experiment grid is empty (methods × strategies × replicates)".to_string(),
        ));
    }
    Ok(())
}

fn run_sweep(
    repo: &mut Repository,
    gold: TreeHandle,
    spec: &ExperimentSpec,
) -> CrimsonResult<ExperimentRecord> {
    validate_spec(spec)?;
    if repo.db.pool().in_txn() {
        return Err(CrimsonError::InvalidSample(
            "experiments cannot join an open transaction (their workers read committed snapshots)"
                .to_string(),
        ));
    }
    if repo.view().find_experiment(&spec.name)?.is_some() {
        return Err(CrimsonError::DuplicateExperiment(spec.name.clone()));
    }
    // The gold tree must be committed — the snapshot workers read it.
    let gold_record: TreeRecord = repo.view().tree_record(gold)?;

    let mut cells = Vec::with_capacity(spec.methods.len() * spec.strategies.len());
    for mi in 0..spec.methods.len() {
        for si in 0..spec.strategies.len() {
            for ri in 0..spec.replicates {
                cells.push(Cell {
                    mi,
                    si,
                    ri,
                    seed: cell_seed(spec.seed, si, ri),
                });
            }
        }
    }
    let n_cells = cells.len();
    let exp_id = next_id(&repo.db, repo.tables.experiments, "exp_id")?;
    let result_base = next_id(&repo.db, repo.tables.experiment_results, "result_id")?;
    let spec_json =
        serde_json::to_string(spec).map_err(|e| CrimsonError::History(e.to_string()))?;

    let reader = repo.reader()?;
    // Never spawn more workers than there are grid cells (surplus workers
    // exit immediately but their spawn/join cost lands in the measured
    // wall-clock) or than the machine has cores (oversubscribed snapshot
    // workers contend instead of evaluating).
    let cores = std::thread::available_parallelism().map_or(usize::MAX, |n| n.get());
    let workers = spec.workers.clamp(1, n_cells).min(cores);
    let start = Instant::now();

    let (runs, wall_ms) = if spec.cell_commits {
        run_grid_cell_commits(
            repo,
            &reader,
            gold,
            &gold_record,
            spec,
            &spec_json,
            &cells,
            workers,
            exp_id,
            result_base,
            start,
        )?
    } else {
        repo.with_txn(|repo| {
            let recon_handles = evaluate_grid(
                repo,
                &reader,
                gold,
                spec,
                &cells,
                workers,
                |repo, i, eval| {
                    persist_cell(repo, exp_id, result_base + i as u64, spec, cells[i], eval)
                },
            )?;
            let runs = recon_handles.len() as u64;
            // Measured once, before the commit: both the catalog row and the
            // returned record carry this same figure.
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            insert_experiment_row(repo, exp_id, gold, spec, &spec_json, runs, wall_ms)?;
            record_experiment_history(
                repo,
                exp_id,
                gold,
                &gold_record,
                spec,
                &spec_json,
                result_base,
                &recon_handles,
            )?;
            Ok((runs, wall_ms))
        })?
    };

    Ok(ExperimentRecord {
        id: exp_id,
        name: spec.name.clone(),
        gold,
        spec: spec.clone(),
        seed: spec.seed,
        runs,
        wall_ms,
    })
}

/// Evaluate the full grid with a pool of snapshot workers, handing every
/// finished cell to `persist` in deterministic grid order (out-of-order
/// arrivals are buffered until their turn). Factored out of [`run_sweep`]
/// so the one-big-transaction and per-cell-commit paths share the
/// scheduling machinery.
fn evaluate_grid(
    repo: &mut Repository,
    reader: &crate::reader::RepositoryReader,
    gold: TreeHandle,
    spec: &ExperimentSpec,
    cells: &[Cell],
    workers: usize,
    mut persist: impl FnMut(&mut Repository, usize, &CellEval) -> CrimsonResult<TreeHandle>,
) -> CrimsonResult<Vec<TreeHandle>> {
    let n_cells = cells.len();
    {
        let cursor = AtomicUsize::new(0);
        let poison = AtomicBool::new(false);
        let recon_handles = std::thread::scope(|scope| -> CrimsonResult<Vec<TreeHandle>> {
            // Bounded channel: evaluated-but-unpersisted cells hold full
            // trees, so when the single writer falls behind, workers block
            // on send instead of buffering the whole grid in memory. The
            // channel MUST be local to this scope closure: on the
            // early-exit failure path below, `rx` then drops before the
            // scope joins its threads, releasing any worker still blocked
            // in `send` (with `rx` outliving the scope, that join would
            // deadlock).
            let (tx, rx) = mpsc::sync_channel::<(usize, CrimsonResult<CellEval>)>(workers);
            for _ in 0..workers {
                let tx = tx.clone();
                let reader = &reader;
                let cells = &cells;
                let cursor = &cursor;
                let poison = &poison;
                scope.spawn(move || loop {
                    if poison.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= cells.len() {
                        break;
                    }
                    let cell = cells[i];
                    // One pinned snapshot epoch per cell (reader.read()
                    // pins before the first page touch): the whole cell —
                    // sampling, distance estimation, comparison — sees one
                    // committed state even while sibling cells commit.
                    let out = reader.read(|v| {
                        v.evaluate_cell(
                            gold,
                            spec.methods[cell.mi],
                            spec.distance_source,
                            &spec.strategies[cell.si],
                            cell.seed,
                            spec.compute_triplets,
                        )
                    });
                    if tx.send((i, out)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);

            // Persist finished cells in deterministic grid order while the
            // workers keep evaluating: buffer out-of-order arrivals and
            // drain the contiguous prefix.
            let mut pending: BTreeMap<usize, CellEval> = BTreeMap::new();
            let mut next = 0usize;
            let mut recon_handles: Vec<TreeHandle> = Vec::with_capacity(n_cells);
            let mut failure: Option<CrimsonError> = None;
            'recv: for _ in 0..n_cells {
                match rx.recv() {
                    Ok((i, Ok(eval))) => {
                        pending.insert(i, eval);
                    }
                    Ok((_, Err(e))) => {
                        failure = Some(e);
                        break 'recv;
                    }
                    Err(_) => break 'recv,
                }
                while let Some(eval) = pending.remove(&next) {
                    match persist(repo, next, &eval) {
                        Ok(handle) => recon_handles.push(handle),
                        Err(e) => {
                            failure = Some(e);
                            break 'recv;
                        }
                    }
                    next += 1;
                }
            }
            poison.store(true, Ordering::Relaxed);
            if let Some(e) = failure {
                return Err(e);
            }
            if recon_handles.len() != n_cells {
                return Err(CrimsonError::InvalidSample(format!(
                    "experiment sweep lost {} of {n_cells} cells (a worker died)",
                    n_cells - recon_handles.len()
                )));
            }
            Ok(recon_handles)
        })?;
        Ok(recon_handles)
    }
}

/// The per-cell-commit sweep: a provisional catalog row is committed before
/// any result row (so readers and [`ReadCtx::integrity_check`] never see
/// a result without its experiment), each finished cell commits as its own
/// transaction through the repository's configured durability mode, and a
/// final transaction replaces the provisional row with the real figures and
/// writes the history entry. Returns `(runs, wall_ms)`.
#[allow(clippy::too_many_arguments)]
fn run_grid_cell_commits(
    repo: &mut Repository,
    reader: &crate::reader::RepositoryReader,
    gold: TreeHandle,
    gold_record: &TreeRecord,
    spec: &ExperimentSpec,
    spec_json: &str,
    cells: &[Cell],
    workers: usize,
    exp_id: u64,
    result_base: u64,
    start: Instant,
) -> CrimsonResult<(u64, f64)> {
    let n_cells = cells.len();
    // Provisional row: the grid size as `runs`, zero wall-clock. A crash
    // mid-sweep leaves it plus a prefix of committed cells — a consistent,
    // queryable state (the zero wall-clock marks it unfinished).
    repo.with_txn(|repo| {
        insert_experiment_row(repo, exp_id, gold, spec, spec_json, n_cells as u64, 0.0)
    })?;

    let evaluated = evaluate_grid(repo, reader, gold, spec, cells, workers, |repo, i, eval| {
        repo.with_txn(|repo| {
            persist_cell(repo, exp_id, result_base + i as u64, spec, cells[i], eval)
        })
    });
    let recon_handles = match evaluated {
        Ok(handles) => handles,
        Err(e) => {
            // Best-effort cleanup of the committed prefix; the original
            // failure is what the caller needs to see.
            let _ = cleanup_partial_sweep(repo, exp_id, result_base, n_cells as u64);
            return Err(e);
        }
    };

    let runs = recon_handles.len() as u64;
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    repo.with_txn(|repo| {
        // No in-place update API: replace the provisional row under the
        // same id, in the same transaction as the history entry.
        delete_experiment_row(repo, exp_id)?;
        insert_experiment_row(repo, exp_id, gold, spec, spec_json, runs, wall_ms)?;
        record_experiment_history(
            repo,
            exp_id,
            gold,
            gold_record,
            spec,
            spec_json,
            result_base,
            &recon_handles,
        )
    })?;
    Ok((runs, wall_ms))
}

/// Insert one row of the `experiments` catalog table. Joins the caller's
/// open transaction (auto-commits otherwise).
fn insert_experiment_row(
    repo: &mut Repository,
    exp_id: u64,
    gold: TreeHandle,
    spec: &ExperimentSpec,
    spec_json: &str,
    runs: u64,
    wall_ms: f64,
) -> CrimsonResult<()> {
    repo.db.insert(
        repo.tables.experiments,
        &[
            Value::Int(exp_id as i64),
            Value::text(spec.name.as_str()),
            Value::Int(gold.0 as i64),
            Value::text(spec_json),
            Value::Int(spec.seed as i64),
            Value::Int(runs as i64),
            Value::Float(wall_ms),
        ],
    )?;
    Ok(())
}

/// Delete the `experiments` row carrying `exp_id` (via its unique index).
fn delete_experiment_row(repo: &mut Repository, exp_id: u64) -> CrimsonResult<()> {
    for rid in repo.db.index_lookup(
        repo.tables.experiments,
        "exp_id",
        &Value::Int(exp_id as i64),
    )? {
        repo.db.delete(repo.tables.experiments, rid)?;
    }
    Ok(())
}

/// Write the sweep's history entry (shared by both sweep paths; joins the
/// caller's open transaction).
#[allow(clippy::too_many_arguments)]
fn record_experiment_history(
    repo: &mut Repository,
    exp_id: u64,
    gold: TreeHandle,
    gold_record: &TreeRecord,
    spec: &ExperimentSpec,
    spec_json: &str,
    result_base: u64,
    recon_handles: &[TreeHandle],
) -> CrimsonResult<()> {
    let runs = recon_handles.len() as u64;
    let spec_value: serde_json::Value =
        serde_json::from_str(spec_json).map_err(|e| CrimsonError::History(e.to_string()))?;
    repo.record_query(
        QueryKind::Experiment,
        json!({
            "experiment": exp_id,
            "name": spec.name,
            "gold_tree": gold.0,
            "seed": spec.seed,
            "spec": spec_value,
            "runs": runs,
            "recon_trees": recon_handles.iter().map(|h| h.0).collect::<Vec<u64>>(),
            "result_ids": (0..runs).map(|i| result_base + i).collect::<Vec<u64>>(),
        }),
        &format!(
            "experiment `{}`: {} runs ({} methods × {} samplings × {} replicates) on `{}`",
            spec.name,
            runs,
            spec.methods.len(),
            spec.strategies.len(),
            spec.replicates,
            gold_record.name
        ),
    )?;
    Ok(())
}

/// Best-effort rollback of an interrupted per-cell-commit sweep: every
/// committed result row, its clade rows and the provisional catalog row are
/// deleted, restoring the results→experiments invariant. Reconstructed
/// trees of completed cells survive as ordinary standalone trees (the
/// engine has no tree-delete path), so a retry needs a fresh name.
fn cleanup_partial_sweep(
    repo: &mut Repository,
    exp_id: u64,
    result_base: u64,
    n_cells: u64,
) -> CrimsonResult<()> {
    repo.with_txn(|repo| {
        for result_id in result_base..result_base + n_cells {
            let key = Value::Int(result_id as i64);
            for rid in repo
                .db
                .index_lookup(repo.tables.experiment_clades, "result_id", &key)?
            {
                repo.db.delete(repo.tables.experiment_clades, rid)?;
            }
            for rid in repo
                .db
                .index_lookup(repo.tables.experiment_results, "result_id", &key)?
            {
                repo.db.delete(repo.tables.experiment_results, rid)?;
            }
        }
        delete_experiment_row(repo, exp_id)
    })
}

/// Persist one finished grid cell: the reconstructed tree (deduplicated —
/// a cell whose reconstruction is content-identical to an already stored
/// tree references the canonical copy instead of writing a second one), its
/// result row and its per-clade agreement rows. Runs inside the
/// experiment's transaction.
fn persist_cell(
    repo: &mut Repository,
    exp_id: u64,
    result_id: u64,
    spec: &ExperimentSpec,
    cell: Cell,
    eval: &CellEval,
) -> CrimsonResult<TreeHandle> {
    let start = Instant::now();
    let method = spec.methods[cell.mi];
    let tree_name = format!("{}/{}-s{}-r{}", spec.name, method.name(), cell.si, cell.ri);
    let (recon, deduped) = repo.store_tree_dedup(&tree_name, &eval.reconstruction)?;

    // Agreement rows name stored nodes. On a fresh store the
    // reconstruction's arena ids carry over verbatim; on a dedup hit they
    // mean nothing in the canonical tree, so each clade is remapped through
    // its content hash, recomputed for the canonical tree's nodes (equal
    // trees hold every clade of one another).
    let node_ids: Vec<i64> = if deduped {
        let hashes = labeling::clade_hash::tree_hashes(&eval.reconstruction);
        let mut node_map = HashMap::new();
        for (node, hash) in repo.view().clade_hashes(recon)? {
            node_map.entry(hash).or_insert(node);
        }
        eval.clades
            .iter()
            .map(|c| {
                node_map
                    .get(&hashes[c.node as usize])
                    .map(|sid| sid.0 as i64)
                    .ok_or_else(|| {
                        CrimsonError::CorruptRepository(format!(
                            "canonical tree #{} lacks a clade of its duplicate",
                            recon.0
                        ))
                    })
            })
            .collect::<CrimsonResult<_>>()?
    } else {
        eval.clades
            .iter()
            .map(|c| ((recon.0 << TREE_SHIFT) | c.node as u64) as i64)
            .collect()
    };

    let strategy_json = serde_json::to_string(&spec.strategies[cell.si])
        .map_err(|e| CrimsonError::History(e.to_string()))?;
    let mut clades = eval.clades.iter().zip(&node_ids);
    repo.db
        .bulk_insert_with(repo.tables.experiment_clades, BULK_FILL, |values| {
            let Some((c, &node_id)) = clades.next() else {
                return Ok(false);
            };
            values.push(Value::Int(result_id as i64));
            values.push(Value::Int(node_id));
            values.push(Value::Int(c.size as i64));
            values.push(Value::Bool(c.agrees));
            Ok(true)
        })?;

    let persist_ms = start.elapsed().as_secs_f64() * 1e3;
    repo.db.insert(
        repo.tables.experiment_results,
        &[
            Value::Int(result_id as i64),
            Value::Int(exp_id as i64),
            Value::text(method.name()),
            Value::text(strategy_json),
            Value::Int(cell.si as i64),
            Value::Int(cell.ri as i64),
            Value::Int(cell.seed as i64),
            Value::Int(eval.sample_size as i64),
            Value::Int(recon.0 as i64),
            Value::Int(eval.rf.distance as i64),
            Value::Int(eval.rf.max_distance as i64),
            Value::Int(eval.rf.shared as i64),
            Value::Int(eval.rooted_rf.distance as i64),
            Value::Int(eval.rooted_rf.max_distance as i64),
            Value::Int(eval.rooted_rf.shared as i64),
            match eval.triplet {
                Some(t) => Value::Float(t),
                None => Value::Null,
            },
            Value::Float(eval.timings.sampling_ms),
            Value::Float(eval.timings.projection_ms),
            Value::Float(eval.timings.distances_ms),
            Value::Float(eval.timings.reconstruction_ms),
            Value::Float(eval.timings.comparison_ms),
            Value::Float(persist_ms),
        ],
    )?;
    Ok(recon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::RepositoryOptions;
    use simulation::gold::GoldStandardBuilder;
    use simulation::seqevo::Model;
    use tempfile::tempdir;

    fn gold_repo(
        leaves: usize,
        sites: usize,
        seed: u64,
    ) -> (tempfile::TempDir, Repository, TreeHandle) {
        let dir = tempdir().unwrap();
        let mut repo = Repository::create(
            dir.path().join("repo.crimson"),
            RepositoryOptions {
                buffer_pool_pages: 1024,
                ..Default::default()
            },
        )
        .unwrap();
        let gold = GoldStandardBuilder::new()
            .leaves(leaves)
            .sequence_length(sites)
            .model(Model::Jc69 { rate: 0.1 })
            .seed(seed)
            .build()
            .unwrap();
        let handle = repo.load_gold_standard("gold", &gold).unwrap();
        (dir, repo, handle)
    }

    #[test]
    fn true_distance_nj_recovers_projection_exactly() {
        let (_d, mut repo, handle) = gold_repo(48, 0, 3);
        let mut runner = ExperimentRunner::new(&mut repo, handle);
        let report = runner
            .evaluate(&EvalSpec {
                strategy: SamplingStrategy::Uniform { k: 16 },
                method: Method::NeighborJoining,
                distance_source: DistanceSource::TruePatristic,
                compute_triplets: true,
                seed: 1,
            })
            .unwrap();
        assert_eq!(report.sample_size, 16);
        assert_eq!(report.rf.distance, 0, "NJ on true distances must be exact");
        let triplet = report.triplet.expect("triplets were requested");
        assert!((0.0..=1.0).contains(&triplet));
        assert!(report.summary_row().contains("NJ"));
    }

    #[test]
    fn true_distance_upgma_recovers_ultrametric_projection() {
        let (_d, mut repo, handle) = gold_repo(48, 0, 11);
        let mut runner = ExperimentRunner::new(&mut repo, handle);
        let report = runner
            .evaluate(&EvalSpec {
                strategy: SamplingStrategy::Uniform { k: 20 },
                method: Method::Upgma,
                distance_source: DistanceSource::TruePatristic,
                compute_triplets: false,
                seed: 2,
            })
            .unwrap();
        assert_eq!(
            report.rf.distance, 0,
            "UPGMA on ultrametric true distances must be exact"
        );
        // An exact reconstruction agrees on every clade.
        assert!(report.clades.iter().all(|c| c.agrees));
    }

    #[test]
    fn sequence_based_run_produces_report_and_history() {
        let (_d, mut repo, handle) = gold_repo(32, 300, 7);
        let mut runner = ExperimentRunner::new(&mut repo, handle);
        let report = runner
            .evaluate(&EvalSpec {
                strategy: SamplingStrategy::Uniform { k: 12 },
                method: Method::NeighborJoining,
                distance_source: DistanceSource::SequencesJc,
                compute_triplets: false,
                seed: 5,
            })
            .unwrap();
        assert_eq!(report.sample_size, 12);
        assert!(report.rf.normalized <= 1.0);
        assert_eq!(report.reference.leaf_count(), 12);
        assert_eq!(report.reconstruction.leaf_count(), 12);
        let history = repo.view().history_of_kind(QueryKind::Benchmark).unwrap();
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].params["sample_size"], 12);
    }

    #[test]
    fn evaluate_methods_runs_all() {
        let (_d, mut repo, handle) = gold_repo(32, 200, 13);
        let mut runner = ExperimentRunner::new(&mut repo, handle);
        let reports = runner
            .evaluate_methods(
                &EvalSpec {
                    strategy: SamplingStrategy::Uniform { k: 10 },
                    distance_source: DistanceSource::SequencesJc,
                    ..Default::default()
                },
                &[Method::Upgma, Method::NeighborJoining],
            )
            .unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].method, Method::Upgma);
        assert_eq!(reports[1].method, Method::NeighborJoining);
    }

    #[test]
    fn longer_sequences_reconstruct_no_worse_on_average() {
        // More data → better (or equal) reconstruction. Averaged over seeds
        // to damp stochastic flips.
        let mut short_err = 0usize;
        let mut long_err = 0usize;
        for seed in 0..3u64 {
            let (_d1, mut repo_short, h1) = gold_repo(24, 60, 100 + seed);
            let r1 = ExperimentRunner::new(&mut repo_short, h1)
                .evaluate(&EvalSpec {
                    strategy: SamplingStrategy::Uniform { k: 12 },
                    method: Method::NeighborJoining,
                    distance_source: DistanceSource::SequencesJc,
                    compute_triplets: false,
                    seed,
                })
                .unwrap();
            short_err += r1.rf.distance;

            let (_d2, mut repo_long, h2) = gold_repo(24, 2000, 100 + seed);
            let r2 = ExperimentRunner::new(&mut repo_long, h2)
                .evaluate(&EvalSpec {
                    strategy: SamplingStrategy::Uniform { k: 12 },
                    method: Method::NeighborJoining,
                    distance_source: DistanceSource::SequencesJc,
                    compute_triplets: false,
                    seed,
                })
                .unwrap();
            long_err += r2.rf.distance;
        }
        assert!(
            long_err <= short_err,
            "2000-site alignments ({long_err}) should not reconstruct worse than 60-site ones ({short_err})"
        );
    }

    #[test]
    fn time_respecting_evaluation_runs() {
        let (_d, mut repo, handle) = gold_repo(64, 150, 21);
        let report = ExperimentRunner::new(&mut repo, handle)
            .evaluate(&EvalSpec {
                strategy: SamplingStrategy::TimeRespecting { time: 0.05, k: 16 },
                method: Method::NeighborJoining,
                distance_source: DistanceSource::SequencesJc,
                compute_triplets: false,
                seed: 3,
            })
            .unwrap();
        assert_eq!(report.sample_size, 16);
    }

    #[test]
    fn missing_sequences_error() {
        let (_d, mut repo, handle) = gold_repo(16, 0, 1);
        let mut runner = ExperimentRunner::new(&mut repo, handle);
        let err = runner.evaluate(&EvalSpec {
            strategy: SamplingStrategy::Uniform { k: 8 },
            distance_source: DistanceSource::SequencesJc,
            ..Default::default()
        });
        assert!(matches!(err, Err(CrimsonError::MissingSequences(_))));
    }

    #[test]
    fn tiny_sample_rejected() {
        let (_d, mut repo, handle) = gold_repo(16, 50, 2);
        let mut runner = ExperimentRunner::new(&mut repo, handle);
        let err = runner.evaluate(&EvalSpec {
            strategy: SamplingStrategy::Uniform { k: 2 },
            ..Default::default()
        });
        assert!(matches!(err, Err(CrimsonError::InvalidSample(_))));
    }

    #[test]
    fn method_and_source_names_round_trip() {
        for m in [Method::Upgma, Method::NeighborJoining] {
            assert_eq!(Method::parse(m.name()), Some(m));
        }
        for s in [
            DistanceSource::TruePatristic,
            DistanceSource::SequencesP,
            DistanceSource::SequencesJc,
            DistanceSource::SequencesK2p,
        ] {
            assert_eq!(DistanceSource::parse(s.name()), Some(s));
        }
        assert_eq!(Method::parse("nope"), None);
        assert_eq!(DistanceSource::parse("nope"), None);
    }

    #[test]
    fn cell_seeds_are_distinct_and_deterministic() {
        let mut seen = std::collections::HashSet::new();
        for s in 0..8 {
            for r in 0..16 {
                let seed = cell_seed(42, s, r);
                assert_eq!(seed, cell_seed(42, s, r), "derivation must be pure");
                assert!(seen.insert(seed), "cell seeds must not collide in a grid");
            }
        }
        assert_ne!(cell_seed(1, 0, 0), cell_seed(2, 0, 0));
    }

    #[test]
    fn small_sweep_persists_everything() {
        let (_d, mut repo, handle) = gold_repo(40, 200, 9);
        let spec = ExperimentSpec {
            name: "sweep".to_string(),
            methods: vec![Method::Upgma, Method::NeighborJoining],
            strategies: vec![
                SamplingStrategy::Uniform { k: 8 },
                SamplingStrategy::Uniform { k: 12 },
            ],
            replicates: 2,
            distance_source: DistanceSource::SequencesJc,
            compute_triplets: false,
            seed: 77,
            workers: 4,
            cell_commits: false,
        };
        let record = ExperimentRunner::new(&mut repo, handle).run(&spec).unwrap();
        assert_eq!(record.runs, 8);
        assert_eq!(record.name, "sweep");

        // Catalog rows are all there, in grid order.
        let fetched = repo.view().experiment_by_name("sweep").unwrap();
        assert_eq!(fetched.id, record.id);
        assert_eq!(fetched.spec.methods, spec.methods);
        let results = repo.view().experiment_results(record.id).unwrap();
        assert_eq!(results.len(), 8);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.experiment, record.id);
            let expected_cell = (
                i / 4, // method index: 2 strategies × 2 replicates
                (i / 2) % 2,
                i % 2,
            );
            assert_eq!(
                (r.method, r.strategy_index, r.replicate),
                (
                    spec.methods[expected_cell.0],
                    expected_cell.1,
                    expected_cell.2
                )
            );
            assert_eq!(r.cell_seed, cell_seed(77, expected_cell.1, expected_cell.2));
            // The reconstruction is an ordinary stored tree.
            let tree = repo.view().tree_record(r.recon).unwrap();
            assert_eq!(tree.leaf_count as usize, r.sample_size);
            // Per-clade rows reference stored nodes of that tree.
            let clades = repo.view().experiment_clades(r.id).unwrap();
            assert!(!clades.is_empty());
            for c in &clades {
                assert_eq!(c.node.0 >> TREE_SHIFT, r.recon.0);
                assert!(repo.view().node_record(c.node).is_ok());
            }
            // Agreement rows are consistent with the rooted RF share count.
            let agreeing = clades.iter().filter(|c| c.agrees).count();
            assert_eq!(agreeing, r.rooted_rf.shared);
        }
        // History carries the spec, seed and tree handles.
        let history = repo.view().history_of_kind(QueryKind::Experiment).unwrap();
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].params["seed"], 77);
        assert_eq!(history[0].params["gold_tree"], handle.0);
        assert_eq!(
            history[0].params["recon_trees"].as_array().unwrap().len(),
            8
        );
        repo.view().integrity_check().unwrap();
    }

    #[test]
    fn duplicate_experiment_name_rejected() {
        let (_d, mut repo, handle) = gold_repo(24, 100, 4);
        let spec = ExperimentSpec {
            name: "dup".to_string(),
            methods: vec![Method::NeighborJoining],
            strategies: vec![SamplingStrategy::Uniform { k: 6 }],
            replicates: 1,
            distance_source: DistanceSource::SequencesJc,
            compute_triplets: false,
            seed: 1,
            workers: 1,
            cell_commits: false,
        };
        ExperimentRunner::new(&mut repo, handle).run(&spec).unwrap();
        assert!(matches!(
            ExperimentRunner::new(&mut repo, handle).run(&spec),
            Err(CrimsonError::DuplicateExperiment(_))
        ));
    }

    #[test]
    fn failed_sweep_rolls_back_completely() {
        let (_d, mut repo, handle) = gold_repo(24, 0, 4); // no sequences
        let trees_before = repo.view().list_trees().unwrap().len();
        let spec = ExperimentSpec {
            name: "doomed".to_string(),
            methods: vec![Method::NeighborJoining],
            strategies: vec![SamplingStrategy::Uniform { k: 6 }],
            replicates: 2,
            // Sequence distances without sequences: every cell fails.
            distance_source: DistanceSource::SequencesJc,
            compute_triplets: false,
            seed: 1,
            workers: 2,
            cell_commits: false,
        };
        assert!(ExperimentRunner::new(&mut repo, handle).run(&spec).is_err());
        assert_eq!(repo.view().list_trees().unwrap().len(), trees_before);
        assert!(repo.view().list_experiments().unwrap().is_empty());
        assert!(repo
            .view()
            .history_of_kind(QueryKind::Experiment)
            .unwrap()
            .is_empty());
        repo.view().integrity_check().unwrap();
        // The failure is transient state only: the same name works next.
        let mut ok_spec = spec.clone();
        ok_spec.distance_source = DistanceSource::TruePatristic;
        ExperimentRunner::new(&mut repo, handle)
            .run(&ok_spec)
            .unwrap();
    }

    #[test]
    fn empty_grid_rejected() {
        let (_d, mut repo, handle) = gold_repo(16, 50, 2);
        let mut runner = ExperimentRunner::new(&mut repo, handle);
        let bad = ExperimentSpec {
            name: "x".to_string(),
            methods: vec![],
            strategies: vec![SamplingStrategy::Uniform { k: 4 }],
            replicates: 1,
            distance_source: DistanceSource::TruePatristic,
            compute_triplets: false,
            seed: 0,
            workers: 1,
            cell_commits: false,
        };
        assert!(runner.run(&bad).is_err());
    }

    #[test]
    fn rerun_reproduces_metrics_under_new_name() {
        let (_d, mut repo, handle) = gold_repo(32, 150, 21);
        let spec = ExperimentSpec {
            name: "orig".to_string(),
            methods: vec![Method::NeighborJoining],
            strategies: vec![SamplingStrategy::Uniform { k: 10 }],
            replicates: 2,
            distance_source: DistanceSource::SequencesJc,
            compute_triplets: false,
            seed: 5,
            workers: 2,
            cell_commits: false,
        };
        let first = ExperimentRunner::new(&mut repo, handle).run(&spec).unwrap();
        let second = ExperimentRunner::new(&mut repo, handle)
            .rerun("orig", "again")
            .unwrap();
        let r1 = repo.view().experiment_results(first.id).unwrap();
        let r2 = repo.view().experiment_results(second.id).unwrap();
        assert_eq!(r1.len(), r2.len());
        for (a, b) in r1.iter().zip(&r2) {
            assert_eq!(a.rf, b.rf);
            assert_eq!(a.rooted_rf, b.rooted_rf);
            assert_eq!(a.sample_size, b.sample_size);
            assert_eq!(a.cell_seed, b.cell_seed);
            // Every rerun reconstruction is a dedup hit on the original's
            // tree, so its agreement rows are remapped through the clade
            // hashes and must land on exactly the original's nodes.
            assert_eq!(a.recon, b.recon);
            let clades = |id| -> Vec<(StoredNodeId, u32, bool)> {
                let rows = repo.view().experiment_clades(id).unwrap();
                rows.iter().map(|c| (c.node, c.size, c.agrees)).collect()
            };
            let (ca, cb) = (clades(a.id), clades(b.id));
            assert!(!ca.is_empty());
            assert_eq!(ca, cb);
        }
    }
}
