//! The CIPRes-style benchmarking workflow the paper was built for:
//!
//! 1. generate a gold-standard simulation tree with sequence data,
//! 2. load it into the Crimson repository,
//! 3. sample species (uniformly and with respect to time),
//! 4. project the gold standard onto each sample,
//! 5. reconstruct trees with UPGMA and Neighbor-Joining from the sampled
//!    sequences,
//! 6. score every reconstruction against the projection with
//!    Robinson–Foulds.
//!
//! ```bash
//! cargo run --release --example benchmark_pipeline
//! ```

use crimson::experiment::{DistanceSource, EvalSpec, ExperimentRunner, Method};
use crimson::prelude::*;
use simulation::gold::GoldStandardBuilder;
use simulation::seqevo::Model;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("crimson-benchmark");
    std::fs::create_dir_all(&dir)?;
    let db_path = dir.join("benchmark.crimson");
    let _ = std::fs::remove_file(&db_path);

    // 1. A gold standard: 1000 taxa, 800 sites under Jukes-Cantor.
    println!("generating gold standard (1000 taxa, 800 sites, JC69)…");
    let gold = GoldStandardBuilder::new()
        .leaves(1000)
        .sequence_length(800)
        .model(Model::Jc69 { rate: 0.1 })
        .seed(2026)
        .build()?;

    // 2. Load it.
    let mut repo = Repository::create(&db_path, RepositoryOptions::default())?;
    let handle = repo.load_gold_standard("gold_standard", &gold)?;
    let record = repo.view().tree_record(handle)?;
    println!(
        "loaded `{}`: {} nodes, {} taxa, {} species sequences\n",
        record.name,
        record.node_count,
        record.leaf_count,
        repo.view().species_count(handle)?
    );

    // 3–6. Run the benchmark matrix.
    println!("{:-^100}", " benchmark runs ");
    let mut manager = ExperimentRunner::new(&mut repo, handle);
    for &sample_size in &[16usize, 64, 256] {
        for strategy in [
            SamplingStrategy::Uniform { k: sample_size },
            SamplingStrategy::TimeRespecting {
                time: 0.5,
                k: sample_size,
            },
        ] {
            let strategy_name = match &strategy {
                SamplingStrategy::Uniform { .. } => "uniform",
                SamplingStrategy::TimeRespecting { .. } => "time(0.5)",
                SamplingStrategy::UserList { .. } => "user",
            };
            for (method, source) in [
                (Method::Upgma, DistanceSource::SequencesJc),
                (Method::NeighborJoining, DistanceSource::SequencesJc),
                (Method::NeighborJoining, DistanceSource::TruePatristic),
            ] {
                let report = manager.evaluate(&EvalSpec {
                    strategy: strategy.clone(),
                    method,
                    distance_source: source,
                    compute_triplets: sample_size <= 64,
                    seed: 42,
                })?;
                let triplet = report
                    .triplet
                    .map(|t| format!("{t:.3}"))
                    .unwrap_or_else(|| "-".to_string());
                println!(
                    "{:<10} {}   triplet={}",
                    strategy_name,
                    report.summary_row(),
                    triplet
                );
            }
        }
    }

    // The query repository now holds every run for later recall.
    let history = repo
        .view()
        .history_of_kind(crimson::history::QueryKind::Benchmark)?;
    println!(
        "\n{} benchmark runs recorded in the query repository",
        history.len()
    );

    // 7. A *persisted* experiment sweep: the grid fans across snapshot
    //    workers, every reconstruction is stored as an ordinary tree, and
    //    spec, metrics and per-clade agreement rows land in the experiment
    //    catalog — one atomic transaction, re-runnable from its stored spec.
    println!("\n{:-^100}", " persisted experiment sweep ");
    let spec = crimson::experiment::ExperimentSpec {
        name: "demo-sweep".to_string(),
        methods: vec![Method::Upgma, Method::NeighborJoining],
        strategies: vec![
            SamplingStrategy::Uniform { k: 32 },
            SamplingStrategy::Uniform { k: 64 },
            SamplingStrategy::TimeRespecting { time: 1e6, k: 48 },
        ],
        replicates: 3,
        distance_source: DistanceSource::SequencesJc,
        compute_triplets: false,
        seed: 2026,
        workers: 4,
        cell_commits: false,
    };
    let record = ExperimentRunner::new(&mut repo, handle).run(&spec)?;
    println!(
        "experiment `{}` (id {}): {} runs persisted in {:.0} ms",
        record.name, record.id, record.runs, record.wall_ms
    );
    for result in repo.view().experiment_results(record.id)? {
        let clades = repo.view().experiment_clades(result.id)?;
        let agreeing = clades.iter().filter(|c| c.agrees).count();
        println!(
            "  {:<6} strategy#{} rep{}  {:>3} taxa  RF={:<3} nRF={:.3}  clades {agreeing}/{} agree  tree #{}",
            result.method.name(),
            result.strategy_index,
            result.replicate,
            result.sample_size,
            result.rf.distance,
            result.rf.normalized,
            clades.len(),
            result.recon.0,
        );
    }
    // Stored reconstructions compare index-natively — no materialization.
    // Methods of the same (strategy, replicate) cell score the same sample,
    // so UPGMA's and NJ's stored trees share a leaf set.
    let results = repo.view().experiment_results(record.id)?;
    let upgma = &results[0]; // (UPGMA, strategy 0, replicate 0)
    let nj = results
        .iter()
        .find(|r| {
            r.method == Method::NeighborJoining
                && r.strategy_index == upgma.strategy_index
                && r.replicate == upgma.replicate
        })
        .expect("the grid contains both methods");
    let cmp = repo.view().compare_stored(upgma.recon, nj.recon, false)?;
    println!(
        "\nindex-native RF between stored UPGMA #{} and NJ #{} reconstructions: {} (normalized {:.3})",
        upgma.recon.0, nj.recon.0, cmp.rf.distance, cmp.rf.normalized
    );
    // 8. Content-addressed storage: every stored tree carries a canonical
    //    128-bit per-clade hash, so whole-tree equality is a stats-row probe
    //    and duplicate reconstructions deduplicate on store.
    println!("\n{:-^100}", " content-addressed storage ");

    // Re-storing the gold standard is a dedup hit — no bytes written, the
    // canonical handle comes back.
    let (canon, hit) = repo.store_tree_dedup("gold_again", &gold.tree)?;
    println!(
        "store_tree_dedup(gold again) -> tree #{} (dedup hit: {hit})",
        canon.0
    );
    assert!(hit && canon == handle);

    // Hash-equal stored trees compare in O(1): `trees_equal` is two index
    // probes, and `compare_stored` short-circuits off the stats rows
    // (distances zero, shared counts exact) without streaming a single
    // interval row.
    let stats = repo.view().tree_stats(handle)?;
    println!(
        "gold root hash {:032x}: {} rooted clades, {} unrooted splits",
        stats.root_hash.to_u128(),
        stats.rooted_clades,
        stats.unrooted_splits
    );
    println!(
        "trees_equal(gold, gold)      = {}",
        repo.view().trees_equal(handle, handle)?
    );
    println!(
        "trees_equal(upgma, nj)       = {}",
        repo.view().trees_equal(upgma.recon, nj.recon)?
    );
    println!(
        "trees_with_root_hash(gold)   = {:?}",
        repo.view().trees_with_root_hash(stats.root_hash)?
    );

    // The global hash index also answers subtree queries: every stored
    // occurrence of a clade (tree roots plus spans of >= 32 nodes) by hash.
    let occurrences = repo.view().subtrees_with_hash(stats.root_hash)?;
    println!(
        "subtrees_with_hash(gold root) -> {} occurrence(s)",
        occurrences.len()
    );

    // A cold store keeps only the spine: subtrees already present in a hot
    // tree become bridge rows instead of node rows, and reads stay
    // transparent (the comparison below streams through the bridges).
    let cold = repo.store_tree_shared("gold_cold", &gold.tree, 32)?;
    let refs = repo.view().clade_refs_of(cold)?;
    let cmp = repo.view().compare_stored(handle, cold, false)?;
    println!(
        "store_tree_shared(gold) -> tree #{}: {} bridge rows, RF vs canonical = {}",
        cold.0,
        refs.len(),
        cmp.rf.distance
    );

    let cs = repo.view().content_stats()?;
    println!(
        "content stats: {} trees, {} cold; {} logical nodes, {} stored, {} bridged via {} refs",
        cs.trees, cs.cold_trees, cs.logical_nodes, cs.stored_nodes, cs.bridged_nodes, cs.dedup_refs
    );
    repo.flush()?;
    Ok(())
}
