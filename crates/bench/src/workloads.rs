//! Workload construction shared by the Criterion benchmark targets.
//!
//! Each experiment in `EXPERIMENTS.md` needs trees, repositories and samples
//! of controlled size. Building them here keeps the individual bench files
//! focused on what they measure.

use crimson::prelude::*;
use phylo::builder::caterpillar;
use phylo::Tree;
use simulation::birth_death::yule_tree;
use simulation::gold::{GoldStandard, GoldStandardBuilder};
use simulation::seqevo::Model;
use std::path::PathBuf;

/// Default Criterion settings used by every bench target: small sample counts
/// and short measurement windows so the full harness finishes in minutes
/// while still producing stable medians.
pub fn criterion_config() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200))
        .configure_from_args()
}

/// A deep, fully unbalanced tree — the worst case for flat Dewey labels.
pub fn deep_tree(depth: usize) -> Tree {
    caterpillar(depth, 1.0)
}

/// A simulated (Yule) phylogeny with `leaves` extant taxa.
pub fn simulated_tree(leaves: usize, seed: u64) -> Tree {
    yule_tree(leaves, 1.0, seed)
}

/// A gold standard with sequences, sized for benchmark-manager experiments.
///
/// The substitution rate is kept low (0.02 per unit time) so that even the
/// most divergent pairs in a multi-thousand-taxon Yule tree stay below the
/// Jukes–Cantor saturation threshold (p < 0.75); saturated pairs would abort
/// the distance correction rather than silently degrade it.
pub fn gold_standard(leaves: usize, sites: usize, seed: u64) -> GoldStandard {
    GoldStandardBuilder::new()
        .leaves(leaves)
        .sequence_length(sites)
        .model(Model::Jc69 { rate: 0.02 })
        .seed(seed)
        .build()
        .expect("gold standard parameters are valid")
}

/// A repository in a fresh temporary directory, loaded with the given tree.
/// The TempDir must be kept alive for the lifetime of the repository.
pub fn repository_with_tree(
    tree: &Tree,
    frame_depth: usize,
    buffer_pool_pages: usize,
) -> (tempfile::TempDir, Repository, TreeHandle) {
    let dir = tempfile::tempdir().expect("temp dir");
    let mut repo = Repository::create(
        dir.path().join("bench.crimson"),
        RepositoryOptions {
            frame_depth,
            buffer_pool_pages,
            ..Default::default()
        },
    )
    .expect("create repository");
    let handle = repo.load_tree("bench", tree).expect("load tree");
    (dir, repo, handle)
}

/// A repository loaded with a full gold standard (tree + sequences).
pub fn repository_with_gold(
    gold: &GoldStandard,
    frame_depth: usize,
    buffer_pool_pages: usize,
) -> (tempfile::TempDir, Repository, TreeHandle) {
    let dir = tempfile::tempdir().expect("temp dir");
    let mut repo = Repository::create(
        dir.path().join("bench.crimson"),
        RepositoryOptions {
            frame_depth,
            buffer_pool_pages,
            ..Default::default()
        },
    )
    .expect("create repository");
    let handle = repo
        .load_gold_standard("gold", gold)
        .expect("load gold standard");
    (dir, repo, handle)
}

/// A mixed read batch over a loaded tree: LCA pairs, ancestor tests,
/// three-node spanning clades and small projections in a deterministic
/// shuffle — the per-query profile the concurrent-reads smoke measures at
/// several worker counts.
pub fn mixed_read_batch(
    repo: &Repository,
    handle: TreeHandle,
    queries: usize,
    seed: u64,
) -> QueryBatch {
    use rand::prelude::*;
    let leaves = repo.view().leaves(handle).expect("leaves");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = QueryBatch::new();
    while batch.len() < queries {
        let a = *leaves.choose(&mut rng).expect("non-empty");
        let b = *leaves.choose(&mut rng).expect("non-empty");
        match batch.len() % 16 {
            0 => {
                let c = *leaves.choose(&mut rng).expect("non-empty");
                batch.push(BatchQuery::SpanningClade(vec![a, b, c]));
            }
            8 => {
                let sel: Vec<StoredNodeId> = leaves
                    .choose_multiple(&mut rng, 8.min(leaves.len()))
                    .copied()
                    .collect();
                batch.push(BatchQuery::Project(handle, sel));
            }
            n if n % 2 == 0 => {
                batch.push(BatchQuery::Lca(a, b));
            }
            _ => {
                batch.push(BatchQuery::IsAncestor(a, b));
            }
        };
    }
    batch
}

/// Evenly spaced leaf-name subsets of a tree, for projection/pattern inputs.
pub fn leaf_subset(tree: &Tree, count: usize) -> Vec<String> {
    let names = tree.leaf_names();
    assert!(count <= names.len(), "subset larger than the leaf set");
    let step = (names.len() / count).max(1);
    names.into_iter().step_by(step).take(count).collect()
}

/// Path of a scratch NEXUS file containing the given gold standard; used by
/// the loading benchmark.
pub fn write_nexus_file(dir: &tempfile::TempDir, gold: &GoldStandard) -> PathBuf {
    let path = dir.path().join("gold.nex");
    std::fs::write(&path, phylo::nexus::write(&gold.to_nexus())).expect("write NEXUS");
    path
}

/// Print a table header used by the experiment summary output.
pub fn print_table(title: &str, header: &str) {
    println!("\n=== {title} ===");
    println!("{header}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_constructors() {
        let deep = deep_tree(100);
        assert_eq!(deep.max_depth(), 100);
        let sim = simulated_tree(32, 1);
        assert_eq!(sim.leaf_count(), 32);
        let gold = gold_standard(16, 50, 2);
        assert_eq!(gold.taxon_count(), 16);
        let subset = leaf_subset(&sim, 8);
        assert_eq!(subset.len(), 8);
        let (_dir, repo, handle) = repository_with_tree(&sim, 8, 256);
        assert_eq!(repo.view().tree_record(handle).unwrap().leaf_count, 32);
    }
}
