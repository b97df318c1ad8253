//! Experiment E7 — tree pattern match (§2.2): matching positive and perturbed
//! patterns of growing size against stored trees.

use crimson_bench::workloads;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use phylo::Tree;
use std::collections::HashMap;
use std::hint::black_box;

/// Build a positive pattern (a projection of the stored tree) and a perturbed
/// negative pattern (two leaf names swapped across clades).
fn patterns(tree: &Tree, size: usize) -> (Tree, Tree) {
    let names = workloads::leaf_subset(tree, size);
    let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let positive = phylo::ops::project_by_names(tree, &refs).expect("projection");
    let mut negative = positive.clone();
    // Swap the first and last leaf names: for a non-trivial pattern this
    // moves the names across clades and breaks the match.
    let leaves: Vec<_> = negative.leaf_ids().collect();
    let first = leaves[0];
    let last = leaves[leaves.len() - 1];
    let a = negative.name(first).unwrap_or_default().to_string();
    let b = negative.name(last).unwrap_or_default().to_string();
    let mut renames = HashMap::new();
    renames.insert(a.clone(), b.clone());
    renames.insert(b, a);
    phylo::ops::rename_leaves(&mut negative, &renames);
    (positive, negative)
}

fn bench_pattern_match(c: &mut Criterion) {
    workloads::print_table(
        "E7: tree pattern match",
        "tree_leaves   pattern_leaves   positive_exact   negative_exact   negative_nRF",
    );

    let mut group = c.benchmark_group("E7_pattern_match");
    for &tree_leaves in &[10_000usize, 100_000] {
        let tree = workloads::simulated_tree(tree_leaves, 33);
        let (_dir, repo, handle) = workloads::repository_with_tree(&tree, 16, 8192);
        for &pattern_size in &[4usize, 16, 64, 256] {
            let (positive, negative) = patterns(&tree, pattern_size);
            let pos = repo.view().pattern_match(handle, &positive).expect("match");
            let neg = repo.view().pattern_match(handle, &negative).expect("match");
            println!(
                "{tree_leaves:<13} {pattern_size:<16} {:<16} {:<16} {:.3}",
                pos.exact_topology, neg.exact_topology, neg.rf.normalized
            );
            group.bench_with_input(
                BenchmarkId::new(format!("tree{tree_leaves}-positive"), pattern_size),
                &positive,
                |b, pattern| {
                    b.iter(|| black_box(repo.view().pattern_match(handle, pattern).expect("match")))
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("tree{tree_leaves}-perturbed"), pattern_size),
                &negative,
                |b, pattern| {
                    b.iter(|| black_box(repo.view().pattern_match(handle, pattern).expect("match")))
                },
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = workloads::criterion_config();
    targets = bench_pattern_match
}
criterion_main!(benches);
