//! Experiment E6 — tree projection (§2.2): projecting the stored tree onto
//! sampled leaf sets of increasing size, from trees of increasing size.
//!
//! Paper claim: projection via pre-order insertion and LCA-based ancestor
//! checks touches only the sampled root paths, so its cost scales with the
//! sample, not with the stored tree.

use crimson_bench::workloads;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_projection(c: &mut Criterion) {
    workloads::print_table(
        "E6: tree projection over sampled leaf sets",
        "tree_leaves   sample   projected_nodes",
    );

    let mut group = c.benchmark_group("E6_projection");
    for &tree_leaves in &[10_000usize, 100_000] {
        let tree = workloads::simulated_tree(tree_leaves, 21);
        let (_dir, repo, handle) = workloads::repository_with_tree(&tree, 16, 8192);
        for &sample_size in &[10usize, 100, 1_000] {
            let sample = repo
                .view()
                .sample_uniform(handle, sample_size, 5)
                .expect("sample");
            let projected = repo.view().project(handle, &sample).expect("projection");
            println!(
                "{tree_leaves:<13} {sample_size:<8} {}",
                projected.node_count()
            );
            group.bench_with_input(
                BenchmarkId::new(format!("tree{tree_leaves}"), sample_size),
                &sample,
                |b, sample| {
                    b.iter(|| black_box(repo.view().project(handle, sample).expect("projection")))
                },
            );
        }
    }
    group.finish();

    // In-memory projection baseline (the whole tree resident), for the same
    // sample sizes — quantifies the cost of going through the repository.
    let mut group = c.benchmark_group("E6_projection_in_memory_baseline");
    let tree = workloads::simulated_tree(100_000, 21);
    for &sample_size in &[10usize, 100, 1_000] {
        let names = workloads::leaf_subset(&tree, sample_size);
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(sample_size),
            &refs,
            |b, refs| {
                b.iter(|| black_box(phylo::ops::project_by_names(&tree, refs).expect("projection")))
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = workloads::criterion_config();
    targets = bench_projection
}
criterion_main!(benches);
