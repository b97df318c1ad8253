//! Experiment E4 — structure queries (LCA, ancestor test, minimal spanning
//! clade) against the disk-resident repository.
//!
//! Paper claim: structure-based queries are efficient on huge trees because
//! only the rows a query touches are read (labels + a bounded number of
//! frame hops), not the whole tree.

use crimson::prelude::*;
use crimson_bench::workloads;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::hint::black_box;

const TREE_SIZES: [usize; 3] = [1_000, 10_000, 100_000];

fn bench_repository_lca(c: &mut Criterion) {
    workloads::print_table(
        "E4: stored-tree structure queries",
        "leaves     query             note",
    );

    let mut group = c.benchmark_group("E4_repository_lca");
    for &leaves in &TREE_SIZES {
        let tree = workloads::simulated_tree(leaves, 42);
        let (_dir, repo, handle) = workloads::repository_with_tree(&tree, 16, 4096);
        let stored_leaves = repo.view().leaves(handle).expect("leaves");
        let mut rng = StdRng::seed_from_u64(3);
        let pairs: Vec<(StoredNodeId, StoredNodeId)> = (0..64)
            .map(|_| {
                (
                    *stored_leaves.choose(&mut rng).expect("non-empty"),
                    *stored_leaves.choose(&mut rng).expect("non-empty"),
                )
            })
            .collect();
        println!("{leaves:<10} lca               64 random leaf pairs");
        group.bench_with_input(BenchmarkId::new("lca", leaves), &pairs, |b, pairs| {
            b.iter(|| {
                for &(x, y) in pairs {
                    black_box(repo.view().lca(x, y).expect("lca"));
                }
            })
        });
        group.bench_with_input(
            BenchmarkId::new("is_ancestor", leaves),
            &pairs,
            |b, pairs| {
                b.iter(|| {
                    for &(x, y) in pairs {
                        black_box(repo.view().is_ancestor(x, y).expect("ancestor test"));
                    }
                })
            },
        );
    }
    group.finish();
}

fn bench_spanning_clade(c: &mut Criterion) {
    let mut group = c.benchmark_group("E4_minimal_spanning_clade");
    let tree = workloads::simulated_tree(10_000, 42);
    let (_dir, repo, handle) = workloads::repository_with_tree(&tree, 16, 4096);
    let stored_leaves = repo.view().leaves(handle).expect("leaves");
    for &set_size in &[2usize, 8, 32] {
        let mut rng = StdRng::seed_from_u64(set_size as u64);
        let sets: Vec<Vec<StoredNodeId>> = (0..8)
            .map(|_| {
                stored_leaves
                    .choose_multiple(&mut rng, set_size)
                    .copied()
                    .collect()
            })
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(set_size), &sets, |b, sets| {
            b.iter(|| {
                for set in sets {
                    black_box(repo.view().minimal_spanning_clade(set).expect("clade"));
                }
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = workloads::criterion_config();
    targets = bench_repository_lca, bench_spanning_clade
}
criterion_main!(benches);
