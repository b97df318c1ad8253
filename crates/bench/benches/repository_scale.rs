//! Experiment E9 — disk-backed repository vs in-memory tree: load cost,
//! point-query latency (cold and warm buffer pool) and buffer-pool sweep.
//!
//! Paper claim: "simulation trees are huge, yet the portions retrieved by a
//! single query are relatively small", so a disk-backed design with random
//! access by name/time beats loading the whole tree into memory — provided
//! point queries stay cheap.

use crimson::prelude::*;
use crimson_bench::workloads;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::hint::black_box;

fn print_load_table() {
    workloads::print_table(
        "E9a: repository load cost and on-disk size",
        "leaves     nodes      load_ms     pages     bytes_per_node",
    );
    for &leaves in &[1_000usize, 10_000, 100_000] {
        let tree = workloads::simulated_tree(leaves, 3);
        let start = std::time::Instant::now();
        let (_dir, repo, _handle) = workloads::repository_with_tree(&tree, 16, 4096);
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        let pages = repo.buffer_stats(); // touch stats to keep repo alive
        let _ = pages;
        let page_count = {
            // page_count isn't exposed on Repository; approximate via node
            // count * row size is not meaningful here, so report pages from
            // the storage layer through the flush-size proxy: bytes on disk.
            std::fs::metadata(_dir.path().join("bench.crimson"))
                .map(|m| m.len())
                .unwrap_or(0)
        };
        println!(
            "{:<10} {:<10} {:<11.1} {:<9} {:<8.1}",
            leaves,
            tree.node_count(),
            elapsed,
            page_count / 8192,
            page_count as f64 / tree.node_count() as f64
        );
    }
}

fn bench_point_queries(c: &mut Criterion) {
    print_load_table();

    let tree = workloads::simulated_tree(100_000, 3);
    let names = workloads::leaf_subset(&tree, 512);

    // Warm (large buffer pool) vs cold-ish (tiny buffer pool) repositories.
    let mut group = c.benchmark_group("E9_point_query_by_name");
    for (label, pages) in [("warm-16k-pages", 16_384usize), ("cold-64-pages", 64)] {
        let (_dir, repo, handle) = workloads::repository_with_tree(&tree, 16, pages);
        let mut rng = StdRng::seed_from_u64(1);
        let mut probe_names = names.clone();
        probe_names.shuffle(&mut rng);
        group.bench_with_input(
            BenchmarkId::from_parameter(label),
            &probe_names,
            |b, probes| {
                b.iter(|| {
                    for name in probes.iter().take(64) {
                        black_box(repo.view().species_node(handle, name).expect("lookup"));
                    }
                })
            },
        );
    }
    group.finish();

    // In-memory baseline: the whole tree resident, name lookup by linear scan
    // of the leaf set (what a naive main-memory tool does) and by a prebuilt
    // name index (the best case).
    let mut group = c.benchmark_group("E9_in_memory_baseline");
    group.bench_function("linear-scan-name-lookup", |b| {
        b.iter(|| {
            for name in names.iter().take(64) {
                black_box(tree.find_leaf_by_name(name));
            }
        })
    });
    let index = tree.name_index().expect("unique names");
    group.bench_function("hash-index-name-lookup", |b| {
        b.iter(|| {
            for name in names.iter().take(64) {
                black_box(index.get(name.as_str()));
            }
        })
    });
    group.finish();

    // Buffer-pool size sweep: LCA queries under increasing memory pressure.
    let mut group = c.benchmark_group("E9_buffer_pool_sweep");
    for &pages in &[64usize, 512, 4_096] {
        let (_dir, repo, handle) = workloads::repository_with_tree(&tree, 16, pages);
        let leaves = repo.view().leaves(handle).expect("leaves");
        let mut rng = StdRng::seed_from_u64(11);
        let pairs: Vec<(StoredNodeId, StoredNodeId)> = (0..64)
            .map(|_| {
                (
                    *leaves.choose(&mut rng).expect("leaf"),
                    *leaves.choose(&mut rng).expect("leaf"),
                )
            })
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(pages), &pairs, |b, pairs| {
            b.iter(|| {
                for &(x, y) in pairs {
                    black_box(repo.view().lca(x, y).expect("lca"));
                }
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = workloads::criterion_config();
    targets = bench_point_queries
}
criterion_main!(benches);
