//! Experiment E5 — sampling queries: uniform random sampling and sampling
//! with respect to an evolutionary time (§2.2), including the worked Figure 1
//! example printed as a correctness table.

use crimson_bench::workloads;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use phylo::builder::figure1_tree;
use std::hint::black_box;

fn print_figure1_example() {
    workloads::print_table(
        "E5a: time-respecting sampling, Figure 1 worked example (t = 1, k = 4)",
        "seed   sample",
    );
    let tree = figure1_tree();
    let (_dir, repo, handle) = workloads::repository_with_tree(&tree, 2, 256);
    for seed in 0..4u64 {
        let sample = repo
            .view()
            .sample_by_time(handle, 1.0, 4, seed)
            .expect("sample");
        let mut names = repo.view().names_of(&sample).expect("names");
        names.sort();
        println!("{seed:<6} {{{}}}", names.join(", "));
    }
}

fn bench_sampling(c: &mut Criterion) {
    print_figure1_example();

    let tree = workloads::simulated_tree(20_000, 9);
    let (_dir, repo, handle) = workloads::repository_with_tree(&tree, 16, 8192);
    let height = {
        let leaves = repo.view().leaves(handle).expect("leaves");
        repo.view()
            .node_record(leaves[0])
            .expect("record")
            .root_distance
    };

    let mut group = c.benchmark_group("E5_sampling");
    for &k in &[10usize, 100, 1_000] {
        group.bench_with_input(BenchmarkId::new("uniform", k), &k, |b, &k| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                black_box(repo.view().sample_uniform(handle, k, seed).expect("sample"))
            })
        });
        group.bench_with_input(BenchmarkId::new("time-respecting", k), &k, |b, &k| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                black_box(
                    repo.view()
                        .sample_by_time(handle, height * 0.5, k, seed)
                        .expect("sample"),
                )
            })
        });
    }
    group.finish();

    // Frontier computation alone, as the time threshold varies.
    let mut group = c.benchmark_group("E5_time_frontier");
    for &fraction in &[0.1f64, 0.5, 0.9] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("t={fraction}H")),
            &fraction,
            |b, &fraction| {
                b.iter(|| {
                    black_box(
                        repo.view()
                            .time_frontier(handle, height * fraction)
                            .expect("frontier"),
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = workloads::criterion_config();
    targets = bench_sampling
}
criterion_main!(benches);
