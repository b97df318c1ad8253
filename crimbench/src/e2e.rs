//! The untraced run: end-to-end metrics through the served front door.

use std::path::Path;
use std::time::{Duration, Instant};

use crimson_server::TenantOptions;

use crate::inputs::{generate, Shape};
use crate::report::{Record, Report};
use crate::serve::{self, beside, drive_reads, run_writes};
use crate::util::{median, peak_rss_mb, percentile, reset_peak_rss};

/// Reads run this long before the window, so caches and pools settle.
const WARMUP: Duration = Duration::from_millis(500);

pub fn run(shape: &Shape, seed: u64, seconds: u64, work: &Path) -> Report {
    let wall = Instant::now();
    let inputs = generate(shape, seed);

    // The first set-up is the tenant the run measures; the others repeat
    // it after the window (so their leftovers do not count towards the
    // peak RSS) and only add samples to `setup_s`.
    let t = Instant::now();
    let served = serve::setup(shape, &inputs, &work.join("setup-0"));
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let tree = served.tree;

    // The peak RSS counts from here: the served tenant and everything the
    // requests make it hold, not the input generator.
    reset_peak_rss();
    let mut reads = served.client();
    let slice = Duration::from_millis(shape.slice_ms);
    let warm_end = Instant::now() + WARMUP;
    drive_reads(&mut reads, &inputs, tree, shape.depth, slice, &|now| {
        now >= warm_end
    });

    // The peak RSS is read when the read window ends. Writes run beside the
    // reads, or after them on a tenant of their own with the default pool:
    // the read workloads only measure the write metrics there, so that
    // every workload reports every metric, and a cold pool would add its
    // eviction noise to them.
    let tail_shape = Shape {
        pool_pages: TenantOptions::default().buffer_pool_pages,
        ..*shape
    };
    let (w, r, peak_rss, tail) = if shape.writes_beside_reads {
        let mut writes = served.client();
        let (w, r) = beside(
            || run_writes(&mut writes, shape, &inputs, seed),
            |done| {
                drive_reads(&mut reads, &inputs, tree, shape.depth, slice, &|_| {
                    done.load(std::sync::atomic::Ordering::Acquire)
                })
            },
        );
        (w, r, peak_rss_mb(), None)
    } else {
        let end = Instant::now() + Duration::from_secs(seconds);
        let r = drive_reads(&mut reads, &inputs, tree, shape.depth, slice, &|now| {
            now >= end
        });
        let peak_rss = peak_rss_mb();
        let tail = serve::setup(&tail_shape, &inputs, &work.join("writes"));
        let w = run_writes(&mut tail.client(), shape, &inputs, seed);
        (w, r, peak_rss, Some(tail))
    };
    drop(reads);

    let (bytes, dir) = serve::finish(served);
    let stored = serve::check_sweeps(shape, &inputs, &dir);
    let sweeps = match tail {
        Some(tail) => serve::check_sweeps(&tail_shape, &inputs, &serve::finish(tail).1),
        None => stored.clone(),
    };
    for i in 1..shape.setups {
        let root = work.join(format!("setup-{i}"));
        let t = Instant::now();
        let again = serve::setup(shape, &inputs, &root);
        setup_s.push(t.elapsed().as_secs_f64());
        again.server.shutdown();
        let _ = std::fs::remove_dir_all(root);
    }

    // Read metrics come from the better quartile of the window's slices:
    // other tenants of the host only ever slow a slice down, so the better
    // quartile follows the program and not its neighbours. Write metrics
    // are order statistics of the individual calls.
    let best_quartile = |f: &dyn Fn(&serve::Slice) -> f64, higher_is_better: bool| {
        let mut v: Vec<f64> = r.slices.iter().map(f).collect();
        v.sort_by(|a, b| a.total_cmp(b));
        percentile(&v, if higher_is_better { 0.75 } else { 0.25 })
    };
    let mut load = w.load_ms.clone();
    load.sort_by(|a, b| a.total_cmp(b));

    let mut report = Report::new();
    report.metric("setup_s", median(&setup_s), "s");
    report.metric(
        "read_qps",
        best_quartile(&|s| s.reads as f64 / s.secs, true),
        "1/s",
    );
    report.metric("read_p50_ms", best_quartile(&|s| s.p50_ms, false), "ms");
    report.metric("read_p95_ms", best_quartile(&|s| s.p95_ms, false), "ms");
    report.metric(
        "cpu_us_per_op",
        best_quartile(&|s| s.cpu_s * 1e6 / s.reads as f64, false),
        "us",
    );
    report.metric("peak_rss_mb", peak_rss, "MiB");
    report.metric(
        "repo_bytes_per_leaf",
        bytes as f64 / stored.leaves_stored as f64,
        "B",
    );
    report.metric("write_p50_ms", percentile(&load, 0.50), "ms");
    report.metric("write_p90_ms", percentile(&load, 0.90), "ms");
    report.metric(
        "ingest_leaves_per_s",
        shape.load_leaves as f64 * 1e3 / median(&w.load_ms),
        "1/s",
    );
    report.metric(
        "sweep_cells_per_s",
        shape.sweep.cells() as f64 * 1e3 / median(&w.sweep_ms),
        "1/s",
    );

    report.attempted = r.completed + w.attempted;
    report.failed = r.errors + r.mismatches + w.failed + sweeps.mismatches;
    report.correct =
        r.checked > 0 && r.mismatches == 0 && sweeps.rows > 0 && sweeps.mismatches == 0;
    for why in [r.first_mismatch, w.first_failure, sweeps.first_mismatch]
        .into_iter()
        .flatten()
    {
        eprintln!("crimbench: failure: {why}");
    }

    report.record = Record::new(shape, seed, seconds)
        .with("reads_completed", r.completed)
        .with("read_errors", r.errors)
        .with("reads_checked", r.checked)
        .with("read_window_s", r.elapsed_s)
        .with("read_slices", r.slices.len())
        .with("loads", w.load_ms.len())
        .with("sweeps", w.sweep_ms.len())
        .with("sweep_cells", w.cells)
        .with("sweep_rows_checked", sweeps.rows)
        .with("write_schedule_s", w.elapsed_s)
        .with("leaves_stored", stored.leaves_stored)
        .with("repo_bytes", bytes)
        .with("setup_s_each", format!("{setup_s:?}"))
        .with("wall_s", wall.elapsed().as_secs_f64());
    report
}
