//! Served-engine workload: drive a live `crimson-server` over loopback and
//! measure aggregate read throughput, tail latency, and the effect of
//! batched (coalesced) dispatch at 1/8/64 connections.
//!
//! The serving claim under test: adjacent reads from many connections
//! coalesce into pinned-epoch batch executions on the dispatch pool, so
//! aggregate read q/s scales with connections instead of re-paying the
//! epoch pin and snapshot lookup per request — while a concurrent writer
//! rides the group-commit queue without stalling readers.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crimson_server::dispatch::DispatchConfig;
use crimson_server::msg::{Request, Response, WireDurability};
use crimson_server::server::{Server, ServerConfig};
use crimson_server::Client;

use crate::workloads::simulated_tree;

/// Shape of one serve measurement.
#[derive(Debug, Clone, Copy)]
pub struct ServeProfile {
    /// Leaves in the served gold tree.
    pub leaves: usize,
    /// Read requests each connection issues.
    pub ops_per_conn: usize,
    /// Requests each connection keeps in flight (pipelining depth).
    pub pipeline: usize,
    /// Dispatch worker threads.
    pub workers: usize,
}

impl ServeProfile {
    /// A profile sized for the smoke test: big enough for stable ratios,
    /// small enough for debug-build CI.
    pub fn smoke() -> ServeProfile {
        ServeProfile {
            leaves: 256,
            ops_per_conn: if cfg!(debug_assertions) { 300 } else { 1500 },
            pipeline: 16,
            workers: 4,
        }
    }
}

/// One measured level: `connections` clients hammering reads.
#[derive(Debug, Clone, Copy)]
pub struct ServeLevel {
    /// Concurrent connections.
    pub connections: usize,
    /// Aggregate read throughput over the level's wall clock.
    pub qps: f64,
    /// Median per-request latency (send to matching response), ms.
    pub p50_ms: f64,
    /// 99th-percentile per-request latency, ms.
    pub p99_ms: f64,
    /// Fraction of reads that shared a coalesced batch with another read.
    pub coalesced_fraction: f64,
    /// Pinned-epoch batch executions the level cost.
    pub read_batches: u64,
}

/// Mixed read/write level: readers as in [`ServeLevel`] plus one writer
/// connection streaming async tree loads with periodic durability
/// barriers.
#[derive(Debug, Clone, Copy)]
pub struct MixedLevel {
    /// The read side, measured under write pressure.
    pub reads: ServeLevel,
    /// Trees the writer landed during the window.
    pub writes: u64,
    /// Write acknowledgement latency p99, ms.
    pub write_p99_ms: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct ServeHarness {
    server: Server,
    addr: SocketAddr,
    gold: u64,
    leaves: Vec<u64>,
    _dir: tempfile::TempDir,
}

fn start_harness(profile: &ServeProfile, batch_max: usize) -> ServeHarness {
    let dir = tempfile::tempdir().expect("tempdir");
    let config = ServerConfig {
        dispatch: DispatchConfig {
            workers: profile.workers,
            batch_max,
            max_queue: 4096,
        },
        conn_window: profile.pipeline * 2,
        ..ServerConfig::default()
    };
    let server = Server::start(config, dir.path()).expect("start server");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    client.attach("bench").expect("attach");
    let newick = phylo::newick::write(&simulated_tree(profile.leaves, 42));
    let gold = match client
        .load_tree("gold", &newick, WireDurability::Sync)
        .expect("load gold")
    {
        Response::TreeLoaded { tree, .. } => tree,
        other => panic!("gold load failed: {other:?}"),
    };
    let leaves = match client
        .call(&Request::Leaves { tree: gold })
        .expect("leaves")
    {
        Response::Nodes(ids) => ids,
        other => panic!("leaves failed: {other:?}"),
    };
    ServeHarness {
        server,
        addr,
        gold,
        leaves,
        _dir: dir,
    }
}

/// The rotating read mix: structure queries of different footprints, all
/// answerable from a pinned snapshot.
fn read_request(gold: u64, leaves: &[u64], i: usize) -> Request {
    let n = leaves.len();
    match i % 4 {
        0 => Request::Lca {
            a: leaves[(i * 7) % n],
            b: leaves[(i * 13 + 5) % n],
        },
        1 => Request::IsAncestor {
            ancestor: leaves[(i * 3) % n],
            node: leaves[(i * 11 + 1) % n],
        },
        2 => Request::SpanningClade {
            nodes: vec![
                leaves[i % n],
                leaves[(i * 5 + 2) % n],
                leaves[(i * 9 + 4) % n],
            ],
        },
        _ => Request::SampleUniform {
            tree: gold,
            k: 8,
            seed: i as u64,
        },
    }
}

/// Run `ops` pipelined reads on one connection; returns per-request
/// latencies in ms. Panics on any error response — the bench demands zero
/// errors.
fn run_reader(
    addr: SocketAddr,
    gold: u64,
    leaves: &[u64],
    ops: usize,
    pipeline: usize,
) -> Vec<f64> {
    let mut client = Client::connect(addr).expect("connect reader");
    client.attach("bench").expect("attach reader");
    let mut latencies = Vec::with_capacity(ops);
    let mut inflight: std::collections::HashMap<u64, Instant> = std::collections::HashMap::new();
    let mut sent = 0usize;
    let mut done = 0usize;
    while done < ops {
        while sent < ops && inflight.len() < pipeline {
            let req = read_request(gold, leaves, sent);
            let corr = client.send(&req).expect("send");
            inflight.insert(corr, Instant::now());
            sent += 1;
        }
        let (corr, resp) = client.recv().expect("recv");
        let started = inflight.remove(&corr).expect("unknown correlation");
        if let Response::Error(e) = resp {
            panic!("read failed mid-bench: {e}");
        }
        latencies.push(started.elapsed().as_secs_f64() * 1e3);
        done += 1;
    }
    latencies
}

/// Measure one read-only level, coalescing up to `batch_max` reads per
/// pinned epoch (`1` = one pin per read).
pub fn serve_reads(profile: &ServeProfile, connections: usize, batch_max: usize) -> ServeLevel {
    let harness = start_harness(profile, batch_max);
    let stats = harness.server.stats();
    let reads_before = stats.reads.load(Ordering::Relaxed);
    let batches_before = stats.read_batches.load(Ordering::Relaxed);
    let coalesced_before = stats.coalesced_reads.load(Ordering::Relaxed);

    let started = Instant::now();
    let mut joins = Vec::new();
    for _ in 0..connections {
        let addr = harness.addr;
        let leaves = harness.leaves.clone();
        let gold = harness.gold;
        let ops = profile.ops_per_conn;
        let pipeline = profile.pipeline;
        joins.push(std::thread::spawn(move || {
            run_reader(addr, gold, &leaves, ops, pipeline)
        }));
    }
    let mut latencies: Vec<f64> = Vec::new();
    for j in joins {
        latencies.extend(j.join().expect("reader thread"));
    }
    let wall = started.elapsed().as_secs_f64();

    let reads = stats.reads.load(Ordering::Relaxed) - reads_before;
    let batches = stats.read_batches.load(Ordering::Relaxed) - batches_before;
    let coalesced = stats.coalesced_reads.load(Ordering::Relaxed) - coalesced_before;
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let level = ServeLevel {
        connections,
        qps: latencies.len() as f64 / wall,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        coalesced_fraction: if reads == 0 {
            0.0
        } else {
            coalesced as f64 / reads as f64
        },
        read_batches: batches,
    };
    harness.server.shutdown();
    level
}

/// Measure a mixed level: `connections` readers plus one writer streaming
/// `Durability::Async` loads with a `WaitDurable` barrier every 8 trees.
pub fn serve_mixed(profile: &ServeProfile, connections: usize) -> MixedLevel {
    let harness = start_harness(profile, DispatchConfig::default().batch_max);
    let stats = harness.server.stats();
    let reads_before = stats.reads.load(Ordering::Relaxed);
    let batches_before = stats.read_batches.load(Ordering::Relaxed);
    let coalesced_before = stats.coalesced_reads.load(Ordering::Relaxed);

    let stop = Arc::new(AtomicBool::new(false));
    let writer_stop = Arc::clone(&stop);
    let writer_addr = harness.addr;
    let writer = std::thread::spawn(move || {
        let mut client = Client::connect(writer_addr).expect("connect writer");
        client.attach("bench").expect("attach writer");
        let mut write_lat = Vec::new();
        let mut n = 0u64;
        while !writer_stop.load(Ordering::Acquire) {
            let name = format!("w{n}");
            let newick = format!("((wa{n}:1,wb{n}:1):1,(wc{n}:1,wd{n}:1):1);");
            let t = Instant::now();
            match client
                .load_tree(&name, &newick, WireDurability::Async)
                .expect("write")
            {
                Response::TreeLoaded { .. } => {}
                Response::Error(e) => panic!("write failed mid-bench: {e}"),
                other => panic!("unexpected write response: {other:?}"),
            }
            write_lat.push(t.elapsed().as_secs_f64() * 1e3);
            n += 1;
            if n.is_multiple_of(8) {
                match client.wait_durable().expect("barrier") {
                    Response::Durable { .. } => {}
                    other => panic!("barrier failed: {other:?}"),
                }
            }
        }
        // Final barrier so everything acknowledged is durable.
        match client.wait_durable().expect("final barrier") {
            Response::Durable { .. } => {}
            other => panic!("final barrier failed: {other:?}"),
        }
        (n, write_lat)
    });

    let started = Instant::now();
    let mut joins = Vec::new();
    for _ in 0..connections {
        let addr = harness.addr;
        let leaves = harness.leaves.clone();
        let gold = harness.gold;
        let ops = profile.ops_per_conn;
        let pipeline = profile.pipeline;
        joins.push(std::thread::spawn(move || {
            run_reader(addr, gold, &leaves, ops, pipeline)
        }));
    }
    let mut latencies: Vec<f64> = Vec::new();
    for j in joins {
        latencies.extend(j.join().expect("reader thread"));
    }
    let wall = started.elapsed().as_secs_f64();
    stop.store(true, Ordering::Release);
    let (writes, mut write_lat) = writer.join().expect("writer thread");

    let reads = stats.reads.load(Ordering::Relaxed) - reads_before;
    let batches = stats.read_batches.load(Ordering::Relaxed) - batches_before;
    let coalesced = stats.coalesced_reads.load(Ordering::Relaxed) - coalesced_before;
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    write_lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let level = MixedLevel {
        reads: ServeLevel {
            connections,
            qps: latencies.len() as f64 / wall,
            p50_ms: percentile(&latencies, 0.50),
            p99_ms: percentile(&latencies, 0.99),
            coalesced_fraction: if reads == 0 {
                0.0
            } else {
                coalesced as f64 / reads as f64
            },
            read_batches: batches,
        },
        writes,
        write_p99_ms: percentile(&write_lat, 0.99),
    };
    harness.server.shutdown();
    level
}
