//! The traced run: the same inputs, layer by layer, under in-memory spans.
//!
//! Every span wraps one of this file's own calls into a layer's public
//! functions; nothing inside the program is instrumented. Spans are kept in
//! memory and written to `<out>/trace-<workload>-<seed>.json` at the end,
//! with each layer's self time.
//!
//! The read ladder runs one fixed stream of reads at five rungs:
//! 1. `PinnedReader` (one pin for the whole stream),
//! 2. `RepositoryReader` (one pin per read),
//! 3. `QueryBatch` (one pin per chunk of `depth` reads),
//! 4. an in-process `Dispatcher` fed `Job`s, `depth` in flight,
//! 5. a loopback `Client` against a `Server`, `depth` in flight.
//!
//! The difference between adjacent rungs is the cost the outer rung adds,
//! so the differences add up to the loopback time per read.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::AtomicUsize;
use std::sync::{mpsc, Arc};
use std::time::Instant;

use crimson::batch::{BatchOutput, BatchQuery, QueryBatch};
use crimson::experiment::{
    DistanceSource, EvalSpec, ExperimentRunner, ExperimentSpec, Method, StageTimings,
};
use crimson::repository::{StoredNodeId, TreeHandle};
use crimson::sampling::SamplingStrategy;
use crimson::{CrimsonError, PinnedReader, RepositoryReader};
use crimson_server::dispatch::{Dispatcher, Job, Reply, ServerStats};
use crimson_server::frame::{encode_frame, FrameBuf, DEFAULT_MAX_PAYLOAD};
use crimson_server::msg::{Request, Response};
use crimson_server::tenant::{Tenant, TenantMap};
use crimson_server::Server;
use phylo::distance::{patristic_distance, DistanceMatrix};
use phylo::{NodeId, Tree};
use storage::buffer::BufferStats;

use crate::inputs::{generate, Inputs, Mix, Op, Shape};
use crate::oracle;
use crate::report::{Record, Report};
use crate::serve::{self, server_config, Served, TENANT};
use crate::util::{peak_rss_mb, Rng};

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: u64,
}

/// In-memory span recorder for one thread of the benchmark.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.t0).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span.
    fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        out
    }

    /// Record a finished span (for requests that overlap in flight).
    fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            req,
        };
        self.spans.push(span);
    }

    /// Summed duration of the spans named `name`, in microseconds.
    fn total_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .sum()
    }

    /// Self time per layer (the span name up to its first `.`), in ms: a
    /// span's duration minus the part of it its children cover.
    fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let kids = &mut children[i];
            kids.sort_unstable();
            let (mut covered, mut lo, mut hi) = (0u64, 0u64, 0u64);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a > hi {
                    covered += hi - lo;
                    (lo, hi) = (a, b);
                } else {
                    hi = hi.max(b);
                }
            }
            covered += hi - lo;
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    fn write(&self, path: &Path, summary: &str) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "{{\"summary\": {summary},")?;
        writeln!(f, "\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                f,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        writeln!(f, "]}}")?;
        f.flush()
    }
}

// ---------------------------------------------------------------------
// Reads at the engine rungs
// ---------------------------------------------------------------------

fn sids(tree: u64, nodes: &[u32]) -> Vec<StoredNodeId> {
    nodes
        .iter()
        .map(|&n| StoredNodeId((tree << 32) | n as u64))
        .collect()
}

fn ids(nodes: Vec<StoredNodeId>) -> Response {
    Response::Nodes(nodes.into_iter().map(|n| n.0).collect())
}

/// Span name of one read on the pinned rung, by kind.
fn pinned_span(op: &Op) -> &'static str {
    match op {
        Op::Lca(..) => "crimson.pinned.lca",
        Op::IsAncestor(..) => "crimson.pinned.is_ancestor",
        Op::Clade(_) => "crimson.pinned.spanning_clade",
        Op::Sample { .. } => "crimson.pinned.sample",
        Op::Project(_) => "crimson.pinned.project",
    }
}

/// The engine calls a read makes on one pinned snapshot, answered as the
/// server would answer it (projections written as Newick).
fn read_pinned(t: &mut Tracer, pin: &PinnedReader<'_>, tree: u64, op: &Op) -> Response {
    let sid = |n: u32| StoredNodeId((tree << 32) | n as u64);
    let out: Result<Response, CrimsonError> = match op {
        Op::Lca(a, b) => pin.lca(sid(*a), sid(*b)).map(|n| Response::Node(n.0)),
        Op::IsAncestor(a, n) => pin.is_ancestor(sid(*a), sid(*n)).map(Response::Flag),
        Op::Clade(nodes) => pin.minimal_spanning_clade(&sids(tree, nodes)).map(ids),
        Op::Sample { k, seed } => pin
            .sample_uniform(TreeHandle(tree), *k as usize, *seed)
            .map(ids),
        Op::Project(leaves) => pin.project(TreeHandle(tree), &sids(tree, leaves)).map(|p| {
            t.span("phylo.newick_write", 0, |_| {
                Response::Newick(phylo::newick::write(&p))
            })
        }),
    };
    out.unwrap_or_else(|e| Response::Error(crimson_server::WireError::from(&e)))
}

/// The same read through the reader's own pin-per-call methods.
fn read_reader(reader: &RepositoryReader, tree: u64, op: &Op) -> Response {
    let sid = |n: u32| StoredNodeId((tree << 32) | n as u64);
    let out: Result<Response, CrimsonError> = match op {
        Op::Lca(a, b) => reader.lca(sid(*a), sid(*b)).map(|n| Response::Node(n.0)),
        Op::IsAncestor(a, n) => reader.is_ancestor(sid(*a), sid(*n)).map(Response::Flag),
        Op::Clade(nodes) => reader.minimal_spanning_clade(&sids(tree, nodes)).map(ids),
        Op::Sample { k, seed } => reader
            .sample_uniform(TreeHandle(tree), *k as usize, *seed)
            .map(ids),
        Op::Project(leaves) => reader
            .project(TreeHandle(tree), &sids(tree, leaves))
            .map(|p| Response::Newick(phylo::newick::write(&p))),
    };
    out.unwrap_or_else(|e| Response::Error(crimson_server::WireError::from(&e)))
}

/// One chunk through `QueryBatch`. It has no sample query, so sample reads
/// of the chunk run on one pin of their own, as the batch pins once.
fn read_batch(reader: &RepositoryReader, tree: u64, chunk: &[Op]) -> Vec<Response> {
    let mut batch = QueryBatch::new();
    let mut slots = Vec::with_capacity(chunk.len());
    for op in chunk {
        let q = match op {
            Op::Lca(a, b) => Some(BatchQuery::Lca(sids(tree, &[*a])[0], sids(tree, &[*b])[0])),
            Op::IsAncestor(a, n) => Some(BatchQuery::IsAncestor(
                sids(tree, &[*a])[0],
                sids(tree, &[*n])[0],
            )),
            Op::Clade(nodes) => Some(BatchQuery::SpanningClade(sids(tree, nodes))),
            Op::Project(leaves) => Some(BatchQuery::Project(TreeHandle(tree), sids(tree, leaves))),
            Op::Sample { .. } => None,
        };
        slots.push(q.map(|q| batch.push(q)));
    }
    let mut outs = batch
        .execute_on(reader, 1)
        .into_iter()
        .map(Some)
        .collect::<Vec<_>>();
    let pin = chunk
        .iter()
        .any(|op| matches!(op, Op::Sample { .. }))
        .then(|| reader.pin().expect("pin for sample reads"));
    chunk
        .iter()
        .zip(slots)
        .map(|(op, slot)| match (op, slot) {
            (Op::Sample { k, seed }, _) => pin
                .as_ref()
                .expect("pinned above")
                .sample_uniform(TreeHandle(tree), *k as usize, *seed)
                .map(ids)
                .unwrap_or_else(|e| Response::Error(crimson_server::WireError::from(&e))),
            (_, Some(i)) => match outs[i].take().expect("one output per query") {
                Ok(BatchOutput::Node(n)) => Response::Node(n.0),
                Ok(BatchOutput::Flag(f)) => Response::Flag(f),
                Ok(BatchOutput::Nodes(n)) => ids(n),
                Ok(BatchOutput::Tree(p)) => Response::Newick(phylo::newick::write(&p)),
                Ok(other) => panic!("unexpected batch output {other:?}"),
                Err(e) => Response::Error(crimson_server::WireError::from(&e)),
            },
            (_, None) => unreachable!("every non-sample read was pushed"),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Reads at the served rungs
// ---------------------------------------------------------------------

/// Feed `reqs` to an in-process dispatcher, `depth` in flight; replies in
/// stream order.
fn read_dispatcher(
    t: &mut Tracer,
    tenant: &Arc<Tenant>,
    dispatcher: &Dispatcher,
    reqs: &[Request],
    depth: usize,
) -> Vec<Response> {
    let (tx, rx) = mpsc::channel::<Vec<u8>>();
    let in_flight = Arc::new(AtomicUsize::new(0));
    let mut out: Vec<Option<Response>> = vec![None; reqs.len()];
    let mut sent_at = vec![Instant::now(); reqs.len()];
    let mut fb = FrameBuf::new(DEFAULT_MAX_PAYLOAD);
    let (mut next, mut done) = (0usize, 0usize);
    while done < reqs.len() {
        while next < reqs.len() && next - done < depth {
            in_flight.fetch_add(1, std::sync::atomic::Ordering::AcqRel);
            sent_at[next] = Instant::now();
            let job = Job {
                tenant: Arc::clone(tenant),
                correlation: next as u64,
                request: reqs[next].clone(),
                reply: Reply::new(tx.clone(), Arc::clone(&in_flight)),
            };
            if dispatcher.submit(job).is_err() {
                panic!("the in-process dispatcher refused a job");
            }
            next += 1;
        }
        let frame = rx.recv().expect("dispatcher reply");
        fb.push(&frame);
        let payload = fb
            .next_frame()
            .expect("well-formed reply frame")
            .expect("a whole frame");
        let (corr, resp) = Response::decode(&payload).expect("decodable reply");
        t.record(
            "server.dispatch_request",
            corr,
            sent_at[corr as usize],
            Instant::now(),
        );
        out[corr as usize] = Some(resp);
        done += 1;
    }
    out.into_iter()
        .map(|r| r.expect("every read answered"))
        .collect()
}

/// The same stream through a loopback client, `depth` in flight; replies
/// in stream order. With `spans`, each request gets a span.
fn read_loopback(
    t: &mut Tracer,
    served: &Served,
    reqs: &[Request],
    depth: usize,
    spans: bool,
) -> Vec<Response> {
    let mut client = served.client();
    let mut out: Vec<Option<Response>> = vec![None; reqs.len()];
    let mut sent_at = vec![Instant::now(); reqs.len()];
    let mut pos_of = std::collections::HashMap::new();
    let (mut next, mut done) = (0usize, 0usize);
    while done < reqs.len() {
        while next < reqs.len() && next - done < depth {
            sent_at[next] = Instant::now();
            let corr = client.send(&reqs[next]).expect("send");
            pos_of.insert(corr, next);
            next += 1;
        }
        let (corr, resp) = client.recv().expect("reply");
        let pos = pos_of.remove(&corr).expect("reply to a read in flight");
        if spans {
            t.record(
                "server.loopback_request",
                pos as u64,
                sent_at[pos],
                Instant::now(),
            );
        }
        out[pos] = Some(resp);
        done += 1;
    }
    out.into_iter()
        .map(|r| r.expect("every read answered"))
        .collect()
}

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

/// Per-kind probe reads: `n` reads of each kind on the served tree.
fn kind_probes(inputs: &Inputs, mix: &Mix, seed: u64, n: usize) -> Vec<(&'static str, Vec<Op>)> {
    let base = Mix {
        lca: 0,
        is_ancestor: 0,
        clade: 0,
        sample: 0,
        project: 0,
        sample_k: mix.sample_k,
        project_leaves: if mix.project_leaves > 0 {
            mix.project_leaves
        } else {
            64
        },
    };
    let kinds: [(&'static str, Mix); 5] = [
        ("lca", Mix { lca: 1, ..base }),
        (
            "is_ancestor",
            Mix {
                is_ancestor: 1,
                ..base
            },
        ),
        ("spanning_clade", Mix { clade: 1, ..base }),
        ("sample", Mix { sample: 1, ..base }),
        ("project", Mix { project: 1, ..base }),
    ];
    let mut rng = Rng::new(seed ^ 0x7072_6f62_6573);
    kinds
        .into_iter()
        .map(|(k, m)| {
            let ops = (0..n)
                .map(|_| crate::inputs::gen_op(&inputs.served, &m, &mut rng))
                .collect();
            (k, ops)
        })
        .collect()
}

fn stats_delta(after: &BufferStats, before: &BufferStats) -> BufferStats {
    BufferStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        flushes: after.flushes - before.flushes,
        writebacks: after.writebacks - before.writebacks,
        wal_appends: after.wal_appends - before.wal_appends,
        wal_bytes: after.wal_bytes - before.wal_bytes,
        wal_syncs: after.wal_syncs - before.wal_syncs,
        commits: after.commits - before.commits,
        version_reads: after.version_reads - before.version_reads,
        ..BufferStats::default()
    }
}

/// Checks replies at every 16th stream position; returns (checked, wrong).
fn check_replies(inputs: &Inputs, tree: u64, ops: &[Op], replies: &[Response]) -> (u64, u64) {
    let mut wrong = 0;
    let mut checked = 0;
    for (i, (op, resp)) in ops.iter().zip(replies).enumerate() {
        if i % 16 == 0 || matches!(resp, Response::Error(_)) {
            checked += 1;
            if let Some(why) = oracle::check(&inputs.served, tree, op, resp) {
                wrong += 1;
                eprintln!("crimbench: failure: {why}");
            }
        }
    }
    (checked, wrong)
}

fn patristic(tree: &Tree) -> DistanceMatrix {
    let leaves: Vec<NodeId> = tree.leaf_ids().collect();
    let names = leaves
        .iter()
        .map(|&l| tree.name(l).unwrap_or_default().to_string())
        .collect();
    let mut m = DistanceMatrix::zeroed(names);
    for i in 0..leaves.len() {
        for j in i + 1..leaves.len() {
            m.set(i, j, patristic_distance(tree, leaves[i], leaves[j]));
        }
    }
    m
}

pub fn run(shape: &Shape, seed: u64, seconds: u64, work: &Path, out_dir: &Path) -> Report {
    let wall = Instant::now();
    let inputs = generate(shape, seed);
    let mut t = Tracer::new();
    let mut report = Report::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let n = shape.trace_reads.min(inputs.ops.len());
    let ops = &inputs.ops[..n];
    let probes = kind_probes(&inputs, &shape.mix, seed, shape.trace_probe);

    // A served, loaded tenant, then the same tenant opened in-process.
    let root = work.join("trace");
    let served = t.span("setup", 0, |_| serve::setup(shape, &inputs, &root));
    let tree = served.tree;
    served.server.shutdown();
    let tenants = TenantMap::new(&root, server_config(shape).tenants).expect("tenant map");
    let tenant = tenants.attach(TENANT).expect("attach in-process");
    let reader = &tenant.reader;
    let reqs: Vec<Request> = ops.iter().map(|op| op.request(tree)).collect();
    let pool = || tenant.writer.lock().buffer_stats();

    // Rung 1: one pinned snapshot. Warm once, then count and time.
    {
        let pin = reader.pin().expect("pin");
        for op in ops {
            read_pinned(&mut t, &pin, tree, op);
        }
    }
    let before = pool();
    let replies = t.span("crimson.pinned", 0, |t| {
        let pin = reader.pin().expect("pin");
        ops.iter()
            .enumerate()
            .map(|(i, op)| {
                t.span(pinned_span(op), i as u64, |t| {
                    read_pinned(t, &pin, tree, op)
                })
            })
            .collect::<Vec<_>>()
    });
    let reads_delta = stats_delta(&pool(), &before);
    let (c, w) = check_replies(&inputs, tree, ops, &replies);
    attempted += c;
    failed += w;
    let pinned_us = t.total_us("crimson.pinned") / n as f64;

    // Per-kind probes on the pinned snapshot.
    for (kind, probe) in &probes {
        let pin = reader.pin().expect("pin");
        for op in probe {
            read_pinned(&mut t, &pin, tree, op);
        }
        let replies = t.span("crimson.pinned_probe", 0, |t| {
            probe
                .iter()
                .enumerate()
                .map(|(i, op)| {
                    t.span("crimson.probe_read", i as u64, |t| {
                        read_pinned(t, &pin, tree, op)
                    })
                })
                .collect::<Vec<_>>()
        });
        let last = t
            .spans
            .iter()
            .rposition(|s| s.name == "crimson.pinned_probe")
            .expect("probe span");
        let us = (t.spans[last].end_ns - t.spans[last].start_ns) as f64 / 1e3 / probe.len() as f64;
        report.metric(&format!("crimson.pinned_us_per_op.{kind}"), us, "us");
        let (c, w) = check_replies(&inputs, tree, probe, &replies);
        attempted += c;
        failed += w;
    }
    let writes = t.total_us("phylo.newick_write");
    let projections = probes
        .iter()
        .map(|(_, p)| p.iter().filter(|op| matches!(op, Op::Project(_))).count())
        .sum::<usize>()
        + ops.iter().filter(|op| matches!(op, Op::Project(_))).count();
    let newick_write_us = writes / projections.max(1) as f64;

    // Rung 2: a pin per read.
    let replies = t.span("crimson.reader", 0, |t| {
        ops.iter()
            .enumerate()
            .map(|(i, op)| {
                t.span("crimson.reader_read", i as u64, |_| {
                    read_reader(reader, tree, op)
                })
            })
            .collect::<Vec<_>>()
    });
    let (c, w) = check_replies(&inputs, tree, ops, &replies);
    attempted += c;
    failed += w;
    let reader_us = t.total_us("crimson.reader") / n as f64;

    // Rung 3: QueryBatch chunks of `depth` reads.
    let replies = t.span("crimson.batch", 0, |t| {
        ops.chunks(shape.depth)
            .enumerate()
            .flat_map(|(i, chunk)| {
                t.span("crimson.batch_chunk", i as u64, |_| {
                    read_batch(reader, tree, chunk)
                })
            })
            .collect::<Vec<_>>()
    });
    let (c, w) = check_replies(&inputs, tree, ops, &replies);
    attempted += c;
    failed += w;
    let batch_us = t.total_us("crimson.batch") / n as f64;

    // Rung 4: the dispatcher in-process.
    let stats = Arc::new(ServerStats::default());
    let dispatcher = Dispatcher::start(server_config(shape).dispatch, Arc::clone(&stats));
    read_dispatcher(&mut t, &tenant, &dispatcher, &reqs, shape.depth);
    let replies = t.span("server.dispatcher", 0, |t| {
        read_dispatcher(t, &tenant, &dispatcher, &reqs, shape.depth)
    });
    dispatcher.shutdown();
    let (c, w) = check_replies(&inputs, tree, ops, &replies);
    attempted += c;
    failed += w;
    let dispatcher_us = t.total_us("server.dispatcher") / n as f64;

    // Codec and framing over the same requests and replies.
    t.span("server.codec", 0, |_| {
        for (i, (req, resp)) in reqs.iter().zip(&replies).enumerate() {
            let (_, r) = Request::decode(&req.encode(i as u64)).expect("request round trip");
            let (_, p) = Response::decode(&resp.encode(i as u64)).expect("response round trip");
            std::hint::black_box((r, p));
        }
    });
    let payloads: Vec<(Vec<u8>, Vec<u8>)> = reqs
        .iter()
        .zip(&replies)
        .enumerate()
        .map(|(i, (q, p))| (q.encode(i as u64), p.encode(i as u64)))
        .collect();
    t.span("server.frame", 0, |_| {
        let mut fb = FrameBuf::new(DEFAULT_MAX_PAYLOAD);
        for (q, p) in &payloads {
            for payload in [q, p] {
                fb.push(&encode_frame(payload));
                std::hint::black_box(fb.next_frame().expect("frame").expect("whole frame"));
            }
        }
    });
    let codec_us = t.total_us("server.codec") / n as f64;
    let frame_us = t.total_us("server.frame") / n as f64;
    drop(tenant);
    drop(tenants);

    // Rung 5: loopback, untraced then traced (the difference is the cost
    // of the spans themselves).
    let served = Served {
        server: Server::start(server_config(shape), &root).expect("restart the server"),
        root: root.clone(),
        tree,
    };
    read_loopback(&mut t, &served, &reqs, shape.depth, false);
    let stats0 = served.server.stats().snapshot(0);
    let plain = Instant::now();
    let replies = read_loopback(&mut t, &served, &reqs, shape.depth, false);
    let plain_us = plain.elapsed().as_secs_f64() * 1e6 / n as f64;
    let stats1 = served.server.stats().snapshot(0);
    let (c, w) = check_replies(&inputs, tree, ops, &replies);
    attempted += c;
    failed += w;
    t.span("server.loopback", 0, |t| {
        read_loopback(t, &served, &reqs, shape.depth, true)
    });
    let loopback_us = t.total_us("server.loopback") / n as f64;
    served.server.shutdown();
    let reads = (stats1.reads - stats0.reads).max(1) as f64;

    // Writes: the load schedule's first trees, each made durable.
    let tenants = TenantMap::new(&root, server_config(shape).tenants).expect("tenant map");
    let tenant = tenants.attach(TENANT).expect("attach in-process");
    let loads = &inputs.loads[..shape.trace_loads.min(inputs.loads.len())];
    let parsed: Vec<Tree> = t.span("phylo.newick_parse", 0, |_| {
        loads
            .iter()
            .map(|nw| phylo::newick::parse(nw).expect("generated Newick parses"))
            .collect()
    });
    t.span("labeling.build", 0, |t| {
        for tr in &parsed {
            t.span("labeling.hierarchical_dewey", 0, |_| {
                std::hint::black_box(labeling::HierarchicalDewey::build(tr, 16));
            });
            t.span("labeling.interval", 0, |_| {
                std::hint::black_box(labeling::IntervalLabels::build(tr));
            });
            t.span("labeling.clade_hash", 0, |_| {
                std::hint::black_box(labeling::clade_hash::tree_hashes(tr));
            });
        }
    });
    let rows: u64 = parsed.iter().map(|tr| tr.node_count() as u64).sum();
    let leaves: u64 = parsed.iter().map(|tr| tr.leaf_count() as u64).sum();
    let before = tenant.writer.lock().buffer_stats();
    t.span("crimson.loads", 0, |t| {
        for (i, nw) in loads.iter().enumerate() {
            t.span("crimson.load", i as u64, |_| {
                let lsn = {
                    let mut repo = tenant.writer.lock();
                    repo.load_newick(&format!("trace-load-{i}"), nw)
                        .expect("load");
                    repo.last_commit_lsn()
                };
                tenant.reader.wait_durable(lsn).expect("durable load");
            });
        }
    });
    let load_delta = stats_delta(&tenant.writer.lock().buffer_stats(), &before);
    let nloads = loads.len().max(1) as f64;

    // One grid of transient evaluations, then the same grid persisted.
    let grid: Vec<(Method, u32, u64)> = [Method::NeighborJoining, Method::Upgma]
        .into_iter()
        .flat_map(|m| {
            shape.sweep.ks.into_iter().flat_map(move |k| {
                (0..shape.sweep.replicates as u64).map(move |r| (m, k, seed.wrapping_add(r)))
            })
        })
        .collect();
    let mut stages = StageTimings::default();
    let mut references = Vec::new();
    t.span("crimson.evaluate", 0, |t| {
        let mut repo = tenant.writer.lock();
        let mut runner = ExperimentRunner::new(&mut repo, TreeHandle(tree));
        for (i, &(method, k, s)) in grid.iter().enumerate() {
            let rep = t.span("crimson.evaluate_cell", i as u64, |_| {
                runner
                    .evaluate(&EvalSpec {
                        strategy: SamplingStrategy::Uniform { k: k as usize },
                        method,
                        distance_source: DistanceSource::TruePatristic,
                        compute_triplets: false,
                        seed: s,
                    })
                    .expect("evaluate a cell")
            });
            stages.sampling_ms += rep.timings.sampling_ms;
            stages.projection_ms += rep.timings.projection_ms;
            stages.distances_ms += rep.timings.distances_ms;
            stages.reconstruction_ms += rep.timings.reconstruction_ms;
            stages.comparison_ms += rep.timings.comparison_ms;
            attempted += 1;
            let rf = reconstruction::robinson_foulds(&rep.reconstruction, &rep.reference);
            if rf.map(|r| r.distance) != Ok(rep.rf.distance) {
                failed += 1;
                eprintln!("crimbench: failure: evaluate cell {i} RF differs on recomputation");
            }
            references.push(rep.reference);
        }
    });
    let cells = grid.len() as f64;
    let spec = ExperimentSpec {
        name: "trace-sweep".to_string(),
        methods: vec![Method::NeighborJoining, Method::Upgma],
        strategies: shape
            .sweep
            .ks
            .iter()
            .map(|&k| SamplingStrategy::Uniform { k: k as usize })
            .collect(),
        replicates: shape.sweep.replicates as usize,
        distance_source: DistanceSource::TruePatristic,
        compute_triplets: false,
        seed,
        workers: 1,
        cell_commits: false,
    };
    t.span("crimson.experiment_run", 0, |_| {
        let mut repo = tenant.writer.lock();
        ExperimentRunner::new(&mut repo, TreeHandle(tree))
            .run(&spec)
            .expect("persisted sweep")
    });
    let eval_ms = t.total_us("crimson.evaluate") / 1e3 / cells;
    let run_ms = t.total_us("crimson.experiment_run") / 1e3 / cells;

    // Reconstruction called directly on the evaluated samples.
    t.span("reconstruction", 0, |t| {
        for (i, reference) in references.iter().enumerate() {
            let m = t.span("reconstruction.distance", i as u64, |_| {
                patristic(reference)
            });
            let nj = t.span("reconstruction.nj", i as u64, |_| {
                reconstruction::neighbor_joining(&m).expect("nj")
            });
            t.span("reconstruction.upgma", i as u64, |_| {
                std::hint::black_box(reconstruction::upgma(&m).expect("upgma"))
            });
            t.span("reconstruction.rf", i as u64, |_| {
                std::hint::black_box(reconstruction::robinson_foulds(&nj, reference).expect("rf"))
            });
        }
    });
    drop(tenant);
    drop(tenants);

    // Metrics.
    let ms_per_cell = |name: &str| t.total_us(name) / 1e3 / cells;
    let per_read = |v: u64| v as f64 / n as f64;
    report.metric("server.codec_us_per_op", codec_us, "us");
    report.metric("server.frame_us_per_op", frame_us, "us");
    report.metric("server.dispatch_us_per_op", dispatcher_us - batch_us, "us");
    report.metric("server.socket_us_per_op", loopback_us - dispatcher_us, "us");
    report.metric(
        "server.read_batches_per_read",
        (stats1.read_batches - stats0.read_batches) as f64 / reads,
        "ratio",
    );
    report.metric(
        "server.coalesced_fraction",
        (stats1.coalesced_reads - stats0.coalesced_reads) as f64 / reads,
        "ratio",
    );
    report.metric("crimson.pin_us_per_op", reader_us - pinned_us, "us");
    report.metric("crimson.batch_us_per_op", batch_us - reader_us, "us");
    report.metric(
        "crimson.load_ms_per_tree",
        t.total_us("crimson.load") / 1e3 / nloads,
        "ms",
    );
    report.metric("crimson.persist_ms_per_cell", run_ms - eval_ms, "ms");
    for (name, v) in [
        ("sampling", stages.sampling_ms),
        ("projection", stages.projection_ms),
        ("distances", stages.distances_ms),
        ("reconstruction", stages.reconstruction_ms),
        ("comparison", stages.comparison_ms),
    ] {
        report.metric(&format!("crimson.eval_stage_ms.{name}"), v / cells, "ms");
    }
    report.metric(
        "storage.page_reads_per_op",
        per_read(reads_delta.page_reads()),
        "count",
    );
    report.metric(
        "storage.misses_per_stream",
        reads_delta.misses as f64,
        "count",
    );
    report.metric(
        "storage.miss_ratio",
        reads_delta.misses as f64 / reads_delta.page_reads().max(1) as f64,
        "ratio",
    );
    report.metric(
        "storage.version_reads_per_read",
        per_read(reads_delta.version_reads),
        "count",
    );
    report.metric(
        "storage.page_accesses_per_loaded_row",
        load_delta.page_reads() as f64 / rows.max(1) as f64,
        "count",
    );
    report.metric(
        "storage.evictions_per_load",
        load_delta.evictions as f64 / nloads,
        "count",
    );
    report.metric(
        "storage.writebacks_per_load",
        load_delta.writebacks as f64 / nloads,
        "count",
    );
    report.metric(
        "storage.wal_bytes_per_leaf",
        load_delta.wal_bytes as f64 / leaves.max(1) as f64,
        "B",
    );
    report.metric(
        "storage.wal_syncs_per_commit",
        load_delta.wal_syncs as f64 / load_delta.commits.max(1) as f64,
        "ratio",
    );
    report.metric(
        "labeling.build_ms_per_tree",
        t.total_us("labeling.build") / 1e3 / nloads,
        "ms",
    );
    report.metric(
        "phylo.newick_parse_ms_per_tree",
        t.total_us("phylo.newick_parse") / 1e3 / nloads,
        "ms",
    );
    report.metric(
        "phylo.newick_write_us_per_projection",
        newick_write_us,
        "us",
    );
    report.metric(
        "reconstruction.distance_ms_per_cell",
        ms_per_cell("reconstruction.distance"),
        "ms",
    );
    report.metric(
        "reconstruction.nj_ms_per_cell",
        ms_per_cell("reconstruction.nj"),
        "ms",
    );
    report.metric(
        "reconstruction.upgma_ms_per_cell",
        ms_per_cell("reconstruction.upgma"),
        "ms",
    );
    report.metric(
        "reconstruction.rf_ms_per_cell",
        ms_per_cell("reconstruction.rf"),
        "ms",
    );
    let rungs = [
        ("pinned", pinned_us),
        ("reader", reader_us),
        ("batch", batch_us),
        ("dispatcher", dispatcher_us),
        ("loopback", loopback_us),
    ];
    for (name, us) in rungs {
        report.metric(&format!("ladder.{name}_us_per_op"), us, "us");
    }
    let ladder_sum = rungs[0].1 + rungs.windows(2).map(|w| w[1].1 - w[0].1).sum::<f64>();
    report.metric(
        "trace.overhead_pct",
        (loopback_us - plain_us) / plain_us * 100.0,
        "%",
    );

    let layers = t.self_ms_by_layer();
    let layer_json: Vec<String> = layers
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v:?}"))
        .collect();
    let summary = format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"reads_per_rung\": {n}, \
         \"self_ms_by_layer\": {{{}}}, \"ladder_us_per_op\": {{\"pinned\": {pinned_us:?}, \
         \"reader\": {reader_us:?}, \"batch\": {batch_us:?}, \"dispatcher\": {dispatcher_us:?}, \
         \"loopback\": {loopback_us:?}, \"sum_of_differences\": {ladder_sum:?}}}, \
         \"untraced_loopback_us_per_op\": {plain_us:?}}}",
        shape.workload.name(),
        layer_json.join(", ")
    );
    eprintln!("crimbench: trace summary {summary}");
    let _ = std::fs::create_dir_all(out_dir);
    let path = out_dir.join(format!("trace-{}-{seed}.json", shape.workload.name()));
    if let Err(e) = t.write(&path, &summary) {
        eprintln!("crimbench: could not write {}: {e}", path.display());
    }

    report.attempted = attempted;
    report.failed = failed;
    report.correct = failed == 0 && (ladder_sum - loopback_us).abs() < 1e-6 * loopback_us.max(1.0);
    report.record = Record::new(shape, seed, seconds)
        .with("trace_reads_per_rung", n)
        .with("trace_probe_reads_per_kind", shape.trace_probe)
        .with("trace_loads", loads.len())
        .with("trace_cells", grid.len())
        .with("spans", t.spans.len())
        .with("trace_file", path.display().to_string())
        .with("peak_rss_mb", peak_rss_mb())
        .with("wall_s", wall.elapsed().as_secs_f64());
    report
}
