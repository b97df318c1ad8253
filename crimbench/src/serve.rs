//! The served path: an in-process `Server`, `Client`s over loopback, the
//! pipelined read driver and the write schedule.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crimson::repository::{Durability, Repository, RepositoryOptions};
use crimson_server::dispatch::DispatchConfig;
use crimson_server::msg::{Request, Response, WireDurability};
use crimson_server::{Client, Server, ServerConfig, TenantOptions};

use crate::inputs::{sweep_spec, Inputs, Shape};
use crate::oracle;
use crate::util::{ms_since, percentile, process_cpu_s};

/// Tenant every workload attaches to.
pub const TENANT: &str = "bench";
/// Catalog name of the served tree.
pub const GOLD: &str = "gold";
/// The per-connection window the server is configured with.
pub const CONN_WINDOW: usize = 64;

/// Server settings of a workload.
pub fn server_config(shape: &Shape) -> ServerConfig {
    ServerConfig {
        dispatch: DispatchConfig {
            workers: shape.workers,
            max_queue: 4096,
            ..DispatchConfig::default()
        },
        tenants: TenantOptions {
            buffer_pool_pages: shape.pool_pages,
            ..TenantOptions::default()
        },
        conn_window: CONN_WINDOW,
        ..ServerConfig::default()
    }
}

/// Options the tenant's repository is opened with (as the server does).
pub fn repo_options(shape: &Shape) -> RepositoryOptions {
    let t = TenantOptions::default();
    RepositoryOptions {
        frame_depth: t.frame_depth,
        buffer_pool_pages: shape.pool_pages,
        durability: Durability::Async,
        checkpoint: None,
    }
}

/// A served, loaded tenant.
pub struct Served {
    pub server: Server,
    pub root: PathBuf,
    /// Stored handle of the served tree.
    pub tree: u64,
}

impl Served {
    pub fn tenant_dir(&self) -> PathBuf {
        self.root.join(TENANT)
    }

    pub fn client(&self) -> Client {
        let mut c = Client::connect(self.server.addr()).expect("connect to the served tenant");
        match c.attach(TENANT).expect("attach") {
            Response::Attached { .. } => c,
            other => panic!("attach failed: {other:?}"),
        }
    }
}

/// From an empty directory to a served, loaded tenant. A gold standard is
/// bulk-loaded in-process (no request carries sequences); a bare tree is
/// loaded over the wire.
pub fn setup(shape: &Shape, inputs: &Inputs, root: &Path) -> Served {
    let _ = std::fs::remove_dir_all(root);
    std::fs::create_dir_all(root).expect("create the work directory");
    let served = &inputs.served;
    if let Some(gold) = &served.gold {
        let mut repo = Repository::create(root.join(TENANT), repo_options(shape))
            .expect("create the tenant repository");
        repo.load_gold_standard(GOLD, gold)
            .expect("load the gold standard");
        repo.sync().expect("sync the gold standard");
    }
    let server = Server::start(server_config(shape), root).expect("start the server");
    let mut served_out = Served {
        server,
        root: root.to_path_buf(),
        tree: 0,
    };
    let mut client = served_out.client();
    served_out.tree = if served.gold.is_some() {
        match client
            .call(&Request::TreeByName {
                name: GOLD.to_string(),
            })
            .expect("tree by name")
        {
            Response::Tree(t) => t.id,
            other => panic!("gold lookup failed: {other:?}"),
        }
    } else {
        match client
            .load_tree(GOLD, &served.newick, WireDurability::Sync)
            .expect("load the served tree")
        {
            Response::TreeLoaded { tree, .. } => tree,
            other => panic!("served tree load failed: {other:?}"),
        }
    };
    served_out
}

/// One slice of a read stream's window.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub reads: u64,
    pub secs: f64,
    pub cpu_s: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
}

/// Outcome of a pipelined read stream.
#[derive(Debug, Default)]
pub struct ReadRun {
    pub completed: u64,
    /// Error replies (including `Overloaded`).
    pub errors: u64,
    /// Sampled replies that did not match the oracle.
    pub mismatches: u64,
    pub checked: u64,
    /// Whole slices of the window; a partial last slice is left out.
    pub slices: Vec<Slice>,
    pub elapsed_s: f64,
    pub first_mismatch: Option<String>,
}

/// Keep `depth` reads in flight on `client`, cycling through `ops`, until
/// `stop` says so; then drain. The window is cut into slices of `slice`
/// each, timed on their own, so a burst of outside load spoils one slice
/// and not the run. Replies at every 16th stream position are checked
/// against the oracle, once per position.
pub fn drive_reads(
    client: &mut Client,
    inputs: &Inputs,
    tree: u64,
    depth: usize,
    slice: Duration,
    stop: &dyn Fn(Instant) -> bool,
) -> ReadRun {
    const RING: usize = 1024;
    let reqs: Vec<Request> = inputs.ops.iter().map(|op| op.request(tree)).collect();
    let mut checked_pos = vec![false; reqs.len()];
    let mut ring: Vec<Option<(Instant, usize)>> = vec![None; RING];
    let mut sampled = Vec::new();
    // Sized up front so the peak RSS does not depend on throughput.
    let mut lat_ms: Vec<f64> = Vec::with_capacity(1 << 20);
    let mut run = ReadRun::default();
    let mut next = 0usize;
    let mut outstanding = 0usize;
    let start = Instant::now();
    let (mut slice_start, mut slice_cpu) = (start, process_cpu_s());
    let mut stopping = false;
    loop {
        while !stopping && outstanding < depth {
            let pos = next % reqs.len();
            let sent = Instant::now();
            let corr = client.send(&reqs[pos]).expect("send a read");
            ring[corr as usize % RING] = Some((sent, pos));
            next += 1;
            outstanding += 1;
        }
        if outstanding == 0 {
            break;
        }
        let (corr, resp) = client.recv().expect("receive a read reply");
        let now = Instant::now();
        let (sent, pos) = ring[corr as usize % RING]
            .take()
            .expect("reply to a request in flight");
        outstanding -= 1;
        run.completed += 1;
        lat_ms.push((now - sent).as_secs_f64() * 1e3);
        if let Response::Error(_) = resp {
            run.errors += 1;
        } else if pos % 16 == 0 && !checked_pos[pos] {
            checked_pos[pos] = true;
            sampled.push((pos, resp));
        }
        if !stopping && now - slice_start >= slice {
            let cpu = process_cpu_s();
            lat_ms.sort_by(|a, b| a.total_cmp(b));
            run.slices.push(Slice {
                reads: lat_ms.len() as u64,
                secs: (now - slice_start).as_secs_f64(),
                cpu_s: cpu - slice_cpu,
                p50_ms: percentile(&lat_ms, 0.50),
                p95_ms: percentile(&lat_ms, 0.95),
            });
            lat_ms.clear();
            (slice_start, slice_cpu) = (Instant::now(), process_cpu_s());
        }
        if !stopping && stop(now) {
            stopping = true;
        }
    }
    run.elapsed_s = start.elapsed().as_secs_f64();
    // Checked after the clock stops, so the oracle costs the window nothing.
    for (pos, resp) in sampled {
        run.checked += 1;
        if let Some(why) = oracle::check(&inputs.served, tree, &inputs.ops[pos], &resp) {
            run.mismatches += 1;
            run.first_mismatch.get_or_insert(why);
        }
    }
    run
}

/// Outcome of the write schedule.
#[derive(Debug, Default)]
pub struct WriteRun {
    pub load_ms: Vec<f64>,
    pub loaded_leaves: u64,
    pub sweep_ms: Vec<f64>,
    pub cells: u64,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub elapsed_s: f64,
}

/// Load every tree of `inputs.loads` (`Sync`), with a sweep after every
/// `shape.sweep_every` loads.
pub fn run_writes(client: &mut Client, shape: &Shape, inputs: &Inputs, seed: u64) -> WriteRun {
    let mut run = WriteRun::default();
    let start = Instant::now();
    let mut sweeps = 0usize;
    for (i, newick) in inputs.loads.iter().enumerate() {
        let t = Instant::now();
        let resp = client
            .load_tree(&format!("load-{i}"), newick, WireDurability::Sync)
            .expect("send a load");
        run.attempted += 1;
        match resp {
            Response::TreeLoaded { leaves, .. } if leaves == shape.load_leaves as u64 => {
                run.load_ms.push(ms_since(t));
                run.loaded_leaves += leaves;
            }
            other => {
                run.failed += 1;
                run.first_failure
                    .get_or_insert(format!("load {i}: {other:?}"));
            }
        }
        if (i + 1) % shape.sweep_every == 0 {
            let spec = sweep_spec(shape, GOLD, seed, sweeps);
            sweeps += 1;
            let t = Instant::now();
            let resp = client
                .call(&Request::RunExperiment { spec })
                .expect("send a sweep");
            run.attempted += 1;
            match resp {
                Response::Experiment { runs, .. } if runs == shape.sweep.cells() => {
                    run.sweep_ms.push(ms_since(t));
                    run.cells += runs;
                }
                other => {
                    run.failed += 1;
                    run.first_failure.get_or_insert(format!("sweep: {other:?}"));
                }
            }
        }
    }
    run.elapsed_s = start.elapsed().as_secs_f64();
    run
}

/// Wait until every acknowledged write is durable, then shut the server
/// down and return the tenant's size in bytes at the barrier.
pub fn finish(served: Served) -> (u64, PathBuf) {
    let mut client = served.client();
    match client.wait_durable().expect("durability barrier") {
        Response::Durable { .. } => {}
        other => panic!("durability barrier failed: {other:?}"),
    }
    drop(client);
    let dir = served.tenant_dir();
    // The server root holds this tenant's files and nothing else.
    let bytes = crate::util::dir_bytes(&served.root);
    served.server.shutdown();
    (bytes, dir)
}

/// Sweep rows re-checked offline, after the server has shut down.
#[derive(Debug, Default, Clone)]
pub struct SweepCheck {
    pub rows: u64,
    pub mismatches: u64,
    pub leaves_stored: u64,
    pub first_mismatch: Option<String>,
}

/// Reopen the tenant and recompute the Robinson–Foulds distance of every
/// persisted sweep row with `reconstruction::robinson_foulds`, against the
/// in-memory gold tree projected onto the row's leaves.
pub fn check_sweeps(shape: &Shape, inputs: &Inputs, dir: &Path) -> SweepCheck {
    let mut out = SweepCheck::default();
    let repo = Repository::open(dir, repo_options(shape)).expect("reopen the tenant");
    let reader = repo.reader().expect("reader");
    for rec in reader.list_trees().expect("list trees") {
        out.leaves_stored += rec.leaf_count;
    }
    let gold = &inputs.served.tree;
    for exp in reader.list_experiments().expect("list experiments") {
        for row in reader.experiment_results(exp.id).expect("experiment rows") {
            out.rows += 1;
            let leaves = reader.leaves(row.recon).expect("reconstruction leaves");
            let recon = reader.project(row.recon, &leaves).expect("reconstruction");
            let names = recon.leaf_names();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let ok = phylo::ops::project_by_names(gold, &refs)
                .ok()
                .and_then(|truth| reconstruction::robinson_foulds(&recon, &truth).ok())
                .is_some_and(|rf| rf.distance == row.rf.distance);
            if !ok {
                out.mismatches += 1;
                out.first_mismatch
                    .get_or_insert(format!("experiment {} row {}", exp.name, row.id));
            }
        }
    }
    out
}

/// Run `writer` on its own thread while `reader` runs here and watches
/// the flag that is raised when the writer ends (also by a panic).
pub fn beside<W: Send, R>(
    writer: impl FnOnce() -> W + Send,
    reader: impl FnOnce(&AtomicBool) -> R,
) -> (W, R) {
    struct RaiseOnDrop<'a>(&'a AtomicBool);
    impl Drop for RaiseOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let h = s.spawn(|| {
            let _raise = RaiseOnDrop(&done);
            writer()
        });
        let r = reader(&done);
        (h.join().expect("writer thread"), r)
    })
}
