//! The dispatch core: a bounded job queue feeding a small worker pool.
//!
//! Every engine-touching request from every connection flows through here;
//! connection threads only frame, decode, and enqueue. Routing rules:
//!
//! * **Reads coalesce.** When a worker pops a read job it also drains, from
//!   anywhere in the queue, up to `batch_max - 1` further read jobs for the
//!   *same tenant*. The batch pins one snapshot epoch and executes every
//!   job against that [`crimson::PinnedReader`] — adjacent reads from
//!   different connections share the pin, the buffer-pool working set, and
//!   the epoch bookkeeping, which is where the multi-connection throughput
//!   scaling comes from. A job whose pinned epoch is retired mid-batch
//!   falls back to [`crimson::RepositoryReader::read`], the one retrying
//!   reader.
//! * **Writes are exclusive.** A write job locks its tenant's single
//!   writer, commits (the writer rides
//!   [`crimson::repository::Durability::Async`], so the lock is held only
//!   for the log append), releases the lock, and *then* waits for
//!   durability when the request asked for `Sync` — so fsync rounds are
//!   shared across connections instead of serialized under the lock.
//! * **Admission is bounded.** [`Dispatcher::submit`] rejects once the
//!   queue is at capacity; it never blocks a connection thread.
//!
//! Shutdown is a drain: no new jobs are admitted, workers finish whatever
//! is queued, then exit.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crimson::experiment::{DistanceSource, ExperimentRunner, ExperimentSpec, Method};
use crimson::repository::{ReadCtx, StoredNodeId, TreeHandle};
use crimson::sampling::SamplingStrategy;
use crimson::CrimsonError;
use storage::EpochView;

use crate::frame::encode_frame;
use crate::msg::{
    Request, Response, WireComparison, WireDurability, WireIntegrity, WireMethod, WireRf,
    WireStats, WireStrategy, WireTree,
};
use crate::tenant::Tenant;
use crate::wire::WireError;

/// Dispatch pool configuration.
#[derive(Debug, Clone)]
pub struct DispatchConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Maximum reads coalesced into one pinned-epoch batch (`1` = one pin
    /// per read; the bench measures the difference).
    pub batch_max: usize,
    /// Queue capacity; submissions beyond it are shed with
    /// [`crate::wire::ErrorCode::Overloaded`].
    pub max_queue: usize,
}

impl Default for DispatchConfig {
    fn default() -> Self {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        DispatchConfig {
            workers: hw.clamp(2, 8),
            batch_max: 32,
            max_queue: 1024,
        }
    }
}

/// Monotonic counters shared by the pool, the server, and the `Stats`
/// request.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Read requests executed.
    pub reads: AtomicU64,
    /// Pinned-epoch batch executions.
    pub read_batches: AtomicU64,
    /// Reads that shared their batch with at least one other read.
    pub coalesced_reads: AtomicU64,
    /// Write requests executed.
    pub writes: AtomicU64,
    /// Requests shed with `Overloaded`.
    pub overloaded: AtomicU64,
    /// Frames/messages rejected at the protocol layer.
    pub protocol_rejects: AtomicU64,
    /// Currently open connections.
    pub connections: AtomicU64,
}

impl ServerStats {
    /// Snapshot for the `Stats` response.
    pub fn snapshot(&self, queue_depth: usize) -> WireStats {
        WireStats {
            reads: self.reads.load(Ordering::Relaxed),
            read_batches: self.read_batches.load(Ordering::Relaxed),
            coalesced_reads: self.coalesced_reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            protocol_rejects: self.protocol_rejects.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            queue_depth: queue_depth as u64,
        }
    }
}

/// Where a finished job's response goes: the connection's writer channel,
/// paired with its in-flight window counter.
#[derive(Clone)]
pub struct Reply {
    tx: mpsc::Sender<Vec<u8>>,
    in_flight: Arc<AtomicUsize>,
}

impl Reply {
    /// A reply route over the connection's outbound frame channel.
    pub fn new(tx: mpsc::Sender<Vec<u8>>, in_flight: Arc<AtomicUsize>) -> Reply {
        Reply { tx, in_flight }
    }

    /// Encode and enqueue the response frame, releasing one window slot.
    /// A send failure means the connection is gone; the response is
    /// dropped, never the worker.
    pub fn send(&self, correlation: u64, resp: &Response) {
        let frame = encode_frame(&resp.encode(correlation));
        let _ = self.tx.send(frame);
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One queued request.
pub struct Job {
    /// The tenant the session was attached to at submission.
    pub tenant: Arc<Tenant>,
    /// Client correlation id, echoed in the response.
    pub correlation: u64,
    /// The decoded request.
    pub request: Request,
    /// Response route.
    pub reply: Reply,
}

struct Queue {
    jobs: Mutex<VecDeque<Job>>,
    ready: Condvar,
    shutdown: AtomicBool,
}

/// The dispatch pool handle held by the server.
pub struct Dispatcher {
    queue: Arc<Queue>,
    config: DispatchConfig,
    stats: Arc<ServerStats>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Dispatcher {
    /// Start `config.workers` worker threads.
    pub fn start(config: DispatchConfig, stats: Arc<ServerStats>) -> Dispatcher {
        let queue = Arc::new(Queue {
            jobs: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                let stats = Arc::clone(&stats);
                let config = config.clone();
                std::thread::Builder::new()
                    .name(format!("crimson-dispatch-{i}"))
                    .spawn(move || worker_loop(&queue, &config, &stats))
                    .expect("spawn dispatch worker")
            })
            .collect();
        Dispatcher {
            queue,
            config,
            stats,
            workers,
        }
    }

    /// Current queue depth (for `Stats`).
    pub fn queue_depth(&self) -> usize {
        self.queue
            .jobs
            .lock()
            .expect("dispatch queue poisoned")
            .len()
    }

    /// Admit a job, or hand it back when the queue is full or shutting
    /// down. The caller owns the reject response so the in-flight
    /// accounting stays with it. The rejected job rides the `Err` by
    /// value: it is consumed immediately to emit the typed reject, so
    /// boxing it would put an allocation on the overload path.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, job: Job) -> Result<(), Job> {
        if self.queue.shutdown.load(Ordering::Acquire) {
            return Err(job);
        }
        let mut jobs = self.queue.jobs.lock().expect("dispatch queue poisoned");
        if jobs.len() >= self.config.max_queue {
            drop(jobs);
            self.stats.overloaded.fetch_add(1, Ordering::Relaxed);
            return Err(job);
        }
        jobs.push_back(job);
        drop(jobs);
        self.queue.ready.notify_one();
        Ok(())
    }

    /// Drain the queue and stop the workers. Every queued job still gets
    /// its response before the workers exit.
    pub fn shutdown(mut self) {
        self.queue.shutdown.store(true, Ordering::Release);
        self.queue.ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(queue: &Queue, config: &DispatchConfig, stats: &ServerStats) {
    loop {
        let mut jobs = queue.jobs.lock().expect("dispatch queue poisoned");
        while jobs.is_empty() {
            if queue.shutdown.load(Ordering::Acquire) {
                return;
            }
            let (guard, _) = queue
                .ready
                .wait_timeout(jobs, Duration::from_millis(50))
                .expect("dispatch queue poisoned");
            jobs = guard;
        }
        let first = jobs.pop_front().expect("non-empty");
        let mut batch = vec![first];
        if batch[0].request.is_read() {
            // Pull further reads for the same tenant from anywhere in the
            // queue; other tenants' jobs keep their relative order.
            let tenant = Arc::clone(&batch[0].tenant);
            let mut i = 0;
            while i < jobs.len() && batch.len() < config.batch_max {
                if jobs[i].request.is_read() && Arc::ptr_eq(&jobs[i].tenant, &tenant) {
                    let job = jobs.remove(i).expect("index in range");
                    batch.push(job);
                } else {
                    i += 1;
                }
            }
        }
        drop(jobs);
        if batch[0].request.is_read() {
            execute_read_batch(batch, stats);
        } else {
            let job = batch.pop().expect("exactly one");
            execute_exclusive(job, stats);
        }
    }
}

fn is_snapshot_retired(e: &CrimsonError) -> bool {
    matches!(
        e,
        CrimsonError::Storage(storage::StorageError::SnapshotRetired { .. })
    )
}

/// Run a batch of read jobs against one pinned epoch.
fn execute_read_batch(batch: Vec<Job>, stats: &ServerStats) {
    let n = batch.len() as u64;
    stats.reads.fetch_add(n, Ordering::Relaxed);
    stats.read_batches.fetch_add(1, Ordering::Relaxed);
    if batch.len() > 1 {
        stats.coalesced_reads.fetch_add(n, Ordering::Relaxed);
    }
    let tenant = Arc::clone(&batch[0].tenant);
    match tenant.reader.pin() {
        Ok(pin) => {
            for job in batch {
                let resp = match exec_read(&pin, &job.request) {
                    Ok(resp) => resp,
                    // The batch's shared epoch was retired under it: the
                    // reader's own retrying path re-pins for this job.
                    Err(e) if is_snapshot_retired(&e) => tenant
                        .reader
                        .read(|v| exec_read(v, &job.request))
                        .unwrap_or_else(|e| Response::Error(WireError::from(&e))),
                    Err(e) => Response::Error(WireError::from(&e)),
                };
                job.reply.send(job.correlation, &resp);
            }
        }
        Err(e) => {
            // Could not pin at all (e.g. degraded mode): every job in the
            // batch gets the typed error; the connection stays up.
            let wire = WireError::from(&e);
            for job in batch {
                job.reply
                    .send(job.correlation, &Response::Error(wire.clone()));
            }
        }
    }
}

fn wire_tree(rec: &crimson::repository::TreeRecord) -> WireTree {
    WireTree {
        id: rec.handle.0,
        name: rec.name.clone(),
        leaf_count: rec.leaf_count,
    }
}

fn wire_rf(rf: &reconstruction::compare::RfResult) -> WireRf {
    WireRf {
        distance: rf.distance as u64,
        max_distance: rf.max_distance as u64,
        shared: rf.shared as u64,
        normalized: rf.normalized,
    }
}

fn ids(nodes: Vec<StoredNodeId>) -> Vec<u64> {
    nodes.into_iter().map(|n| n.0).collect()
}

/// Execute one read request against a pinned snapshot.
fn exec_read(pin: &ReadCtx<'_, EpochView<'_>>, req: &Request) -> Result<Response, CrimsonError> {
    Ok(match req {
        Request::ListTrees => Response::Trees(pin.list_trees()?.iter().map(wire_tree).collect()),
        Request::TreeByName { name } => Response::Tree(wire_tree(&pin.tree_by_name(name)?)),
        Request::Leaves { tree } => Response::Nodes(ids(pin.leaves(TreeHandle(*tree))?)),
        Request::Lca { a, b } => Response::Node(pin.lca(StoredNodeId(*a), StoredNodeId(*b))?.0),
        Request::IsAncestor { ancestor, node } => {
            Response::Flag(pin.is_ancestor(StoredNodeId(*ancestor), StoredNodeId(*node))?)
        }
        Request::SpanningClade { nodes } => {
            let stored: Vec<StoredNodeId> = nodes.iter().map(|n| StoredNodeId(*n)).collect();
            Response::Nodes(ids(pin.minimal_spanning_clade(&stored)?))
        }
        Request::Project { tree, leaves } => {
            let stored: Vec<StoredNodeId> = leaves.iter().map(|n| StoredNodeId(*n)).collect();
            let projected = pin.project(TreeHandle(*tree), &stored)?;
            Response::Newick(phylo::newick::write(&projected))
        }
        Request::SampleUniform { tree, k, seed } => Response::Nodes(ids(pin.sample_uniform(
            TreeHandle(*tree),
            *k as usize,
            *seed,
        )?)),
        Request::CompareStored { a, b, triplets } => {
            let cmp = pin.compare_stored(TreeHandle(*a), TreeHandle(*b), *triplets)?;
            Response::Comparison(WireComparison {
                rf: wire_rf(&cmp.rf),
                rooted_rf: wire_rf(&cmp.rooted_rf),
                triplet: cmp.triplet,
            })
        }
        Request::IntegrityCheck => {
            let report = pin.integrity_check()?;
            Response::Integrity(WireIntegrity {
                trees: report.trees,
                nodes: report.nodes,
                species: report.species,
                interval_entries: report.interval_entries,
                experiments: report.experiments,
                experiment_results: report.experiment_results,
            })
        }
        other => {
            debug_assert!(false, "non-read request {other:?} routed to exec_read");
            Response::Error(WireError::new(
                crate::wire::ErrorCode::Internal,
                "request misrouted to the read path",
            ))
        }
    })
}

/// Execute a write / barrier job. The writer lock is held only for the
/// commit; durability waits happen on the shared reader afterwards.
fn execute_exclusive(job: Job, stats: &ServerStats) {
    let resp = match &job.request {
        Request::LoadTree {
            name,
            newick,
            durability,
        } => {
            stats.writes.fetch_add(1, Ordering::Relaxed);
            load_tree(&job.tenant, name, newick, *durability)
        }
        Request::RunExperiment { spec } => {
            stats.writes.fetch_add(1, Ordering::Relaxed);
            run_experiment(&job.tenant, spec)
        }
        Request::WaitDurable => wait_durable(&job.tenant),
        other => {
            debug_assert!(false, "request {other:?} misrouted to the exclusive path");
            Response::Error(WireError::new(
                crate::wire::ErrorCode::Internal,
                "request misrouted to the write path",
            ))
        }
    };
    job.reply.send(job.correlation, &resp);
}

fn load_tree(tenant: &Tenant, name: &str, newick: &str, durability: WireDurability) -> Response {
    // Commit under the lock (log append only — the writer is permanently
    // Durability::Async), then wait for the fsync outside it so concurrent
    // sessions share group-commit rounds.
    let (handle, leaves, lsn) = {
        let mut repo = tenant.writer.lock();
        let report = match repo.load_newick(name, newick) {
            Ok(r) => r,
            Err(e) => return Response::Error(WireError::from(&e)),
        };
        let rec = match repo.view().tree_record(report.handle) {
            Ok(r) => r,
            Err(e) => return Response::Error(WireError::from(&e)),
        };
        (report.handle, rec.leaf_count, repo.last_commit_lsn())
    };
    tenant.note_async_commit(lsn);
    if durability == WireDurability::Sync {
        if let Err(e) = tenant.reader.wait_durable(lsn) {
            return Response::Error(WireError::from(&e));
        }
    }
    Response::TreeLoaded {
        tree: handle.0,
        leaves,
        commit_lsn: lsn,
    }
}

fn run_experiment(tenant: &Tenant, spec: &crate::msg::WireExperimentSpec) -> Response {
    let engine_spec = ExperimentSpec {
        name: spec.name.clone(),
        methods: spec
            .methods
            .iter()
            .map(|m| match m {
                WireMethod::Upgma => Method::Upgma,
                WireMethod::NeighborJoining => Method::NeighborJoining,
            })
            .collect(),
        strategies: spec
            .strategies
            .iter()
            .map(|s| match s {
                WireStrategy::Uniform { k } => SamplingStrategy::Uniform { k: *k as usize },
                WireStrategy::TimeRespecting { time, k } => SamplingStrategy::TimeRespecting {
                    time: *time,
                    k: *k as usize,
                },
            })
            .collect(),
        replicates: spec.replicates as usize,
        distance_source: DistanceSource::TruePatristic,
        compute_triplets: spec.compute_triplets,
        seed: spec.seed,
        workers: (spec.workers as usize).clamp(1, 8),
        cell_commits: false,
    };
    let (record, lsn) = {
        let mut repo = tenant.writer.lock();
        let gold = match repo.view().tree_by_name(&spec.gold) {
            Ok(rec) => rec.handle,
            Err(e) => return Response::Error(WireError::from(&e)),
        };
        let record = match ExperimentRunner::new(&mut repo, gold).run(&engine_spec) {
            Ok(r) => r,
            Err(e) => return Response::Error(WireError::from(&e)),
        };
        let lsn = repo.last_commit_lsn();
        (record, lsn)
    };
    tenant.note_async_commit(lsn);
    // Experiments are heavyweight; always make them durable before
    // acknowledging.
    if let Err(e) = tenant.reader.wait_durable(lsn) {
        return Response::Error(WireError::from(&e));
    }
    Response::Experiment {
        id: record.id,
        runs: record.runs,
        wall_ms: record.wall_ms,
    }
}

fn wait_durable(tenant: &Tenant) -> Response {
    let lsn: storage::wal::Lsn = tenant.barrier_lsn();
    if let Err(e) = tenant.reader.wait_durable(lsn) {
        return Response::Error(WireError::from(&e));
    }
    Response::Durable {
        lsn: tenant.reader.durable_lsn(),
    }
}
