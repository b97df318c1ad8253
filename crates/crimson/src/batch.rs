//! Parallel batch query execution.
//!
//! The ROADMAP's north star is a shared service absorbing heavy query
//! traffic; the natural unit of that traffic is a *batch* — a caller (or a
//! network front end) hands the engine a pile of independent structure
//! queries and wants aggregate throughput, not per-call latency.
//! [`QueryBatch`] fans a batch across a pool of scoped worker threads, each
//! driving a shared [`RepositoryReader`] snapshot, and returns the results
//! in submission order. No extra dependencies: plain `std::thread::scope`
//! plus an atomic work cursor.
//!
//! The executor pins **one snapshot epoch for the whole batch**
//! ([`RepositoryReader::pin`]): every query in the batch evaluates the same
//! committed state, so the batch's results are mutually consistent even
//! while the writer keeps loading trees mid-batch — queries see the state
//! as of the pin and never wait for a load to finish. If the pinned epoch
//! is retired mid-batch (the writer out-ran the bounded version chain — the
//! stress harness shows this is unreachable at the current depth), the
//! affected query transparently falls back to the reader's own re-pinning
//! path rather than failing the batch.

use crate::error::{CrimsonError, CrimsonResult};
use crate::query::PatternMatch;
use crate::reader::RepositoryReader;
use crate::repository::{NodeRecord, ReadCtx, Repository, StoredNodeId, TreeHandle};
use parking_lot::Mutex;
use phylo::Tree;
use std::sync::atomic::{AtomicUsize, Ordering};
use storage::EpochView;

/// One query in a batch.
#[derive(Debug, Clone)]
pub enum BatchQuery {
    /// Least common ancestor of two stored nodes.
    Lca(StoredNodeId, StoredNodeId),
    /// Ancestor-or-self test.
    IsAncestor(StoredNodeId, StoredNodeId),
    /// Minimal spanning clade of a node set.
    SpanningClade(Vec<StoredNodeId>),
    /// Projection of a tree onto a leaf selection.
    Project(TreeHandle, Vec<StoredNodeId>),
    /// Pattern match of an in-memory pattern against a stored tree.
    PatternMatch(TreeHandle, Tree),
    /// Fetch one node row.
    NodeRecord(StoredNodeId),
}

/// The result of one [`BatchQuery`], in the corresponding variant.
#[derive(Debug, Clone)]
pub enum BatchOutput {
    /// An LCA result.
    Node(StoredNodeId),
    /// An ancestor-test result.
    Flag(bool),
    /// A spanning clade, in pre-order.
    Nodes(Vec<StoredNodeId>),
    /// A projected subtree.
    Tree(Tree),
    /// A pattern-match report.
    Match(Box<PatternMatch>),
    /// A decoded node row.
    Record(Box<NodeRecord>),
}

/// A batch of independent read queries, executed across a worker pool.
#[derive(Debug, Default, Clone)]
pub struct QueryBatch {
    queries: Vec<BatchQuery>,
}

impl QueryBatch {
    /// An empty batch.
    pub fn new() -> Self {
        QueryBatch::default()
    }

    /// Append a query; returns its index (results come back in submission
    /// order, so the index addresses this query's result).
    pub fn push(&mut self, query: BatchQuery) -> usize {
        self.queries.push(query);
        self.queries.len() - 1
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// `true` when the batch holds no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Execute the batch against a fresh snapshot reader of `repo` with
    /// `threads` workers. Results are returned in submission order; each
    /// query fails or succeeds independently.
    pub fn execute(
        &self,
        repo: &Repository,
        threads: usize,
    ) -> CrimsonResult<Vec<CrimsonResult<BatchOutput>>> {
        let reader = repo.reader()?;
        Ok(self.execute_on(&reader, threads))
    }

    /// Execute the batch against an existing reader (its caches stay warm
    /// across batches). One snapshot epoch is pinned up front and shared by
    /// every query, so the whole batch reads one committed state. `threads`
    /// is clamped to `[1, batch size]`; workers pull queries off a shared
    /// atomic cursor, so an expensive projection does not stall the rest of
    /// the batch behind a static partition.
    pub fn execute_on(
        &self,
        reader: &RepositoryReader,
        threads: usize,
    ) -> Vec<CrimsonResult<BatchOutput>> {
        let n = self.queries.len();
        if n == 0 {
            return Vec::new();
        }
        // Pin the batch's epoch. Pinning only fails on a storage-level
        // error resolving the epoch's catalog; degrade to per-query
        // snapshots (each query pins its own epoch) rather than failing
        // the batch outright.
        let pinned = reader.pin().ok();
        let workers = threads.clamp(1, n);
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<CrimsonResult<BatchOutput>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let cursor = &cursor;
                let slots = &slots;
                let queries = &self.queries;
                let pinned = pinned.as_ref();
                scope.spawn(move || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let fresh = || reader.read(|v| run_query(v, &queries[i]));
                    let out = match pinned {
                        Some(pin) => match run_query(pin, &queries[i]) {
                            // The pinned epoch outlived the bounded version
                            // chain: serve this query through the reader's
                            // re-pinning path instead of failing it.
                            Err(CrimsonError::Storage(
                                storage::StorageError::SnapshotRetired { .. },
                            )) => fresh(),
                            out => out,
                        },
                        None => fresh(),
                    };
                    *slots[i].lock() = Some(out);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("worker filled every slot"))
            .collect()
    }
}

fn run_query(view: &ReadCtx<'_, EpochView<'_>>, query: &BatchQuery) -> CrimsonResult<BatchOutput> {
    match query {
        BatchQuery::Lca(a, b) => view.lca(*a, *b).map(BatchOutput::Node),
        BatchQuery::IsAncestor(a, b) => view.is_ancestor(*a, *b).map(BatchOutput::Flag),
        BatchQuery::SpanningClade(nodes) => {
            view.minimal_spanning_clade(nodes).map(BatchOutput::Nodes)
        }
        BatchQuery::Project(handle, leaves) => view.project(*handle, leaves).map(BatchOutput::Tree),
        BatchQuery::PatternMatch(handle, pattern) => view
            .pattern_match(*handle, pattern)
            .map(|m| BatchOutput::Match(Box::new(m))),
        BatchQuery::NodeRecord(id) => view
            .node_record(*id)
            .map(|r| BatchOutput::Record(Box::new(r))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::RepositoryOptions;
    use simulation::birth_death::yule_tree;
    use tempfile::tempdir;

    #[test]
    fn batch_matches_sequential_results_in_order() {
        let dir = tempdir().unwrap();
        let mut repo = Repository::create(
            dir.path().join("b.crimson"),
            RepositoryOptions {
                buffer_pool_pages: 1024,
                ..Default::default()
            },
        )
        .unwrap();
        let tree = yule_tree(120, 1.0, 5);
        let handle = repo.load_tree("t", &tree).unwrap();
        let leaves = repo.view().leaves(handle).unwrap();

        let mut batch = QueryBatch::new();
        for i in 0..leaves.len() {
            let a = leaves[i];
            let b = leaves[(i * 7 + 3) % leaves.len()];
            batch.push(BatchQuery::Lca(a, b));
            batch.push(BatchQuery::IsAncestor(a, b));
            if i % 8 == 0 {
                batch.push(BatchQuery::SpanningClade(vec![
                    a,
                    b,
                    leaves[(i + 1) % leaves.len()],
                ]));
            }
            if i % 16 == 0 {
                let sel: Vec<StoredNodeId> =
                    leaves.iter().skip(i % 4).step_by(11).copied().collect();
                batch.push(BatchQuery::Project(handle, sel));
            }
        }
        assert!(!batch.is_empty());

        // Sequential reference via the writer's own engine.
        let mut expected = Vec::new();
        for q in &batch.queries {
            expected.push(match q {
                BatchQuery::Lca(a, b) => format!("{:?}", repo.view().lca(*a, *b).unwrap()),
                BatchQuery::IsAncestor(a, b) => {
                    format!("{:?}", repo.view().is_ancestor(*a, *b).unwrap())
                }
                BatchQuery::SpanningClade(nodes) => {
                    format!("{:?}", repo.view().minimal_spanning_clade(nodes).unwrap())
                }
                BatchQuery::Project(h, sel) => {
                    let t = repo.view().project(*h, sel).unwrap();
                    let mut names = t.leaf_names();
                    names.sort();
                    format!("{names:?}")
                }
                _ => unreachable!("not built above"),
            });
        }

        for threads in [1usize, 4] {
            let results = batch.execute(&repo, threads).unwrap();
            assert_eq!(results.len(), batch.len());
            for (i, (res, exp)) in results.iter().zip(&expected).enumerate() {
                let got = match res.as_ref().unwrap() {
                    BatchOutput::Node(n) => format!("{n:?}"),
                    BatchOutput::Flag(f) => format!("{f:?}"),
                    BatchOutput::Nodes(ns) => format!("{ns:?}"),
                    BatchOutput::Tree(t) => {
                        let mut names = t.leaf_names();
                        names.sort();
                        format!("{names:?}")
                    }
                    other => format!("{other:?}"),
                };
                assert_eq!(&got, exp, "query {i} with {threads} threads");
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let dir = tempdir().unwrap();
        let repo =
            Repository::create(dir.path().join("b.crimson"), RepositoryOptions::default()).unwrap();
        let batch = QueryBatch::new();
        assert!(batch.execute(&repo, 4).unwrap().is_empty());
    }
}
