//! Content-addressed tree storage: canonical clade hashes, O(1) equality,
//! dedup-on-store and structurally shared ("cold") trees.
//!
//! Every stored tree carries the per-clade Merkle hashes of
//! [`labeling::clade_hash`] in two raw indexes (`hash_by_pre` per tree,
//! `hash_idx` globally) plus one `tree_stats` summary row. On top of those
//! this module implements:
//!
//! * **O(1) equality** — [`Repository::trees_equal`] compares two stats
//!   rows; [`Repository::subtrees_equal`] compares two `hash_by_pre`
//!   probes. No scan, no node rows.
//! * **No-scan lookup** — [`Repository::trees_with_root_hash`] /
//!   [`Repository::subtrees_with_hash`] answer "which stored trees or
//!   subtrees equal this one" from a 16-byte prefix range of `hash_idx`.
//! * **Dedup-on-store** — [`Repository::store_tree_dedup`] returns the
//!   canonical stored tree when an identical one already exists, instead of
//!   writing a second full copy; the experiment runner persists sweep
//!   reconstructions through it.
//! * **Cold storage** — [`Repository::store_tree_shared`] materializes only
//!   the spine of a tree: duplicate subtrees above a size threshold are
//!   bridged to their canonical copy by [`labeling::clade_hash::CladeRef`]
//!   rows, and [`crate::compare::StoredCladeSource`] stitches the bridged
//!   spans back transparently during streaming comparison.
//! * **Backfill** — [`Repository::backfill_clade_hashes`] reconstructs the
//!   content address of trees stored by pre-hash builds from their interval
//!   entries and leaf rows; checkpoints run it automatically, so an old
//!   file upgrades in place.

use crate::error::{CrimsonError, CrimsonResult};
use crate::repository::{
    decode_node_row, decode_tree_stats_row, ReadCtx, Repository, StoredNodeId, TreeHandle,
    TreeRecord, TreeStatsRecord, BULK_FILL, HASH_IDX_MIN_SPAN, STATS_FLAG_COLD,
    STATS_FLAG_DISTINCT_LEAVES, TREE_SHIFT,
};
use labeling::clade_hash::{
    self, decode_hash_by_pre_key, decode_hash_idx_key, hash_by_pre_key, hash_idx_key,
    hash_idx_prefix, hash_idx_range_end, pack_span, unpack_span, CladeHash, CladeRef,
};
use labeling::interval::{interval_key_prefix, interval_range_end, IntervalEntry, IntervalLabels};
use phylo::traverse::Traverse;
use phylo::Tree;
use std::collections::{HashMap, HashSet};
use storage::db::DbRead;
use storage::value::Value;

/// Distinct non-trivial rooted-clade and unrooted-split counts of one tree —
/// the denominators of the comparison metrics, persisted in `tree_stats` so
/// the equal-tree short-circuit can synthesize a full [`reconstruction::compare::RfResult`]
/// without streaming either tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CladeCounts {
    /// `|clades(T)|`: distinct leaf sets of size `2..=n-1`.
    pub rooted: u64,
    /// `|splits(T)|`: distinct non-trivial bipartitions (smaller side ≥ 2).
    pub unrooted: u64,
}

/// Count distinct non-trivial rooted clades and unrooted splits from the
/// per-node leaf-rank spans `(lo, hi)` of a tree with `n_leaves` leaves.
///
/// In a DFS numbering every subtree's leaf set is exactly the contiguous
/// rank interval `[lo, hi]`, so distinct intervals are distinct leaf sets:
/// a size filter replaces the explicit root/leaf checks (the root spans all
/// `n` leaves, a leaf spans one), and unrooted splits canonicalize to the
/// side not containing rank 0 — matching the comparison module's sets
/// exactly.
pub(crate) fn count_clades(spans: impl Iterator<Item = (u32, u32)>, n_leaves: u32) -> CladeCounts {
    let n = n_leaves;
    let mut clades: HashSet<(u32, u32)> = HashSet::new();
    let mut splits: HashSet<(u32, u32)> = HashSet::new();
    for (lo, hi) in spans {
        if lo > hi {
            continue;
        }
        let size = hi - lo + 1;
        if size >= 2 && size < n {
            clades.insert((lo, hi));
        }
        if n >= 2 && size >= 2 && size <= n - 2 {
            let canonical = if lo == 0 { (hi + 1, n - 1) } else { (lo, hi) };
            splits.insert(canonical);
        }
    }
    CladeCounts {
        rooted: clades.len() as u64,
        unrooted: splits.len() as u64,
    }
}

/// The full content address of an in-memory tree: per-node hashes (arena
/// indexed), clade counts and the distinct-leaf-names flag. The bulk loader
/// computes all of this inside its single DFS; this standalone version
/// serves the reference load path, dedup probing and cold storage.
pub(crate) struct TreeContent {
    /// Canonical clade hash per node, indexed by arena index.
    pub hashes: Vec<CladeHash>,
    /// Distinct clade/split counts.
    pub counts: CladeCounts,
    /// Every leaf named, no duplicates.
    pub distinct_leaves: bool,
}

impl TreeContent {
    /// Compute hashes, counts and the leaf flag in two post-order passes.
    pub fn compute(tree: &Tree) -> TreeContent {
        let hashes = clade_hash::tree_hashes(tree);
        let n = tree.node_count();
        let mut lo = vec![u32::MAX; n];
        let mut hi = vec![0u32; n];
        let mut next_rank = 0u32;
        for v in tree.postorder() {
            let vi = v.index();
            if tree.is_leaf(v) {
                lo[vi] = next_rank;
                hi[vi] = next_rank;
                next_rank += 1;
            }
            if let Some(p) = tree.parent(v) {
                let pi = p.index();
                lo[pi] = lo[pi].min(lo[vi]);
                hi[pi] = hi[pi].max(hi[vi]);
            }
        }
        let counts = count_clades((0..n).map(|i| (lo[i], hi[i])), next_rank);
        TreeContent {
            hashes,
            counts,
            distinct_leaves: clade_hash::distinct_named_leaves(tree),
        }
    }
}

/// Aggregate structural-sharing statistics over the whole repository — the
/// dedup bench's headline numbers and the example's report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContentStats {
    /// Trees in the catalog.
    pub trees: u64,
    /// Trees carrying a content-address row.
    pub hashed_trees: u64,
    /// Trees stored cold (structurally shared).
    pub cold_trees: u64,
    /// Sum of logical node counts across all trees.
    pub logical_nodes: u64,
    /// Node rows actually materialized.
    pub stored_nodes: u64,
    /// Logical nodes represented by bridges instead of rows.
    pub bridged_nodes: u64,
    /// Structural-sharing reference rows.
    pub dedup_refs: u64,
}

// ---------------------------------------------------------------------------
// Read surface
// ---------------------------------------------------------------------------

impl<'a, D: DbRead> ReadCtx<'a, D> {
    /// The content-address summary row of a tree, `None` when the tree was
    /// stored by a pre-hash build and has not been backfilled yet.
    pub fn tree_stats(&self, handle: TreeHandle) -> CrimsonResult<Option<TreeStatsRecord>> {
        let rows = self.db.lookup_rows(
            self.tables.tree_stats,
            "tree_id",
            &Value::Int(handle.0 as i64),
        )?;
        match rows.into_iter().next() {
            Some((rid, row)) => decode_tree_stats_row(&row).map(Some).ok_or_else(|| {
                CrimsonError::CorruptRepository(format!(
                    "tree_stats row {rid} carries a malformed clade hash"
                ))
            }),
            None => Ok(None),
        }
    }

    /// The stats row, failing with a typed error when absent.
    pub fn require_tree_stats(&self, handle: TreeHandle) -> CrimsonResult<TreeStatsRecord> {
        self.tree_stats(handle)?
            .ok_or(CrimsonError::MissingContentAddress(handle.0))
    }

    /// The stored clade hash and end rank of the subtree rooted at rank
    /// `pre` of `tree`: one covering probe of `hash_by_pre`. `None` when the
    /// tree carries no hashes (pre-hash file) or the rank does not exist.
    pub fn subtree_hash_at(
        &self,
        tree: TreeHandle,
        pre: u32,
    ) -> CrimsonResult<Option<(CladeHash, u32)>> {
        let low = interval_key_prefix(tree.0, pre);
        let high = interval_range_end(tree.0, pre);
        match self
            .db
            .raw_first_in_range(self.tables.hash_by_pre, &low, &high, |key, value| {
                decode_hash_by_pre_key(key).map(|(_, _, h)| (h, unpack_span(value).1))
            })? {
            Some(Some(found)) => Ok(Some(found)),
            Some(None) => Err(CrimsonError::CorruptRepository(
                "malformed clade-hash key".to_string(),
            )),
            None => Ok(None),
        }
    }

    /// The canonical clade hash of the subtree rooted at a stored node.
    pub fn node_content_hash(&self, id: StoredNodeId) -> CrimsonResult<CladeHash> {
        let tree = id.0 >> TREE_SHIFT;
        let (pre, _) = self.interval_of(id)?;
        self.subtree_hash_at(TreeHandle(tree), pre)?
            .map(|(h, _)| h)
            .ok_or(CrimsonError::MissingContentAddress(tree))
    }

    /// O(1) whole-tree equality: same unordered topology with the same
    /// leaf-name multiset. Two stats-row lookups, no tree is streamed.
    pub fn trees_equal(&self, a: TreeHandle, b: TreeHandle) -> CrimsonResult<bool> {
        let sa = self.require_tree_stats(a)?;
        let sb = self.require_tree_stats(b)?;
        Ok(sa.root_hash == sb.root_hash)
    }

    /// O(1) subtree equality between two stored nodes (possibly of
    /// different trees): two interval lookups and two hash probes.
    pub fn subtrees_equal(&self, a: StoredNodeId, b: StoredNodeId) -> CrimsonResult<bool> {
        Ok(self.node_content_hash(a)? == self.node_content_hash(b)?)
    }

    /// Every `hash_idx` occurrence of `hash` as `(tree, pre, end)` — tree
    /// roots plus internal subtrees spanning at least
    /// [`HASH_IDX_MIN_SPAN`](crate::repository) nodes of fully materialized
    /// trees.
    pub fn subtrees_with_hash(
        &self,
        hash: CladeHash,
    ) -> CrimsonResult<Vec<(TreeHandle, u32, u32)>> {
        let low = hash_idx_prefix(hash);
        let high = hash_idx_range_end(hash);
        let mut out = Vec::new();
        let mut malformed = false;
        self.db.raw_scan(
            self.tables.hash_idx,
            Some(low.as_slice()),
            high.as_ref().map(|h| h.as_slice()),
            &mut |key, value| match decode_hash_idx_key(key) {
                Some((_, tree, pre)) => {
                    let (_, end) = unpack_span(value);
                    out.push((TreeHandle(tree), pre, end));
                    Ok(true)
                }
                None => {
                    malformed = true;
                    Ok(false)
                }
            },
        )?;
        if malformed {
            return Err(CrimsonError::CorruptRepository(
                "malformed content-address key".to_string(),
            ));
        }
        Ok(out)
    }

    /// Stored trees whose whole-tree content address equals `hash` — the
    /// `pre == 0` slice of [`ReadCtx::subtrees_with_hash`].
    pub fn trees_with_root_hash(&self, hash: CladeHash) -> CrimsonResult<Vec<TreeHandle>> {
        Ok(self
            .subtrees_with_hash(hash)?
            .into_iter()
            .filter(|&(_, pre, _)| pre == 0)
            .map(|(tree, _, _)| tree)
            .collect())
    }

    /// The structural-sharing reference rows of a cold tree, in pre order
    /// (empty for hot trees).
    pub fn clade_refs_of(&self, handle: TreeHandle) -> CrimsonResult<Vec<CladeRef>> {
        let low = handle.0.to_be_bytes();
        let high = (handle.0 + 1).to_be_bytes();
        let mut out = Vec::new();
        let mut malformed = false;
        self.db.raw_scan(
            self.tables.clade_refs,
            Some(low.as_slice()),
            Some(high.as_slice()),
            &mut |key, value| match CladeRef::decode(key, value) {
                Some((_, r)) => {
                    out.push(r);
                    Ok(true)
                }
                None => {
                    malformed = true;
                    Ok(false)
                }
            },
        )?;
        if malformed {
            return Err(CrimsonError::CorruptRepository(
                "malformed clade-ref key".to_string(),
            ));
        }
        Ok(out)
    }

    /// Map every distinct clade hash of `handle` to one pre-order rank
    /// carrying it — one range scan of the tree's `hash_by_pre` slice. The
    /// experiment runner uses it to remap per-clade agreement rows onto a
    /// deduplicated canonical tree.
    pub(crate) fn hash_to_pre_map(
        &self,
        handle: TreeHandle,
    ) -> CrimsonResult<HashMap<CladeHash, u32>> {
        let low = handle.0.to_be_bytes();
        let high = (handle.0 + 1).to_be_bytes();
        let mut map = HashMap::new();
        self.db.raw_scan(
            self.tables.hash_by_pre,
            Some(low.as_slice()),
            Some(high.as_slice()),
            &mut |key, _| {
                if let Some((_, pre, h)) = decode_hash_by_pre_key(key) {
                    map.entry(h).or_insert(pre);
                }
                Ok(true)
            },
        )?;
        Ok(map)
    }

    /// Map every distinct clade hash of `handle` to one stored node
    /// carrying it: the hash→pre map joined with a `ivl_by_pre` scan. Used
    /// to remap per-clade agreement rows onto a deduplicated canonical
    /// tree, whose arena numbering is unrelated to the reconstruction's.
    pub(crate) fn hash_to_node_map(
        &self,
        handle: TreeHandle,
    ) -> CrimsonResult<HashMap<CladeHash, StoredNodeId>> {
        let by_pre = self.hash_to_pre_map(handle)?;
        let low = handle.0.to_be_bytes();
        let high = (handle.0 + 1).to_be_bytes();
        let mut pre_to_node: HashMap<u32, u32> = HashMap::with_capacity(by_pre.len());
        self.db.raw_scan(
            self.tables.ivl_by_pre,
            Some(low.as_slice()),
            Some(high.as_slice()),
            &mut |key, _| {
                if let Some((_, e)) = IntervalEntry::decode_key(key) {
                    pre_to_node.insert(e.pre, e.node);
                }
                Ok(true)
            },
        )?;
        let mut map = HashMap::with_capacity(by_pre.len());
        for (hash, pre) in by_pre {
            if let Some(&node) = pre_to_node.get(&pre) {
                map.insert(hash, StoredNodeId((handle.0 << TREE_SHIFT) | node as u64));
            }
        }
        Ok(map)
    }

    /// Aggregate sharing statistics across the whole repository.
    pub fn content_stats(&self) -> CrimsonResult<ContentStats> {
        let mut stats = ContentStats::default();
        for t in self.list_trees()? {
            stats.trees += 1;
            stats.logical_nodes += t.node_count;
            let Some(row) = self.tree_stats(t.handle)? else {
                stats.stored_nodes += t.node_count;
                continue;
            };
            stats.hashed_trees += 1;
            if row.cold {
                stats.cold_trees += 1;
                let refs = self.clade_refs_of(t.handle)?;
                let bridged: u64 = refs.iter().map(|r| (r.end - r.pre + 1) as u64).sum();
                stats.dedup_refs += refs.len() as u64;
                stats.bridged_nodes += bridged;
                stats.stored_nodes += t.node_count - bridged;
            } else {
                stats.stored_nodes += t.node_count;
            }
        }
        Ok(stats)
    }
}

// ---------------------------------------------------------------------------
// Writer surface
// ---------------------------------------------------------------------------

impl Repository {
    /// Persist the content address of a freshly loaded, fully materialized
    /// tree: the `hash_by_pre` run (sorted, rides the bulk appender — the
    /// new tree id sorts after every existing key), the thresholded global
    /// `hash_idx` entries (point inserts; hash-first keys interleave across
    /// trees) and the `tree_stats` summary row.
    pub(crate) fn insert_content_address(
        &mut self,
        tree_id: u64,
        rows: impl Iterator<Item = (u32, u32, CladeHash)>,
        counts: CladeCounts,
        distinct_leaves: bool,
    ) -> CrimsonResult<()> {
        let rows: Vec<(u32, u32, CladeHash)> = rows.collect();
        let root_hash = rows
            .first()
            .map(|&(_, _, h)| h)
            .ok_or(CrimsonError::Phylo(phylo::PhyloError::EmptyTree))?;
        self.db.bulk_raw_insert(
            self.tables.hash_by_pre,
            BULK_FILL,
            rows.iter()
                .map(|&(pre, end, h)| (hash_by_pre_key(tree_id, pre, h), pack_span(pre, end))),
        )?;
        for &(pre, end, h) in &rows {
            if pre == 0 || end - pre + 1 >= HASH_IDX_MIN_SPAN {
                self.db.raw_insert(
                    self.tables.hash_idx,
                    &hash_idx_key(h, tree_id, pre),
                    pack_span(pre, end),
                )?;
            }
        }
        self.insert_tree_stats(tree_id, root_hash, counts, distinct_leaves, false)
    }

    /// Insert one `tree_stats` row.
    fn insert_tree_stats(
        &mut self,
        tree_id: u64,
        root_hash: CladeHash,
        counts: CladeCounts,
        distinct_leaves: bool,
        cold: bool,
    ) -> CrimsonResult<()> {
        let mut flags = 0i64;
        if distinct_leaves {
            flags |= STATS_FLAG_DISTINCT_LEAVES;
        }
        if cold {
            flags |= STATS_FLAG_COLD;
        }
        self.db.insert(
            self.tables.tree_stats,
            &[
                Value::Int(tree_id as i64),
                Value::bytes(root_hash.as_bytes().to_vec()),
                Value::Int(counts.rooted as i64),
                Value::Int(counts.unrooted as i64),
                Value::Int(flags),
            ],
        )?;
        Ok(())
    }

    /// Store `tree` under `name` unless a content-identical tree already
    /// exists, in which case the canonical stored tree's handle is returned
    /// and **nothing is written** (no tree row is created under `name`).
    /// Returns `(handle, true)` on a dedup hit, `(handle, false)` after a
    /// full store. Trees without distinct leaf names are always stored in
    /// full — their content address is ambiguous by construction.
    pub fn store_tree_dedup(
        &mut self,
        name: &str,
        tree: &Tree,
    ) -> CrimsonResult<(TreeHandle, bool)> {
        if tree.is_empty() {
            return Err(CrimsonError::Phylo(phylo::PhyloError::EmptyTree));
        }
        if !clade_hash::distinct_named_leaves(tree) {
            return Ok((self.load_tree(name, tree)?, false));
        }
        let hash = clade_hash::root_hash(tree).expect("non-empty tree has a root");
        for handle in self.ctx().trees_with_root_hash(hash)? {
            if let Some(stats) = self.ctx().tree_stats(handle)? {
                if stats.distinct_leaves && !stats.cold {
                    return Ok((handle, true));
                }
            }
        }
        Ok((self.load_tree(name, tree)?, false))
    }

    /// Store `tree` under `name` **cold**: internal subtrees of at least
    /// `min_span` nodes (clamped up to the global-index threshold) whose
    /// content address already exists in a fully materialized tree are not
    /// materialized — a [`CladeRef`] row bridges their logical `(pre, end)`
    /// span to the canonical copy, and only the remaining spine gets node
    /// rows and interval entries (with their *logical* pre-order ranks, so
    /// LCA and ancestor tests between materialized nodes work unchanged).
    ///
    /// Cold trees keep their full logical node/leaf counts in the catalog,
    /// carry hashes for every span (bridged ones included) but publish
    /// nothing to the global index (bridges must never chain), and store no
    /// frame rows — comparison streams and hash lookups are their query
    /// surface; label-walk and frame queries need a fully materialized tree.
    pub fn store_tree_shared(
        &mut self,
        name: &str,
        tree: &Tree,
        min_span: u32,
    ) -> CrimsonResult<TreeHandle> {
        self.with_txn(|repo| repo.store_tree_shared_inner(name, tree, min_span))
    }

    fn store_tree_shared_inner(
        &mut self,
        name: &str,
        tree: &Tree,
        min_span: u32,
    ) -> CrimsonResult<TreeHandle> {
        if tree.is_empty() {
            return Err(CrimsonError::Phylo(phylo::PhyloError::EmptyTree));
        }
        if self.find_tree(name)?.is_some() {
            return Err(CrimsonError::DuplicateTree(name.to_string()));
        }
        let tree_id = self.next_tree_id()?;
        let handle = TreeHandle(tree_id);
        let n = tree.node_count();
        let node_sid = |v: phylo::NodeId| StoredNodeId((tree_id << TREE_SHIFT) | v.0 as u64);

        let content = TreeContent::compute(tree);
        let intervals = IntervalLabels::build(tree);
        let root_dists = tree.all_root_distances();
        let depths = tree.all_depths();
        let mut heights = vec![0.0f64; n];
        for v in tree.postorder() {
            let mut h = 0.0f64;
            for &c in tree.children(v) {
                h = h.max(heights[c.index()] + tree.node(c).branch_length_or_zero());
            }
            heights[v.index()] = h;
        }

        // Pick the bridges: a pre-order walk that skips everything under an
        // already-bridged span. The root never bridges (a whole-tree
        // duplicate is `store_tree_dedup`'s job), and only spans published
        // in the global index are discoverable, so the effective threshold
        // is at least `HASH_IDX_MIN_SPAN`.
        let threshold = min_span.max(HASH_IDX_MIN_SPAN);
        let mut bridges: Vec<(CladeRef, CladeHash)> = Vec::new();
        let mut materialized: Vec<phylo::NodeId> = Vec::new();
        let mut skip_end: Option<u32> = None;
        for v in tree.preorder() {
            let (pre, end) = intervals.interval(v);
            if let Some(limit) = skip_end {
                if pre <= limit {
                    continue;
                }
                skip_end = None;
            }
            let span = end - pre + 1;
            if pre != 0 && span >= threshold {
                let hash = content.hashes[v.index()];
                if let Some((src_tree, src_pre, src_end)) = self.find_share_source(hash, span)? {
                    let parent = tree.parent(v).expect("non-root node has a parent");
                    bridges.push((
                        CladeRef {
                            pre,
                            end,
                            parent_pre: intervals.interval(parent).0,
                            src_tree,
                            src_pre,
                            src_end,
                        },
                        hash,
                    ));
                    skip_end = Some(end);
                    continue;
                }
            }
            materialized.push(v);
        }

        // Node rows for the materialized spine only. Cold trees store no
        // frames: frame_id -1 and an empty label mark the rows.
        let mut emit = 0usize;
        let row_ids = self
            .db
            .bulk_insert_with(self.tables.nodes, BULK_FILL, |values| {
                let Some(&v) = materialized.get(emit) else {
                    return Ok(false);
                };
                emit += 1;
                let is_leaf = tree.is_leaf(v);
                values.push(Value::Int(node_sid(v).0 as i64));
                values.push(Value::Int(tree_id as i64));
                values.push(match tree.parent(v) {
                    Some(p) => Value::Int(node_sid(p).0 as i64),
                    None => Value::Int(-1),
                });
                values.push(match tree.name(v) {
                    Some(nm) => Value::text(nm),
                    None => Value::Null,
                });
                values.push(match tree.branch_length(v) {
                    Some(l) => Value::Float(l),
                    None => Value::Null,
                });
                values.push(Value::Float(root_dists[v.index()]));
                values.push(Value::Int(depths[v.index()] as i64));
                values.push(Value::Int(intervals.interval(v).0 as i64));
                values.push(Value::Int(-1));
                values.push(Value::bytes(Vec::new()));
                values.push(Value::Bool(is_leaf));
                values.push(Value::Int(if is_leaf { tree_id as i64 } else { -1 }));
                values.push(Value::Float(heights[v.index()]));
                Ok(true)
            })?;

        // Interval entries for materialized nodes, with logical ranks (the
        // covering index simply has gaps where bridges sit).
        self.db.bulk_raw_insert(
            self.tables.ivl_by_pre,
            BULK_FILL,
            materialized.iter().enumerate().map(|(i, &v)| {
                let (pre, end) = intervals.interval(v);
                let parent_pre = match tree.parent(v) {
                    Some(p) => intervals.interval(p).0,
                    None => pre,
                };
                let entry = IntervalEntry {
                    pre,
                    end,
                    parent_pre,
                    node: v.0,
                    is_leaf: tree.is_leaf(v),
                };
                (entry.encode_key(tree_id), row_ids[i].to_u64())
            }),
        )?;
        let mut by_arena: Vec<usize> = materialized.iter().map(|v| v.index()).collect();
        by_arena.sort_unstable();
        self.db.bulk_raw_insert(
            self.tables.ivl_by_node,
            BULK_FILL,
            by_arena.iter().map(|&ai| {
                let sid = (tree_id << TREE_SHIFT) | ai as u64;
                let (pre, end) = intervals.interval(phylo::NodeId(ai as u32));
                (sid.to_be_bytes(), pack_span(pre, end))
            }),
        )?;

        // The depth column spans every logical rank, bridged ones included.
        self.insert_depth_column(tree_id, &crate::depth::depth_column(tree))?;

        // Hashes for every logical span: materialized nodes plus one entry
        // per bridge (the bridged subtree's own hash at its logical rank).
        let mut hash_rows: Vec<(u32, u32, CladeHash)> = materialized
            .iter()
            .map(|&v| {
                let (pre, end) = intervals.interval(v);
                (pre, end, content.hashes[v.index()])
            })
            .collect();
        hash_rows.extend(bridges.iter().map(|&(r, h)| (r.pre, r.end, h)));
        hash_rows.sort_unstable_by_key(|&(pre, _, _)| pre);
        self.db.bulk_raw_insert(
            self.tables.hash_by_pre,
            BULK_FILL,
            hash_rows
                .iter()
                .map(|&(pre, end, h)| (hash_by_pre_key(tree_id, pre, h), pack_span(pre, end))),
        )?;
        self.db.bulk_raw_insert(
            self.tables.clade_refs,
            BULK_FILL,
            bridges
                .iter()
                .map(|(r, _)| (r.encode_key(tree_id), pack_span(r.src_pre, r.src_end))),
        )?;

        self.insert_tree_stats(
            tree_id,
            content.hashes[tree.root_unchecked().index()],
            content.counts,
            content.distinct_leaves,
            true,
        )?;

        let leaf_count = tree.leaf_ids().count();
        self.db.insert(
            self.tables.trees,
            &[
                Value::Int(tree_id as i64),
                Value::text(name),
                Value::Int(node_sid(tree.root_unchecked()).0 as i64),
                Value::Int(n as i64),
                Value::Int(leaf_count as i64),
                Value::Int(self.options.frame_depth as i64),
            ],
        )?;
        Ok(handle)
    }

    /// A canonical source span for a bridge: any global-index occurrence of
    /// `hash` with a matching node span. Every `hash_idx` entry points into
    /// a fully materialized tree (cold trees publish nothing), so bridges
    /// never chain.
    fn find_share_source(
        &self,
        hash: CladeHash,
        span: u32,
    ) -> CrimsonResult<Option<(u64, u32, u32)>> {
        Ok(self
            .ctx()
            .subtrees_with_hash(hash)?
            .into_iter()
            .find(|&(_, pre, end)| end - pre + 1 == span)
            .map(|(tree, pre, end)| (tree.0, pre, end)))
    }

    /// Reconstruct and persist the content address of every tree that lacks
    /// one (trees stored by pre-hash builds), from their interval entries
    /// and leaf rows alone. Returns the number of trees backfilled. One
    /// atomic transaction; [`Repository::flush`] runs this automatically, so
    /// checkpointing an old file upgrades it in place.
    pub fn backfill_clade_hashes(&mut self) -> CrimsonResult<usize> {
        let missing: Vec<TreeRecord> = {
            let ctx = self.ctx();
            let mut out = Vec::new();
            for t in ctx.list_trees()? {
                if ctx.tree_stats(t.handle)?.is_none() {
                    out.push(t);
                }
            }
            out
        };
        if missing.is_empty() {
            return Ok(0);
        }
        let count = missing.len();
        self.with_txn(|repo| {
            for t in &missing {
                repo.backfill_tree(t)?;
            }
            Ok(())
        })?;
        Ok(count)
    }

    /// Backfill one tree: scan its interval range, rebuild leaf ranks and
    /// bottom-up hashes (descendants have higher pre-order ranks, so one
    /// descending pass finalizes children before their parent), and insert
    /// the hash entries point-wise (the tree's key range sits between newer
    /// trees, so the bulk appender does not apply).
    fn backfill_tree(&mut self, t: &TreeRecord) -> CrimsonResult<()> {
        let tree_id = t.handle.0;
        let n = t.node_count as usize;
        let low = tree_id.to_be_bytes();
        let high = (tree_id + 1).to_be_bytes();
        let mut entries: Vec<(IntervalEntry, storage::RecordId)> = Vec::with_capacity(n);
        let mut malformed = false;
        self.db.raw_scan(
            self.tables.ivl_by_pre,
            Some(low.as_slice()),
            Some(high.as_slice()),
            &mut |key, rid| match IntervalEntry::decode_key(key) {
                Some((_, e)) => {
                    entries.push((e, storage::RecordId::from_u64(rid)));
                    Ok(true)
                }
                None => {
                    malformed = true;
                    Ok(false)
                }
            },
        )?;
        if malformed || entries.len() != n {
            return Err(CrimsonError::CorruptRepository(format!(
                "tree `{}` cannot be backfilled: its interval range holds {} entries for {} nodes",
                t.name,
                entries.len(),
                t.node_count
            )));
        }

        let mut names: Vec<Option<String>> = vec![None; n];
        let mut distinct = true;
        let mut seen = HashSet::new();
        for (i, (e, rid)) in entries.iter().enumerate() {
            if e.is_leaf {
                let row = self.db.get(self.tables.nodes, *rid)?;
                match decode_node_row(&row).name {
                    Some(nm) => {
                        if !seen.insert(nm.clone()) {
                            distinct = false;
                        }
                        names[i] = Some(nm);
                    }
                    None => distinct = false,
                }
            }
        }

        let mut hashes = vec![CladeHash([0u8; clade_hash::CLADE_HASH_LEN]); n];
        let mut pending: Vec<Vec<CladeHash>> = vec![Vec::new(); n];
        let mut lo = vec![u32::MAX; n];
        let mut hi = vec![0u32; n];
        let mut next_rank = 0u32;
        for (i, (e, _)) in entries.iter().enumerate() {
            if e.is_leaf {
                lo[i] = next_rank;
                hi[i] = next_rank;
                next_rank += 1;
            }
        }
        for i in (0..n).rev() {
            let e = entries[i].0;
            if e.pre as usize != i {
                return Err(CrimsonError::CorruptRepository(format!(
                    "tree `{}` cannot be backfilled: rank {} holds entry pre {}",
                    t.name, i, e.pre
                )));
            }
            hashes[i] = if e.is_leaf {
                CladeHash::leaf(names[i].as_deref())
            } else {
                let mut kids = std::mem::take(&mut pending[i]);
                CladeHash::internal(&mut kids)
            };
            if e.parent_pre != e.pre {
                let p = e.parent_pre as usize;
                pending[p].push(hashes[i]);
                lo[p] = lo[p].min(lo[i]);
                hi[p] = hi[p].max(hi[i]);
            }
        }
        let counts = count_clades((0..n).map(|i| (lo[i], hi[i])), next_rank);

        for (i, (e, _)) in entries.iter().enumerate() {
            self.db.raw_insert(
                self.tables.hash_by_pre,
                &hash_by_pre_key(tree_id, e.pre, hashes[i]),
                pack_span(e.pre, e.end),
            )?;
            if e.pre == 0 || e.end - e.pre + 1 >= HASH_IDX_MIN_SPAN {
                self.db.raw_insert(
                    self.tables.hash_idx,
                    &hash_idx_key(hashes[i], tree_id, e.pre),
                    pack_span(e.pre, e.end),
                )?;
            }
        }
        self.insert_tree_stats(tree_id, hashes[0], counts, distinct, false)
    }

    // ------------------------------------------------------------------
    // Read delegates
    // ------------------------------------------------------------------

    /// The content-address summary row of a tree, `None` when absent
    /// (pre-hash file awaiting [`Repository::backfill_clade_hashes`]).
    pub fn tree_stats(&self, handle: TreeHandle) -> CrimsonResult<Option<TreeStatsRecord>> {
        self.ctx().tree_stats(handle)
    }

    /// O(1) whole-tree equality via stored root hashes.
    pub fn trees_equal(&self, a: TreeHandle, b: TreeHandle) -> CrimsonResult<bool> {
        self.ctx().trees_equal(a, b)
    }

    /// O(1) subtree equality between two stored nodes.
    pub fn subtrees_equal(&self, a: StoredNodeId, b: StoredNodeId) -> CrimsonResult<bool> {
        self.ctx().subtrees_equal(a, b)
    }

    /// The canonical clade hash of the subtree rooted at a stored node.
    pub fn subtree_hash(&self, id: StoredNodeId) -> CrimsonResult<CladeHash> {
        self.ctx().node_content_hash(id)
    }

    /// Stored trees whose content address equals `hash` (no-scan lookup).
    pub fn trees_with_root_hash(&self, hash: CladeHash) -> CrimsonResult<Vec<TreeHandle>> {
        self.ctx().trees_with_root_hash(hash)
    }

    /// Every published stored subtree whose content address equals `hash`,
    /// as `(tree, pre, end)` spans.
    pub fn subtrees_with_hash(
        &self,
        hash: CladeHash,
    ) -> CrimsonResult<Vec<(TreeHandle, u32, u32)>> {
        self.ctx().subtrees_with_hash(hash)
    }

    /// The structural-sharing reference rows of a cold tree.
    pub fn clade_refs_of(&self, handle: TreeHandle) -> CrimsonResult<Vec<CladeRef>> {
        self.ctx().clade_refs_of(handle)
    }

    /// Aggregate sharing statistics across the repository.
    pub fn content_stats(&self) -> CrimsonResult<ContentStats> {
        self.ctx().content_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::RepositoryOptions;
    use phylo::builder::{balanced_binary, figure1_tree};
    use simulation::birth_death::yule_tree;
    use tempfile::tempdir;

    fn repo() -> (tempfile::TempDir, Repository) {
        let dir = tempdir().unwrap();
        let repo = Repository::create(
            dir.path().join("content.crimson"),
            RepositoryOptions {
                frame_depth: 4,
                buffer_pool_pages: 1024,
                ..Default::default()
            },
        )
        .unwrap();
        (dir, repo)
    }

    /// Rebuild `src` node by node, inserting every node's children in an
    /// order drawn from `rng` — the same phylogeny with a different child
    /// order and arena layout.
    fn shuffled_rebuild(src: &Tree, rng: &mut rand::rngs::StdRng) -> Tree {
        use rand::seq::SliceRandom;
        fn copy(
            src: &Tree,
            out: &mut Tree,
            node: phylo::NodeId,
            parent: Option<phylo::NodeId>,
            rng: &mut rand::rngs::StdRng,
        ) {
            let dst = match parent {
                None => match src.name(node) {
                    Some(n) => out.add_named_node(n),
                    None => out.add_node(),
                },
                Some(p) => out
                    .add_child(
                        p,
                        src.name(node).map(str::to_string),
                        src.branch_length(node),
                    )
                    .unwrap(),
            };
            let mut kids: Vec<phylo::NodeId> = src.children(node).to_vec();
            kids.shuffle(rng);
            for k in kids {
                copy(src, out, k, Some(dst), rng);
            }
        }
        let mut out = Tree::new();
        copy(src, &mut out, src.root_unchecked(), None, rng);
        out
    }

    #[test]
    fn hash_canonicalization_is_order_invariant() {
        use rand::SeedableRng;
        // Property: the canonical hash of every clade survives arbitrary
        // child-order permutations and insertion-order shuffles of the same
        // phylogeny — the whole hash multiset, not just the root.
        for seed in 0..8u64 {
            let tree = yule_tree(96, 1.0, seed);
            let root = clade_hash::root_hash(&tree).unwrap();
            let mut sorted: Vec<CladeHash> = clade_hash::tree_hashes(&tree);
            sorted.sort_unstable_by_key(|h| h.to_u128());
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC1ADE);
            for _ in 0..5 {
                let shuffled = shuffled_rebuild(&tree, &mut rng);
                assert_eq!(clade_hash::root_hash(&shuffled).unwrap(), root);
                let mut hashes = clade_hash::tree_hashes(&shuffled);
                hashes.sort_unstable_by_key(|h| h.to_u128());
                assert_eq!(hashes, sorted, "hash multiset changed under shuffle");
            }
        }
    }

    #[test]
    fn distinct_topologies_do_not_collide() {
        // 500 independently simulated labeled topologies — every root hash
        // must be distinct (the canonical hash is a content address, so a
        // collision here would silently dedup different trees).
        let mut seen = HashSet::new();
        for seed in 0..500u64 {
            let tree = yule_tree(64, 1.0, seed);
            let hash = clade_hash::root_hash(&tree).unwrap();
            assert!(
                seen.insert(hash.to_u128()),
                "distinct topologies collided at seed {seed}"
            );
        }
    }

    #[test]
    fn count_clades_matches_known_small_trees() {
        // 4-leaf balanced binary: two cherries → 2 rooted clades, 1 split.
        let counts = TreeContent::compute(&balanced_binary(2, 1.0)).counts;
        assert_eq!(
            counts,
            CladeCounts {
                rooted: 2,
                unrooted: 1
            }
        );
        // A single leaf has neither.
        let mut leaf = Tree::new();
        leaf.add_named_node("only");
        let counts = TreeContent::compute(&leaf).counts;
        assert_eq!(counts, CladeCounts::default());
    }

    #[test]
    fn bulk_and_reference_loads_store_identical_content_addresses() {
        let (_d, mut repo) = repo();
        let tree = yule_tree(80, 1.0, 11);
        let ha = repo.load_tree("bulk", &tree).unwrap();
        let hb = repo.load_tree_reference("reference", &tree).unwrap();
        let sa = repo.tree_stats(ha).unwrap().unwrap();
        let sb = repo.tree_stats(hb).unwrap().unwrap();
        assert_eq!(sa.root_hash, sb.root_hash);
        assert_eq!(sa.rooted_clades, sb.rooted_clades);
        assert_eq!(sa.unrooted_splits, sb.unrooted_splits);
        assert!(sa.distinct_leaves && sb.distinct_leaves);
        assert!(!sa.cold && !sb.cold);
        assert!(repo.trees_equal(ha, hb).unwrap());
        // Per-node hashes agree too: both pre ranges map hash → pre
        // identically up to rank numbering.
        let ma = repo.ctx().hash_to_pre_map(ha).unwrap();
        let mb = repo.ctx().hash_to_pre_map(hb).unwrap();
        assert_eq!(ma, mb);
    }

    #[test]
    fn equality_and_lookup_across_distinct_trees() {
        let (_d, mut repo) = repo();
        let a = yule_tree(50, 1.0, 3);
        let b = yule_tree(50, 1.0, 4);
        let ha = repo.load_tree("a", &a).unwrap();
        let hb = repo.load_tree("b", &b).unwrap();
        assert!(!repo.trees_equal(ha, hb).unwrap());
        let root_hash = clade_hash::root_hash(&a).unwrap();
        assert_eq!(repo.trees_with_root_hash(root_hash).unwrap(), vec![ha]);
        // Subtree self-equality via stored nodes.
        let root = repo.tree_record(ha).unwrap().root;
        assert!(repo.subtrees_equal(root, root).unwrap());
        assert_eq!(repo.subtree_hash(root).unwrap(), root_hash);
    }

    #[test]
    fn store_tree_dedup_returns_canonical_handle() {
        let (_d, mut repo) = repo();
        let tree = yule_tree(64, 1.0, 9);
        let (h1, hit1) = repo.store_tree_dedup("first", &tree).unwrap();
        assert!(!hit1);
        let (h2, hit2) = repo.store_tree_dedup("second", &tree).unwrap();
        assert!(hit2);
        assert_eq!(h1, h2);
        // No second tree row was created.
        assert_eq!(repo.list_trees().unwrap().len(), 1);
        // A different topology stores fresh.
        let other = yule_tree(64, 1.0, 10);
        let (h3, hit3) = repo.store_tree_dedup("third", &other).unwrap();
        assert!(!hit3);
        assert_ne!(h1, h3);
        let report = repo.integrity_check().unwrap();
        assert_eq!(report.hashed_trees, 2);
        assert_eq!(report.clade_refs, 0);
    }

    #[test]
    fn store_tree_shared_bridges_duplicate_subtrees() {
        let (_d, mut repo) = repo();
        let tree = yule_tree(300, 1.0, 21);
        let hot = repo.load_tree("hot", &tree).unwrap();
        let cold = repo.store_tree_shared("cold", &tree, 1).unwrap();
        let refs = repo.clade_refs_of(cold).unwrap();
        assert!(!refs.is_empty(), "an identical tree must bridge something");
        for r in &refs {
            assert_eq!(r.src_tree, hot.0);
            assert_eq!(r.end - r.pre, r.src_end - r.src_pre);
        }
        // Catalog keeps logical counts; stats flag the tree cold.
        let rec = repo.tree_record(cold).unwrap();
        assert_eq!(rec.node_count, tree.node_count() as u64);
        let stats = repo.tree_stats(cold).unwrap().unwrap();
        assert!(stats.cold);
        assert_eq!(
            stats.root_hash,
            repo.tree_stats(hot).unwrap().unwrap().root_hash
        );
        // Sharing statistics see the saved rows.
        let cs = repo.content_stats().unwrap();
        assert_eq!(cs.trees, 2);
        assert_eq!(cs.cold_trees, 1);
        assert!(cs.bridged_nodes > 0);
        assert_eq!(
            cs.stored_nodes + cs.bridged_nodes,
            2 * tree.node_count() as u64
        );
        // Cold trees publish nothing globally: the root hash resolves only
        // to the hot tree.
        let root_hash = clade_hash::root_hash(&tree).unwrap();
        assert_eq!(repo.trees_with_root_hash(root_hash).unwrap(), vec![hot]);
        // LCA between materialized nodes still works through the gaps.
        let root = rec.root;
        let (pre, end) = repo.interval_of(root).unwrap();
        assert_eq!((pre, end), (0, tree.node_count() as u32 - 1));
        // Cold trees, bridges, and the hash indexes all satisfy the
        // integrity invariants.
        let report = repo.integrity_check().unwrap();
        assert_eq!(report.hashed_trees, 2);
        assert_eq!(report.clade_refs, refs.len() as u64);
        assert!(report.hash_entries > 0);
        assert!(report.global_hash_entries > 0);
    }

    #[test]
    fn backfill_restores_stripped_content_addresses() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("backfill.crimson");
        let tree = yule_tree(70, 1.0, 5);
        let handle;
        let expected;
        {
            let mut repo = Repository::create(&path, RepositoryOptions::default()).unwrap();
            handle = repo.load_tree("t", &tree).unwrap();
            expected = repo.tree_stats(handle).unwrap().unwrap();
            // Simulate a pre-hash file: strip the stats row and every hash
            // entry, leaving exactly what an old build would have written.
            repo.db.begin().unwrap();
            let rows = repo.db.scan(repo.tables.tree_stats).unwrap();
            for (rid, _) in rows {
                repo.db.delete(repo.tables.tree_stats, rid).unwrap();
            }
            let mut keys: Vec<Vec<u8>> = Vec::new();
            repo.db
                .raw_scan(repo.tables.hash_by_pre, None, None, &mut |key, _| {
                    keys.push(key.to_vec());
                    Ok(true)
                })
                .unwrap();
            for key in &keys {
                repo.db.raw_delete(repo.tables.hash_by_pre, key).unwrap();
            }
            let mut keys: Vec<Vec<u8>> = Vec::new();
            repo.db
                .raw_scan(repo.tables.hash_idx, None, None, &mut |key, _| {
                    keys.push(key.to_vec());
                    Ok(true)
                })
                .unwrap();
            for key in &keys {
                repo.db.raw_delete(repo.tables.hash_idx, key).unwrap();
            }
            repo.db.commit().unwrap();
            assert!(repo.tree_stats(handle).unwrap().is_none());
            // Checkpoint the raw database directly: `Repository::flush`
            // would backfill (that path has its own test below).
            repo.db.flush().unwrap();
        }
        // Reopen: the stripped file opens cleanly, reads degrade to None …
        let mut repo = Repository::open(&path, RepositoryOptions::default()).unwrap();
        assert!(repo.tree_stats(handle).unwrap().is_none());
        assert!(matches!(
            repo.trees_equal(handle, handle),
            Err(CrimsonError::MissingContentAddress(_))
        ));
        // … and an explicit backfill restores the identical address.
        assert_eq!(repo.backfill_clade_hashes().unwrap(), 1);
        let restored = repo.tree_stats(handle).unwrap().unwrap();
        assert_eq!(restored, expected);
        assert!(repo.trees_equal(handle, handle).unwrap());
        let root_hash = clade_hash::root_hash(&tree).unwrap();
        assert_eq!(repo.trees_with_root_hash(root_hash).unwrap(), vec![handle]);
        // Backfill is idempotent.
        assert_eq!(repo.backfill_clade_hashes().unwrap(), 0);
    }

    #[test]
    fn checkpoint_backfills_automatically() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("auto.crimson");
        let mut repo = Repository::create(&path, RepositoryOptions::default()).unwrap();
        let handle = repo.load_tree("fig", &figure1_tree()).unwrap();
        // Strip the stats row only (enough to make the tree "pre-hash").
        repo.db.begin().unwrap();
        let rows = repo.db.scan(repo.tables.tree_stats).unwrap();
        for (rid, _) in rows {
            repo.db.delete(repo.tables.tree_stats, rid).unwrap();
        }
        let mut keys: Vec<Vec<u8>> = Vec::new();
        repo.db
            .raw_scan(repo.tables.hash_by_pre, None, None, &mut |key, _| {
                keys.push(key.to_vec());
                Ok(true)
            })
            .unwrap();
        for key in &keys {
            repo.db.raw_delete(repo.tables.hash_by_pre, key).unwrap();
        }
        let mut keys: Vec<Vec<u8>> = Vec::new();
        repo.db
            .raw_scan(repo.tables.hash_idx, None, None, &mut |key, _| {
                keys.push(key.to_vec());
                Ok(true)
            })
            .unwrap();
        for key in &keys {
            repo.db.raw_delete(repo.tables.hash_idx, key).unwrap();
        }
        repo.db.commit().unwrap();
        assert!(repo.tree_stats(handle).unwrap().is_none());
        // The next checkpoint upgrades the file in place.
        repo.flush().unwrap();
        assert!(repo.tree_stats(handle).unwrap().is_some());
    }
}
