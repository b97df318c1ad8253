//! Range-minimum LCA over an on-disk pre-order depth column.
//!
//! For nodes `u`, `v` with `pre(u) < pre(v)` where `u` is not an ancestor
//! of `v`, every rank in `(pre(u), pre(v)]` lies strictly inside the
//! subtree of `w = LCA(u, v)`, and the child of `w` on the path to `v` is
//! the shallowest node there. So `LCA(u, v)` is the parent of a
//! minimum-depth node in that rank range (Bender & Farach-Colton, "The LCA
//! Problem Revisited", LATIN 2000) — a constant amount of work however deep
//! the tree is.
//!
//! Each tree persists its column as ordinary heap rows, so it is
//! checksummed, WAL-logged and MVCC-visible in the same transaction as the
//! tree:
//!
//! * `depth_blocks` — one row per [`BLOCK_RANKS`] consecutive ranks:
//!   `(tree_id, block, ranks)`. `ranks` is frame-of-reference packed (see
//!   [`Block`]): each rank's depth above the block's shallowest, then each
//!   rank's distance back to its parent (`rank - parent_pre`; the root is
//!   its own parent), each array in the narrowest of 1, 2 or 4 bytes that
//!   holds its largest value. Simulated trees need ~3 bytes per rank.
//! * `depth_minima` — the block minima, one 16-byte entry per block
//!   (`min depth: u32, parent_pre of the first minimum: u32, block row
//!   locator: u64`, LE), chunked into rows of [`MINIMA_PER_ROW`] entries
//!   and indexed by `tree_id`.
//!
//! A query reads the minima (cached per tree: they never change once the
//! tree commits), at most two partial blocks through their locators, and
//! the LCA's interval entry and row. Cold (structurally shared) trees store
//! the column over every logical rank, bridged spans included; the LCA of
//! two materialized nodes is always materialized, so its entry exists.

use crate::error::{CrimsonError, CrimsonResult};
use crate::repository::{NodeRecord, ReadCtx, Repository, StoredNodeId, TreeRecord, TREE_SHIFT};
use labeling::interval::IntervalEntry;
use phylo::traverse::Traverse;
use phylo::Tree;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use storage::db::DbRead;
use storage::schema::{ColumnDef, Schema};
use storage::value::{Value, ValueType};
use storage::RecordId;

/// Ranks per depth block: a partial-block scan decodes at most this many
/// ranks, and the minima cost 16 bytes per this many.
pub(crate) const BLOCK_RANKS: usize = 256;
/// Packed block header: depth width, parent-distance width, base depth.
const BLOCK_HEADER: usize = 6;
/// Bytes per block-minimum entry: `depth: u32, parent_pre: u32, rid: u64`.
const MIN_BYTES: usize = 16;
/// Cell headers of a block or minima row: two int cells and the length of
/// the bytes cell.
const ROW_OVERHEAD: usize = 23;
/// Block-minimum entries per `depth_minima` row (one row fills a page).
pub(crate) const MINIMA_PER_ROW: usize =
    (storage::heap::MAX_RECORD_SIZE - ROW_OVERHEAD) / MIN_BYTES;

// The widest block row (4-byte depths and distances) fits on a page.
const _: () =
    assert!(ROW_OVERHEAD + BLOCK_HEADER + BLOCK_RANKS * 8 <= storage::heap::MAX_RECORD_SIZE);

pub(crate) fn depth_blocks_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::not_null("tree_id", ValueType::Int),
        ColumnDef::not_null("block", ValueType::Int),
        ColumnDef::not_null("ranks", ValueType::Bytes),
    ])
}

pub(crate) fn depth_minima_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::not_null("tree_id", ValueType::Int),
        ColumnDef::not_null("chunk", ValueType::Int),
        ColumnDef::not_null("minima", ValueType::Bytes),
    ])
}

/// `(depth, parent_pre)` of every node of `tree` by pre-order rank; the
/// root is `(0, 0)`.
pub(crate) fn depth_column(tree: &Tree) -> Vec<(u32, u32)> {
    let mut rank_of = vec![0u32; tree.node_count()];
    let mut column: Vec<(u32, u32)> = Vec::with_capacity(tree.node_count());
    for (rank, v) in tree.preorder().enumerate() {
        rank_of[v.index()] = rank as u32;
        column.push(match tree.parent(v) {
            Some(p) => {
                let pp = rank_of[p.index()];
                (column[pp as usize].0 + 1, pp)
            }
            None => (0, rank as u32),
        });
    }
    column
}

/// The shallowest `(depth, parent_pre)` of a run of ranks (first on ties).
fn run_min(run: impl Iterator<Item = (u32, u32)>) -> (u32, u32) {
    run.fold((u32::MAX, 0), |best, r| if r.0 < best.0 { r } else { best })
}

/// The narrowest of 1, 2 or 4 bytes that holds `max`.
fn width(max: u32) -> usize {
    match max {
        0..=0xFF => 1,
        0x100..=0xFFFF => 2,
        _ => 4,
    }
}

/// The `w`-byte little-endian integer at `at`.
fn uint(bytes: &[u8], at: usize, w: usize) -> u32 {
    let mut le = [0u8; 4];
    le[..w].copy_from_slice(&bytes[at..at + w]);
    u32::from_le_bytes(le)
}

/// One decoded depth block: ranks `first..first + len` of a tree, packed
/// as `depth width: u8 | distance width: u8 | base depth: u32 LE |
/// len × (depth − base) | len × (rank − parent_pre)`, integers LE.
#[derive(Debug)]
struct Block {
    first: usize,
    len: usize,
    base: u32,
    wd: usize,
    wp: usize,
    bytes: Vec<u8>,
}

impl Block {
    /// Pack the `(depth, parent_pre)` run whose first rank is `first`.
    fn encode(first: usize, run: &[(u32, u32)]) -> Vec<u8> {
        let base = run.iter().map(|&(d, _)| d).min().unwrap_or(0);
        let back = |i: usize, parent: u32| (first + i) as u32 - parent;
        let wd = width(run.iter().map(|&(d, _)| d - base).max().unwrap_or(0));
        let wp = width(
            run.iter()
                .enumerate()
                .map(|(i, &(_, p))| back(i, p))
                .max()
                .unwrap_or(0),
        );
        let mut out = Vec::with_capacity(BLOCK_HEADER + run.len() * (wd + wp));
        out.extend_from_slice(&[wd as u8, wp as u8]);
        out.extend_from_slice(&base.to_le_bytes());
        for &(d, _) in run {
            out.extend_from_slice(&(d - base).to_le_bytes()[..wd]);
        }
        for (i, &(_, p)) in run.iter().enumerate() {
            out.extend_from_slice(&back(i, p).to_le_bytes()[..wp]);
        }
        out
    }

    /// Parse a packed block whose first rank is `first`; `None` when the
    /// header or the length is malformed.
    fn decode(first: usize, bytes: Vec<u8>) -> Option<Block> {
        let (wd, wp) = (*bytes.first()? as usize, *bytes.get(1)? as usize);
        if ![1, 2, 4].contains(&wd) || ![1, 2, 4].contains(&wp) {
            return None;
        }
        let body = bytes.len().checked_sub(BLOCK_HEADER)?;
        let len = body / (wd + wp);
        if len == 0 || len > BLOCK_RANKS || len * (wd + wp) != body {
            return None;
        }
        Some(Block {
            first,
            len,
            base: uint(&bytes, 2, 4),
            wd,
            wp,
            bytes,
        })
    }

    /// `(depth, parent_pre)` of rank `first + i`. Damaged values wrap
    /// instead of panicking; the LCA checks reject what they produce.
    fn rank(&self, i: usize) -> (u32, u32) {
        let depth = uint(&self.bytes, BLOCK_HEADER + i * self.wd, self.wd);
        let back = uint(
            &self.bytes,
            BLOCK_HEADER + self.len * self.wd + i * self.wp,
            self.wp,
        );
        (
            self.base.wrapping_add(depth),
            ((self.first + i) as u32).wrapping_sub(back),
        )
    }

    /// The shallowest `(depth, parent_pre)` among block positions
    /// `from..=to` (first on ties): a scan of the depth array alone, with
    /// the parent decoded for the winner only.
    fn min_in(&self, from: usize, to: usize) -> (u32, u32) {
        fn argmin(from: usize, to: usize, depth: impl Fn(usize) -> u32) -> usize {
            let (mut best, mut at) = (u32::MAX, from);
            for i in from..=to {
                let d = depth(i);
                if d < best {
                    (best, at) = (d, i);
                }
            }
            at
        }
        let depths = &self.bytes[BLOCK_HEADER..BLOCK_HEADER + self.len * self.wd];
        let at = match self.wd {
            1 => argmin(from, to, |i| depths[i] as u32),
            2 => argmin(from, to, |i| {
                u16::from_le_bytes([depths[2 * i], depths[2 * i + 1]]) as u32
            }),
            _ => argmin(from, to, |i| uint(depths, 4 * i, 4)),
        };
        self.rank(at)
    }
}

fn corrupt(msg: String) -> CrimsonError {
    CrimsonError::CorruptRepository(msg)
}

/// One block's minimum and where its row lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockMin {
    depth: u32,
    parent_pre: u32,
    rid: RecordId,
}

/// The block minima of one tree's depth column.
#[derive(Debug)]
pub(crate) struct DepthMinima {
    tree: u64,
    blocks: Vec<BlockMin>,
}

/// One range-minimum session over a tree's depth column: its minima plus
/// the block read last, so the consecutive leaf pairs of a projection read
/// each shared boundary block once.
pub(crate) struct DepthCursor {
    minima: Arc<DepthMinima>,
    held: Option<Block>,
}

impl Repository {
    /// Persist `column` (see [`depth_column`]) as the depth blocks and
    /// block minima of `tree_id`, inside the caller's transaction.
    pub(crate) fn insert_depth_column(
        &mut self,
        tree_id: u64,
        column: &[(u32, u32)],
    ) -> CrimsonResult<()> {
        let mut blocks = column.chunks(BLOCK_RANKS).enumerate();
        let rids = self.db.bulk_insert_with(
            self.tables.depth_blocks,
            crate::repository::BULK_FILL,
            |values| {
                let Some((b, run)) = blocks.next() else {
                    return Ok(false);
                };
                values.push(Value::Int(tree_id as i64));
                values.push(Value::Int(b as i64));
                values.push(Value::bytes(Block::encode(b * BLOCK_RANKS, run)));
                Ok(true)
            },
        )?;
        let mut minima = Vec::with_capacity(rids.len() * MIN_BYTES);
        for (run, rid) in column.chunks(BLOCK_RANKS).zip(&rids) {
            let (depth, parent) = run_min(run.iter().copied());
            minima.extend_from_slice(&depth.to_le_bytes());
            minima.extend_from_slice(&parent.to_le_bytes());
            minima.extend_from_slice(&rid.to_u64().to_le_bytes());
        }
        for (chunk, bytes) in minima.chunks(MINIMA_PER_ROW * MIN_BYTES).enumerate() {
            self.db.insert(
                self.tables.depth_minima,
                &[
                    Value::Int(tree_id as i64),
                    Value::Int(chunk as i64),
                    Value::bytes(bytes.to_vec()),
                ],
            )?;
        }
        Ok(())
    }
}

impl<'a, D: DbRead> ReadCtx<'a, D> {
    /// A range-minimum session over `tree`'s depth column; the minima are
    /// read once per tree and cached.
    pub(crate) fn depth_cursor(&self, tree: u64) -> CrimsonResult<DepthCursor> {
        let minima = match self.minima.get(&tree) {
            Some(m) => m,
            None => {
                let m = Arc::new(self.read_minima(tree)?);
                self.minima.insert(tree, Arc::clone(&m));
                m
            }
        };
        Ok(DepthCursor { minima, held: None })
    }

    fn read_minima(&self, tree: u64) -> CrimsonResult<DepthMinima> {
        let mut rows = self.db.lookup_rows(
            self.tables.depth_minima,
            "tree_id",
            &Value::Int(tree as i64),
        )?;
        rows.sort_by_key(|(_, row)| row.values[1].as_int());
        let mut blocks = Vec::new();
        for (chunk, (rid, row)) in rows.iter().enumerate() {
            let bytes = row.values[2].as_bytes().unwrap_or_default();
            if row.values[1].as_int() != Some(chunk as i64) || bytes.len() % MIN_BYTES != 0 {
                return Err(corrupt(format!(
                    "depth column of tree {tree}: minima row {rid} is malformed"
                )));
            }
            blocks.extend(bytes.chunks_exact(MIN_BYTES).map(|e| BlockMin {
                depth: uint(e, 0, 4),
                parent_pre: uint(e, 4, 4),
                rid: RecordId::from_u64(u64::from_le_bytes(
                    e[8..].try_into().expect("8-byte slice"),
                )),
            }));
        }
        if blocks.is_empty() {
            return Err(corrupt(format!("tree {tree} has no depth column")));
        }
        Ok(DepthMinima { tree, blocks })
    }

    /// Read `tree`'s minima and every block row (the degraded-open survey's
    /// probe).
    pub(crate) fn probe_depth_column(&self, tree: u64) -> CrimsonResult<()> {
        let mut cur = self.depth_cursor(tree)?;
        for b in 0..cur.minima.blocks.len() {
            self.hold_block(&mut cur, b)?;
        }
        Ok(())
    }

    /// Make block `b` the cursor's held block, reading its row unless it is
    /// already held.
    fn hold_block(&self, cur: &mut DepthCursor, b: usize) -> CrimsonResult<()> {
        if cur
            .held
            .as_ref()
            .is_some_and(|held| held.first == b * BLOCK_RANKS)
        {
            return Ok(());
        }
        let tree = cur.minima.tree;
        let entry = cur.minima.blocks.get(b).ok_or_else(|| {
            corrupt(format!(
                "depth column of tree {tree} has no block {b} for an indexed rank"
            ))
        })?;
        let mut row = self.db.get(self.tables.depth_blocks, entry.rid)?;
        let owner = (row.values[0].as_int(), row.values[1].as_int());
        let block = match row.values.pop() {
            Some(Value::Bytes(bytes)) if owner == (Some(tree as i64), Some(b as i64)) => {
                Block::decode(b * BLOCK_RANKS, bytes)
            }
            _ => None,
        };
        match block {
            Some(block) => {
                cur.held = Some(block);
                Ok(())
            }
            None => Err(corrupt(format!(
                "depth column of tree {tree}: locator {} does not hold block {b}",
                entry.rid
            ))),
        }
    }

    /// The shallowest `(depth, parent_pre)` among ranks `from..=to`: the
    /// minima of the whole blocks in between plus at most two partial
    /// block scans.
    fn min_depth(&self, cur: &mut DepthCursor, from: u32, to: u32) -> CrimsonResult<(u32, u32)> {
        let (from, to) = (from as usize, to as usize);
        let mut best = (u32::MAX, 0);
        let mut block = from / BLOCK_RANKS;
        while block * BLOCK_RANKS <= to {
            let base = block * BLOCK_RANKS;
            let (lo, hi) = (from.max(base), to.min(base + BLOCK_RANKS - 1));
            let whole = lo == base && hi == base + BLOCK_RANKS - 1;
            let candidate = match cur.minima.blocks.get(block) {
                Some(m) if whole => (m.depth, m.parent_pre),
                _ => {
                    self.hold_block(cur, block)?;
                    let held = cur.held.as_ref().expect("just held");
                    if hi - base >= held.len {
                        return Err(corrupt(format!(
                            "depth column of tree {}: block {block} ends before rank {hi}",
                            cur.minima.tree
                        )));
                    }
                    held.min_in(lo - base, hi - base)
                }
            };
            if candidate.0 < best.0 {
                best = candidate;
            }
            block += 1;
        }
        Ok(best)
    }

    /// The LCA of each consecutive pair of `sel` — distinct rows of `tree`
    /// sorted by pre-order rank — for `lca` and `project` alike. A leaf is
    /// never an ancestor; a selected internal node is tested against its
    /// interval and, when it covers its successor, is that pair's LCA.
    /// Every other pair is one range-minimum query over the depth column.
    pub(crate) fn consecutive_lcas(
        &self,
        tree: u64,
        sel: &[Arc<NodeRecord>],
    ) -> CrimsonResult<Vec<Arc<NodeRecord>>> {
        let mut nested = Vec::with_capacity(sel.len().saturating_sub(1));
        let mut pairs = Vec::with_capacity(sel.len().saturating_sub(1));
        for pair in sel.windows(2) {
            let (lo, hi) = (&pair[0], &pair[1]);
            let covers = !lo.is_leaf && hi.preorder <= self.interval_of(lo.id)?.1 as u64;
            nested.push(covers);
            if !covers {
                pairs.push((lo.preorder as u32, hi.preorder as u32));
            }
        }
        let mut lcas = if pairs.is_empty() {
            Vec::new()
        } else {
            let mut cursor = self.depth_cursor(tree)?;
            self.lcas_of_ranks(&mut cursor, &pairs)?
        }
        .into_iter();
        Ok(nested
            .iter()
            .zip(sel)
            .map(|(&covers, lo)| {
                if covers {
                    Arc::clone(lo)
                } else {
                    lcas.next().expect("one LCA per non-nested pair")
                }
            })
            .collect())
    }

    /// The LCAs of rank pairs `(lo, hi)` of the cursor's tree, where
    /// `lo < hi` and `lo` is not an ancestor of `hi`: each is the parent of
    /// the shallowest rank in `(lo, hi]`, fetched through its interval
    /// entry's heap locator (the entries of all pairs are read in one
    /// ascending pass). Every answer is checked against the interval index
    /// and the node row — it must cover both ranks and sit one level above
    /// the minimum — so a damaged column surfaces as a typed error, never
    /// a wrong node.
    fn lcas_of_ranks(
        &self,
        cur: &mut DepthCursor,
        pairs: &[(u32, u32)],
    ) -> CrimsonResult<Vec<Arc<NodeRecord>>> {
        let tree = cur.minima.tree;
        let mut minima = Vec::with_capacity(pairs.len());
        for &(lo, hi) in pairs {
            minima.push(self.min_depth(cur, lo + 1, hi)?);
        }
        let mut ranks: Vec<u32> = minima.iter().map(|&(_, parent)| parent).collect();
        ranks.sort_unstable();
        ranks.dedup();
        let found = self.nodes_at_ranks(tree, &ranks)?;
        let mut out = Vec::with_capacity(pairs.len());
        for (&(lo, hi), &(depth, parent)) in pairs.iter().zip(&minima) {
            let at = found[ranks.binary_search(&parent).expect("rank collected")];
            if parent > lo || at.end < hi {
                return Err(corrupt(format!(
                    "depth column of tree {tree} names rank {parent} as the LCA of ranks {lo} and {hi}, \
                     but its interval [{parent}, {}] does not cover both",
                    at.end
                )));
            }
            let rec = self.node_record_by_locator(
                StoredNodeId((tree << TREE_SHIFT) | at.node as u64),
                at.rid,
            )?;
            if rec.depth + 1 != depth as u64 {
                return Err(corrupt(format!(
                    "depth column of tree {tree} puts the children of rank {parent} at depth {depth}, \
                     but its node row has depth {}",
                    rec.depth
                )));
            }
            out.push(rec);
        }
        Ok(out)
    }

    /// Cross-check every tree's depth column: blocks and minima belong to
    /// listed trees and agree with each other; every rank's parent is
    /// shallower by one and earlier in pre-order; every interval entry's
    /// `parent_pre` and every node row's depth match the column. Returns
    /// the number of block rows.
    pub(crate) fn check_depth_columns(
        &self,
        trees: &HashMap<u64, TreeRecord>,
        node_depths: &[(u64, u64, u64)],
    ) -> CrimsonResult<u64> {
        let mut blocks: HashMap<u64, BTreeMap<i64, (RecordId, Vec<u8>)>> = HashMap::new();
        let mut block_rows = 0u64;
        for (rid, mut row) in self.db.scan(self.tables.depth_blocks)? {
            let tree = row.values[0].as_int().unwrap_or(-1) as u64;
            let block = row.values[1].as_int().unwrap_or(-1);
            if !trees.contains_key(&tree) {
                return Err(corrupt(format!(
                    "orphan depth block row {rid} references missing tree {tree}"
                )));
            }
            let Some(Value::Bytes(bytes)) = row.values.pop() else {
                return Err(corrupt(format!("depth block row {rid} is malformed")));
            };
            if blocks
                .entry(tree)
                .or_default()
                .insert(block, (rid, bytes))
                .is_some()
            {
                return Err(corrupt(format!(
                    "depth column of tree {tree} holds block {block} twice"
                )));
            }
            block_rows += 1;
        }
        let mut minima_trees = std::collections::HashSet::new();
        for (rid, row) in self.db.scan(self.tables.depth_minima)? {
            let tree = row.values[0].as_int().unwrap_or(-1) as u64;
            if !trees.contains_key(&tree) {
                return Err(corrupt(format!(
                    "orphan depth minima row {rid} references missing tree {tree}"
                )));
            }
            minima_trees.insert(tree);
        }

        let mut columns: HashMap<u64, Vec<(u32, u32)>> = HashMap::new();
        for (&tree_id, tree) in trees {
            let n = tree.node_count as usize;
            let expected_blocks = n.div_ceil(BLOCK_RANKS);
            let have = blocks.remove(&tree_id).unwrap_or_default();
            let minima = if minima_trees.contains(&tree_id) {
                self.read_minima(tree_id)?.blocks
            } else {
                Vec::new()
            };
            if have.len() != expected_blocks || minima.len() != expected_blocks {
                return Err(corrupt(format!(
                    "depth column of tree `{}` holds {}/{} blocks/minima, expected {expected_blocks}",
                    tree.name,
                    have.len(),
                    minima.len()
                )));
            }
            let mut column = Vec::with_capacity(n);
            for (b, ((block, (rid, bytes)), min)) in have.into_iter().zip(&minima).enumerate() {
                let len = (n - b * BLOCK_RANKS).min(BLOCK_RANKS);
                let Some(decoded) = Block::decode(b * BLOCK_RANKS, bytes)
                    .filter(|d| block == b as i64 && d.len == len)
                else {
                    return Err(corrupt(format!(
                        "depth column of tree `{}`: block {block} is misnumbered or malformed",
                        tree.name
                    )));
                };
                let run: Vec<(u32, u32)> = (0..len).map(|i| decoded.rank(i)).collect();
                let (depth, parent_pre) = run_min(run.iter().copied());
                if *min
                    != (BlockMin {
                        depth,
                        parent_pre,
                        rid,
                    })
                {
                    return Err(corrupt(format!(
                        "depth column of tree `{}`: minimum of block {b} contradicts the block",
                        tree.name
                    )));
                }
                column.extend(run);
            }
            for (rank, &(depth, parent)) in column.iter().enumerate() {
                let ok = if rank == 0 {
                    (depth, parent) == (0, 0)
                } else {
                    (parent as usize) < rank && depth == column[parent as usize].0 + 1
                };
                if !ok {
                    return Err(corrupt(format!(
                        "depth column of tree `{}` is not a pre-order tree at rank {rank}",
                        tree.name
                    )));
                }
            }
            columns.insert(tree_id, column);
        }

        let mut fail: Option<CrimsonError> = None;
        self.db
            .raw_scan(self.tables.ivl_by_pre, None, None, &mut |key, _| {
                let agrees = IntervalEntry::decode_key(key).is_some_and(|(tree, e)| {
                    columns
                        .get(&tree)
                        .and_then(|c| c.get(e.pre as usize))
                        .is_some_and(|&(_, parent)| parent == e.parent_pre)
                });
                if !agrees {
                    fail = Some(corrupt(format!(
                        "interval entry {key:02x?} contradicts the depth column"
                    )));
                    return Ok(false);
                }
                Ok(true)
            })?;
        if let Some(e) = fail {
            return Err(e);
        }
        for &(tree, pre, depth) in node_depths {
            let stored = columns
                .get(&tree)
                .and_then(|c| c.get(pre as usize))
                .map(|&(d, _)| d as u64);
            if stored != Some(depth) {
                return Err(corrupt(format!(
                    "node row at rank {pre} of tree {tree} has depth {depth}, the depth column {stored:?}"
                )));
            }
        }
        Ok(block_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::RepositoryOptions;
    use simulation::birth_death::yule_tree;

    #[test]
    fn block_packing_round_trips_every_width() {
        let runs: Vec<(usize, Vec<(u32, u32)>)> = vec![
            // The root alone.
            (0, vec![(0, 0)]),
            // 1-byte depths and distances.
            (256, (0..256u32).map(|i| (7 + i % 3, 255 + i)).collect()),
            // 2-byte depths, 4-byte distances (parents far back).
            (
                100_800,
                (0..40u32)
                    .map(|i| (300 + 9 * i, 100_800 + i - 70_000 * (i % 2)))
                    .collect(),
            ),
            // 4-byte depths (a caterpillar-like drop), 2-byte distances.
            (504, vec![(80_000, 503), (1, 0), (2, 505), (80_001, 300)]),
        ];
        for (first, run) in runs {
            let bytes = Block::encode(first, &run);
            let block = Block::decode(first, bytes).expect("well-formed block");
            let back: Vec<(u32, u32)> = (0..block.len).map(|i| block.rank(i)).collect();
            assert_eq!(back, run, "block at rank {first}");
        }
        // Malformed headers and lengths are refused, not misread.
        assert!(Block::decode(0, vec![3, 1, 0, 0, 0, 0, 9, 9]).is_none());
        assert!(Block::decode(0, vec![1, 1, 0, 0, 0, 0, 9]).is_none());
        assert!(Block::decode(0, vec![1, 1, 0, 0, 0]).is_none());
        assert!(Block::decode(0, vec![1, 1, 0, 0, 0, 0]).is_none());
    }

    /// A damage applied to one rank's `(depth, parent_pre)`.
    type RankEdit = fn(u32, u32) -> (u32, u32);

    /// Re-encode the block holding `rank` of `tree` with `edit` applied to
    /// that rank, and repoint the block minima at the rewritten row, so
    /// only the rank's content is wrong. Returns the original value.
    fn damage_rank(repo: &mut Repository, tree: u64, rank: usize, edit: RankEdit) -> (u32, u32) {
        let b = rank / BLOCK_RANKS;
        let rid = repo.view().read_minima(tree).unwrap().blocks[b].rid;
        let row = repo.db.get(repo.tables.depth_blocks, rid).unwrap();
        let bytes = row.values[2].as_bytes().unwrap().to_vec();
        let block = Block::decode(b * BLOCK_RANKS, bytes).unwrap();
        let mut run: Vec<(u32, u32)> = (0..block.len).map(|i| block.rank(i)).collect();
        let original = run[rank % BLOCK_RANKS];
        run[rank % BLOCK_RANKS] = edit(original.0, original.1);
        let (blocks, minima) = (repo.tables.depth_blocks, repo.tables.depth_minima);
        repo.db.begin().unwrap();
        repo.db.delete(blocks, rid).unwrap();
        let moved = repo
            .db
            .insert(
                blocks,
                &[
                    row.values[0].clone(),
                    row.values[1].clone(),
                    Value::bytes(Block::encode(b * BLOCK_RANKS, &run)),
                ],
            )
            .unwrap();
        let (mrid, mrow) = repo
            .db
            .lookup_rows(minima, "tree_id", &Value::Int(tree as i64))
            .unwrap()
            .remove(0);
        let mut entries = mrow.values[2].as_bytes().unwrap().to_vec();
        entries[b * MIN_BYTES + 8..(b + 1) * MIN_BYTES]
            .copy_from_slice(&moved.to_u64().to_le_bytes());
        repo.db.delete(minima, mrid).unwrap();
        repo.db
            .insert(
                minima,
                &[
                    mrow.values[0].clone(),
                    mrow.values[1].clone(),
                    Value::bytes(entries),
                ],
            )
            .unwrap();
        repo.db.commit().unwrap();
        repo.clear_cache().unwrap();
        original
    }

    #[test]
    fn damaged_rank_fails_integrity_and_never_answers_wrong() {
        // One damaged rank at a time: shallower than it is, reparented to
        // the root, and deeper than it is.
        let edits: [(&str, RankEdit); 3] = [
            ("shallower", |_, parent| (1, parent)),
            ("reparented", |depth, _| (depth, 0)),
            ("deeper", |depth, parent| (depth + 5, parent)),
        ];
        let tree = yule_tree(300, 1.0, 8);
        let by_rank: Vec<phylo::NodeId> = tree.preorder().collect();
        let rank = 300;
        for (what, edit) in edits {
            let dir = tempfile::tempdir().unwrap();
            let mut repo = Repository::create(
                dir.path().join("damaged.crimson"),
                RepositoryOptions::default(),
            )
            .unwrap();
            let handle = repo.load_tree("yule", &tree).unwrap();
            let (depth, _) = damage_rank(&mut repo, handle.0, rank, edit);
            assert!(depth >= 2, "pick a rank below the root's children");
            match repo.view().integrity_check() {
                Err(CrimsonError::CorruptRepository(msg)) => {
                    assert!(msg.contains("depth column"), "{what}: {msg}")
                }
                other => panic!("{what}: integrity check must fail, got {other:?}"),
            }
            // Every LCA whose rank range covers the damaged rank is either
            // right or a typed CorruptRepository error.
            let sid = |n: phylo::NodeId| StoredNodeId((handle.0 << TREE_SHIFT) | n.0 as u64);
            let mut refused = 0;
            for lo in rank - 40..rank {
                for hi in rank..rank + 40 {
                    let (a, b) = (by_rank[lo], by_rank[hi]);
                    match repo.view().lca(sid(a), sid(b)) {
                        Ok(got) => {
                            assert_eq!(got, sid(tree.lca(a, b)), "{what}: ranks {lo}, {hi}")
                        }
                        Err(CrimsonError::CorruptRepository(_)) => refused += 1,
                        Err(e) => panic!("{what}: untyped failure {e}"),
                    }
                }
            }
            assert!(
                refused > 0,
                "{what}: the damaged rank must surface on some query"
            );
        }
    }
}
