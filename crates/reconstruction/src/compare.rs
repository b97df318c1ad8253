//! Tree comparison metrics: Robinson–Foulds, consensus and triplet distance.
//!
//! The Benchmark Manager scores a reconstructed tree against the projected
//! gold-standard subtree. The workhorse metric is the Robinson–Foulds (RF)
//! distance — the size of the symmetric difference between the two trees'
//! bipartition (split) sets — computed here with bitset cluster tables, the
//! same idea behind Day's linear-time comparison cited by the paper
//! (ref \[1\]). A majority-rule consensus builder (the subject of that
//! citation) and a triplet distance round out the toolbox.

use phylo::traverse::Traverse;
use phylo::{NodeId, Tree};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Errors from tree comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum CompareError {
    /// The two trees are over different leaf-name sets.
    LeafSetMismatch {
        /// Names only present in the first tree.
        only_in_a: Vec<String>,
        /// Names only present in the second tree.
        only_in_b: Vec<String>,
    },
    /// A tree has unnamed or duplicate leaves.
    BadLeaves(String),
    /// Need at least this many leaves for the metric.
    TooFewLeaves(usize),
}

impl fmt::Display for CompareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompareError::LeafSetMismatch {
                only_in_a,
                only_in_b,
            } => write!(
                f,
                "leaf sets differ (only in first: {only_in_a:?}; only in second: {only_in_b:?})"
            ),
            CompareError::BadLeaves(m) => write!(f, "bad leaves: {m}"),
            CompareError::TooFewLeaves(n) => write!(f, "need at least {n} leaves"),
        }
    }
}

impl std::error::Error for CompareError {}

/// Result of a Robinson–Foulds comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RfResult {
    /// Number of splits present in exactly one of the trees.
    pub distance: usize,
    /// Maximum possible distance for these trees (sum of internal-edge
    /// counts), used for normalization.
    pub max_distance: usize,
    /// `distance / max_distance`, or 0 when `max_distance` is 0.
    pub normalized: f64,
    /// Number of splits shared by both trees.
    pub shared: usize,
}

/// A set of leaves represented as a bitset over a fixed leaf ordering.
type LeafSet = Vec<u64>;

fn empty_set(n: usize) -> LeafSet {
    vec![0u64; n.div_ceil(64)]
}

fn set_bit(set: &mut LeafSet, i: usize) {
    set[i / 64] |= 1 << (i % 64);
}

fn get_bit(set: &LeafSet, i: usize) -> bool {
    set[i / 64] & (1 << (i % 64)) != 0
}

fn union_into(dst: &mut LeafSet, src: &LeafSet) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

fn count_bits(set: &LeafSet) -> usize {
    set.iter().map(|w| w.count_ones() as usize).sum()
}

fn complement(set: &LeafSet, n: usize) -> LeafSet {
    let mut out: LeafSet = set.iter().map(|w| !w).collect();
    // Mask off the bits beyond n.
    let excess = out.len() * 64 - n;
    if excess > 0 {
        let last = out.len() - 1;
        out[last] &= u64::MAX >> excess;
    }
    out
}

/// Collect the leaf-name → index map, failing on unnamed or duplicate leaves.
fn leaf_index(tree: &Tree) -> Result<HashMap<String, usize>, CompareError> {
    let mut map = HashMap::new();
    for (i, leaf) in tree.leaf_ids().enumerate() {
        let name = tree
            .name(leaf)
            .ok_or_else(|| CompareError::BadLeaves(format!("leaf {leaf} is unnamed")))?;
        if map.insert(name.to_string(), i).is_some() {
            return Err(CompareError::BadLeaves(format!(
                "duplicate leaf name `{name}`"
            )));
        }
    }
    Ok(map)
}

fn check_same_leaves(
    a: &HashMap<String, usize>,
    b: &HashMap<String, usize>,
) -> Result<(), CompareError> {
    if a.len() == b.len() && a.keys().all(|k| b.contains_key(k)) {
        return Ok(());
    }
    let mut only_in_a: Vec<String> = a.keys().filter(|k| !b.contains_key(*k)).cloned().collect();
    let mut only_in_b: Vec<String> = b.keys().filter(|k| !a.contains_key(*k)).cloned().collect();
    only_in_a.sort();
    only_in_b.sort();
    Err(CompareError::LeafSetMismatch {
        only_in_a,
        only_in_b,
    })
}

/// Compute, for every node, the bitset of leaf indices (according to `index`)
/// below it. Returned as a map from node to set, computed in post-order.
fn node_leafsets(tree: &Tree, index: &HashMap<String, usize>) -> HashMap<NodeId, LeafSet> {
    let n = index.len();
    let mut sets: HashMap<NodeId, LeafSet> = HashMap::with_capacity(tree.node_count());
    for node in tree.postorder() {
        let mut set = empty_set(n);
        if tree.is_leaf(node) {
            if let Some(name) = tree.name(node) {
                if let Some(&i) = index.get(name) {
                    set_bit(&mut set, i);
                }
            }
        } else {
            for &c in tree.children(node) {
                let child_set = sets
                    .get(&c)
                    .expect("post-order visits children first")
                    .clone();
                union_into(&mut set, &child_set);
            }
        }
        sets.insert(node, set);
    }
    sets
}

/// Collect the non-trivial unrooted splits of a tree (canonicalized so the
/// side not containing leaf 0 is stored), given a shared leaf index.
fn splits(tree: &Tree, index: &HashMap<String, usize>) -> HashSet<LeafSet> {
    let n = index.len();
    let sets = node_leafsets(tree, index);
    let mut out = HashSet::new();
    for node in tree.node_ids() {
        if tree.is_leaf(node) || tree.parent(node).is_none() {
            continue; // leaf edges and the root give trivial splits
        }
        let set = &sets[&node];
        let size = count_bits(set);
        if size <= 1 || size >= n - 1 {
            continue; // trivial split
        }
        let canonical = if get_bit(set, 0) {
            complement(set, n)
        } else {
            set.clone()
        };
        out.insert(canonical);
    }
    out
}

/// Collect the non-trivial **rooted clades** (clusters) of a tree.
fn clades(tree: &Tree, index: &HashMap<String, usize>) -> HashSet<LeafSet> {
    let n = index.len();
    let sets = node_leafsets(tree, index);
    let mut out = HashSet::new();
    for node in tree.node_ids() {
        if tree.is_leaf(node) {
            continue;
        }
        let set = &sets[&node];
        let size = count_bits(set);
        if size <= 1 || size >= n {
            continue;
        }
        out.insert(set.clone());
    }
    out
}

/// Robinson–Foulds distance over **unrooted splits** — the standard metric
/// for scoring a reconstruction against the truth when the reconstruction's
/// rooting is arbitrary (as with Neighbor-Joining).
pub fn robinson_foulds(a: &Tree, b: &Tree) -> Result<RfResult, CompareError> {
    let ia = leaf_index(a)?;
    let ib = leaf_index(b)?;
    check_same_leaves(&ia, &ib)?;
    if ia.len() < 3 {
        return Ok(RfResult {
            distance: 0,
            max_distance: 0,
            normalized: 0.0,
            shared: 0,
        });
    }
    let sa = splits(a, &ia);
    let sb = splits(b, &ia);
    let shared = sa.intersection(&sb).count();
    let distance = (sa.len() - shared) + (sb.len() - shared);
    let max_distance = sa.len() + sb.len();
    let normalized = if max_distance == 0 {
        0.0
    } else {
        distance as f64 / max_distance as f64
    };
    Ok(RfResult {
        distance,
        max_distance,
        normalized,
        shared,
    })
}

/// Robinson–Foulds distance over **rooted clades**; appropriate when both
/// trees are meaningfully rooted (e.g. comparing against a projection of the
/// rooted gold standard with a clock-based method such as UPGMA).
pub fn rooted_robinson_foulds(a: &Tree, b: &Tree) -> Result<RfResult, CompareError> {
    let ia = leaf_index(a)?;
    let ib = leaf_index(b)?;
    check_same_leaves(&ia, &ib)?;
    let ca = clades(a, &ia);
    let cb = clades(b, &ia);
    let shared = ca.intersection(&cb).count();
    let distance = (ca.len() - shared) + (cb.len() - shared);
    let max_distance = ca.len() + cb.len();
    let normalized = if max_distance == 0 {
        0.0
    } else {
        distance as f64 / max_distance as f64
    };
    Ok(RfResult {
        distance,
        max_distance,
        normalized,
        shared,
    })
}

/// Majority-rule consensus of a set of trees over the same leaf set: the tree
/// containing exactly the clades that appear in more than half of the inputs.
/// This is the linear-time majority tree problem of the paper's ref \[1\].
pub fn majority_consensus(trees: &[Tree]) -> Result<Tree, CompareError> {
    if trees.is_empty() {
        return Err(CompareError::TooFewLeaves(1));
    }
    let index = leaf_index(&trees[0])?;
    for t in &trees[1..] {
        let it = leaf_index(t)?;
        check_same_leaves(&index, &it)?;
    }
    let n = index.len();
    let mut names: Vec<String> = vec![String::new(); n];
    for (name, &i) in &index {
        names[i] = name.clone();
    }

    // Count each rooted clade across the inputs.
    let mut counts: HashMap<LeafSet, usize> = HashMap::new();
    for t in trees {
        for clade in clades(t, &index) {
            *counts.entry(clade).or_insert(0) += 1;
        }
    }
    let majority: Vec<LeafSet> = counts
        .into_iter()
        .filter(|(_, c)| 2 * *c > trees.len())
        .map(|(clade, _)| clade)
        .collect();

    // Build the consensus: start from the root clade (all leaves), add
    // majority clades from largest to smallest under their tightest parent.
    let mut tree = Tree::new();
    let root = tree.add_node();
    let mut full = empty_set(n);
    for i in 0..n {
        set_bit(&mut full, i);
    }
    // (clade, node) pairs already placed, ordered by insertion.
    let mut placed: Vec<(LeafSet, NodeId)> = vec![(full, root)];
    let mut ordered = majority;
    ordered.sort_by_key(|c| std::cmp::Reverse(count_bits(c)));
    for clade in ordered {
        let parent = tightest_superset(&placed, &clade);
        let node = tree.add_child(parent, None, None).expect("parent exists");
        placed.push((clade, node));
    }
    // Attach leaves under their tightest containing clade.
    for (i, name) in names.iter().enumerate() {
        let mut single = empty_set(n);
        set_bit(&mut single, i);
        let parent = tightest_superset(&placed, &single);
        tree.add_child(parent, Some(name.clone()), None)
            .expect("parent exists");
    }
    Ok(tree)
}

/// Among the placed clades, find the node of the smallest clade that is a
/// superset of `target`. Majority clades are pairwise compatible, so the
/// tightest superset is unique.
fn tightest_superset(placed: &[(LeafSet, NodeId)], target: &LeafSet) -> NodeId {
    let mut best: Option<(usize, NodeId)> = None;
    for (clade, node) in placed {
        if is_superset(clade, target) {
            let size = count_bits(clade);
            if best.is_none_or(|(bs, _)| size < bs) {
                best = Some((size, *node));
            }
        }
    }
    best.expect("the root clade contains every leaf").1
}

fn is_superset(sup: &LeafSet, sub: &LeafSet) -> bool {
    sup.iter().zip(sub).all(|(a, b)| a & b == *b)
}

/// Fraction of leaf triplets whose rooted topology differs between the two
/// trees. Exact O(n³) computation — intended for the sample sizes the
/// benchmark manager works with (≤ a few hundred taxa).
pub fn triplet_distance(a: &Tree, b: &Tree) -> Result<f64, CompareError> {
    let ia = leaf_index(a)?;
    let ib = leaf_index(b)?;
    check_same_leaves(&ia, &ib)?;
    let names: Vec<String> = ia.keys().cloned().collect();
    if names.len() < 3 {
        return Err(CompareError::TooFewLeaves(3));
    }
    let leaves_a: Vec<NodeId> = names
        .iter()
        .map(|n| a.find_leaf_by_name(n).expect("leaf exists"))
        .collect();
    let leaves_b: Vec<NodeId> = names
        .iter()
        .map(|n| b.find_leaf_by_name(n).expect("leaf exists"))
        .collect();
    let depths_a = a.all_depths();
    let depths_b = b.all_depths();

    // Rooted triplet topology: which of the three pairs has the deepest LCA;
    // 0,1,2 for the pair index, 3 for unresolved (all LCAs equal).
    let topology = |tree: &Tree, depths: &[usize], x: NodeId, y: NodeId, z: NodeId| -> u8 {
        let dxy = depths[tree.lca(x, y).index()];
        let dxz = depths[tree.lca(x, z).index()];
        let dyz = depths[tree.lca(y, z).index()];
        if dxy > dxz && dxy > dyz {
            0
        } else if dxz > dxy && dxz > dyz {
            1
        } else if dyz > dxy && dyz > dxz {
            2
        } else {
            3
        }
    };

    let n = names.len();
    let mut differing = 0usize;
    let mut total = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            for k in (j + 1)..n {
                let ta = topology(a, &depths_a, leaves_a[i], leaves_a[j], leaves_a[k]);
                let tb = topology(b, &depths_b, leaves_b[i], leaves_b[j], leaves_b[k]);
                if ta != tb {
                    differing += 1;
                }
                total += 1;
            }
        }
    }
    Ok(differing as f64 / total as f64)
}

// ---------------------------------------------------------------------------
// Abstract clade sources and streaming comparison
// ---------------------------------------------------------------------------

/// Visitor of a pre-order node stream: `(pre, end, node, leaf_name)`.
pub type NodeVisitor<'a> = dyn FnMut(u32, u32, u32, Option<&str>) + 'a;

/// An abstract supplier of a rooted tree's structure, streamed in pre-order.
///
/// The comparison metrics above require two materialized [`Tree`]s; this
/// trait decouples them from where the topology lives. Anything that can
/// enumerate its nodes in pre-order with subtree intervals — an in-memory
/// tree, or a database range scan over a persistent interval index — can be
/// compared without building a `Tree` first. [`compare_sources`] computes
/// rooted and unrooted Robinson–Foulds (and optionally the triplet distance)
/// exactly, in one pass over each source plus `O(n log n)` bookkeeping,
/// using the interval technique of Day's linear-time comparison.
pub trait CladeSource {
    /// Error produced while streaming (must subsume comparison errors).
    type Error: From<CompareError>;

    /// Stream every node in pre-order. For each node the visitor receives
    /// `(pre, end, node, leaf_name)`: the node's pre-order rank, the largest
    /// pre-order rank in its subtree, a source-local node id, and — for
    /// childless nodes (`pre == end`) — the leaf's name. Internal nodes may
    /// pass `None`; leaf nodes with `None` make the comparison fail with
    /// [`CompareError::BadLeaves`].
    fn for_each_node(&self, visit: &mut NodeVisitor<'_>) -> Result<(), Self::Error>;

    /// Optional node-count hint used only for preallocation.
    fn node_count_hint(&self) -> usize {
        0
    }
}

impl CladeSource for Tree {
    type Error = CompareError;

    fn node_count_hint(&self) -> usize {
        self.node_count()
    }

    fn for_each_node(&self, visit: &mut NodeVisitor<'_>) -> Result<(), CompareError> {
        if self.is_empty() {
            return Ok(());
        }
        let n = self.node_count();
        let mut pre_of = vec![0u32; n];
        let mut end_of = vec![0u32; n];
        let mut order: Vec<NodeId> = Vec::with_capacity(n);
        let root = self.root_unchecked();
        order.push(root);
        let mut next_pre = 1u32;
        let mut stack: Vec<(NodeId, usize)> = vec![(root, 0)];
        while let Some(&(node, child_idx)) = stack.last() {
            let children = self.children(node);
            if child_idx < children.len() {
                stack.last_mut().expect("just peeked").1 += 1;
                let child = children[child_idx];
                pre_of[child.index()] = next_pre;
                next_pre += 1;
                order.push(child);
                stack.push((child, 0));
            } else {
                end_of[node.index()] = next_pre - 1;
                stack.pop();
            }
        }
        for &node in &order {
            let ai = node.index();
            let name = if self.is_leaf(node) {
                self.name(node)
            } else {
                None
            };
            visit(pre_of[ai], end_of[ai], node.0, name);
        }
        Ok(())
    }
}

/// Whether one internal node's clade of the second source agrees with the
/// first source — the per-clade data an experiment stores so that *where* a
/// reconstruction went wrong stays queryable, not just how far off it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CladeAgreement {
    /// Source-local node id (as streamed by the [`CladeSource`]).
    pub node: u32,
    /// Number of leaves in the clade.
    pub size: u32,
    /// `true` when the first source contains the same clade.
    pub agrees: bool,
}

/// Everything [`compare_sources`] computes in its two streaming passes.
#[derive(Debug, Clone)]
pub struct SourceComparison {
    /// Unrooted Robinson–Foulds over bipartitions.
    pub rf: RfResult,
    /// Rooted Robinson–Foulds over clades.
    pub rooted_rf: RfResult,
    /// Triplet distance, when requested.
    pub triplet: Option<f64>,
    /// Per-clade agreement for every non-trivial internal node of the
    /// *second* source (sized `2 ..= n-1` leaves).
    pub clades: Vec<CladeAgreement>,
}

/// Aggregates of a set of leaf ranks: enough to decide, in O(1), whether the
/// set is exactly the contiguous interval `[min, max]` (`count` matches).
#[derive(Debug, Clone, Copy)]
struct Agg {
    min: u32,
    max: u32,
    count: u32,
}

impl Agg {
    const EMPTY: Agg = Agg {
        min: u32::MAX,
        max: 0,
        count: 0,
    };

    fn push(&mut self, rank: u32) {
        self.min = self.min.min(rank);
        self.max = self.max.max(rank);
        self.count += 1;
    }

    fn merge(&mut self, other: Agg) {
        if other.count == 0 {
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
    }

    /// The set is exactly the interval `[min, max]`.
    fn contiguous(&self) -> bool {
        self.count > 0 && self.max - self.min + 1 == self.count
    }
}

/// Sparse table for O(1) range-minimum queries over the adjacent-leaf LCA
/// depths; `min(l, r)` is inclusive on both ends.
struct Rmq {
    levels: Vec<Vec<u32>>,
}

impl Rmq {
    fn new(values: &[u32]) -> Rmq {
        let mut levels = vec![values.to_vec()];
        let mut width = 1usize;
        while width * 2 <= values.len() {
            let prev = levels.last().expect("seeded with one level");
            let next: Vec<u32> = (0..prev.len() - width)
                .map(|i| prev[i].min(prev[i + width]))
                .collect();
            levels.push(next);
            width *= 2;
        }
        Rmq { levels }
    }

    fn min(&self, l: usize, r: usize) -> u32 {
        debug_assert!(l <= r);
        let k = (usize::BITS - 1 - (r - l + 1).leading_zeros()) as usize;
        let row = &self.levels[k];
        row[l].min(row[r + 1 - (1usize << k)])
    }
}

/// The first source, digested: leaf ranks by name, the clade/split interval
/// sets, and (when triplets are wanted) adjacent-leaf LCA depths. Every
/// clade of a tree is a contiguous interval of its pre-order leaf ranks, so
/// set equality against this source reduces to an interval lookup.
struct CladeIndex {
    names: Vec<String>,
    rank: HashMap<String, u32>,
    /// Non-trivial rooted clades as leaf-rank intervals (deduped).
    clades: HashSet<(u32, u32)>,
    /// Canonical unrooted split sides (the side not containing rank 0),
    /// which are intervals too: a clade not containing rank 0 is `[lo, hi]`
    /// with `lo > 0`; a prefix clade `[0, hi]` canonicalizes to the suffix
    /// `[hi+1, n-1]`.
    splits: HashSet<(u32, u32)>,
    adj: Option<Rmq>,
}

impl CladeIndex {
    fn build<A: CladeSource>(a: &A, want_depths: bool) -> Result<CladeIndex, A::Error> {
        struct Open {
            pre: u32,
            end: u32,
            leaf_lo: u32,
        }
        let mut stack: Vec<Open> = Vec::new();
        let mut names: Vec<String> = Vec::new();
        let mut rank: HashMap<String, u32> = HashMap::new();
        // (is_root, leaf_lo, leaf_hi) per internal node; filtered below once
        // the leaf count is known.
        let mut intervals: Vec<(bool, u32, u32)> = Vec::with_capacity(a.node_count_hint());
        let mut adj: Vec<u32> = Vec::new();
        let mut prev_leaf_pre = 0u32;
        let mut err: Option<CompareError> = None;
        a.for_each_node(&mut |pre, end, node, name| {
            if err.is_some() {
                return;
            }
            while stack.last().is_some_and(|o| o.end < pre) {
                let o = stack.pop().expect("just checked");
                intervals.push((
                    o.pre == 0,
                    o.leaf_lo,
                    (names.len() as u32).saturating_sub(1),
                ));
            }
            if pre == end {
                let Some(name) = name else {
                    err = Some(CompareError::BadLeaves(format!("leaf {node} is unnamed")));
                    return;
                };
                let r = names.len() as u32;
                if rank.insert(name.to_string(), r).is_some() {
                    err = Some(CompareError::BadLeaves(format!(
                        "duplicate leaf name `{name}`"
                    )));
                    return;
                }
                if want_depths && r > 0 {
                    // LCA of consecutive leaves: the deepest open ancestor
                    // that was already open at the previous leaf. Stack
                    // index equals node depth.
                    let idx = stack.partition_point(|o| o.pre <= prev_leaf_pre);
                    adj.push(idx.saturating_sub(1) as u32);
                }
                prev_leaf_pre = pre;
                names.push(name.to_string());
            } else {
                stack.push(Open {
                    pre,
                    end,
                    leaf_lo: names.len() as u32,
                });
            }
        })?;
        if let Some(e) = err {
            return Err(A::Error::from(e));
        }
        while let Some(o) = stack.pop() {
            intervals.push((
                o.pre == 0,
                o.leaf_lo,
                (names.len() as u32).saturating_sub(1),
            ));
        }
        let n = names.len() as u32;
        let mut clades = HashSet::new();
        let mut splits = HashSet::new();
        for &(is_root, lo, hi) in &intervals {
            let size = hi - lo + 1;
            if size >= 2 && size < n {
                clades.insert((lo, hi));
            }
            if !is_root && size >= 2 && n >= 2 && size <= n - 2 {
                let side = if lo == 0 { (hi + 1, n - 1) } else { (lo, hi) };
                splits.insert(side);
            }
        }
        Ok(CladeIndex {
            names,
            rank,
            clades,
            splits,
            adj: if want_depths && !adj.is_empty() {
                Some(Rmq::new(&adj))
            } else {
                None
            },
        })
    }
}

fn rf_result(sa: usize, sb: usize, shared: usize) -> RfResult {
    let distance = (sa - shared) + (sb - shared);
    let max_distance = sa + sb;
    RfResult {
        distance,
        max_distance,
        normalized: if max_distance == 0 {
            0.0
        } else {
            distance as f64 / max_distance as f64
        },
        shared,
    }
}

/// Compare two [`CladeSource`]s: rooted and unrooted Robinson–Foulds,
/// per-clade agreement of the second source against the first, and — when
/// `triplets` is set — the exact triplet distance. Produces the same values
/// as [`robinson_foulds`] / [`rooted_robinson_foulds`] /
/// [`triplet_distance`] on the materialized trees, without materializing
/// anything: one pre-order pass over each source.
///
/// The interval technique: number leaves `0..n` by their pre-order position
/// in the *first* source. Every clade of the first source is then a
/// contiguous rank interval. Stream the second source computing, per clade,
/// the `(min, max, count)` aggregates of its leaves' ranks — the clade
/// matches one of the first source's iff it is contiguous
/// (`max - min + 1 == count`) and its interval is present. Unrooted splits
/// canonicalize to the side not containing rank 0; for second-source clades
/// that *do* contain rank 0 (the ancestors of that leaf), the complement's
/// aggregates are assembled from the sibling subtrees hanging off the
/// ancestor chain, still inside the single pass.
pub fn compare_sources<A, B, E>(a: &A, b: &B, triplets: bool) -> Result<SourceComparison, E>
where
    A: CladeSource,
    B: CladeSource,
    E: From<A::Error> + From<B::Error> + From<CompareError>,
{
    let index = CladeIndex::build(a, triplets).map_err(E::from)?;
    compare_against_index(&index, b, triplets).map_err(E::from)
}

fn compare_against_index<B: CladeSource>(
    index: &CladeIndex,
    b: &B,
    triplets: bool,
) -> Result<SourceComparison, B::Error> {
    let n = index.names.len() as u32;

    struct Open {
        pre: u32,
        end: u32,
        node: u32,
        leaf_lo: u32,
        agg: Agg,
    }
    struct Closed {
        node: u32,
        pre: u32,
        b_lo: u32,
        b_hi: u32,
        agg: Agg,
        is_root: bool,
    }

    let mut stack: Vec<Open> = Vec::new();
    let mut closed: Vec<Closed> = Vec::with_capacity(b.node_count_hint());
    let mut seen = vec![false; n as usize];
    let mut only_in_b: Vec<String> = Vec::new();
    let mut perm: Vec<u32> = vec![0; n as usize]; // A-rank -> B-rank
    let mut b_adj: Vec<u32> = Vec::new();
    let mut b_leaves = 0u32;
    let mut prev_leaf_pre = 0u32;
    // The ancestor chain of leaf rank 0 ("x"), snapshot at its arrival, and
    // the per-chain-depth classes of leaves *outside* the next-deeper chain
    // node — the building blocks of the complement aggregates.
    let mut chain: Vec<(u32, u32)> = Vec::new(); // (pre, end) per depth
    let mut class_agg: Vec<Agg> = Vec::new();
    let mut chain_live = 0usize;
    let mut err: Option<CompareError> = None;

    b.for_each_node(&mut |pre, end, node, name| {
        if err.is_some() {
            return;
        }
        while stack.last().is_some_and(|o| o.end < pre) {
            let o = stack.pop().expect("just checked");
            if let Some(parent) = stack.last_mut() {
                parent.agg.merge(o.agg);
            }
            closed.push(Closed {
                node: o.node,
                pre: o.pre,
                b_lo: o.leaf_lo,
                b_hi: b_leaves.saturating_sub(1),
                agg: o.agg,
                is_root: o.pre == 0,
            });
        }
        if pre == end {
            let Some(name) = name else {
                err = Some(CompareError::BadLeaves(format!("leaf {node} is unnamed")));
                return;
            };
            let Some(&rank) = index.rank.get(name) else {
                only_in_b.push(name.to_string());
                return;
            };
            if seen[rank as usize] {
                err = Some(CompareError::BadLeaves(format!(
                    "duplicate leaf name `{name}`"
                )));
                return;
            }
            seen[rank as usize] = true;
            if triplets && b_leaves > 0 {
                let idx = stack.partition_point(|o| o.pre <= prev_leaf_pre);
                b_adj.push(idx.saturating_sub(1) as u32);
            }
            prev_leaf_pre = pre;
            perm[rank as usize] = b_leaves;
            if rank == 0 {
                // Snapshot x's ancestor chain *before* pushing x: each open
                // level's aggregate so far is exactly its class of pre-x
                // leaves (leaves under it but not under the next open
                // child, which is x's ancestor too).
                chain = stack.iter().map(|o| (o.pre, o.end)).collect();
                class_agg = stack.iter().map(|o| o.agg).collect();
                chain_live = chain.len();
            } else if chain_live > 0 && pre > chain[0].0 {
                // Post-x leaves: assign to the deepest chain node still
                // covering this pre rank.
                while chain_live > 0 && chain[chain_live - 1].1 < pre {
                    chain_live -= 1;
                }
                if chain_live > 0 {
                    class_agg[chain_live - 1].push(rank);
                }
            }
            if let Some(top) = stack.last_mut() {
                top.agg.push(rank);
            }
            b_leaves += 1;
        } else {
            stack.push(Open {
                pre,
                end,
                node,
                leaf_lo: b_leaves,
                agg: Agg::EMPTY,
            });
        }
    })?;
    if let Some(e) = err {
        return Err(B::Error::from(e));
    }
    // Final drain: the rightmost root-to-leaf path (including the root's
    // last child) only closes at end of stream.
    while let Some(o) = stack.pop() {
        if let Some(parent) = stack.last_mut() {
            parent.agg.merge(o.agg);
        }
        closed.push(Closed {
            node: o.node,
            pre: o.pre,
            b_lo: o.leaf_lo,
            b_hi: b_leaves.saturating_sub(1),
            agg: o.agg,
            is_root: o.pre == 0,
        });
    }

    // Leaf-set checks, mirroring `leaf_index` + `check_same_leaves`.
    let mut only_in_a: Vec<String> = index
        .names
        .iter()
        .enumerate()
        .filter(|(i, _)| !seen[*i])
        .map(|(_, name)| name.clone())
        .collect();
    if !only_in_a.is_empty() || !only_in_b.is_empty() {
        only_in_a.sort();
        only_in_b.sort();
        return Err(B::Error::from(CompareError::LeafSetMismatch {
            only_in_a,
            only_in_b,
        }));
    }

    // Complement aggregates for the chain: comp(depth d) = union of the
    // classes strictly above d.
    let mut comp: Vec<Agg> = Vec::with_capacity(chain.len());
    let mut running = Agg::EMPTY;
    for &class in &class_agg {
        comp.push(running);
        running.merge(class);
    }
    let chain_depth: HashMap<u32, usize> = chain
        .iter()
        .enumerate()
        .map(|(d, &(pre, _))| (pre, d))
        .collect();

    // Rooted clades + per-clade agreement.
    let mut clade_keys: HashSet<(u32, u32)> = HashSet::new();
    let mut sb_clades = 0usize;
    let mut shared_clades = 0usize;
    let mut agreement = Vec::new();
    for c in &closed {
        let size = c.agg.count;
        if size < 2 || n < 1 || size > n - 1 {
            continue;
        }
        let agrees = c.agg.contiguous() && index.clades.contains(&(c.agg.min, c.agg.max));
        agreement.push(CladeAgreement {
            node: c.node,
            size,
            agrees,
        });
        if clade_keys.insert((c.b_lo, c.b_hi)) {
            sb_clades += 1;
            if agrees {
                shared_clades += 1;
            }
        }
    }
    let rooted_rf = rf_result(index.clades.len(), sb_clades, shared_clades);

    // Unrooted splits. Two *distinct* clades carry the same split exactly
    // when they are complements — disjoint and jointly covering, i.e. the
    // two sides of a full-leaf-set bifurcation (possibly wrapped in unary
    // chains). In the source's own leaf-rank space every clade is an
    // interval, so a clade's complement is itself a clade only when the
    // clade is a prefix (complement = the completing suffix) or a suffix
    // (complement = the completing prefix) and that completing interval
    // exists as a clade. Skip the x-containing side of each such pair so
    // the split counts once — exactly as the HashSet canonicalization in
    // `splits` collapses it.
    let split_filter = |c: &&Closed| {
        let size = c.agg.count;
        !c.is_root && size >= 2 && n >= 2 && size <= n - 2
    };
    let partner_intervals: HashSet<(u32, u32)> = closed
        .iter()
        .filter(split_filter)
        .filter(|c| c.agg.min != 0)
        .map(|c| (c.b_lo, c.b_hi))
        .collect();
    let mut split_keys: HashSet<(u32, u32)> = HashSet::new();
    let mut sb_splits = 0usize;
    let mut shared_splits = 0usize;
    for c in closed.iter().filter(split_filter) {
        let contains_x = c.agg.min == 0;
        if contains_x {
            let has_partner = (c.b_lo == 0
                && c.b_hi + 1 < n
                && partner_intervals.contains(&(c.b_hi + 1, n - 1)))
                || (c.b_hi + 1 == n && c.b_lo > 0 && partner_intervals.contains(&(0, c.b_lo - 1)));
            if has_partner {
                continue;
            }
        }
        if !split_keys.insert((c.b_lo, c.b_hi)) {
            continue;
        }
        sb_splits += 1;
        let side = if contains_x {
            match chain_depth.get(&c.pre) {
                Some(&d) => comp[d],
                // A clade containing rank 0 is by construction on the
                // chain; treat a miss as a non-matching side rather than
                // panicking on a malformed source.
                None => Agg::EMPTY,
            }
        } else {
            c.agg
        };
        if side.contiguous() && index.splits.contains(&(side.min, side.max)) {
            shared_splits += 1;
        }
    }
    let rf = rf_result(index.splits.len(), sb_splits, shared_splits);

    // Triplet distance over range-min LCA depths.
    let triplet = if triplets {
        if n < 3 {
            return Err(B::Error::from(CompareError::TooFewLeaves(3)));
        }
        let rmq_a = index
            .adj
            .as_ref()
            .expect("index built with depths when triplets are requested");
        let rmq_b = Rmq::new(&b_adj);
        let da = |i: u32, j: u32| rmq_a.min(i as usize, j as usize - 1);
        let db = |i: u32, j: u32| {
            let (lo, hi) = if perm[i as usize] < perm[j as usize] {
                (perm[i as usize], perm[j as usize])
            } else {
                (perm[j as usize], perm[i as usize])
            };
            rmq_b.min(lo as usize, hi as usize - 1)
        };
        let topology = |dxy: u32, dxz: u32, dyz: u32| -> u8 {
            if dxy > dxz && dxy > dyz {
                0
            } else if dxz > dxy && dxz > dyz {
                1
            } else if dyz > dxy && dyz > dxz {
                2
            } else {
                3
            }
        };
        let mut differing = 0usize;
        let mut total = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                for k in (j + 1)..n {
                    let ta = topology(da(i, j), da(i, k), da(j, k));
                    let tb = topology(db(i, j), db(i, k), db(j, k));
                    if ta != tb {
                        differing += 1;
                    }
                    total += 1;
                }
            }
        }
        Some(differing as f64 / total as f64)
    } else {
        None
    };

    Ok(SourceComparison {
        rf,
        rooted_rf,
        triplet,
        clades: agreement,
    })
}

/// Unrooted Robinson–Foulds over two [`CladeSource`]s.
pub fn robinson_foulds_sources<A, B, E>(a: &A, b: &B) -> Result<RfResult, E>
where
    A: CladeSource,
    B: CladeSource,
    E: From<A::Error> + From<B::Error> + From<CompareError>,
{
    compare_sources(a, b, false).map(|c: SourceComparison| c.rf)
}

/// Triplet distance over two [`CladeSource`]s.
pub fn triplet_distance_sources<A, B, E>(a: &A, b: &B) -> Result<f64, E>
where
    A: CladeSource,
    B: CladeSource,
    E: From<A::Error> + From<B::Error> + From<CompareError>,
{
    compare_sources(a, b, true).map(|c: SourceComparison| {
        c.triplet
            .expect("triplets were requested from compare_sources")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo::builder::figure1_tree;
    use phylo::newick;

    fn t(s: &str) -> Tree {
        newick::parse(s).unwrap()
    }

    #[test]
    fn identical_trees_have_zero_distance() {
        let a = figure1_tree();
        let rf = robinson_foulds(&a, &a.clone()).unwrap();
        assert_eq!(rf.distance, 0);
        assert_eq!(rf.normalized, 0.0);
        assert_eq!(rf.shared, rf.max_distance / 2);
        let rrf = rooted_robinson_foulds(&a, &a.clone()).unwrap();
        assert_eq!(rrf.distance, 0);
        assert_eq!(triplet_distance(&a, &a.clone()).unwrap(), 0.0);
    }

    #[test]
    fn different_orderings_are_identical() {
        let a = t("((A,B),(C,D));");
        let b = t("((D,C),(B,A));");
        assert_eq!(robinson_foulds(&a, &b).unwrap().distance, 0);
        assert_eq!(rooted_robinson_foulds(&a, &b).unwrap().distance, 0);
    }

    #[test]
    fn maximally_different_quartets() {
        let a = t("((A,B),(C,D));");
        let b = t("((A,C),(B,D));");
        let rf = robinson_foulds(&a, &b).unwrap();
        // Each tree has exactly one non-trivial split and they differ.
        assert_eq!(rf.distance, 2);
        assert_eq!(rf.max_distance, 2);
        assert_eq!(rf.normalized, 1.0);
        assert_eq!(rf.shared, 0);
    }

    #[test]
    fn star_tree_versus_resolved() {
        let star = t("(A,B,C,D);");
        let resolved = t("((A,B),(C,D));");
        let rf = robinson_foulds(&star, &resolved).unwrap();
        // The star has no internal splits; distance = 1 (the resolved split),
        // max = 1.
        assert_eq!(rf.distance, 1);
        assert_eq!(rf.max_distance, 1);
    }

    #[test]
    fn rooted_vs_unrooted_difference() {
        // Two rootings of the same unrooted tree: unrooted RF is 0, rooted RF
        // is not.
        let a = t("((A,B),(C,D));");
        let b = t("(A,(B,(C,D)));");
        assert_eq!(robinson_foulds(&a, &b).unwrap().distance, 0);
        assert!(rooted_robinson_foulds(&a, &b).unwrap().distance > 0);
    }

    #[test]
    fn leaf_set_mismatch_detected() {
        let a = t("((A,B),C);");
        let b = t("((A,B),D);");
        match robinson_foulds(&a, &b) {
            Err(CompareError::LeafSetMismatch {
                only_in_a,
                only_in_b,
            }) => {
                assert_eq!(only_in_a, vec!["C"]);
                assert_eq!(only_in_b, vec!["D"]);
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn unnamed_leaves_rejected() {
        let mut a = Tree::new();
        let r = a.add_node();
        a.add_child(r, None, None).unwrap();
        a.add_child(r, Some("X".into()), None).unwrap();
        assert!(matches!(
            robinson_foulds(&a, &a.clone()),
            Err(CompareError::BadLeaves(_))
        ));
    }

    #[test]
    fn tiny_trees_distance_zero() {
        let a = t("(A,B);");
        let b = t("(B,A);");
        let rf = robinson_foulds(&a, &b).unwrap();
        assert_eq!(rf.distance, 0);
        assert_eq!(rf.max_distance, 0);
    }

    #[test]
    fn triplet_distance_detects_swap() {
        let a = t("((A,B),C);");
        let b = t("((A,C),B);");
        let d = triplet_distance(&a, &b).unwrap();
        assert!(
            (d - 1.0).abs() < 1e-12,
            "single triplet fully differs, got {d}"
        );
        let c = t("(A,B,C);"); // unresolved
        let d2 = triplet_distance(&a, &c).unwrap();
        assert!((d2 - 1.0).abs() < 1e-12);
        assert!(triplet_distance(&a, &t("(A,B);")).is_err());
    }

    #[test]
    fn triplet_distance_partial() {
        // 5-leaf trees differing in one clade: some triplets agree, some not.
        let a = t("(((A,B),C),(D,E));");
        let b = t("(((A,C),B),(D,E));");
        let d = triplet_distance(&a, &b).unwrap();
        assert!(d > 0.0 && d < 1.0, "expected partial disagreement, got {d}");
    }

    #[test]
    fn majority_consensus_of_identical_trees_is_that_tree() {
        let a = t("((A,B),(C,D));");
        let cons = majority_consensus(&[a.clone(), a.clone(), a.clone()]).unwrap();
        assert_eq!(robinson_foulds(&a, &cons).unwrap().distance, 0);
        assert_eq!(rooted_robinson_foulds(&a, &cons).unwrap().distance, 0);
    }

    #[test]
    fn majority_consensus_keeps_only_majority_clades() {
        // Clade {A,B} appears in 2 of 3 trees; clade {C,D} in 2 of 3; the
        // conflicting clade {B,C} appears once and must be dropped.
        let t1 = t("((A,B),(C,D));");
        let t2 = t("((A,B),(C,D));");
        let t3 = t("(((B,C),A),D);");
        let cons = majority_consensus(&[t1.clone(), t2, t3]).unwrap();
        assert_eq!(rooted_robinson_foulds(&t1, &cons).unwrap().distance, 0);
    }

    #[test]
    fn majority_consensus_collapses_total_conflict() {
        // Three trees with three mutually incompatible resolutions: the
        // consensus is the star tree (no internal clades).
        let t1 = t("((A,B),C,D);");
        let t2 = t("((A,C),B,D);");
        let t3 = t("((A,D),B,C);");
        let cons = majority_consensus(&[t1, t2, t3]).unwrap();
        // Star: root plus 4 leaves.
        assert_eq!(cons.node_count(), 5);
        assert_eq!(cons.degree(cons.root_unchecked()), 4);
    }

    #[test]
    fn majority_consensus_errors() {
        assert!(majority_consensus(&[]).is_err());
        let a = t("((A,B),C);");
        let b = t("((A,B),D);");
        assert!(majority_consensus(&[a, b]).is_err());
    }

    /// Cross-validate the streaming source path against the bitset path on
    /// a pair of trees over the same leaf set.
    fn assert_sources_match(a: &Tree, b: &Tree) {
        let cmp: SourceComparison =
            compare_sources::<_, _, CompareError>(a, b, a.leaf_count() >= 3).unwrap();
        let rf = robinson_foulds(a, b).unwrap();
        assert_eq!(cmp.rf, rf, "unrooted RF disagrees");
        let rrf = rooted_robinson_foulds(a, b).unwrap();
        assert_eq!(cmp.rooted_rf, rrf, "rooted RF disagrees");
        if a.leaf_count() >= 3 {
            let t = triplet_distance(a, b).unwrap();
            let ts = cmp.triplet.expect("triplets requested");
            assert!(
                (t - ts).abs() < 1e-15,
                "triplet distance disagrees: {t} vs {ts}"
            );
        }
    }

    #[test]
    fn sources_match_bitset_path_on_fixtures() {
        let fixtures = [
            ("((A,B),(C,D));", "((A,B),(C,D));"),
            ("((A,B),(C,D));", "((A,C),(B,D));"),
            ("(A,B,C,D);", "((A,B),(C,D));"),
            ("((A,B),(C,D));", "(A,(B,(C,D)));"),
            ("(((A,B),C),(D,E));", "(((A,C),B),(D,E));"),
            ("((A,B),C);", "((A,C),B);"),
            ("(A,B,C);", "((A,B),C);"),
            ("(A,B);", "(B,A);"),
            (
                "((((A,B),C),D),(E,(F,(G,H))));",
                "((A,(B,(C,D))),((E,F),(G,H)));",
            ),
            // Multifurcations and asymmetric shapes.
            ("((A,B,C),(D,E),F);", "(((A,D),B),((C,E),F));"),
        ];
        for (na, nb) in fixtures {
            let a = t(na);
            let b = t(nb);
            assert_sources_match(&a, &b);
            assert_sources_match(&b, &a);
        }
        let fig = figure1_tree();
        assert_sources_match(&fig, &fig.clone());
    }

    #[test]
    fn sources_match_on_pseudorandom_trees() {
        // Deterministic pseudo-random binary trees over the same leaf set,
        // grown by splitting a leaf chosen by a linear-congruential walk.
        fn random_tree(n: usize, mut state: u64) -> Tree {
            let mut tree = Tree::new();
            let root = tree.add_node();
            let mut leaves = vec![root];
            while leaves.len() < n {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let pick = (state >> 33) as usize % leaves.len();
                let leaf = leaves.swap_remove(pick);
                let l = tree.add_child(leaf, None, Some(1.0)).unwrap();
                let r = tree.add_child(leaf, None, Some(1.0)).unwrap();
                leaves.push(l);
                leaves.push(r);
            }
            for (i, &leaf) in leaves.iter().enumerate() {
                tree.set_name(leaf, format!("T{i}")).unwrap();
            }
            tree
        }
        for (n, sa, sb) in [(4usize, 1u64, 2u64), (7, 3, 4), (12, 5, 6), (33, 7, 8)] {
            let a = random_tree(n, sa);
            let b = random_tree(n, sb);
            assert_sources_match(&a, &b);
            assert_sources_match(&a, &a.clone());
        }
    }

    #[test]
    fn sources_report_leaf_errors_like_the_bitset_path() {
        let a = t("((A,B),C);");
        let b = t("((A,B),D);");
        match robinson_foulds_sources::<_, _, CompareError>(&a, &b) {
            Err(CompareError::LeafSetMismatch {
                only_in_a,
                only_in_b,
            }) => {
                assert_eq!(only_in_a, vec!["C"]);
                assert_eq!(only_in_b, vec!["D"]);
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
        let mut unnamed = Tree::new();
        let r = unnamed.add_node();
        unnamed.add_child(r, None, None).unwrap();
        unnamed.add_child(r, Some("X".into()), None).unwrap();
        assert!(matches!(
            robinson_foulds_sources::<_, _, CompareError>(&unnamed, &unnamed.clone()),
            Err(CompareError::BadLeaves(_))
        ));
        // Triplets on two leaves fail exactly like `triplet_distance`.
        let two = t("(A,B);");
        assert!(matches!(
            triplet_distance_sources::<_, _, CompareError>(&two, &t("(B,A);")),
            Err(CompareError::TooFewLeaves(3))
        ));
    }

    #[test]
    fn clade_agreement_flags_the_broken_clade() {
        let a = t("(((A,B),C),(D,E));");
        let b = t("(((A,C),B),(D,E));");
        let cmp: SourceComparison = compare_sources::<_, _, CompareError>(&a, &b, false).unwrap();
        // b's internal clades: {A,C} (wrong), {A,B,C} (right), {D,E}
        // (right); the root is trivial and excluded.
        let mut by_size: Vec<(u32, bool)> = cmp.clades.iter().map(|c| (c.size, c.agrees)).collect();
        by_size.sort();
        assert_eq!(by_size, vec![(2, false), (2, true), (3, true)]);
        // Identical trees agree everywhere.
        let same: SourceComparison =
            compare_sources::<_, _, CompareError>(&a, &a.clone(), false).unwrap();
        assert!(same.clades.iter().all(|c| c.agrees));
    }

    #[test]
    fn rooted_sources_respect_unary_dedup() {
        // A unary chain repeats the same clade; the bitset path collapses it
        // through its HashSet, the streaming path through interval dedup.
        // Both directions matter: as the second source, the unary wrapper of
        // a bifurcating root's child carries the root split under a second
        // interval key and must still count once (the complement-partner
        // rule, not positional root-child detection).
        let a = t("(((A,B)),(C,D));"); // ((A,B)) is a unary wrapper
        let b = t("((A,B),(C,D));");
        assert_sources_match(&a, &b);
        assert_sources_match(&b, &a);
        assert_sources_match(&a, &a.clone());
        // Unary wrapper on the side NOT containing the anchor leaf, and a
        // unary root above the bifurcation.
        let c = t("((A,B),((C,D)));");
        assert_sources_match(&b, &c);
        assert_sources_match(&c, &b);
        let d = t("(((A,B),(C,D)));");
        assert_sources_match(&b, &d);
        assert_sources_match(&d, &b);
        // Larger complement-pair case: prefix/suffix clades deep under a
        // bifurcating root with extra structure on both sides.
        let e = t("((((A,B)),C),((D,E),F));");
        let f = t("(((A,B),C),((D,(E,F))));");
        assert_sources_match(&e, &f);
        assert_sources_match(&f, &e);
    }

    #[test]
    fn figure2_pattern_matches_projection_claim() {
        // The paper's pattern-match example, cast in RF terms: the Fig. 2
        // pattern has distance 0 to the projection of Fig. 1 over its leaves,
        // while the Bha/Lla-swapped pattern does not differ topologically
        // (they are siblings) — the difference shows up in branch lengths,
        // which RF ignores by design.
        let gold = figure1_tree();
        let projection = phylo::ops::project_by_names(&gold, &["Bha", "Lla", "Syn"]).unwrap();
        let pattern = t("((Bha:0.75,Lla:1.5):1.5,Syn:2.5);");
        assert_eq!(robinson_foulds(&projection, &pattern).unwrap().distance, 0);
    }
}
