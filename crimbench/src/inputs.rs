//! Workload shapes and the inputs generated from a seed.
//!
//! Everything here is built before any timer starts; the program under
//! test only ever sees the generated Newick text and requests.

use crimson_server::msg::{Request, WireExperimentSpec, WireMethod, WireStrategy};
use labeling::IntervalLabels;
use phylo::{NodeId, Tree};
use simulation::birth_death::yule_tree;
use simulation::gold::{GoldStandard, GoldStandardBuilder};
use simulation::seqevo::Model;

use crate::util::Rng;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServedPointHot,
    ServedStructureCold,
    IngestSweep,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "served_point_hot" => Workload::ServedPointHot,
            "served_structure_cold" => Workload::ServedStructureCold,
            "ingest_sweep" => Workload::IngestSweep,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServedPointHot => "served_point_hot",
            Workload::ServedStructureCold => "served_structure_cold",
            Workload::IngestSweep => "ingest_sweep",
        }
    }
}

/// Relative weights of the read kinds in a stream.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub lca: u32,
    pub is_ancestor: u32,
    pub clade: u32,
    pub sample: u32,
    pub project: u32,
    /// `k` of the `SampleUniform` reads.
    pub sample_k: u32,
    /// Leaves per `Project` read.
    pub project_leaves: usize,
}

/// The sweep each `RunExperiment` call asks for.
#[derive(Debug, Clone, Copy)]
pub struct SweepShape {
    pub ks: [u32; 2],
    pub replicates: u32,
}

impl SweepShape {
    /// Grid cells per sweep: two methods × two sample sizes × replicates.
    pub fn cells(&self) -> u64 {
        2 * 2 * self.replicates as u64
    }
}

/// Everything that sizes one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub workload: Workload,
    /// Leaves of the served (gold) tree.
    pub leaves: usize,
    /// Sites per sequence of the gold standard; 0 loads a bare tree over
    /// the wire instead of a gold standard in-process.
    pub gold_sites: usize,
    /// Buffer-pool pages of the tenant.
    pub pool_pages: usize,
    /// Dispatch worker threads.
    pub workers: usize,
    /// Requests the reading connection keeps in flight.
    pub depth: usize,
    /// Length of one timed slice of the read window, in milliseconds; the
    /// read metrics are medians over slices.
    pub slice_ms: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    pub mix: Mix,
    /// Distinct requests in the read stream (replayed cyclically).
    pub stream_len: usize,
    /// Leaves of each tree the writer loads.
    pub load_leaves: usize,
    /// Trees the writer loads.
    pub loads: usize,
    /// A sweep follows every this many loads.
    pub sweep_every: usize,
    pub sweep: SweepShape,
    /// Whether the write schedule runs beside the reads (otherwise it
    /// follows the read window).
    pub writes_beside_reads: bool,
    /// Traced run: reads per ladder rung, probe reads per kind, and trees
    /// loaded.
    pub trace_reads: usize,
    pub trace_probe: usize,
    pub trace_loads: usize,
}

const POINT_MIX: Mix = Mix {
    lca: 35,
    is_ancestor: 35,
    clade: 30,
    sample: 0,
    project: 0,
    sample_k: 8,
    project_leaves: 0,
};

impl Shape {
    pub fn of(workload: Workload, seconds: u64) -> Shape {
        let sweep = SweepShape {
            ks: [32, 64],
            replicates: 2,
        };
        match workload {
            Workload::ServedPointHot => Shape {
                workload,
                leaves: 10_000,
                gold_sites: 0,
                pool_pages: 4096,
                workers: 2,
                depth: 16,
                slice_ms: 250,
                setups: 9,
                mix: POINT_MIX,
                stream_len: 1 << 16,
                load_leaves: 256,
                loads: 32,
                sweep_every: 4,
                sweep,
                writes_beside_reads: false,
                trace_reads: 20_000,
                trace_probe: 128,
                trace_loads: 12,
            },
            Workload::ServedStructureCold => Shape {
                workload,
                leaves: 20_000,
                gold_sites: 0,
                pool_pages: 256,
                workers: 2,
                depth: 4,
                slice_ms: 1000,
                setups: 5,
                mix: Mix {
                    lca: 15,
                    is_ancestor: 0,
                    clade: 0,
                    sample: 0,
                    project: 85,
                    sample_k: 64,
                    project_leaves: 64,
                },
                stream_len: 1 << 14,
                load_leaves: 256,
                loads: 32,
                sweep_every: 4,
                sweep,
                writes_beside_reads: false,
                trace_reads: 1_000,
                trace_probe: 16,
                trace_loads: 12,
            },
            Workload::IngestSweep => Shape {
                workload,
                leaves: 2_000,
                gold_sites: 500,
                pool_pages: 4096,
                workers: 2,
                depth: 16,
                slice_ms: 500,
                setups: 9,
                mix: POINT_MIX,
                stream_len: 1 << 16,
                load_leaves: 256,
                loads: (10 * seconds as usize).max(100),
                sweep_every: 10,
                sweep,
                writes_beside_reads: true,
                trace_reads: 20_000,
                trace_probe: 128,
                trace_loads: 24,
            },
        }
    }
}

/// One generated read, in arena ids of the generated tree.
#[derive(Debug, Clone)]
pub enum Op {
    Lca(u32, u32),
    IsAncestor(u32, u32),
    Clade(Vec<u32>),
    Sample { k: u32, seed: u64 },
    Project(Vec<u32>),
}

impl Op {
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Lca(..) => "lca",
            Op::IsAncestor(..) => "is_ancestor",
            Op::Clade(_) => "spanning_clade",
            Op::Sample { .. } => "sample",
            Op::Project(_) => "project",
        }
    }

    /// The wire request for this read against stored tree `tree`.
    pub fn request(&self, tree: u64) -> Request {
        let sid = |n: u32| (tree << 32) | n as u64;
        match self {
            Op::Lca(a, b) => Request::Lca {
                a: sid(*a),
                b: sid(*b),
            },
            Op::IsAncestor(a, n) => Request::IsAncestor {
                ancestor: sid(*a),
                node: sid(*n),
            },
            Op::Clade(nodes) => Request::SpanningClade {
                nodes: nodes.iter().map(|&n| sid(n)).collect(),
            },
            Op::Sample { k, seed } => Request::SampleUniform {
                tree,
                k: *k,
                seed: *seed,
            },
            Op::Project(leaves) => Request::Project {
                tree,
                leaves: leaves.iter().map(|&n| sid(n)).collect(),
            },
        }
    }
}

/// The served tree, its text, and the in-memory labels the oracle uses.
pub struct ServedTree {
    pub tree: Tree,
    pub newick: String,
    pub labels: IntervalLabels,
    /// Sequences of the gold standard (empty for a bare tree).
    pub gold: Option<GoldStandard>,
    pub leaves: Vec<u32>,
}

/// All inputs of one run.
pub struct Inputs {
    pub served: ServedTree,
    pub ops: Vec<Op>,
    /// Newick text of each tree the writer loads.
    pub loads: Vec<String>,
}

fn served_tree(shape: &Shape, seed: u64) -> ServedTree {
    let gold = (shape.gold_sites > 0).then(|| {
        GoldStandardBuilder::new()
            .leaves(shape.leaves)
            .sequence_length(shape.gold_sites)
            .model(Model::Jc69 { rate: 0.02 })
            .seed(seed)
            .build()
            .expect("gold standard parameters are valid")
    });
    let generated = match &gold {
        Some(g) => g.tree.clone(),
        None => yule_tree(shape.leaves, 1.0, seed),
    };
    let newick = phylo::newick::write(&generated);
    // A gold standard is stored from its own arena; a bare tree goes over
    // the wire and the server parses the same text. Either way the arena
    // ids of `tree` are the low halves of the stored node ids.
    let tree = match &gold {
        Some(g) => g.tree.clone(),
        None => phylo::newick::parse(&newick).expect("generated Newick parses"),
    };
    let labels = IntervalLabels::build(&tree);
    let leaves = tree.leaf_ids().map(|n| n.0).collect();
    ServedTree {
        tree,
        newick,
        labels,
        gold,
        leaves,
    }
}

/// A node near `leaf`: up to `up` parent steps above it.
fn ancestor_of(tree: &Tree, leaf: u32, up: usize) -> u32 {
    let mut node = NodeId(leaf);
    for _ in 0..up {
        match tree.parent(node) {
            Some(p) => node = p,
            None => break,
        }
    }
    node.0
}

/// Leaves of the subtree under `node`.
fn leaves_under(tree: &Tree, node: u32) -> Vec<u32> {
    let mut out = Vec::new();
    let mut stack = vec![NodeId(node)];
    while let Some(n) = stack.pop() {
        if tree.is_leaf(n) {
            out.push(n.0);
        }
        stack.extend_from_slice(tree.children(n));
    }
    out
}

pub fn gen_op(served: &ServedTree, mix: &Mix, rng: &mut Rng) -> Op {
    let tree = &served.tree;
    let leaves = &served.leaves;
    let total = mix.lca + mix.is_ancestor + mix.clade + mix.sample + mix.project;
    let mut pick = (rng.next_u64() % total as u64) as u32;
    let mut take = |w: u32| {
        if pick < w {
            true
        } else {
            pick -= w;
            false
        }
    };
    if take(mix.lca) {
        let ab = rng.distinct(leaves, 2);
        return Op::Lca(ab[0], ab[1]);
    }
    if take(mix.is_ancestor) {
        let node = leaves[rng.below(leaves.len())];
        // Half the probes ask about a true ancestor, half about any node.
        let anc = if rng.below(2) == 0 {
            ancestor_of(tree, node, 1 + rng.below(6))
        } else {
            rng.below(tree.node_count()) as u32
        };
        return Op::IsAncestor(anc, node);
    }
    if take(mix.clade) {
        // Three leaves of a small subtree, so the reply stays small.
        loop {
            let leaf = leaves[rng.below(leaves.len())];
            let under = leaves_under(tree, ancestor_of(tree, leaf, 3 + rng.below(3)));
            if (3..=64).contains(&under.len()) {
                return Op::Clade(rng.distinct(&under, 3));
            }
        }
    }
    if take(mix.sample) {
        return Op::Sample {
            k: mix.sample_k,
            seed: rng.next_u64(),
        };
    }
    Op::Project(rng.distinct(leaves, mix.project_leaves))
}

/// Generate every input of a run from `seed`.
pub fn generate(shape: &Shape, seed: u64) -> Inputs {
    let served = served_tree(shape, seed);
    let mut rng = Rng::new(seed);
    let ops = (0..shape.stream_len)
        .map(|_| gen_op(&served, &shape.mix, &mut rng))
        .collect();
    let loads = (0..shape.loads)
        .map(|i| {
            let t = yule_tree(
                shape.load_leaves,
                1.0,
                seed.wrapping_mul(1_000_003) + i as u64,
            );
            phylo::newick::write(&t)
        })
        .collect();
    Inputs { served, ops, loads }
}

/// The sweep spec of the `n`-th `RunExperiment` call.
pub fn sweep_spec(shape: &Shape, gold: &str, seed: u64, n: usize) -> WireExperimentSpec {
    WireExperimentSpec {
        name: format!("sweep-{n}"),
        gold: gold.to_string(),
        methods: vec![WireMethod::NeighborJoining, WireMethod::Upgma],
        strategies: shape
            .sweep
            .ks
            .iter()
            .map(|&k| WireStrategy::Uniform { k })
            .collect(),
        replicates: shape.sweep.replicates,
        seed: seed.wrapping_add(n as u64),
        workers: 1,
        compute_triplets: false,
    }
}
