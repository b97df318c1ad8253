//! Answer checks. Each reply is compared with an answer computed from the
//! generated tree in memory, never with another answer of the program.

use std::collections::HashSet;

use crimson_server::msg::Response;
use phylo::{NodeId, Tree};

use crate::inputs::{Op, ServedTree};

/// `None` when `resp` is the right answer to `op` on stored tree `tree`,
/// otherwise a description of the mismatch.
pub fn check(served: &ServedTree, tree: u64, op: &Op, resp: &Response) -> Option<String> {
    let sid = |n: u32| (tree << 32) | n as u64;
    let t = &served.tree;
    let ok = match (op, resp) {
        (Op::Lca(a, b), Response::Node(got)) => *got == sid(t.lca(NodeId(*a), NodeId(*b)).0),
        (Op::IsAncestor(a, n), Response::Flag(got)) => {
            let (lo, hi) = served.labels.interval(NodeId(*a));
            let (pre, _) = served.labels.interval(NodeId(*n));
            *got == (lo <= pre && pre <= hi)
        }
        (Op::Clade(nodes), Response::Nodes(got)) => {
            let lca = nodes[1..]
                .iter()
                .fold(NodeId(nodes[0]), |acc, &n| t.lca(acc, NodeId(n)));
            let mut want = Vec::new();
            let mut stack = vec![lca];
            while let Some(n) = stack.pop() {
                want.push(sid(n.0));
                stack.extend_from_slice(t.children(n));
            }
            let mut got_sorted = got.clone();
            want.sort_unstable();
            got_sorted.sort_unstable();
            got.first() == Some(&sid(lca.0)) && got_sorted == want
        }
        (Op::Sample { k, .. }, Response::Nodes(got)) => {
            let distinct: HashSet<u64> = got.iter().copied().collect();
            distinct.len() == *k as usize
                && got.iter().all(|&g| {
                    g >> 32 == tree
                        && (g & 0xFFFF_FFFF) < t.node_count() as u64
                        && t.is_leaf(NodeId(g as u32))
                })
        }
        (Op::Project(leaves), Response::Newick(text)) => project_matches(t, leaves, text),
        _ => false,
    };
    (!ok).then(|| format!("{} answered {resp:?}", op.kind()))
}

/// A projection is right when its leaf set is the requested one and it has
/// the topology of the in-memory projection (Robinson–Foulds distance 0).
fn project_matches(t: &Tree, leaves: &[u32], text: &str) -> bool {
    let Ok(got) = phylo::newick::parse(text) else {
        return false;
    };
    let mut want_names: Vec<String> = leaves
        .iter()
        .filter_map(|&l| t.name(NodeId(l)).map(str::to_string))
        .collect();
    let mut got_names = got.leaf_names();
    want_names.sort();
    got_names.sort();
    if want_names != got_names {
        return false;
    }
    let ids: Vec<NodeId> = leaves.iter().map(|&l| NodeId(l)).collect();
    match phylo::ops::project(t, &ids) {
        Ok(want) => reconstruction::robinson_foulds(&want, &got)
            .map(|rf| rf.distance == 0)
            .unwrap_or(false),
        Err(_) => false,
    }
}
