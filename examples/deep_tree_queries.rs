//! Why hierarchical Dewey labels matter: structure queries on trees far
//! deeper than any XML document.
//!
//! The paper's motivation (§1): simulation phylogenies have average depth
//! above 1000 while web XML averages depth 4. This example builds trees of
//! increasing depth, compares label sizes across schemes, and times LCA
//! queries both in memory and through the disk-backed repository.
//!
//! ```bash
//! cargo run --release --example deep_tree_queries
//! ```

use crimson::prelude::*;
use labeling::prelude::*;
use phylo::builder::caterpillar;
use phylo::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:<10} {:<22} {:>14} {:>14} {:>12}",
        "depth", "scheme", "max label B", "mean label B", "1k LCAs ms"
    );
    for depth in [1_000usize, 5_000, 10_000] {
        let tree = caterpillar(depth, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let n = tree.node_count() as u32;
        let pairs: Vec<(NodeId, NodeId)> = (0..1_000)
            .map(|_| (NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n))))
            .collect();

        let flat = FlatDewey::build(&tree);
        let hier = HierarchicalDewey::build(&tree, 16);
        let parent = ParentPointers::build(&tree);
        let schemes: Vec<(&str, &dyn LcaScheme)> = vec![
            ("flat-dewey", &flat),
            ("hierarchical (f=16)", &hier),
            ("parent-pointer", &parent),
        ];

        for (name, scheme) in schemes {
            let stats = scheme.stats();
            let start = Instant::now();
            let mut checksum = 0u64;
            for &(a, b) in &pairs {
                checksum = checksum.wrapping_add(scheme.lca(a, b).0 as u64);
            }
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            println!(
                "{:<10} {:<22} {:>14} {:>14.1} {:>12.2}   (checksum {checksum})",
                depth, name, stats.max_bytes, stats.mean_bytes, elapsed
            );
        }
    }

    // The same queries through the disk-backed repository.
    println!("\nDisk-backed repository (depth 10 000 caterpillar):");
    let tree = caterpillar(10_000, 1.0);
    let dir = tempfile_dir()?;
    let mut repo = Repository::create(
        dir.join("deep.crimson"),
        RepositoryOptions {
            buffer_pool_pages: 4096,
            ..Default::default()
        },
    )?;
    let start = Instant::now();
    let handle = repo.load_tree("deep", &tree)?;
    println!(
        "  load: {:.1} ms for {} nodes",
        start.elapsed().as_secs_f64() * 1e3,
        tree.node_count()
    );

    let leaves = repo.view().leaves(handle)?;
    let mut rng = StdRng::seed_from_u64(3);
    let start = Instant::now();
    let mut max_depth = 0;
    for _ in 0..1_000 {
        let a = leaves[rng.gen_range(0..leaves.len())];
        let b = leaves[rng.gen_range(0..leaves.len())];
        let lca = repo.view().node_record(repo.view().lca(a, b)?)?;
        max_depth = max_depth.max(lca.depth);
    }
    println!(
        "  1000 stored LCA queries (range minimum over the depth column): {:.1} ms \
         (deepest LCA at depth {max_depth})",
        start.elapsed().as_secs_f64() * 1e3
    );
    println!("  buffer pool: {:?}", repo.buffer_stats());
    Ok(())
}

fn tempfile_dir() -> std::io::Result<std::path::PathBuf> {
    let dir = std::env::temp_dir().join("crimson-deep-tree");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("run");
    let _ = std::fs::remove_dir_all(&path);
    std::fs::create_dir_all(&path)?;
    Ok(path)
}
