//! Quickstart: load the paper's Figure 1 tree, run the worked examples from
//! the paper (projection, LCA, time-respecting sampling, pattern match) and
//! print the results.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use crimson::prelude::*;
use phylo::render;

const FIG1_NEWICK: &str = "((Bha:0.75,(Lla:1.0,Spy:1.0):0.5):1.5,Syn:2.5,Bsu:1.25);";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("crimson-quickstart");
    std::fs::create_dir_all(&dir)?;
    let db_path = dir.join("quickstart.crimson");
    let _ = std::fs::remove_file(&db_path);

    // 1. Create a repository and load the Figure 1 tree from Newick.
    let mut repo = Repository::create(
        &db_path,
        RepositoryOptions {
            frame_depth: 2,
            buffer_pool_pages: 256,
            ..Default::default()
        },
    )?;
    let report = repo.load_newick("figure1", FIG1_NEWICK)?;
    let handle = report.handle;
    println!("== Loaded ==");
    for message in &report.messages {
        println!("  {message}");
    }

    // 2. Show the tree as an ASCII dendrogram (the Walrus stand-in).
    let full = repo.view().project(handle, &repo.view().leaves(handle)?)?;
    println!("\n== Figure 1 tree ==\n{}", render::ascii(&full));

    // 3. The paper's Figure 2: project onto {Bha, Lla, Syn}.
    let projection = repo
        .view()
        .project_species(handle, &["Bha", "Lla", "Syn"])?;
    println!(
        "== Projection onto {{Bha, Lla, Syn}} (Figure 2) ==\n{}",
        render::ascii(&projection)
    );

    // 4. The §2.1 worked example: LCA of Lla and Syn via the stored labels.
    let lla = repo.view().require_species_node(handle, "Lla")?;
    let syn = repo.view().require_species_node(handle, "Syn")?;
    let lca = repo.view().node_record(repo.view().lca(lla, syn)?)?;
    println!(
        "== LCA(Lla, Syn) == depth {} at evolutionary time {:.2} (the root)\n",
        lca.depth, lca.root_distance
    );

    // 5. The §2.2 worked example: sample 4 species with respect to time 1.
    let sample = repo.view().sample_by_time(handle, 1.0, 4, 7)?;
    let names = repo.view().names_of(&sample)?;
    println!("== Time-respecting sample (t = 1, k = 4) == {names:?}");

    // 6. Tree pattern match: Figure 2 as a pattern matches; a weight-swapped
    //    pattern does not.
    let pattern = phylo::newick::parse("((Bha:0.75,Lla:1.5):1.5,Syn:2.5);")?;
    let result = repo.view().pattern_match(handle, &pattern)?;
    println!(
        "\n== Pattern match == Figure 2 pattern: exact topology = {}, exact with lengths = {}",
        result.exact_topology, result.exact_with_lengths
    );
    let swapped = phylo::newick::parse("((Lla:0.75,Bha:1.5):1.5,Syn:2.5);")?;
    let result = repo.view().pattern_match(handle, &swapped)?;
    println!(
        "   swapped Bha/Lla pattern: exact topology = {}, exact with lengths = {}",
        result.exact_topology, result.exact_with_lengths
    );

    // 7. The query history recorded everything we just did.
    println!("\n== Query history ==");
    for entry in repo.view().query_history()? {
        println!("  #{} [{:?}] {}", entry.id, entry.kind, entry.summary);
    }

    repo.flush()?;
    println!("\nRepository stored at {}", db_path.display());
    Ok(())
}
