//! A tour of the Repository Manager: the three load modes from §3 of the
//! paper (tree only, tree with species data, append species data), NEXUS
//! export, and query-history recall.
//!
//! ```bash
//! cargo run --release --example repository_tour
//! ```

use crimson::prelude::*;
use simulation::gold::GoldStandardBuilder;
use simulation::seqevo::Model;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("crimson-tour");
    std::fs::create_dir_all(&dir)?;
    let db_path = dir.join("tour.crimson");
    let _ = std::fs::remove_file(&db_path);

    // A small gold standard exported to NEXUS — our stand-in for a CIPRes
    // curated data set arriving as a file.
    let gold = GoldStandardBuilder::new()
        .leaves(64)
        .sequence_length(120)
        .model(Model::Hky85 {
            rate: 0.2,
            kappa: 2.5,
            freqs: [0.3, 0.2, 0.2, 0.3],
        })
        .seed(7)
        .build()?;
    let nexus_path = dir.join("gold.nex");
    std::fs::write(&nexus_path, phylo::nexus::write(&gold.to_nexus()))?;
    println!(
        "wrote {} ({} bytes)",
        nexus_path.display(),
        std::fs::metadata(&nexus_path)?.len()
    );

    let mut repo = Repository::create(&db_path, RepositoryOptions::default())?;
    let nexus_text = std::fs::read_to_string(&nexus_path)?;

    // Mode 1: tree structure only.
    let report = repo.load_nexus_text("tour_tree", &nexus_text, LoadMode::TreeOnly)?;
    println!("\n[TreeOnly]");
    for m in &report.messages {
        println!("  {m}");
    }
    println!(
        "  species stored: {}",
        repo.view().species_count(report.handle)?
    );

    // Mode 2: append species data to the existing tree.
    let report = repo.load_nexus_text("tour_tree", &nexus_text, LoadMode::AppendSpecies)?;
    println!("[AppendSpecies]");
    for m in &report.messages {
        println!("  {m}");
    }
    println!(
        "  species stored: {}",
        repo.view().species_count(report.handle)?
    );

    // Mode 3: a second tree loaded with species in one step.
    let report = repo.load_nexus_text("tour_tree_full", &nexus_text, LoadMode::TreeWithSpecies)?;
    println!("[TreeWithSpecies]");
    for m in &report.messages {
        println!("  {m}");
    }

    // The repository catalog.
    println!("\nLoaded trees:");
    for tree in repo.view().list_trees()? {
        println!(
            "  `{}` — {} nodes, {} taxa, frame depth {}",
            tree.name, tree.node_count, tree.leaf_count, tree.frame_depth
        );
    }

    // Run a couple of queries so the history has content.
    let handle = repo.view().tree_by_name("tour_tree")?.handle;
    let sample = repo.view().sample_uniform(handle, 8, 11)?;
    let projection = repo.view().project(handle, &sample)?;
    println!(
        "\nprojected an 8-species sample: {} nodes\n{}",
        projection.node_count(),
        phylo::render::ascii(&projection)
    );

    // Export back to NEXUS (the §3 "view as NEXUS" path).
    let exported = repo.export_nexus("tour_tree")?;
    let out_path = dir.join("exported.nex");
    std::fs::write(&out_path, phylo::nexus::write(&exported))?;
    println!("exported repository contents to {}", out_path.display());

    // Query-history recall, the Query Repository in action.
    println!("\nQuery history:");
    for entry in repo.view().query_history()? {
        println!("  #{:<3} {:<14?} {}", entry.id, entry.kind, entry.summary);
    }

    repo.flush()?;
    Ok(())
}
