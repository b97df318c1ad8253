//! The Data Loader (§3 "Loading Data").
//!
//! Users may load a phylogenetic tree with species data, load a tree
//! structure only, or append species data to an existing tree. Input can be
//! an in-memory [`phylo::Tree`], a Newick string or a NEXUS document; status
//! messages are collected in a [`LoadReport`] mirroring the progress messages
//! the Crimson GUI displays.

use crate::error::{CrimsonError, CrimsonResult};
use crate::history::QueryKind;
use crate::repository::{Repository, TreeHandle};
use phylo::nexus::NexusDocument;
use phylo::{newick, nexus};
use serde_json::json;
use std::collections::HashMap;

/// What to load from the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Load the tree structure only, ignoring any species data.
    TreeOnly,
    /// Load the tree structure and any species data present.
    TreeWithSpecies,
    /// Append species data to an already loaded tree (the input's tree
    /// block, if any, is ignored).
    AppendSpecies,
}

/// Outcome of a load operation.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The tree the data went into.
    pub handle: TreeHandle,
    /// Number of tree nodes stored by this operation (0 for appends).
    pub nodes_loaded: usize,
    /// Number of species sequences stored by this operation.
    pub species_loaded: usize,
    /// Human-readable status messages, in order.
    pub messages: Vec<String>,
}

/// Human-readable load throughput for the status messages: the GUI-style
/// progress line now carries the bulk path's rows/sec.
fn throughput(rows: usize, elapsed: std::time::Duration) -> String {
    let secs = elapsed.as_secs_f64().max(1e-9);
    format!("{:.0} rows/s", rows as f64 / secs)
}

impl Repository {
    /// Load a Newick string as a new tree (structure only — Newick carries no
    /// sequences). The load and its Query-Repository history entry are one
    /// atomic transaction: after a crash either both are visible or neither.
    pub fn load_newick(&mut self, name: &str, text: &str) -> CrimsonResult<LoadReport> {
        let tree = newick::parse(text).map_err(phylo::PhyloError::from)?;
        let node_count = tree.node_count();
        self.with_txn(|repo| {
            let start = std::time::Instant::now();
            let handle = repo.load_tree(name, &tree)?;
            let report = LoadReport {
                handle,
                nodes_loaded: node_count,
                species_loaded: 0,
                messages: vec![format!(
                    "loaded tree `{name}` with {node_count} nodes from Newick ({})",
                    throughput(node_count, start.elapsed())
                )],
            };
            repo.record_load(name, &report)?;
            Ok(report)
        })
    }

    /// Load a NEXUS document according to `mode`.
    ///
    /// * [`LoadMode::TreeOnly`] — stores the first tree in the document.
    /// * [`LoadMode::TreeWithSpecies`] — stores the first tree and every
    ///   sequence from the DATA/CHARACTERS block.
    /// * [`LoadMode::AppendSpecies`] — appends the document's sequences to
    ///   the existing tree `name`.
    pub fn load_nexus(
        &mut self,
        name: &str,
        doc: &NexusDocument,
        mode: LoadMode,
    ) -> CrimsonResult<LoadReport> {
        match mode {
            LoadMode::TreeOnly | LoadMode::TreeWithSpecies => {
                let named = doc.trees.first().ok_or_else(|| {
                    CrimsonError::Phylo(phylo::PhyloError::Parse(phylo::ParseError::new(
                        0,
                        1,
                        "NEXUS document contains no TREES block",
                    )))
                })?;
                let node_count = named.tree.node_count();
                // The whole load — tree, species, history entry — is one
                // atomic transaction.
                self.with_txn(|repo| {
                    let mut messages = Vec::new();
                    let start = std::time::Instant::now();
                    let handle = repo.load_tree(name, &named.tree)?;
                    messages.push(format!(
                        "loaded tree `{}` ({} nodes, {} leaves) from NEXUS tree `{}` ({})",
                        name,
                        node_count,
                        named.tree.leaf_count(),
                        named.name,
                        throughput(node_count, start.elapsed())
                    ));
                    let mut species_loaded = 0;
                    if mode == LoadMode::TreeWithSpecies && !doc.sequences.is_empty() {
                        species_loaded = repo.load_species(handle, &doc.sequences)?;
                        messages.push(format!("loaded {species_loaded} species sequences"));
                    }
                    let report = LoadReport {
                        handle,
                        nodes_loaded: node_count,
                        species_loaded,
                        messages,
                    };
                    repo.record_load(name, &report)?;
                    Ok(report)
                })
            }
            LoadMode::AppendSpecies => {
                let record = self.view().tree_by_name(name)?;
                if doc.sequences.is_empty() {
                    return Err(CrimsonError::MissingSequences(name.to_string()));
                }
                self.with_txn(|repo| {
                    let species_loaded = repo.load_species(record.handle, &doc.sequences)?;
                    let report = LoadReport {
                        handle: record.handle,
                        nodes_loaded: 0,
                        species_loaded,
                        messages: vec![format!(
                            "appended {species_loaded} species sequences to tree `{name}`"
                        )],
                    };
                    repo.record_load(name, &report)?;
                    Ok(report)
                })
            }
        }
    }

    /// Load many Newick trees, one transaction per tree. Each per-tree
    /// commit rides the storage engine's group-commit path; under
    /// [`crate::Durability::Async`] the commits return at log-append time
    /// and the single [`Repository::sync`] at the end forces the one group
    /// fsync covering the whole batch — the bulk-load configuration the
    /// writer-throughput bench measures.
    pub fn load_newick_batch(
        &mut self,
        items: &[(String, String)],
    ) -> CrimsonResult<Vec<LoadReport>> {
        let mut reports = Vec::with_capacity(items.len());
        for (name, text) in items {
            reports.push(self.load_newick(name, text)?);
        }
        self.sync()?;
        Ok(reports)
    }

    /// Parse NEXUS text and load it (convenience wrapper over
    /// [`Repository::load_nexus`]).
    pub fn load_nexus_text(
        &mut self,
        name: &str,
        text: &str,
        mode: LoadMode,
    ) -> CrimsonResult<LoadReport> {
        let doc = nexus::parse(text).map_err(phylo::PhyloError::from)?;
        self.load_nexus(name, &doc, mode)
    }

    /// Append raw species sequences to an existing tree (atomically, with
    /// the history entry).
    pub fn append_species(
        &mut self,
        name: &str,
        sequences: &HashMap<String, String>,
    ) -> CrimsonResult<LoadReport> {
        let record = self.view().tree_by_name(name)?;
        self.with_txn(|repo| {
            let species_loaded = repo.load_species(record.handle, sequences)?;
            let report = LoadReport {
                handle: record.handle,
                nodes_loaded: 0,
                species_loaded,
                messages: vec![format!(
                    "appended {species_loaded} species sequences to `{name}`"
                )],
            };
            repo.record_load(name, &report)?;
            Ok(report)
        })
    }

    /// Export a stored tree (and its species data) back to a NEXUS document —
    /// the "view results as NEXUS files" output path of §3.
    pub fn export_nexus(&self, name: &str) -> CrimsonResult<NexusDocument> {
        let view = self.view();
        let record = view.tree_by_name(name)?;
        let leaves = view.leaves(record.handle)?;
        let tree = view.project(record.handle, &leaves)?;
        let mut doc = NexusDocument::new();
        let leaf_names = view.names_of(&leaves)?;
        // Attach sequences when present; taxa without sequences still get a
        // TAXA entry.
        for leaf_name in leaf_names {
            match view.sequences_for(record.handle, std::slice::from_ref(&leaf_name)) {
                Ok(seqs) => doc.push_sequence(leaf_name.clone(), seqs[&leaf_name].clone()),
                Err(_) => doc.taxa.push(leaf_name),
            }
        }
        doc.push_tree(name, tree);
        Ok(doc)
    }

    fn record_load(&mut self, name: &str, report: &LoadReport) -> CrimsonResult<()> {
        self.record_query(
            QueryKind::Load,
            json!({
                "tree": name,
                "nodes": report.nodes_loaded,
                "species": report.species_loaded,
            }),
            report.messages.last().map(|s| s.as_str()).unwrap_or("load"),
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::RepositoryOptions;
    use phylo::ops::isomorphic;
    use simulation::gold::GoldStandardBuilder;
    use tempfile::tempdir;

    const FIG1_NEWICK: &str = "((Bha:0.75,(Lla:1.0,Spy:1.0):0.5):1.5,Syn:2.5,Bsu:1.25);";

    fn repo() -> (tempfile::TempDir, Repository) {
        let dir = tempdir().unwrap();
        let repo = Repository::create(
            dir.path().join("repo.crimson"),
            RepositoryOptions {
                buffer_pool_pages: 512,
                ..Default::default()
            },
        )
        .unwrap();
        (dir, repo)
    }

    #[test]
    fn load_newick_records_history() {
        let (_d, mut repo) = repo();
        let report = repo.load_newick("fig1", FIG1_NEWICK).unwrap();
        assert_eq!(report.nodes_loaded, 8);
        assert_eq!(report.species_loaded, 0);
        assert!(report.messages[0].contains("fig1"));
        let history = repo.view().history_of_kind(QueryKind::Load).unwrap();
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].params["nodes"], 8);
    }

    #[test]
    fn load_nexus_tree_with_species() {
        let (_d, mut repo) = repo();
        let gold = GoldStandardBuilder::new()
            .leaves(10)
            .sequence_length(30)
            .seed(4)
            .build()
            .unwrap();
        let doc = gold.to_nexus();
        let report = repo
            .load_nexus("gold", &doc, LoadMode::TreeWithSpecies)
            .unwrap();
        assert_eq!(report.nodes_loaded, gold.tree.node_count());
        assert_eq!(report.species_loaded, 10);
        assert_eq!(repo.view().species_count(report.handle).unwrap(), 10);
    }

    #[test]
    fn load_nexus_tree_only_then_append() {
        let (_d, mut repo) = repo();
        let gold = GoldStandardBuilder::new()
            .leaves(8)
            .sequence_length(20)
            .seed(6)
            .build()
            .unwrap();
        let doc = gold.to_nexus();
        let report = repo.load_nexus("gold", &doc, LoadMode::TreeOnly).unwrap();
        assert_eq!(report.species_loaded, 0);
        assert_eq!(repo.view().species_count(report.handle).unwrap(), 0);
        // Append the species data afterwards (§3: "append species data to an
        // existing phylogenetic tree").
        let report = repo
            .load_nexus("gold", &doc, LoadMode::AppendSpecies)
            .unwrap();
        assert_eq!(report.species_loaded, 8);
        assert_eq!(repo.view().species_count(report.handle).unwrap(), 8);
    }

    #[test]
    fn append_to_missing_tree_errors() {
        let (_d, mut repo) = repo();
        let gold = GoldStandardBuilder::new()
            .leaves(4)
            .sequence_length(10)
            .seed(1)
            .build()
            .unwrap();
        let doc = gold.to_nexus();
        assert!(matches!(
            repo.load_nexus("ghost", &doc, LoadMode::AppendSpecies),
            Err(CrimsonError::UnknownTree(_))
        ));
    }

    #[test]
    fn load_errors_are_reported() {
        let (_d, mut repo) = repo();
        assert!(repo.load_newick("bad", "((A,B)").is_err());
        assert!(repo
            .load_nexus_text("bad", "not nexus at all", LoadMode::TreeOnly)
            .is_err());
        let nexus_without_trees = "#NEXUS\nBEGIN TAXA;\nTAXLABELS A B;\nEND;\n";
        assert!(repo
            .load_nexus_text("bad", nexus_without_trees, LoadMode::TreeOnly)
            .is_err());
    }

    #[test]
    fn export_roundtrip() {
        let (_d, mut repo) = repo();
        let gold = GoldStandardBuilder::new()
            .leaves(12)
            .sequence_length(25)
            .seed(8)
            .build()
            .unwrap();
        repo.load_gold_standard("gold", &gold).unwrap();
        let doc = repo.export_nexus("gold").unwrap();
        assert_eq!(doc.sequences.len(), 12);
        assert_eq!(doc.trees.len(), 1);
        // The exported tree is isomorphic to the original gold standard.
        assert!(isomorphic(&doc.trees[0].tree, &gold.tree));
        // And the document parses back through the NEXUS layer.
        let text = phylo::nexus::write(&doc);
        let parsed = phylo::nexus::parse(&text).unwrap();
        assert_eq!(parsed.sequences.len(), 12);
    }
}
