//! The Query Repository: a persistent history of executed queries.
//!
//! "The system also records a history of user input queries in the Query
//! Repository. Used in conjunction with the Crimson GUI, the Query Repository
//! makes it convenient for users to recall and rerun historical queries"
//! (§2.1). Each entry stores the query kind, a JSON parameter payload and a
//! short human-readable result summary.

use crate::error::{CrimsonError, CrimsonResult};
use crate::repository::{ReadCtx, Repository};
use serde::{Deserialize, Serialize};
use storage::db::DbRead;
use storage::value::Value;

/// The kind of query an entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryKind {
    /// A data-loading operation.
    Load,
    /// A species sampling query.
    Sampling,
    /// A tree projection query.
    Projection,
    /// A least-common-ancestor query.
    Lca,
    /// A minimal spanning clade query.
    SpanningClade,
    /// A tree pattern match.
    PatternMatch,
    /// A single transient benchmark run.
    Benchmark,
    /// A persisted experiment sweep (methods × samplings × replicates).
    Experiment,
}

impl QueryKind {
    /// The stable on-disk name of this kind; inverse of [`QueryKind::parse`].
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Load => "load",
            QueryKind::Sampling => "sampling",
            QueryKind::Projection => "projection",
            QueryKind::Lca => "lca",
            QueryKind::SpanningClade => "spanning_clade",
            QueryKind::PatternMatch => "pattern_match",
            QueryKind::Benchmark => "benchmark",
            QueryKind::Experiment => "experiment",
        }
    }

    /// Parse a stable on-disk name back into a kind; inverse of
    /// [`QueryKind::name`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "load" => QueryKind::Load,
            "sampling" => QueryKind::Sampling,
            "projection" => QueryKind::Projection,
            "lca" => QueryKind::Lca,
            "spanning_clade" => QueryKind::SpanningClade,
            "pattern_match" => QueryKind::PatternMatch,
            "benchmark" => QueryKind::Benchmark,
            "experiment" => QueryKind::Experiment,
            _ => return None,
        })
    }
}

/// One recorded query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoryEntry {
    /// Monotonically increasing id (execution order).
    pub id: u64,
    /// What kind of query this was.
    pub kind: QueryKind,
    /// JSON-encoded parameters, suitable for re-running the query.
    pub params: serde_json::Value,
    /// Short human-readable outcome ("sampled 16 species", "RF = 4", …).
    pub summary: String,
}

impl<'a, D: DbRead> ReadCtx<'a, D> {
    /// All recorded queries in execution order.
    pub fn query_history(&self) -> CrimsonResult<Vec<HistoryEntry>> {
        let mut rows = self.db.scan(self.tables.history)?;
        rows.sort_by_key(|(_, row)| row.values[0].as_int().unwrap_or(0));
        rows.iter()
            .map(|(_, row)| {
                let id = row.values[0].as_int().unwrap_or(0) as u64;
                let kind = QueryKind::parse(row.values[1].as_text().unwrap_or(""))
                    .ok_or_else(|| CrimsonError::History("unknown query kind".to_string()))?;
                let params: serde_json::Value =
                    serde_json::from_str(row.values[2].as_text().unwrap_or("null"))
                        .map_err(|e| CrimsonError::History(e.to_string()))?;
                let summary = row.values[3].as_text().unwrap_or("").to_string();
                Ok(HistoryEntry {
                    id,
                    kind,
                    params,
                    summary,
                })
            })
            .collect()
    }

    /// Fetch one history entry by id.
    pub fn history_entry(&self, id: u64) -> CrimsonResult<HistoryEntry> {
        self.query_history()?
            .into_iter()
            .find(|e| e.id == id)
            .ok_or_else(|| CrimsonError::History(format!("no history entry {id}")))
    }

    /// Entries of a given kind, in execution order.
    pub fn history_of_kind(&self, kind: QueryKind) -> CrimsonResult<Vec<HistoryEntry>> {
        Ok(self
            .query_history()?
            .into_iter()
            .filter(|e| e.kind == kind)
            .collect())
    }
}

impl Repository {
    /// Record a query in the history. Returns the new entry's id. The write
    /// is atomic: it joins the enclosing transaction (loads record their
    /// history entry in the same transaction as the data) or auto-commits
    /// on its own. The id counter only advances on success, so a failed or
    /// rolled-back write does not burn an id.
    pub fn record_query(
        &mut self,
        kind: QueryKind,
        params: serde_json::Value,
        summary: &str,
    ) -> CrimsonResult<u64> {
        let id = self.next_history_id;
        let params_text =
            serde_json::to_string(&params).map_err(|e| CrimsonError::History(e.to_string()))?;
        self.db.insert(
            self.tables.history,
            &[
                Value::Int(id as i64),
                Value::text(kind.name()),
                Value::text(params_text),
                Value::text(summary),
            ],
        )?;
        self.next_history_id = id + 1;
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::RepositoryOptions;
    use serde_json::json;
    use tempfile::tempdir;

    fn repo() -> (tempfile::TempDir, Repository) {
        let dir = tempdir().unwrap();
        let repo = Repository::create(
            dir.path().join("repo.crimson"),
            RepositoryOptions::default(),
        )
        .unwrap();
        (dir, repo)
    }

    #[test]
    fn record_and_list() {
        let (_d, mut repo) = repo();
        let id0 = repo
            .record_query(
                QueryKind::Sampling,
                json!({"k": 16, "seed": 1}),
                "sampled 16 species",
            )
            .unwrap();
        let id1 = repo
            .record_query(
                QueryKind::Projection,
                json!({"leaves": 16}),
                "projected 31 nodes",
            )
            .unwrap();
        assert_eq!(id0, 0);
        assert_eq!(id1, 1);
        let all = repo.view().query_history().unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].kind, QueryKind::Sampling);
        assert_eq!(all[0].params["k"], 16);
        assert_eq!(all[1].summary, "projected 31 nodes");
    }

    #[test]
    fn fetch_by_id_and_kind() {
        let (_d, mut repo) = repo();
        repo.record_query(QueryKind::Lca, json!({"a": 1, "b": 2}), "lca = 0")
            .unwrap();
        repo.record_query(QueryKind::Lca, json!({"a": 3, "b": 4}), "lca = 1")
            .unwrap();
        repo.record_query(QueryKind::Benchmark, json!({"method": "nj"}), "rf = 2")
            .unwrap();
        let entry = repo.view().history_entry(1).unwrap();
        assert_eq!(entry.params["a"], 3);
        assert_eq!(
            repo.view().history_of_kind(QueryKind::Lca).unwrap().len(),
            2
        );
        assert_eq!(
            repo.view()
                .history_of_kind(QueryKind::Benchmark)
                .unwrap()
                .len(),
            1
        );
        assert!(repo.view().history_entry(99).is_err());
    }

    const ALL_KINDS: [QueryKind; 8] = [
        QueryKind::Load,
        QueryKind::Sampling,
        QueryKind::Projection,
        QueryKind::Lca,
        QueryKind::SpanningClade,
        QueryKind::PatternMatch,
        QueryKind::Benchmark,
        QueryKind::Experiment,
    ];

    #[test]
    fn every_kind_name_parse_round_trips() {
        for kind in ALL_KINDS {
            assert_eq!(
                QueryKind::parse(kind.name()),
                Some(kind),
                "kind {kind:?} must round-trip through its on-disk name"
            );
        }
        assert_eq!(QueryKind::parse("no_such_kind"), None);
        assert_eq!(QueryKind::parse(""), None);
    }

    #[test]
    fn every_kind_roundtrips_record_list_fetch() {
        let (_d, mut repo) = repo();
        for (i, kind) in ALL_KINDS.iter().enumerate() {
            let id = repo
                .record_query(
                    *kind,
                    json!({"kind_index": i, "nested": json!({"a": json!([1, 2, 3])})}),
                    &format!("summary #{i}"),
                )
                .unwrap();
            assert_eq!(id, i as u64);
        }
        // list: all entries in execution order with their kinds intact.
        let all = repo.view().query_history().unwrap();
        assert_eq!(all.len(), ALL_KINDS.len());
        for (i, entry) in all.iter().enumerate() {
            assert_eq!(entry.kind, ALL_KINDS[i]);
            assert_eq!(entry.id, i as u64);
        }
        // fetch-params: each entry's JSON payload survives the round-trip.
        for (i, kind) in ALL_KINDS.iter().enumerate() {
            let entry = repo.view().history_entry(i as u64).unwrap();
            assert_eq!(entry.kind, *kind);
            assert_eq!(entry.params["kind_index"], i);
            assert_eq!(entry.params["nested"]["a"][2], 3);
            assert_eq!(entry.summary, format!("summary #{i}"));
            assert_eq!(repo.view().history_of_kind(*kind).unwrap().len(), 1);
        }
    }

    #[test]
    fn every_kind_survives_flush_and_reopen() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("repo.crimson");
        {
            let mut repo = Repository::create(&path, RepositoryOptions::default()).unwrap();
            for (i, kind) in ALL_KINDS.iter().enumerate() {
                repo.record_query(*kind, json!({"i": i}), &format!("s{i}"))
                    .unwrap();
            }
            repo.flush().unwrap();
        }
        let repo = Repository::open(&path, RepositoryOptions::default()).unwrap();
        let all = repo.view().query_history().unwrap();
        assert_eq!(all.len(), ALL_KINDS.len());
        for (i, entry) in all.iter().enumerate() {
            assert_eq!(entry.kind, ALL_KINDS[i]);
            assert_eq!(entry.params["i"], i);
        }
    }

    #[test]
    fn every_kind_survives_crash_recovery() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("repo.crimson");
        {
            let mut repo = Repository::create(&path, RepositoryOptions::default()).unwrap();
            for (i, kind) in ALL_KINDS.iter().enumerate() {
                repo.record_query(*kind, json!({"i": i}), &format!("s{i}"))
                    .unwrap();
            }
            // Crash: drop without flush — the dirty pages are lost and the
            // entries must come back through WAL replay.
        }
        let repo = Repository::open(&path, RepositoryOptions::default()).unwrap();
        let report = repo
            .recovery_report()
            .expect("reopen after crash reports recovery");
        assert!(
            report.committed_txns > 0,
            "history transactions must replay: {report:?}"
        );
        let all = repo.view().query_history().unwrap();
        assert_eq!(all.len(), ALL_KINDS.len());
        for (i, kind) in ALL_KINDS.iter().enumerate() {
            assert_eq!(all[i].kind, *kind);
        }
    }

    #[test]
    fn history_survives_reopen() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("repo.crimson");
        {
            let mut repo = Repository::create(&path, RepositoryOptions::default()).unwrap();
            repo.record_query(
                QueryKind::Load,
                json!({"tree": "gold"}),
                "loaded 1000 nodes",
            )
            .unwrap();
            repo.flush().unwrap();
        }
        let mut repo = Repository::open(&path, RepositoryOptions::default()).unwrap();
        let all = repo.view().query_history().unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].kind, QueryKind::Load);
        // New ids continue after the persisted ones.
        let id = repo
            .record_query(QueryKind::Sampling, json!({}), "sampled")
            .unwrap();
        assert_eq!(id, 1);
    }
}
