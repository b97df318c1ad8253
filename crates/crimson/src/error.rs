//! Error type for the Crimson system.

use std::fmt;

/// Errors produced by the Crimson repository, loader, queries and benchmark
/// manager.
#[derive(Debug)]
pub enum CrimsonError {
    /// Error from the storage engine.
    Storage(storage::StorageError),
    /// Error from tree parsing or manipulation.
    Phylo(phylo::PhyloError),
    /// Error from tree comparison.
    Compare(reconstruction::compare::CompareError),
    /// Error from distance estimation.
    Distance(reconstruction::distance::DistanceError),
    /// The named tree does not exist in the repository.
    UnknownTree(String),
    /// The numeric tree handle does not exist in the repository.
    UnknownTreeId(u64),
    /// The named species does not exist for the given tree.
    UnknownSpecies(String),
    /// A stored node id was not found.
    UnknownNode(u64),
    /// The requested sample is invalid (e.g. larger than the taxon count).
    InvalidSample(String),
    /// The repository already contains a tree with this name.
    DuplicateTree(String),
    /// The repository already contains an experiment with this name.
    DuplicateExperiment(String),
    /// The named experiment does not exist in the repository.
    UnknownExperiment(String),
    /// The operation needs species sequence data that was never loaded.
    MissingSequences(String),
    /// Serialization of query history failed.
    History(String),
    /// Stored structures are internally inconsistent (e.g. a frame without a
    /// source node, a label-walk off the end of a parent chain, or an
    /// interval-index entry that contradicts the node table). Previously a
    /// panic; surfaced as a typed error so callers can distinguish a damaged
    /// repository file from a caller mistake.
    CorruptRepository(String),
    /// A snapshot read exhausted its re-pin budget: every pinned epoch was
    /// retired mid-operation because the writer committed past the pool's
    /// bounded per-page version chains each time. With versioned reads this
    /// is a cold fallback (the stress harness shows it is unreachable at
    /// the shipped chain depth), kept so the snapshot contract degrades
    /// loudly instead of serving a torn view. Retry when the write burst
    /// subsides.
    Busy(String),
}

impl fmt::Display for CrimsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrimsonError::Storage(e) => write!(f, "storage error: {e}"),
            CrimsonError::Phylo(e) => write!(f, "tree error: {e}"),
            CrimsonError::Compare(e) => write!(f, "comparison error: {e}"),
            CrimsonError::Distance(e) => write!(f, "distance error: {e}"),
            CrimsonError::UnknownTree(name) => write!(f, "unknown tree `{name}`"),
            CrimsonError::UnknownTreeId(id) => write!(f, "unknown tree id {id}"),
            CrimsonError::UnknownSpecies(name) => write!(f, "unknown species `{name}`"),
            CrimsonError::UnknownNode(id) => write!(f, "unknown stored node {id}"),
            CrimsonError::InvalidSample(m) => write!(f, "invalid sample: {m}"),
            CrimsonError::DuplicateTree(name) => write!(f, "tree `{name}` already loaded"),
            CrimsonError::DuplicateExperiment(name) => {
                write!(f, "experiment `{name}` already exists")
            }
            CrimsonError::UnknownExperiment(name) => write!(f, "unknown experiment `{name}`"),
            CrimsonError::MissingSequences(name) => {
                write!(f, "no sequence data loaded for tree `{name}`")
            }
            CrimsonError::History(m) => write!(f, "query history error: {m}"),
            CrimsonError::CorruptRepository(m) => write!(f, "corrupt repository: {m}"),
            CrimsonError::Busy(m) => write!(f, "repository busy: {m}"),
        }
    }
}

impl std::error::Error for CrimsonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CrimsonError::Storage(e) => Some(e),
            CrimsonError::Phylo(e) => Some(e),
            CrimsonError::Compare(e) => Some(e),
            CrimsonError::Distance(e) => Some(e),
            _ => None,
        }
    }
}

impl From<storage::StorageError> for CrimsonError {
    fn from(e: storage::StorageError) -> Self {
        CrimsonError::Storage(e)
    }
}

impl From<phylo::PhyloError> for CrimsonError {
    fn from(e: phylo::PhyloError) -> Self {
        CrimsonError::Phylo(e)
    }
}

impl From<reconstruction::compare::CompareError> for CrimsonError {
    fn from(e: reconstruction::compare::CompareError) -> Self {
        CrimsonError::Compare(e)
    }
}

impl From<reconstruction::distance::DistanceError> for CrimsonError {
    fn from(e: reconstruction::distance::DistanceError) -> Self {
        CrimsonError::Distance(e)
    }
}

/// Convenience alias.
pub type CrimsonResult<T> = Result<T, CrimsonError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(CrimsonError::UnknownTree("gold".into())
            .to_string()
            .contains("gold"));
        assert!(CrimsonError::UnknownNode(9).to_string().contains('9'));
        assert!(CrimsonError::InvalidSample("too big".into())
            .to_string()
            .contains("too big"));
    }

    #[test]
    fn conversions() {
        let s: CrimsonError = storage::StorageError::UnknownTable("x".into()).into();
        assert!(matches!(s, CrimsonError::Storage(_)));
        let p: CrimsonError = phylo::PhyloError::EmptyTree.into();
        assert!(matches!(p, CrimsonError::Phylo(_)));
        assert!(std::error::Error::source(&p).is_some());
    }
}
