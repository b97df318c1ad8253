//! Typed wire error codes.
//!
//! A served engine must never panic or drop a connection because an engine
//! call failed: every error a request can produce — protocol-layer rejects,
//! session/tenancy errors, admission-control sheds, and the *entire*
//! [`CrimsonError`]/[`storage::StorageError`] surface — maps to a stable
//! `u16` code that travels in an error response frame next to the
//! human-readable message. Codes are append-only: new variants get new
//! numbers, old numbers are never reused, and an unknown code decodes to
//! [`ErrorCode::Internal`] rather than failing the frame.

use crimson::CrimsonError;
use std::fmt;
use storage::StorageError;

/// Stable numeric code of one wire error. Grouped by layer: `1..=99`
/// protocol and session, `100..=199` Crimson engine, `200..=299` storage
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum ErrorCode {
    // ---- protocol / session / admission (1..=99) ----
    /// The frame failed structural validation (bad magic or CRC mismatch).
    /// The stream can no longer be trusted; the server sends this reject
    /// and closes the connection.
    BadFrame = 1,
    /// The frame declared a payload longer than the negotiated maximum.
    FrameTooLarge = 2,
    /// The frame was sound but its payload did not decode as a known
    /// request (unknown opcode, truncated body, bad UTF-8). The connection
    /// survives — framing is intact.
    BadMessage = 3,
    /// The request needs a tenant but the session never attached one.
    NoTenant = 4,
    /// The named tenant does not exist (and the server does not
    /// auto-create).
    UnknownTenant = 5,
    /// The tenant name failed validation (path-safe `[A-Za-z0-9_-]`, at
    /// most 64 bytes).
    BadTenantName = 6,
    /// Admission control shed this request: the per-connection in-flight
    /// window or the global dispatch budget is full. Back off and retry;
    /// nothing was executed.
    Overloaded = 7,
    /// The server is draining for shutdown; in-flight requests complete
    /// but new ones are refused.
    ShuttingDown = 8,

    // ---- crimson engine (100..=199) ----
    /// An engine error with no more specific code.
    Internal = 100,
    /// `CrimsonError::UnknownTree`.
    UnknownTree = 101,
    /// `CrimsonError::UnknownTreeId`.
    UnknownTreeId = 102,
    /// `CrimsonError::UnknownSpecies`.
    UnknownSpecies = 103,
    /// `CrimsonError::UnknownNode`.
    UnknownNode = 104,
    /// `CrimsonError::InvalidSample`.
    InvalidSample = 105,
    /// `CrimsonError::DuplicateTree`.
    DuplicateTree = 106,
    /// `CrimsonError::DuplicateExperiment`.
    DuplicateExperiment = 107,
    /// `CrimsonError::UnknownExperiment`.
    UnknownExperiment = 108,
    /// `CrimsonError::MissingSequences`.
    MissingSequences = 109,
    /// `CrimsonError::History`.
    History = 110,
    /// `CrimsonError::CorruptRepository`.
    CorruptRepository = 111,
    // 112 was `MissingContentAddress` (a tree without a content address);
    // such a tree is now `CorruptRepository`. The number stays unused.
    /// `CrimsonError::Busy` — the snapshot-retired retry budget ran out.
    Busy = 113,
    /// `CrimsonError::Phylo` — tree parsing or manipulation failed (e.g. a
    /// malformed Newick string in a load request).
    TreeParse = 114,
    /// `CrimsonError::Compare`.
    Compare = 115,
    /// `CrimsonError::Distance`.
    Distance = 116,

    // ---- storage engine (200..=299) ----
    /// `StorageError::Io`.
    StorageIo = 200,
    /// `StorageError::InvalidDatabase`.
    InvalidDatabase = 201,
    /// `StorageError::InvalidPage`.
    InvalidPage = 202,
    /// `StorageError::InvalidRecord`.
    InvalidRecord = 203,
    /// `StorageError::RecordTooLarge`.
    RecordTooLarge = 204,
    /// `StorageError::UnknownTable`.
    UnknownTable = 205,
    /// `StorageError::UnknownIndex`.
    UnknownIndex = 206,
    /// `StorageError::UnknownColumn`.
    UnknownColumn = 207,
    /// `StorageError::AlreadyExists`.
    AlreadyExists = 208,
    /// `StorageError::SchemaMismatch`.
    SchemaMismatch = 209,
    /// `StorageError::DuplicateKey`.
    DuplicateKey = 210,
    /// `StorageError::BulkOutOfOrder`.
    BulkOutOfOrder = 211,
    /// `StorageError::Corrupted`.
    Corrupted = 212,
    /// `StorageError::PoolExhausted`.
    PoolExhausted = 213,
    /// `StorageError::TransactionActive`.
    TransactionActive = 214,
    /// `StorageError::NoActiveTransaction`.
    NoActiveTransaction = 215,
    /// `StorageError::CorruptPage` — a page failed its checksum.
    CorruptPage = 216,
    /// `StorageError::WriterPoisoned` — durability of acked writes is
    /// unknown; the tenant's writer refuses further mutations while reads
    /// keep serving the last committed snapshot.
    WriterPoisoned = 217,
    /// `StorageError::ReadOnly` — the tenant is open in degraded read-only
    /// mode; the mutation was refused.
    ReadOnly = 218,
    /// `StorageError::SnapshotRetired` — a pinned epoch outlived the
    /// bounded version chain (normally absorbed by the dispatch layer's
    /// re-pin fallback; surfacing it here is a server bug guard, not an
    /// expected client experience).
    SnapshotRetired = 219,
}

/// Every defined code, for exhaustive round-trip tests.
pub const ALL_ERROR_CODES: &[ErrorCode] = &[
    ErrorCode::BadFrame,
    ErrorCode::FrameTooLarge,
    ErrorCode::BadMessage,
    ErrorCode::NoTenant,
    ErrorCode::UnknownTenant,
    ErrorCode::BadTenantName,
    ErrorCode::Overloaded,
    ErrorCode::ShuttingDown,
    ErrorCode::Internal,
    ErrorCode::UnknownTree,
    ErrorCode::UnknownTreeId,
    ErrorCode::UnknownSpecies,
    ErrorCode::UnknownNode,
    ErrorCode::InvalidSample,
    ErrorCode::DuplicateTree,
    ErrorCode::DuplicateExperiment,
    ErrorCode::UnknownExperiment,
    ErrorCode::MissingSequences,
    ErrorCode::History,
    ErrorCode::CorruptRepository,
    ErrorCode::Busy,
    ErrorCode::TreeParse,
    ErrorCode::Compare,
    ErrorCode::Distance,
    ErrorCode::StorageIo,
    ErrorCode::InvalidDatabase,
    ErrorCode::InvalidPage,
    ErrorCode::InvalidRecord,
    ErrorCode::RecordTooLarge,
    ErrorCode::UnknownTable,
    ErrorCode::UnknownIndex,
    ErrorCode::UnknownColumn,
    ErrorCode::AlreadyExists,
    ErrorCode::SchemaMismatch,
    ErrorCode::DuplicateKey,
    ErrorCode::BulkOutOfOrder,
    ErrorCode::Corrupted,
    ErrorCode::PoolExhausted,
    ErrorCode::TransactionActive,
    ErrorCode::NoActiveTransaction,
    ErrorCode::CorruptPage,
    ErrorCode::WriterPoisoned,
    ErrorCode::ReadOnly,
    ErrorCode::SnapshotRetired,
];

impl ErrorCode {
    /// The stable numeric value sent on the wire.
    pub fn as_u16(self) -> u16 {
        self as u16
    }

    /// Decode a wire value. Unknown codes (a newer server talking to an
    /// older client) degrade to [`ErrorCode::Internal`] instead of failing
    /// the frame.
    pub fn from_u16(v: u16) -> ErrorCode {
        ALL_ERROR_CODES
            .iter()
            .copied()
            .find(|c| c.as_u16() == v)
            .unwrap_or(ErrorCode::Internal)
    }

    /// `true` for codes after which the server intentionally closes the
    /// connection (the stream framing can no longer be trusted).
    pub fn closes_connection(self) -> bool {
        matches!(self, ErrorCode::BadFrame | ErrorCode::FrameTooLarge)
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}({})", self.as_u16())
    }
}

/// A typed error as it travels on the wire: stable code plus the engine's
/// display message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Stable numeric error code.
    pub code: ErrorCode,
    /// Human-readable message (the engine error's `Display`).
    pub message: String,
}

impl WireError {
    /// Build a wire error from a code and message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> WireError {
        WireError {
            code,
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

/// Map a storage error to its wire code.
pub fn storage_code(e: &StorageError) -> ErrorCode {
    match e {
        StorageError::Io(_) => ErrorCode::StorageIo,
        StorageError::InvalidDatabase(_) => ErrorCode::InvalidDatabase,
        StorageError::InvalidPage(_) => ErrorCode::InvalidPage,
        StorageError::InvalidRecord { .. } => ErrorCode::InvalidRecord,
        StorageError::RecordTooLarge(_) => ErrorCode::RecordTooLarge,
        StorageError::UnknownTable(_) => ErrorCode::UnknownTable,
        StorageError::UnknownIndex(_) => ErrorCode::UnknownIndex,
        StorageError::UnknownColumn(_) => ErrorCode::UnknownColumn,
        StorageError::AlreadyExists(_) => ErrorCode::AlreadyExists,
        StorageError::SchemaMismatch(_) => ErrorCode::SchemaMismatch,
        StorageError::DuplicateKey(_) => ErrorCode::DuplicateKey,
        StorageError::BulkOutOfOrder(_) => ErrorCode::BulkOutOfOrder,
        StorageError::Corrupted(_) => ErrorCode::Corrupted,
        StorageError::PoolExhausted(_) => ErrorCode::PoolExhausted,
        StorageError::TransactionActive => ErrorCode::TransactionActive,
        StorageError::NoActiveTransaction => ErrorCode::NoActiveTransaction,
        StorageError::CorruptPage { .. } => ErrorCode::CorruptPage,
        StorageError::WriterPoisoned(_) => ErrorCode::WriterPoisoned,
        StorageError::ReadOnly => ErrorCode::ReadOnly,
        StorageError::SnapshotRetired { .. } => ErrorCode::SnapshotRetired,
    }
}

/// Map a Crimson engine error to its wire code.
pub fn crimson_code(e: &CrimsonError) -> ErrorCode {
    match e {
        CrimsonError::Storage(s) => storage_code(s),
        CrimsonError::Phylo(_) => ErrorCode::TreeParse,
        CrimsonError::Compare(_) => ErrorCode::Compare,
        CrimsonError::Distance(_) => ErrorCode::Distance,
        CrimsonError::UnknownTree(_) => ErrorCode::UnknownTree,
        CrimsonError::UnknownTreeId(_) => ErrorCode::UnknownTreeId,
        CrimsonError::UnknownSpecies(_) => ErrorCode::UnknownSpecies,
        CrimsonError::UnknownNode(_) => ErrorCode::UnknownNode,
        CrimsonError::InvalidSample(_) => ErrorCode::InvalidSample,
        CrimsonError::DuplicateTree(_) => ErrorCode::DuplicateTree,
        CrimsonError::DuplicateExperiment(_) => ErrorCode::DuplicateExperiment,
        CrimsonError::UnknownExperiment(_) => ErrorCode::UnknownExperiment,
        CrimsonError::MissingSequences(_) => ErrorCode::MissingSequences,
        CrimsonError::History(_) => ErrorCode::History,
        CrimsonError::CorruptRepository(_) => ErrorCode::CorruptRepository,
        CrimsonError::Busy(_) => ErrorCode::Busy,
    }
}

impl From<&CrimsonError> for WireError {
    fn from(e: &CrimsonError) -> WireError {
        WireError::new(crimson_code(e), e.to_string())
    }
}

impl From<CrimsonError> for WireError {
    fn from(e: CrimsonError) -> WireError {
        WireError::from(&e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_round_trip() {
        let mut seen = std::collections::HashSet::new();
        for &code in ALL_ERROR_CODES {
            assert!(seen.insert(code.as_u16()), "duplicate value for {code}");
            assert_eq!(ErrorCode::from_u16(code.as_u16()), code);
        }
    }

    #[test]
    fn unknown_code_degrades_to_internal() {
        assert_eq!(ErrorCode::from_u16(9999), ErrorCode::Internal);
    }

    #[test]
    fn crimson_error_mapping_covers_required_codes() {
        assert_eq!(
            crimson_code(&CrimsonError::Storage(StorageError::WriterPoisoned(
                "fsync".into()
            ))),
            ErrorCode::WriterPoisoned
        );
        assert_eq!(
            crimson_code(&CrimsonError::Storage(StorageError::ReadOnly)),
            ErrorCode::ReadOnly
        );
        assert_eq!(
            crimson_code(&CrimsonError::Storage(StorageError::SnapshotRetired {
                epoch: 1,
                floor: 2
            })),
            ErrorCode::SnapshotRetired
        );
        assert_eq!(
            crimson_code(&CrimsonError::UnknownTree("x".into())),
            ErrorCode::UnknownTree
        );
        assert_eq!(
            crimson_code(&CrimsonError::Busy("storm".into())),
            ErrorCode::Busy
        );
    }
}
