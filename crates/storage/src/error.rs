//! Error handling for the storage engine.

use std::fmt;
use std::io;

/// Convenience alias used throughout the crate.
pub type StorageResult<T> = Result<T, StorageError>;

/// Errors produced by the storage engine.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// The file is not a Crimson database (bad magic number) or is from an
    /// incompatible version.
    InvalidDatabase(String),
    /// A page id was out of range or referenced a freed page.
    InvalidPage(u64),
    /// A record id referenced a missing slot.
    InvalidRecord {
        /// Page the record was expected on.
        page: u64,
        /// Slot index within the page.
        slot: u16,
    },
    /// A record or key is too large to fit on a single page.
    RecordTooLarge(usize),
    /// The named table does not exist.
    UnknownTable(String),
    /// The named index does not exist.
    UnknownIndex(String),
    /// The named column does not exist in the table schema.
    UnknownColumn(String),
    /// A table or index with this name already exists.
    AlreadyExists(String),
    /// A row did not match the table schema.
    SchemaMismatch(String),
    /// A unique index rejected a duplicate key.
    DuplicateKey(String),
    /// A bulk load received keys that are not strictly increasing, or that
    /// do not sort after every key already in the target structure.
    BulkOutOfOrder(String),
    /// Stored bytes could not be decoded (corruption or version skew).
    Corrupted(String),
    /// Every buffer-pool frame is pinned; no page can be brought in. The
    /// payload is the pool's frame capacity.
    PoolExhausted(usize),
    /// A transaction is already open (the engine is single-writer) or the
    /// attempted operation (a checkpoint) is illegal while one is open.
    TransactionActive,
    /// `commit`/`rollback` was called with no open transaction.
    NoActiveTransaction,
    /// A page failed its checksum on read: the stored CRC32 and the CRC32
    /// of the bytes actually read disagree (media corruption).
    CorruptPage {
        /// Page id that failed verification.
        page: u64,
        /// Checksum recorded when the page was last written.
        expected: u32,
        /// Checksum of the bytes read from disk.
        found: u32,
    },
    /// An fsync failed earlier, so durability of previously acknowledged
    /// writes is unknown; the writer refuses further mutations. Readers
    /// keep serving the last committed snapshot.
    WriterPoisoned(String),
    /// The database was opened in (degraded) read-only mode; mutation was
    /// refused.
    ReadOnly,
    /// A versioned read asked for a snapshot epoch whose page versions have
    /// already been garbage-collected (the bounded version chain dropped
    /// them). The reader should re-pin a fresh epoch and retry.
    SnapshotRetired {
        /// The epoch the reader had pinned.
        epoch: u64,
        /// The oldest epoch the pool can still serve.
        floor: u64,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::InvalidDatabase(m) => write!(f, "invalid database file: {m}"),
            StorageError::InvalidPage(p) => write!(f, "invalid page id {p}"),
            StorageError::InvalidRecord { page, slot } => {
                write!(f, "invalid record id (page {page}, slot {slot})")
            }
            StorageError::RecordTooLarge(n) => {
                write!(f, "record of {n} bytes exceeds the maximum page payload")
            }
            StorageError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            StorageError::UnknownIndex(i) => write!(f, "unknown index `{i}`"),
            StorageError::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            StorageError::AlreadyExists(n) => write!(f, "`{n}` already exists"),
            StorageError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            StorageError::DuplicateKey(k) => write!(f, "duplicate key {k} in unique index"),
            StorageError::BulkOutOfOrder(m) => {
                write!(f, "bulk load keys out of order: {m}")
            }
            StorageError::Corrupted(m) => write!(f, "corrupted data: {m}"),
            StorageError::PoolExhausted(cap) => {
                write!(f, "all {cap} buffer-pool frames are pinned")
            }
            StorageError::TransactionActive => {
                write!(f, "a transaction is already active")
            }
            StorageError::NoActiveTransaction => {
                write!(f, "no transaction is active")
            }
            StorageError::CorruptPage {
                page,
                expected,
                found,
            } => write!(
                f,
                "corrupt page {page}: checksum mismatch \
                 (expected {expected:#010x}, found {found:#010x})"
            ),
            StorageError::WriterPoisoned(m) => {
                write!(f, "writer poisoned by earlier fsync failure: {m}")
            }
            StorageError::ReadOnly => {
                write!(f, "database is open in read-only (degraded) mode")
            }
            StorageError::SnapshotRetired { epoch, floor } => write!(
                f,
                "snapshot epoch {epoch} retired: oldest readable epoch is {floor}; \
                 re-pin and retry"
            ),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(StorageError::InvalidPage(7).to_string().contains("7"));
        assert!(StorageError::UnknownTable("t".into())
            .to_string()
            .contains("`t`"));
        assert!(StorageError::RecordTooLarge(123456)
            .to_string()
            .contains("123456"));
        assert!(StorageError::InvalidRecord { page: 3, slot: 9 }
            .to_string()
            .contains("slot 9"));
    }

    #[test]
    fn io_error_conversion_preserves_source() {
        let io_err = io::Error::new(io::ErrorKind::NotFound, "missing");
        let err: StorageError = io_err.into();
        assert!(matches!(err, StorageError::Io(_)));
        assert!(std::error::Error::source(&err).is_some());
    }
}
