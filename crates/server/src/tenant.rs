//! Per-tenant repository namespaces.
//!
//! Each tenant owns one `Repository` in its own subdirectory of the server
//! root — `<root>/<tenant>/` — so tenants share nothing but the process:
//! separate WALs, separate buffer pools, separate catalogs. A tenant name
//! is restricted to a path-safe alphabet *before* it touches the
//! filesystem, which is what makes the directory-per-tenant scheme safe to
//! expose to the network.
//!
//! Concurrency model per tenant:
//!
//! * **One writer.** The `Repository` sits behind a mutex; write requests
//!   from every connection serialize through it. The writer is kept
//!   permanently in [`Durability::Async`]: the commit itself is only a log
//!   append, so the lock is held for microseconds, and the fsync happens
//!   *outside* the lock via [`RepositoryReader::wait_durable`] — which is
//!   how write requests from different connections share one group-commit
//!   fsync round instead of queueing a round each.
//! * **Many readers.** A single shared [`RepositoryReader`] serves every
//!   dispatch worker; each batch pins its own epoch. Readers never take
//!   the writer lock.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crimson::repository::{Durability, Repository, RepositoryOptions};
use crimson::RepositoryReader;
use parking_lot::Mutex;

use crate::wire::{ErrorCode, WireError};

/// Longest accepted tenant name.
pub const MAX_TENANT_NAME: usize = 64;

/// Validate a tenant name: 1–64 chars of `[A-Za-z0-9._-]`, not starting
/// with `.` or `-`. Anything else is rejected before it can touch the
/// filesystem.
pub fn validate_tenant_name(name: &str) -> Result<(), WireError> {
    let bad = |why: &str| {
        Err(WireError::new(
            ErrorCode::BadTenantName,
            format!("invalid tenant name {name:?}: {why}"),
        ))
    };
    if name.is_empty() {
        return bad("empty");
    }
    if name.len() > MAX_TENANT_NAME {
        return bad("longer than 64 bytes");
    }
    if name.starts_with('.') || name.starts_with('-') {
        return bad("must not start with '.' or '-'");
    }
    if !name
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
    {
        return bad("only [A-Za-z0-9._-] allowed");
    }
    Ok(())
}

/// One tenant: a repository directory, its serialized writer, and the
/// shared snapshot reader the dispatch pool executes against.
pub struct Tenant {
    /// Tenant name (validated).
    pub name: String,
    /// The single writer. Hold this lock only for the commit itself;
    /// durability waits happen on `reader` after release.
    pub writer: Mutex<Repository>,
    /// Shared snapshot reader (epoch pinning happens per batch).
    pub reader: RepositoryReader,
    /// Highest async-commit LSN acknowledged to any client of this tenant;
    /// the [`crate::msg::Request::WaitDurable`] barrier flushes to this.
    max_async_lsn: AtomicU64,
}

impl Tenant {
    /// Record an acknowledged async commit so a later durability barrier
    /// covers it.
    pub fn note_async_commit(&self, lsn: u64) {
        self.max_async_lsn.fetch_max(lsn, Ordering::AcqRel);
    }

    /// The LSN a durability barrier must flush to.
    pub fn barrier_lsn(&self) -> u64 {
        self.max_async_lsn.load(Ordering::Acquire)
    }
}

/// Options every tenant repository is opened with.
#[derive(Debug, Clone)]
pub struct TenantOptions {
    /// Unused, like [`RepositoryOptions::frame_depth`]: the repository
    /// stores no hierarchical labels. Kept so that code naming the field
    /// still compiles; it will be removed.
    pub frame_depth: usize,
    /// Forwarded to [`RepositoryOptions`].
    pub buffer_pool_pages: usize,
    /// Whether [`TenantMap::attach`] may create missing tenants.
    pub create_missing: bool,
}

impl Default for TenantOptions {
    fn default() -> Self {
        TenantOptions {
            frame_depth: 16,
            buffer_pool_pages: 4096,
            create_missing: true,
        }
    }
}

/// The directory-per-tenant namespace over a server root.
pub struct TenantMap {
    root: PathBuf,
    options: TenantOptions,
    tenants: Mutex<HashMap<String, Arc<Tenant>>>,
}

impl TenantMap {
    /// A tenant map rooted at `root` (created if missing).
    pub fn new(root: impl Into<PathBuf>, options: TenantOptions) -> std::io::Result<TenantMap> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(TenantMap {
            root,
            options,
            tenants: Mutex::new(HashMap::new()),
        })
    }

    /// The tenants currently open.
    pub fn open_tenants(&self) -> Vec<Arc<Tenant>> {
        self.tenants.lock().values().cloned().collect()
    }

    /// Resolve (opening or creating the repository as needed) the tenant
    /// for an `Attach` request.
    pub fn attach(&self, name: &str) -> Result<Arc<Tenant>, WireError> {
        validate_tenant_name(name)?;
        let mut map = self.tenants.lock();
        if let Some(t) = map.get(name) {
            return Ok(Arc::clone(t));
        }
        let dir = self.root.join(name);
        let exists = dir.join("crimson.db").exists() || dir.exists();
        if !exists && !self.options.create_missing {
            return Err(WireError::new(
                ErrorCode::UnknownTenant,
                format!("tenant {name:?} does not exist and creation is disabled"),
            ));
        }
        // The writer lives in Durability::Async permanently: per-request
        // Sync semantics are implemented by waiting on the durable-LSN
        // watermark *after* the writer lock is released (see dispatch).
        let repo_options = RepositoryOptions {
            buffer_pool_pages: self.options.buffer_pool_pages,
            durability: Durability::Async,
            ..RepositoryOptions::default()
        };
        let open = |opts: RepositoryOptions| {
            if exists {
                Repository::open(&dir, opts)
            } else {
                Repository::create(&dir, opts)
            }
        };
        let repo = open(repo_options).map_err(|e| WireError::from(&e))?;
        let reader = repo.reader().map_err(|e| WireError::from(&e))?;
        let tenant = Arc::new(Tenant {
            name: name.to_string(),
            writer: Mutex::new(repo),
            reader,
            max_async_lsn: AtomicU64::new(0),
        });
        map.insert(name.to_string(), Arc::clone(&tenant));
        Ok(tenant)
    }

    /// Look up an already-open tenant without creating it.
    pub fn get(&self, name: &str) -> Option<Arc<Tenant>> {
        self.tenants.lock().get(name).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_names_are_path_safe() {
        for ok in ["a", "alpha", "team-1", "x.y_z", "A0"] {
            assert!(validate_tenant_name(ok).is_ok(), "{ok} should be valid");
        }
        for bad in [
            "",
            ".hidden",
            "-flag",
            "a/b",
            "a\\b",
            "..",
            "a b",
            "t\u{e9}l\u{e9}",
            &"x".repeat(65),
        ] {
            let err = validate_tenant_name(bad).expect_err("must reject");
            assert_eq!(err.code, ErrorCode::BadTenantName, "{bad:?}");
        }
    }

    #[test]
    fn attach_creates_and_reuses() {
        let dir = tempfile::tempdir().unwrap();
        let map = TenantMap::new(dir.path(), TenantOptions::default()).unwrap();
        let a1 = map.attach("alpha").unwrap();
        let a2 = map.attach("alpha").unwrap();
        assert!(Arc::ptr_eq(&a1, &a2));
        assert!(map.get("beta").is_none());
        let b = map.attach("beta").unwrap();
        assert!(!Arc::ptr_eq(&a1, &b));
    }

    #[test]
    fn attach_respects_create_missing() {
        let dir = tempfile::tempdir().unwrap();
        let map = TenantMap::new(
            dir.path(),
            TenantOptions {
                create_missing: false,
                ..TenantOptions::default()
            },
        )
        .unwrap();
        let err = match map.attach("ghost") {
            Err(e) => e,
            Ok(_) => panic!("must reject"),
        };
        assert_eq!(err.code, ErrorCode::UnknownTenant);
    }
}
