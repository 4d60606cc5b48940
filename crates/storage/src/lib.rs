//! Durable storage for complex-object databases: a checksummed
//! write-ahead log, `enc(I)` snapshots, and crash-anywhere recovery.
//!
//! A durable database is a directory holding exactly two long-lived
//! files:
//!
//! * **`snapshot.bin`** — the whole database (atom universe, schema, and
//!   every relation) in the paper's standard tape encoding `enc(I)`
//!   (Section 2, reproduced byte-for-byte by `no_object::encoding`), with
//!   a CRC32 over the body. Written atomically: a temp file is fsynced
//!   and renamed over the old snapshot, so a crash leaves either the old
//!   or the new snapshot, never a half-written one.
//! * **`wal.log`** — an append-only write-ahead log of mutations since
//!   the snapshot. Each frame is length-prefixed and CRC32-checksummed
//!   and carries one clause of the text format (`schema R(U).` or
//!   `R('a').`), so replay is parse + apply in log order and the log is
//!   legible with a hex dump and the paper in hand.
//!
//! Snapshot and WAL are sequenced by an **epoch** number: `save()` writes
//! snapshot `e+1`, then resets the WAL to epoch `e+1`. On open, a WAL
//! whose epoch is older than the snapshot's is stale (the crash landed
//! between the rename and the WAL reset) and is discarded — its frames
//! are already folded into the snapshot.
//!
//! Recovery on open replays the WAL over the snapshot and classifies
//! damage precisely:
//!
//! * an incomplete frame at the physical end of the log is a **torn
//!   tail** — the tail is truncated and the prefix recovered;
//! * a checksum mismatch with valid data *after* it is **mid-log
//!   corruption** — open refuses with a structured
//!   [`StorageError::Corrupt`], never a panic, and never serves silently
//!   wrong data.
//!
//! The `faultinject` feature extends PR 1's deterministic fault machinery
//! to the I/O layer: [`IoFaults`] fails the Nth write/fsync/rename,
//! performs short writes, or flips a chosen byte, so tests can kill the
//! writer at every I/O operation and prove that reopening always yields a
//! prefix-consistent database.

pub mod crc;
pub mod db;
pub mod fault;
mod fsio;
pub mod snapshot;
pub mod views;
pub mod wal;

pub use db::{verify, Db, DbOptions, ImportStats, OpenStats, SyncPolicy, VerifyReport};
pub use fault::{FaultMode, IoFaults, OpKind};
pub use views::ViewsCheckpoint;

use no_object::ResourceError;
use std::fmt;

/// The name of the snapshot file inside a database directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// The name of the temporary snapshot written before the atomic rename.
pub const SNAPSHOT_TMP: &str = "snapshot.tmp";
/// The name of the write-ahead log inside a database directory.
pub const WAL_FILE: &str = "wal.log";
/// The name of the view-checkpoint file inside a database directory.
pub const VIEWS_FILE: &str = "views.bin";
/// The name of the temporary view checkpoint before its atomic rename.
pub const VIEWS_TMP: &str = "views.tmp";

/// Any failure from the storage layer. Structured, cloneable, and — like
/// every other error in this workspace — never a panic: corrupted bytes
/// on disk surface as [`StorageError::Corrupt`] with the offending file
/// and offset.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageError {
    /// An operating-system I/O failure (including injected crash points).
    Io {
        /// The operation that failed (`"write"`, `"fsync"`, `"rename"`, …).
        op: &'static str,
        /// The file or directory involved.
        path: String,
        /// The OS error kind.
        kind: std::io::ErrorKind,
        /// The OS error message.
        message: String,
    },
    /// On-disk bytes failed validation: bad magic, checksum mismatch with
    /// live data after it, an undecodable snapshot, or a WAL frame whose
    /// clause cannot be applied. Opening refuses rather than serving a
    /// silently wrong database.
    Corrupt {
        /// The offending file.
        path: String,
        /// Byte offset where validation failed.
        at: u64,
        /// What failed.
        detail: String,
    },
    /// A caller mistake against the live database (unknown relation,
    /// arity or type mismatch on insert, duplicate declaration) — the
    /// database is unchanged and nothing was logged.
    Invalid {
        /// What was wrong.
        detail: String,
    },
    /// A governor budget tripped while accounting for replayed data
    /// (memory charged for the arenas rebuilt during recovery).
    Resource(ResourceError),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io {
                op, path, message, ..
            } => write!(f, "i/o error during {op} on {path}: {message}"),
            StorageError::Corrupt { path, at, detail } => {
                write!(f, "corrupt store: {path} at byte {at}: {detail}")
            }
            StorageError::Invalid { detail } => write!(f, "invalid operation: {detail}"),
            StorageError::Resource(r) => write!(f, "storage recovery: {r}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Resource(r) => Some(r),
            _ => None,
        }
    }
}

impl From<ResourceError> for StorageError {
    fn from(r: ResourceError) -> Self {
        StorageError::Resource(r)
    }
}

impl StorageError {
    pub(crate) fn io(op: &'static str, path: &std::path::Path, e: std::io::Error) -> Self {
        StorageError::Io {
            op,
            path: path.display().to_string(),
            kind: e.kind(),
            message: e.to_string(),
        }
    }

    pub(crate) fn corrupt(path: &std::path::Path, at: u64, detail: impl Into<String>) -> Self {
        StorageError::Corrupt {
            path: path.display().to_string(),
            at,
            detail: detail.into(),
        }
    }

    /// True when this failure is corruption detected on disk (as opposed
    /// to an I/O failure, a caller mistake, or a budget trip).
    pub fn is_corruption(&self) -> bool {
        matches!(self, StorageError::Corrupt { .. })
    }
}
