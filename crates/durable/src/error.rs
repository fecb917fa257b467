//! Durability errors.
//!
//! Everything a snapshot/WAL reader can hit on arbitrary bytes is a value of
//! [`DurableError`] — corrupt input is *data*, never a panic. The one
//! deliberate asymmetry: a torn WAL **tail** (the file ends mid-frame, which
//! is exactly what a crash during an append leaves behind) is not an error
//! at all — the reader reports the valid prefix and the torn offset, and
//! recovery truncates it. Corruption *before* the tail (a checksum mismatch
//! with more data after it) can not be explained by a crash and is rejected.

use alexander_eval::EvalError;
use std::fmt;
use std::path::PathBuf;

/// Anything that can stop a snapshot write/read, a WAL append/replay, or a
/// recovery.
#[derive(Debug)]
pub enum DurableError {
    /// An operating-system IO failure (including injected crash faults).
    Io {
        /// What was being done: `"write"`, `"sync"`, `"open"`, `"rename"`, …
        op: &'static str,
        path: PathBuf,
        source: std::io::Error,
    },
    /// The file does not start with the expected magic bytes — it is not a
    /// snapshot/WAL at all (or the header itself was torn).
    BadMagic {
        path: PathBuf,
        expected: &'static str,
    },
    /// The file's format version is newer than this build understands.
    BadVersion {
        path: PathBuf,
        found: u32,
        supported: u32,
    },
    /// Structural corruption: a length field pointing past the end of the
    /// file, a checksum mismatch, an out-of-range string id, a duplicate
    /// row, an impossible record tag, … `offset` is the byte position the
    /// reader had reached.
    Corrupt {
        path: PathBuf,
        offset: u64,
        detail: String,
    },
    /// A record was rejected against the program: at buffer time (a
    /// non-ground fact, an intensional predicate, an invalid program) or at
    /// recovery (a logged record names a predicate the program now derives,
    /// because the program changed underneath the log).
    Replay(EvalError),
    /// The store refused to keep writing because an earlier commit or
    /// checkpoint failed half-way and disk and memory can no longer be
    /// proven to agree. `op` names the operation that tripped the poison
    /// (e.g. `"commit: wal append"`). The snapshot/WAL pair on disk is
    /// still recoverable — [`DurableStore::recover`] is the documented
    /// escape hatch — but this handle will not append more batches.
    ///
    /// [`DurableStore::recover`]: crate::DurableStore::recover
    Poisoned {
        /// The operation whose failure poisoned the store.
        op: &'static str,
    },
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io { op, path, source } => {
                write!(f, "io error ({op}) on {}: {source}", path.display())
            }
            DurableError::BadMagic { path, expected } => {
                write!(f, "{} is not a {expected} file (bad magic)", path.display())
            }
            DurableError::BadVersion {
                path,
                found,
                supported,
            } => write!(
                f,
                "{}: format version {found} is newer than supported {supported}",
                path.display()
            ),
            DurableError::Corrupt {
                path,
                offset,
                detail,
            } => write!(
                f,
                "{} is corrupt at byte {offset}: {detail}",
                path.display()
            ),
            DurableError::Replay(e) => write!(f, "record rejected: {e}"),
            DurableError::Poisoned { op } => write!(
                f,
                "durable store poisoned by a failed {op}; \
                 recover from disk (DurableStore::recover) to continue"
            ),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Io { source, .. } => Some(source),
            DurableError::Replay(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EvalError> for DurableError {
    fn from(e: EvalError) -> DurableError {
        DurableError::Replay(e)
    }
}

impl DurableError {
    /// Shorthand for wrapping an IO failure with its operation and path.
    pub(crate) fn io(op: &'static str, path: &std::path::Path, source: std::io::Error) -> Self {
        DurableError::Io {
            op,
            path: path.to_path_buf(),
            source,
        }
    }

    /// Shorthand for a corruption report.
    pub(crate) fn corrupt(path: &std::path::Path, offset: u64, detail: impl Into<String>) -> Self {
        DurableError::Corrupt {
            path: path.to_path_buf(),
            offset,
            detail: detail.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let p = std::path::Path::new("/tmp/x.snap");
        let e = DurableError::io("write", p, std::io::Error::other("boom"));
        assert!(e.to_string().contains("write"), "{e}");
        assert!(e.to_string().contains("x.snap"), "{e}");
        let e = DurableError::corrupt(p, 42, "crc mismatch");
        assert!(e.to_string().contains("byte 42"), "{e}");
        let e = DurableError::BadMagic {
            path: p.to_path_buf(),
            expected: "snapshot",
        };
        assert!(e.to_string().contains("bad magic"), "{e}");
        let e = DurableError::BadVersion {
            path: p.to_path_buf(),
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains("version 9"), "{e}");
        let e = DurableError::Poisoned {
            op: "commit: wal append",
        };
        assert!(e.to_string().contains("poisoned"), "{e}");
        assert!(e.to_string().contains("commit: wal append"), "{e}");
        assert!(e.to_string().contains("recover"), "{e}");
    }
}
