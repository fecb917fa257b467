//! Durability: snapshots, write-ahead logging, and crash recovery for the
//! extensional database.
//!
//! The persistent state is a *pair* of files:
//!
//! * a **snapshot** ([`snapshot`]) — the full EDB at some checkpoint, as one
//!   atomically-replaced, CRC32-checksummed file;
//! * a **WAL** ([`wal`]) — the EDB deltas committed since that checkpoint,
//!   as append-only, individually checksummed, commit-marked frames.
//!
//! [`DurableStore`] holds the committed EDB behind a write-ahead commit
//! protocol; [`DurableStore::recover`] rebuilds the exact pre-crash EDB
//! from the pair — snapshot, then every committed batch folded in through
//! [`apply_to_database`] — truncating any torn WAL tail a crash left
//! behind. Derived facts are never persisted: whoever evaluates the program
//! over the recovered EDB derives them, so disk corruption can at worst
//! *lose* committed batches noisily (a structured [`DurableError`]), never
//! smuggle in unjustified conclusions. [`DurableEngine`] adds a maintained
//! materialisation on top of a store, for callers that read one.
//!
//! Every byte written flows through [`io::FaultFile`], which under the
//! test-only `failpoints` feature applies injected crash faults
//! byte-exactly; the crash-point sweep in `tests/crash_sweep.rs` uses this
//! to kill the writer at every byte offset of a reference run and prove
//! recovery lands on a batch boundary each time.

pub mod codec;
pub mod crc;
pub mod engine;
pub mod error;
pub mod io;
pub mod snapshot;
pub mod wal;

pub use crc::crc32;
pub use engine::{edb_record, CommitStats, DurableEngine, DurableStore, RecoveryStats};
pub use error::DurableError;
pub use snapshot::{decode_snapshot, encode_snapshot, read_snapshot, write_snapshot};
pub use wal::{
    apply_to_database, decode_wal, read_wal, Op, Wal, WalBatch, WalContents, WalRecord, WAL_HEADER,
};
