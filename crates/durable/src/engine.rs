//! The durable store — an extensional database whose mutations survive
//! crashes — and the durable engine, which maintains the program's
//! materialisation on top of one.
//!
//! ## Commit protocol (write-ahead)
//!
//! Mutations buffer in memory ([`DurableStore::insert`] /
//! [`DurableStore::delete`]) and become visible only at
//! [`DurableStore::commit`]:
//!
//! 1. the batch is appended to the WAL as one checksummed, commit-marked
//!    frame and **fsynced**;
//! 2. only then are its records applied, in order, to the in-memory EDB
//!    ([`apply_to_database`]) — the same fold recovery replays.
//!
//! A crash before step 1 completes leaves a torn tail that recovery
//! truncates — the batch never happened. A crash after step 1 leaves the
//! frame committed — recovery replays it. There is no interleaving in which
//! a *prefix* of a batch survives: atomicity is the frame.
//!
//! ## Checkpoints
//!
//! [`DurableStore::checkpoint`] writes the current EDB as a snapshot
//! (atomically: temp file + rename) and then empties the WAL. If the
//! snapshot write fails, nothing changed — the old snapshot and full WAL
//! still recover. If the WAL truncation fails *after* the snapshot renamed,
//! the pair on disk is still recoverable (replaying the old batches against
//! the new snapshot converges: the log is a linear history and replay is
//! idempotent), but appending new frames behind a stale log is not — so the
//! store poisons itself and every later mutation returns
//! [`DurableError::Poisoned`]. Recover from disk to continue.
//!
//! ## Recovery
//!
//! [`DurableStore::recover`] loads the snapshot, folds every committed WAL
//! batch into it in sequence order (the same [`apply_to_database`] commit
//! runs), and truncates any torn tail. Nothing is derived: the store holds
//! the EDB of a committed prefix, and derived (IDB) state is a function of
//! it — whoever evaluates the program over [`DurableStore::db`] recomputes
//! it, so a snapshot can never smuggle in facts the program does not
//! justify. The program is consulted only to keep intensional predicates
//! out of the store.
//!
//! ## The durable engine
//!
//! [`DurableEngine`] is a store plus an [`IncrementalEngine`] over its EDB:
//! each commit also applies the batch to the materialisation, and recovery
//! materialises the recovered EDB once. The query server does not use it —
//! its readers evaluate goal-directed over a store's EDB — so it is for
//! callers that read the maintained view, such as the durability
//! benchmarks.

use crate::error::DurableError;
use crate::snapshot::{read_snapshot, write_snapshot};
use crate::wal::{apply_to_database, read_wal, Op, Wal, WalContents, WalRecord};
use alexander_eval::{EvalError, IncrementalEngine};
use alexander_ir::{Atom, Predicate, Program};
use alexander_storage::Database;
use std::path::{Path, PathBuf};

/// What a recovery found on disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Facts loaded from the snapshot (EDB only).
    pub snapshot_facts: usize,
    /// Committed batches replayed from the WAL.
    pub batches_replayed: usize,
    /// Individual insert/delete records replayed.
    pub records_replayed: usize,
    /// Bytes of torn tail after the WAL's committed prefix (0 for a clean
    /// shutdown). [`DurableStore::recover`] truncates them; a read-only
    /// [`replay`] leaves the file alone.
    pub torn_bytes: u64,
}

/// A snapshot/WAL pair read back without changing either file.
#[derive(Debug)]
pub struct Replay {
    /// The snapshot with every committed batch folded in, in order.
    pub edb: Database,
    pub stats: RecoveryStats,
    /// The WAL as read: its batches and where its committed prefix ends.
    pub wal: WalContents,
}

/// Folds a snapshot/WAL pair into the EDB it describes: the snapshot, then
/// every committed batch in sequence order through [`apply_to_database`] —
/// the fold commit runs. A snapshot row or logged record naming an
/// intensional predicate of `program` is refused: it can only be there if
/// the program changed underneath the files (or the files are not this
/// store's), and derived facts are never stored. Read-only: a
/// torn tail is measured, not truncated. [`DurableStore::recover`] is this
/// plus the truncation; read-only callers (the CLI's `--recover`) use it as
/// is.
pub fn replay(
    program: &Program,
    snapshot_path: &Path,
    wal_path: &Path,
) -> Result<Replay, DurableError> {
    let mut edb = read_snapshot(snapshot_path)?;
    if let Some(pred) = edb.intensional_rows(program) {
        return Err(EvalError::IdbUpdate(pred).into());
    }
    let mut stats = RecoveryStats {
        snapshot_facts: edb.total_tuples(),
        ..RecoveryStats::default()
    };
    let wal = read_wal(wal_path)?;
    for batch in &wal.batches {
        for rec in &batch.records {
            extensional(program, rec.pred)?;
        }
        apply_to_database(&batch.records, &mut edb);
        stats.records_replayed += batch.records.len();
        stats.batches_replayed += 1;
    }
    if wal.torn {
        let disk_len = std::fs::metadata(wal_path)
            .map_err(|e| DurableError::io("stat", wal_path, e))?
            .len();
        stats.torn_bytes = disk_len - wal.valid_len;
    }
    Ok(Replay { edb, stats, wal })
}

/// One committed batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommitStats {
    /// Sequence number the batch committed under (`None`: empty batch,
    /// nothing was written).
    pub seq: Option<u64>,
    /// Insert/delete records in the batch.
    pub records: usize,
}

/// A crash-safe extensional database (see module docs for the protocol).
pub struct DurableStore {
    program: Program,
    edb: Database,
    wal: Wal,
    snapshot_path: PathBuf,
    pending: Vec<WalRecord>,
    /// `Some(op)` once a commit/checkpoint failed half-way; every later
    /// mutation returns [`DurableError::Poisoned`] naming `op`.
    poisoned: Option<&'static str>,
}

/// Rejects a record for an intensional predicate: derived facts are never
/// stored.
fn extensional(program: &Program, pred: Predicate) -> Result<(), DurableError> {
    if program.is_idb(pred) {
        return Err(EvalError::IdbUpdate(pred).into());
    }
    Ok(())
}

/// `fact` as a record a store for `program` accepts: ground and
/// extensional. Every mutation is checked here before it is buffered, so a
/// commit can never log a record recovery would then reject — once a frame
/// is fsynced it *will* be replayed.
pub fn edb_record(program: &Program, op: Op, fact: &Atom) -> Result<WalRecord, DurableError> {
    extensional(program, fact.predicate())?;
    let values = fact.ground_args().ok_or_else(|| {
        EvalError::Invalid(vec![alexander_ir::ProgramError::NonGroundFact {
            fact: fact.to_string(),
        }])
    })?;
    Ok(WalRecord {
        op,
        pred: fact.predicate(),
        values,
    })
}

impl DurableStore {
    /// Starts a fresh durable store: writes `edb` as the initial snapshot
    /// and creates an empty WAL. Existing files at either path are
    /// replaced. An `edb` holding rows of an intensional predicate is
    /// refused before anything is written.
    pub fn create(
        program: Program,
        edb: Database,
        snapshot_path: &Path,
        wal_path: &Path,
    ) -> Result<DurableStore, DurableError> {
        program.validate().map_err(EvalError::Invalid)?;
        if let Some(pred) = edb.intensional_rows(&program) {
            return Err(EvalError::IdbUpdate(pred).into());
        }
        write_snapshot(&edb, snapshot_path)?;
        let wal = Wal::create(wal_path)?;
        Ok(DurableStore::over(program, edb, wal, snapshot_path))
    }

    /// A usable handle: nothing pending, not poisoned.
    fn over(program: Program, edb: Database, wal: Wal, snapshot_path: &Path) -> DurableStore {
        DurableStore {
            program,
            edb,
            wal,
            snapshot_path: snapshot_path.to_path_buf(),
            pending: Vec::new(),
            poisoned: None,
        }
    }

    /// Rebuilds the EDB from what is on disk ([`replay`]: snapshot, then
    /// committed WAL batches in order) and truncates any torn tail. The
    /// returned store is ready for new batches.
    ///
    /// This is also the escape hatch after a poisoned handle (see
    /// [`DurableError::Poisoned`]): drop the poisoned store and recover —
    /// disk is authoritative, so the recovered store reflects exactly the
    /// batches that committed before the failure.
    pub fn recover(
        program: Program,
        snapshot_path: &Path,
        wal_path: &Path,
    ) -> Result<(DurableStore, RecoveryStats), DurableError> {
        program.validate().map_err(EvalError::Invalid)?;
        let Replay { edb, stats, wal } = replay(&program, snapshot_path, wal_path)?;
        let wal = Wal::open_append(wal_path, &wal)?;
        Ok((DurableStore::over(program, edb, wal, snapshot_path), stats))
    }

    /// The committed EDB. Uncommitted buffered mutations are *not* visible
    /// here — they apply at [`Self::commit`]. Cloning it is copy-on-write,
    /// O(#relations): serving layers publish such clones as epochs.
    pub fn db(&self) -> &Database {
        &self.edb
    }

    /// Buffered (uncommitted) mutation count.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Bytes of committed WAL, header included.
    pub fn wal_len(&self) -> u64 {
        self.wal.len()
    }

    /// Whether this handle is poisoned, and by which operation.
    pub fn poisoned_by(&self) -> Option<&'static str> {
        self.poisoned
    }

    fn check_usable(&self) -> Result<(), DurableError> {
        if let Some(op) = self.poisoned {
            return Err(DurableError::Poisoned { op });
        }
        Ok(())
    }

    fn buffer(&mut self, op: Op, fact: &Atom) -> Result<(), DurableError> {
        self.check_usable()?;
        self.pending.push(edb_record(&self.program, op, fact)?);
        Ok(())
    }

    /// Buffers an EDB insertion for the next commit.
    pub fn insert(&mut self, fact: &Atom) -> Result<(), DurableError> {
        self.buffer(Op::Insert, fact)
    }

    /// Buffers an EDB deletion for the next commit.
    pub fn delete(&mut self, fact: &Atom) -> Result<(), DurableError> {
        self.buffer(Op::Delete, fact)
    }

    /// Commits the buffered batch: logs it durably, then applies it to the
    /// EDB. A failed append poisons the store (this handle cannot know how
    /// much persisted); the on-disk pair stays recoverable.
    pub fn commit(&mut self) -> Result<CommitStats, DurableError> {
        self.check_usable()?;
        if self.pending.is_empty() {
            return Ok(CommitStats::default());
        }
        let batch = std::mem::take(&mut self.pending);
        let seq = match self.wal.append_batch(&batch) {
            Ok(seq) => seq,
            Err(e) => {
                // The append may have left a torn tail; this handle cannot
                // know how much persisted, so it stops accepting writes.
                self.poisoned = Some("commit: wal append");
                return Err(e);
            }
        };
        apply_to_database(&batch, &mut self.edb);
        Ok(CommitStats {
            seq: Some(seq),
            records: batch.len(),
        })
    }

    /// Writes the current EDB as a fresh snapshot and empties the WAL.
    /// Buffered (uncommitted) mutations must be committed or they are not
    /// part of the checkpoint — calling with a non-empty buffer is rejected
    /// with [`DurableError::Pending`].
    pub fn checkpoint(&mut self) -> Result<(), DurableError> {
        self.check_usable()?;
        if !self.pending.is_empty() {
            return Err(DurableError::Pending {
                records: self.pending.len(),
            });
        }
        // Atomic: on failure the old snapshot is intact and the WAL still
        // holds every batch, so nothing is poisoned.
        write_snapshot(&self.edb, &self.snapshot_path)?;
        // The snapshot now covers everything in the log. If this truncation
        // fails the pair is STILL recoverable (replay converges), but new
        // appends behind a stale log would not be — poison.
        if let Err(e) = self.wal.truncate_to_header() {
            self.poisoned = Some("checkpoint: wal truncate");
            return Err(e);
        }
        Ok(())
    }
}

/// A [`DurableStore`] with the program's materialisation maintained on top
/// (see module docs). Definite programs only, as [`IncrementalEngine`].
pub struct DurableEngine {
    store: DurableStore,
    view: IncrementalEngine,
}

impl DurableEngine {
    /// Materialises `program` over `edb`, then starts a fresh durable store
    /// from `edb` (see [`DurableStore::create`]).
    pub fn create(
        program: Program,
        edb: Database,
        snapshot_path: &Path,
        wal_path: &Path,
    ) -> Result<DurableEngine, DurableError> {
        let view = IncrementalEngine::new(program.clone(), edb.clone())?;
        let store = DurableStore::create(program, edb, snapshot_path, wal_path)?;
        Ok(DurableEngine { store, view })
    }

    /// Recovers the store from disk (see [`DurableStore::recover`]), then
    /// materialises the program over the recovered EDB.
    pub fn recover(
        program: Program,
        snapshot_path: &Path,
        wal_path: &Path,
    ) -> Result<(DurableEngine, RecoveryStats), DurableError> {
        let (store, stats) = DurableStore::recover(program.clone(), snapshot_path, wal_path)?;
        let view = IncrementalEngine::new(program, store.db().clone())?;
        Ok((DurableEngine { store, view }, stats))
    }

    /// The maintained database (EDB + derived facts), as of the last
    /// commit.
    pub fn db(&self) -> &Database {
        self.view.db()
    }

    /// Bytes of committed WAL, header included.
    pub fn wal_len(&self) -> u64 {
        self.store.wal_len()
    }

    /// Buffers an EDB insertion for the next commit.
    pub fn insert(&mut self, fact: &Atom) -> Result<(), DurableError> {
        self.store.insert(fact)
    }

    /// Buffers an EDB deletion for the next commit.
    pub fn delete(&mut self, fact: &Atom) -> Result<(), DurableError> {
        self.store.delete(fact)
    }

    /// Commits the buffered batch to the store, then applies it to the
    /// materialisation as one mixed delta.
    pub fn commit(&mut self) -> Result<CommitStats, DurableError> {
        let ops: Vec<(bool, Atom)> = self
            .store
            .pending
            .iter()
            .map(|r| (r.op == Op::Insert, r.atom()))
            .collect();
        let stats = self.store.commit()?;
        // invariant: the store checked every record at buffer time (ground,
        // extensional), which is all `apply_batch` rejects.
        self.view
            .apply_batch(&ops)
            .expect("committed records are ground and extensional");
        Ok(stats)
    }

    /// Checkpoints the store (see [`DurableStore::checkpoint`]).
    pub fn checkpoint(&mut self) -> Result<(), DurableError> {
        self.store.checkpoint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alexander_ir::Const;
    use alexander_parser::{parse, parse_atom};
    use alexander_storage::row_atom;

    fn tc_program() -> Program {
        parse("path(X, Y) :- edge(X, Y).\npath(X, Z) :- path(X, Y), edge(Y, Z).")
            .expect("parses")
            .program
    }

    fn edge(a: &str, b: &str) -> Atom {
        row_atom(
            alexander_ir::Symbol::intern("edge"),
            &[Const::sym(a), Const::sym(b)],
        )
    }

    fn snap(db: &Database) -> Vec<String> {
        let mut out: Vec<String> = db
            .predicates()
            .into_iter()
            .flat_map(|p| db.atoms_of(p))
            .map(|a| a.to_string())
            .collect();
        out.sort();
        out
    }

    fn paths(name: &str) -> (PathBuf, PathBuf) {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        (
            dir.join(format!("alexander_eng_{name}_{pid}.snap")),
            dir.join(format!("alexander_eng_{name}_{pid}.wal")),
        )
    }

    #[test]
    fn commit_then_recover_roundtrips() {
        let (sp, wp) = paths("rt");
        let mut eng = DurableStore::create(tc_program(), Database::new(), &sp, &wp).unwrap();
        eng.insert(&edge("a", "b")).unwrap();
        eng.insert(&edge("b", "c")).unwrap();
        let st = eng.commit().unwrap();
        assert_eq!(st.seq, Some(1));
        assert_eq!(st.records, 2);
        eng.delete(&edge("b", "c")).unwrap();
        eng.commit().unwrap();
        let want = snap(eng.db());
        assert_eq!(want, ["edge(a, b)"], "the store holds the EDB only");
        drop(eng);

        let (rec, stats) = DurableStore::recover(tc_program(), &sp, &wp).unwrap();
        assert_eq!(snap(rec.db()), want);
        assert_eq!(stats.batches_replayed, 2);
        assert_eq!(stats.records_replayed, 3);
        assert_eq!(stats.torn_bytes, 0);
        std::fs::remove_file(&sp).ok();
        std::fs::remove_file(&wp).ok();
    }

    #[test]
    fn checkpoint_empties_wal_and_still_recovers() {
        let (sp, wp) = paths("ckpt");
        let mut eng = DurableStore::create(tc_program(), Database::new(), &sp, &wp).unwrap();
        eng.insert(&edge("a", "b")).unwrap();
        eng.commit().unwrap();
        eng.checkpoint().unwrap();
        assert_eq!(eng.wal_len(), crate::wal::WAL_HEADER);
        eng.insert(&edge("b", "c")).unwrap();
        eng.commit().unwrap();
        let want = snap(eng.db());
        drop(eng);

        let (rec, stats) = DurableStore::recover(tc_program(), &sp, &wp).unwrap();
        assert_eq!(snap(rec.db()), want);
        // Only the post-checkpoint batch is in the log.
        assert_eq!(stats.batches_replayed, 1);
        assert_eq!(stats.snapshot_facts, 1);
        std::fs::remove_file(&sp).ok();
        std::fs::remove_file(&wp).ok();
    }

    #[test]
    fn uncommitted_mutations_are_invisible_and_block_checkpoints() {
        let (sp, wp) = paths("pending");
        let mut eng = DurableStore::create(tc_program(), Database::new(), &sp, &wp).unwrap();
        eng.insert(&edge("a", "b")).unwrap();
        assert_eq!(eng.pending(), 1);
        assert_eq!(eng.db().total_tuples(), 0, "not visible before commit");
        let before = std::fs::read(&sp).unwrap();
        let err = eng.checkpoint().unwrap_err();
        assert!(matches!(err, DurableError::Pending { records: 1 }), "{err}");
        assert_eq!(
            std::fs::read(&sp).unwrap(),
            before,
            "the snapshot is untouched"
        );
        // The refusal is the caller's error, not the store's: committing
        // first lets the same handle checkpoint.
        eng.commit().unwrap();
        eng.checkpoint().unwrap();
        assert_eq!(snap(&read_snapshot(&sp).unwrap()), ["edge(a, b)"]);
        std::fs::remove_file(&sp).ok();
        std::fs::remove_file(&wp).ok();
    }

    #[test]
    fn idb_and_nonground_mutations_are_rejected_at_buffer_time() {
        let (sp, wp) = paths("reject");
        let mut eng = DurableStore::create(tc_program(), Database::new(), &sp, &wp).unwrap();
        let idb = row_atom(
            alexander_ir::Symbol::intern("path"),
            &[Const::sym("a"), Const::sym("b")],
        );
        assert!(matches!(
            eng.insert(&idb).unwrap_err(),
            DurableError::Replay(EvalError::IdbUpdate(_))
        ));
        let nonground = Atom::new(
            "edge",
            vec![alexander_ir::Term::var("X"), alexander_ir::Term::sym("b")],
        );
        assert!(eng.insert(&nonground).is_err());
        assert_eq!(eng.pending(), 0);
        std::fs::remove_file(&sp).ok();
        std::fs::remove_file(&wp).ok();
    }

    #[test]
    fn a_logged_predicate_that_became_intensional_is_refused_at_recovery() {
        let (sp, wp) = paths("idbreplay");
        let mut eng = DurableStore::create(tc_program(), Database::new(), &sp, &wp).unwrap();
        eng.insert(&edge("a", "b")).unwrap();
        eng.commit().unwrap();
        drop(eng);
        let changed = parse("edge(X, Y) :- link(X, Y).").unwrap().program;
        assert!(matches!(
            DurableStore::recover(changed, &sp, &wp),
            Err(DurableError::Replay(EvalError::IdbUpdate(_)))
        ));
        std::fs::remove_file(&sp).ok();
        std::fs::remove_file(&wp).ok();
    }

    #[test]
    fn create_refuses_an_edb_with_rows_of_an_intensional_predicate() {
        let (sp, wp) = paths("idbcreate");
        let mut edb = Database::new();
        edb.insert_atom(&edge("a", "b")).unwrap();
        edb.insert_atom(&parse_atom("path(z, q)").unwrap()).unwrap();
        assert!(matches!(
            DurableStore::create(tc_program(), edb, &sp, &wp),
            Err(DurableError::Replay(EvalError::IdbUpdate(p))) if p == Predicate::new("path", 2)
        ));
        assert!(!sp.exists() && !wp.exists(), "nothing is written");
    }

    #[test]
    fn a_snapshot_row_of_an_intensional_predicate_is_refused_at_replay() {
        let (sp, wp) = paths("idbsnap");
        let mut eng = DurableStore::create(tc_program(), Database::new(), &sp, &wp).unwrap();
        eng.insert(&edge("a", "b")).unwrap();
        eng.commit().unwrap();
        eng.checkpoint().unwrap();
        drop(eng);
        // The log is empty: only the snapshot names `edge`.
        let changed = parse("edge(X, Y) :- link(X, Y).").unwrap().program;
        assert!(matches!(
            replay(&changed, &sp, &wp),
            Err(DurableError::Replay(EvalError::IdbUpdate(p))) if p == Predicate::new("edge", 2)
        ));
        std::fs::remove_file(&sp).ok();
        std::fs::remove_file(&wp).ok();
    }

    #[test]
    fn programs_with_negation_are_stored_like_any_other() {
        let (sp, wp) = paths("neg");
        let program = parse("win(X) :- move(X, Y), not win(Y).").unwrap().program;
        let mv = |a: &str, b: &str| {
            row_atom(
                alexander_ir::Symbol::intern("move"),
                &[Const::sym(a), Const::sym(b)],
            )
        };
        let mut eng = DurableStore::create(program.clone(), Database::new(), &sp, &wp).unwrap();
        eng.insert(&mv("a", "b")).unwrap();
        eng.insert(&mv("b", "a")).unwrap();
        eng.commit().unwrap();
        eng.delete(&mv("b", "a")).unwrap();
        eng.commit().unwrap();
        drop(eng);
        let (rec, _) = DurableStore::recover(program, &sp, &wp).unwrap();
        assert_eq!(snap(rec.db()), ["move(a, b)"]);
        std::fs::remove_file(&sp).ok();
        std::fs::remove_file(&wp).ok();
    }

    #[test]
    fn empty_commit_writes_nothing() {
        let (sp, wp) = paths("nop");
        let mut eng = DurableStore::create(tc_program(), Database::new(), &sp, &wp).unwrap();
        let before = eng.wal_len();
        let st = eng.commit().unwrap();
        assert_eq!(st.seq, None);
        assert_eq!(eng.wal_len(), before);
        std::fs::remove_file(&sp).ok();
        std::fs::remove_file(&wp).ok();
    }

    #[test]
    fn the_engine_maintains_and_recovers_the_materialisation() {
        let (sp, wp) = paths("view");
        let mut eng = DurableEngine::create(tc_program(), Database::new(), &sp, &wp).unwrap();
        eng.insert(&edge("a", "b")).unwrap();
        eng.insert(&edge("b", "c")).unwrap();
        eng.commit().unwrap();
        eng.delete(&edge("a", "b")).unwrap();
        eng.insert(&edge("c", "d")).unwrap();
        eng.commit().unwrap();
        let want = snap(eng.db());
        assert!(want.contains(&"path(b, d)".to_string()), "{want:?}");
        assert!(!want.contains(&"path(a, c)".to_string()), "{want:?}");
        drop(eng);

        let (rec, stats) = DurableEngine::recover(tc_program(), &sp, &wp).unwrap();
        assert_eq!(snap(rec.db()), want);
        assert_eq!(stats.batches_replayed, 2);
        std::fs::remove_file(&sp).ok();
        std::fs::remove_file(&wp).ok();
    }

    #[test]
    fn the_engine_refuses_programs_with_negation_before_touching_disk() {
        let (sp, wp) = paths("engneg");
        let program = parse("win(X) :- move(X, Y), not win(Y).").unwrap().program;
        assert!(matches!(
            DurableEngine::create(program, Database::new(), &sp, &wp),
            Err(DurableError::Replay(EvalError::NegatedIdb(_)))
        ));
        assert!(!sp.exists() && !wp.exists());
    }
}
