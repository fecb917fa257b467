//! The query service: one writer, many epoch-pinned readers, and a
//! supervisor that heals the writer when disk fails.
//!
//! All mutations serialise through a single writer slot holding one EDB —
//! the [`DurableStore`]'s when the service was opened on a snapshot/WAL
//! pair, an in-memory [`Database`] otherwise — and nothing derived.
//! `INSERT`/`DELETE` buffer; `COMMIT` applies the batch (durably: WAL
//! append and fsync first) and publishes that EDB as the next [`Epoch`].
//! The publish is a copy-on-write clone, O(#relations): the epoch freezes,
//! and the writer's next mutation copies only the relations it touches.
//!
//! Queries admission-check, pin the current epoch, and evaluate against its
//! engine, built once per epoch with the service's budget. A query pinned at
//! generation N returns bit-identical answers whether or not generations
//! N+1.. commit mid-query.
//!
//! When a durable commit half-fails (the writer poisons because disk and
//! memory may disagree) the service does not die: it enters the degraded
//! read-only state ([`ServerState::Degraded`]) — every published epoch
//! keeps answering queries, mutations return [`ServerError::Degraded`] —
//! and a supervisor thread re-opens the snapshot/WAL pair with bounded
//! jittered exponential backoff. Recovery treats disk as authoritative:
//! the failed batch may have fully persisted (the fsync *result* was lost,
//! not necessarily the bytes), so the healed state is republished as a new
//! epoch unconditionally, and clients observe either the batch's presence
//! or its absence — always a committed-batch boundary, never a torn state.

use crate::admission::Admission;
use crate::epoch::{Epoch, EpochStore};
use crate::health::{Health, ServerState};
use alexander_core::{Engine, EngineError, Strategy};
use alexander_durable::{apply_to_database, edb_record, DurableError, DurableStore, Op, WalRecord};
use alexander_eval::{Budget, EvalError};
use alexander_ir::{render_atoms, Atom, Program};
use alexander_storage::Database;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Serving knobs; `Default` suits tests and small deployments.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Global cap on concurrently executing queries.
    pub max_concurrent: usize,
    /// Per-tenant cap (clamped to `max_concurrent`).
    pub tenant_cap: usize,
    /// Admission wait-queue bound; arrivals beyond it are shed with
    /// [`ServerError::Busy`] instead of queueing unbounded latency.
    pub max_queue: usize,
    /// Has no effect and is read by nothing: every fixpoint round runs on the
    /// calling thread. Kept only until the `e2e` benchmark stops naming it
    /// (ROADMAP item 1(d)).
    pub threads: usize,
    /// The budget every query runs under.
    pub budget: Budget,
    /// Strategy used when a request names none.
    pub default_strategy: Strategy,
    /// Sessions idle longer than this are closed (None = never).
    pub idle_timeout: Option<Duration>,
    /// Per-write socket deadline; a client that can't drain a reply within
    /// it is disconnected as a slow client (None = block forever).
    pub write_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_concurrent: 8,
            tenant_cap: 4,
            max_queue: 16,
            threads: 1,
            budget: Budget::default(),
            default_strategy: Strategy::Alexander,
            idle_timeout: Some(Duration::from_secs(300)),
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// Everything the service can report to a client.
#[derive(Debug)]
pub enum ServerError {
    /// Malformed request content (bad atom text, unknown strategy, …).
    Parse(String),
    /// The engine rejected the query (invalid program state, undefined
    /// answers under conditional semantics, …).
    Engine(String),
    /// A mutation was rejected before buffering (IDB target, non-ground).
    Rejected(String),
    /// The durable writer failed; carries the structured cause (including
    /// `Poisoned { op }` after a half-failed commit).
    Durable(DurableError),
    /// The service is in degraded read-only mode; reads keep serving, the
    /// supervisor is recovering the writer. Wire form: `ERR DEGRADED <r>`.
    Degraded(String),
    /// Shed by overload control; retry after the hinted backoff. Wire
    /// form: `ERR BUSY retry-after-ms=<n>`.
    Busy { retry_after_ms: u64 },
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Parse(m) => write!(f, "parse error: {m}"),
            ServerError::Engine(m) => write!(f, "query error: {m}"),
            ServerError::Rejected(m) => write!(f, "rejected: {m}"),
            ServerError::Durable(e) => write!(f, "durable error: {e}"),
            ServerError::Degraded(r) => write!(f, "degraded (read-only): {r}"),
            ServerError::Busy { retry_after_ms } => {
                write!(f, "busy: retry after {retry_after_ms}ms")
            }
        }
    }
}

impl std::error::Error for ServerError {}

impl From<DurableError> for ServerError {
    fn from(e: DurableError) -> ServerError {
        ServerError::Durable(e)
    }
}

/// One answered query.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// The epoch the query was pinned to for its whole execution.
    pub generation: u64,
    /// The strategy that answered it.
    pub strategy: Strategy,
    /// Sorted, deduplicated ground answers, rendered as atom text.
    pub answers: Vec<String>,
    /// False when the service's budget stopped evaluation early; the
    /// answers are then a sound subset.
    pub complete: bool,
    /// Human-readable completion state (`"complete"`, `"budget exhausted
    /// (facts)"`, …).
    pub completion: String,
}

/// One committed batch, as seen by clients.
#[derive(Clone, Copy, Debug)]
pub struct CommitInfo {
    /// The generation the batch created; the current one when no record
    /// changed the EDB.
    pub generation: u64,
    /// Records in the batch (inserts + deletes).
    pub committed: usize,
}

/// The writer half: the committed EDB the next epoch is published from,
/// and the batch buffered against it.
enum Writer {
    /// Disk truth: the durable store holds the EDB and the buffer.
    Durable(DurableStore),
    /// No store: the EDB and the buffer live here alone.
    InMemory {
        edb: Database,
        pending: Vec<WalRecord>,
    },
}

impl Writer {
    fn edb(&self) -> &Database {
        match self {
            Writer::Durable(d) => d.db(),
            Writer::InMemory { edb, .. } => edb,
        }
    }

    fn pending(&self) -> usize {
        match self {
            Writer::Durable(d) => d.pending(),
            Writer::InMemory { pending, .. } => pending.len(),
        }
    }

    fn poisoned_by(&self) -> Option<&'static str> {
        match self {
            Writer::Durable(d) => d.poisoned_by(),
            Writer::InMemory { .. } => None,
        }
    }

    /// Buffers `fact` for the next commit, if a store for `program` can
    /// hold it ([`edb_record`]; the durable store checks against its own
    /// copy of the same program).
    fn buffer(&mut self, program: &Program, op: Op, fact: &Atom) -> Result<(), DurableError> {
        match self {
            Writer::Durable(d) => match op {
                Op::Insert => d.insert(fact),
                Op::Delete => d.delete(fact),
            },
            Writer::InMemory { pending, .. } => {
                pending.push(edb_record(program, op, fact)?);
                Ok(())
            }
        }
    }

    /// Applies the buffered batch to the EDB — durably: WAL append and
    /// fsync first — and returns its record count and how many of its
    /// records changed the EDB.
    fn commit(&mut self) -> Result<(usize, usize), DurableError> {
        match self {
            Writer::Durable(d) => d.commit().map(|s| (s.records, s.changed)),
            Writer::InMemory { edb, pending } => {
                let changed = apply_to_database(pending, edb);
                Ok((std::mem::take(pending).len(), changed))
            }
        }
    }
}

/// Shared service state: what the public [`QueryService`] handle and the
/// supervisor thread both hold.
struct Core {
    /// The validated, normalised program: its rules, including its inline
    /// facts of intensional predicates as body-less rules. Its extensional
    /// inline facts seeded the writer's EDB at open.
    program: Program,
    epochs: EpochStore,
    writer: Mutex<Writer>,
    admission: Admission,
    config: ServerConfig,
    health: Health,
    /// The snapshot/WAL pair the supervisor heals from; `None` = in-memory.
    store: Option<(PathBuf, PathBuf)>,
    stop: AtomicBool,
}

/// A long-lived, multi-tenant query service (see module docs). Dropping it
/// stops the supervisor thread.
pub struct QueryService {
    core: Arc<Core>,
    supervisor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl QueryService {
    /// Opens the service. With `store = Some((snapshot, wal))` the writer is
    /// durable: an existing pair is recovered (committed batches replayed,
    /// torn tails truncated; `edb` is not re-added), a missing one is
    /// created from `edb`, and a supervisor thread is started to heal the
    /// writer if it later poisons. A half-present pair (exactly one of the
    /// two files) is an error — creating over the survivor would silently
    /// wipe committed data. With `None` the service is in-memory, over
    /// `edb`. An `edb` (or a recovered store) holding rows of an
    /// intensional predicate is refused: derived facts are never stored.
    ///
    /// Either way, the program's inline facts of extensional predicates
    /// that the writer's EDB lacks are then committed as one batch, as a
    /// client's would be: each open re-asserts what the program states,
    /// including facts added to it after the store was created.
    pub fn open(
        mut program: Program,
        edb: Database,
        store: Option<(&Path, &Path)>,
        config: ServerConfig,
    ) -> Result<QueryService, ServerError> {
        program
            .validate()
            .map_err(|e| ServerError::Engine(EngineError::Invalid(e).to_string()))?;
        program.normalize();
        let seed = std::mem::take(&mut program.facts);
        let mut writer = match store {
            Some((snap, wal)) => Writer::Durable(match (snap.exists(), wal.exists()) {
                (true, true) => DurableStore::recover(program.clone(), snap, wal)?.0,
                (false, false) => DurableStore::create(program.clone(), edb, snap, wal)?,
                (snap_there, _) => {
                    let (there, missing) = if snap_there { (snap, wal) } else { (wal, snap) };
                    return Err(ServerError::Rejected(format!(
                        "refusing to open a half-present durable store: {} exists but {} \
                         is missing; restore the pair or remove both to start fresh",
                        there.display(),
                        missing.display()
                    )));
                }
            }),
            None => {
                if let Some(pred) = edb.intensional_rows(&program) {
                    return Err(ServerError::Rejected(
                        EvalError::IdbUpdate(pred).to_string(),
                    ));
                }
                Writer::InMemory {
                    edb,
                    pending: Vec::new(),
                }
            }
        };
        for fact in &seed {
            if !writer.edb().contains_atom(fact) {
                writer.buffer(&program, Op::Insert, fact)?;
            }
        }
        writer.commit()?;
        let engine0 = epoch_engine(&program, writer.edb(), &config);
        let admission = Admission::new(config.max_concurrent, config.tenant_cap, config.max_queue);
        let core = Arc::new(Core {
            program,
            epochs: EpochStore::new(Epoch::new(0, engine0)),
            writer: Mutex::new(writer),
            admission,
            config,
            health: Health::default(),
            store: store.map(|(s, w)| (s.to_path_buf(), w.to_path_buf())),
            stop: AtomicBool::new(false),
        });
        // Only a durable writer can poison, so only a durable service needs
        // a supervisor.
        let supervisor = if core.store.is_some() {
            let sup = core.clone();
            Some(std::thread::spawn(move || supervise(&sup)))
        } else {
            None
        };
        Ok(QueryService {
            core,
            supervisor: Mutex::new(supervisor),
        })
    }

    /// Answers `query` for `tenant` under the config's budget. Waits in the
    /// bounded admission queue for a slot; sheds with [`ServerError::Busy`]
    /// when the queue is full; then pins the current epoch and evaluates
    /// wholly against it. Degraded mode does not affect this path — reads
    /// serve in every state.
    pub fn query(
        &self,
        tenant: &str,
        query: &Atom,
        strategy: Option<Strategy>,
    ) -> Result<QueryResponse, ServerError> {
        let _slot = self
            .core
            .admission
            .admit(tenant)
            .map_err(|b| ServerError::Busy {
                retry_after_ms: b.retry_after_ms,
            })?;
        let epoch = self.core.epochs.pin();
        let strategy = strategy.unwrap_or(self.core.config.default_strategy);
        let r = epoch
            .engine()
            .query(query, strategy)
            .map_err(|e| ServerError::Engine(e.to_string()))?;
        Ok(QueryResponse {
            generation: epoch.generation(),
            strategy,
            answers: render_atoms(&r.answers),
            complete: r.report.completion.is_complete(),
            completion: r.report.completion.to_string(),
        })
    }

    /// Buffers an EDB insertion; returns the pending batch size.
    pub fn insert(&self, fact: &Atom) -> Result<usize, ServerError> {
        self.buffer(Op::Insert, fact)
    }

    /// Buffers an EDB deletion; returns the pending batch size.
    pub fn delete(&self, fact: &Atom) -> Result<usize, ServerError> {
        self.buffer(Op::Delete, fact)
    }

    fn buffer(&self, op: Op, fact: &Atom) -> Result<usize, ServerError> {
        let mut w = self.core.writer.lock().expect("writer lock");
        // Lock order: writer, then health — everywhere.
        if let ServerState::Degraded { reason } = self.core.health.state() {
            return Err(ServerError::Degraded(reason));
        }
        match w.buffer(&self.core.program, op, fact) {
            Ok(()) => Ok(w.pending()),
            // Intensional or not ground: no store can hold it.
            Err(DurableError::Replay(e)) => Err(ServerError::Rejected(e.to_string())),
            Err(e) => Err(self.core.writer_failed(&w, e)),
        }
    }

    /// Commits the buffered batch and, when it changed the EDB, publishes
    /// the next epoch over the writer's EDB; a batch that changed nothing
    /// keeps the current epoch. Durable mode: WAL append + fsync (the frame
    /// is written either way), then apply; a failed commit degrades the
    /// service to read-only (the buffered batch's fate is decided by
    /// recovery — disk is authoritative) and the supervisor heals it.
    pub fn commit(&self) -> Result<CommitInfo, ServerError> {
        let mut w = self.core.writer.lock().expect("writer lock");
        if let ServerState::Degraded { reason } = self.core.health.state() {
            return Err(ServerError::Degraded(reason));
        }
        let (committed, changed) = match w.commit() {
            Ok(counts) => counts,
            // The durable store already dropped the batch: its outcome is
            // indeterminate (the frame may be fully on disk even though the
            // commit call failed), so recovery decides.
            Err(e) => return Err(self.core.writer_failed(&w, e)),
        };
        if changed == 0 {
            return Ok(CommitInfo {
                generation: self.core.epochs.generation(),
                committed,
            });
        }
        // Publish under the writer lock so generations are strictly ordered
        // with commits. The epoch and the writer now share relations
        // copy-on-write.
        let generation =
            self.core
                .epochs
                .publish(epoch_engine(&self.core.program, w.edb(), &self.core.config));
        Ok(CommitInfo {
            generation,
            committed,
        })
    }

    /// Takes a durable checkpoint (atomic snapshot, then WAL truncate).
    /// `Ok(false)` for an in-memory service; rejected while mutations are
    /// pending (commit or discard them first). A checkpoint failure after
    /// the snapshot wrote but before the WAL truncated poisons the writer
    /// — the service degrades and the supervisor heals it like any other
    /// write-path failure.
    pub fn checkpoint(&self) -> Result<bool, ServerError> {
        let mut w = self.core.writer.lock().expect("writer lock");
        if let ServerState::Degraded { reason } = self.core.health.state() {
            return Err(ServerError::Degraded(reason));
        }
        if w.pending() > 0 {
            return Err(ServerError::Rejected(format!(
                "{} mutations pending; commit before checkpointing",
                w.pending()
            )));
        }
        let res = match &mut *w {
            Writer::InMemory { .. } => return Ok(false),
            Writer::Durable(d) => d.checkpoint(),
        };
        res.map(|()| true)
            .map_err(|e| self.core.writer_failed(&w, e))
    }

    /// The current (latest published) generation.
    pub fn generation(&self) -> u64 {
        self.core.epochs.generation()
    }

    /// Pins the current epoch — the same frozen view queries get.
    pub fn pin(&self) -> std::sync::Arc<Epoch> {
        self.core.epochs.pin()
    }

    /// The admission controller (exposed for monitoring and tests).
    pub fn admission(&self) -> &Admission {
        &self.core.admission
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.core.config
    }

    /// Buffered (uncommitted) mutations.
    pub fn pending(&self) -> usize {
        self.core.writer.lock().expect("writer lock").pending()
    }

    /// The current server state (healthy or degraded read-only).
    pub fn state(&self) -> ServerState {
        self.core.health.state()
    }

    /// Health counters and waits (exposed for monitoring and tests).
    pub fn health(&self) -> &Health {
        &self.core.health
    }

    /// Blocks until the service is healthy or `timeout` elapses.
    pub fn wait_for_healthy(&self, timeout: Duration) -> bool {
        self.core.health.wait_for(timeout, |s| !s.is_degraded())
    }

    /// Current WAL length in bytes (`None` for an in-memory service). The
    /// fault-injection tests aim WAL crash offsets relative to this.
    pub fn durable_wal_len(&self) -> Option<u64> {
        match &*self.core.writer.lock().expect("writer lock") {
            Writer::Durable(d) => Some(d.wal_len()),
            Writer::InMemory { .. } => None,
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.core.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.supervisor.lock().expect("supervisor lock").take() {
            t.join().ok();
        }
    }
}

impl Core {
    /// Classifies a durable-layer failure under the writer lock: poisoning
    /// degrades the service (the supervisor takes over), anything else is
    /// reported as-is.
    fn writer_failed(&self, w: &Writer, e: DurableError) -> ServerError {
        match w.poisoned_by() {
            Some(op) => {
                let reason = format!("writer poisoned by {op}");
                self.health.degrade(&reason);
                ServerError::Degraded(reason)
            }
            None => ServerError::Durable(e),
        }
    }

    /// One recovery attempt: re-open the snapshot/WAL pair (disk is
    /// authoritative), then atomically swap the writer and republish its
    /// EDB. Republishing is unconditional — the failed commit's frame may
    /// have fully persisted, in which case disk is *ahead* of the last
    /// published epoch and readers must see it.
    fn heal(&self) -> Result<(), ServerError> {
        // invariant: the supervisor only runs for durable services.
        let (snap, wal) = self.store.as_ref().expect("durable store");
        let (recovered, _stats) = DurableStore::recover(self.program.clone(), snap, wal)?;
        let engine = epoch_engine(&self.program, recovered.db(), &self.config);
        let mut w = self.writer.lock().expect("writer lock");
        *w = Writer::Durable(recovered);
        self.epochs.publish(engine);
        self.health.heal();
        Ok(())
    }
}

/// The engine an epoch serves: `program` over a copy-on-write clone of
/// `edb`, O(#relations), configured once with `config`'s budget, so a read
/// runs it as it is.
fn epoch_engine(program: &Program, edb: &Database, config: &ServerConfig) -> Engine {
    // invariant: `program` was validated at open and is never changed, and
    // `open` refuses an EDB with rows of an intensional predicate, so
    // construction cannot fail.
    Engine::new(program.clone(), edb.clone())
        .expect("program validated at open")
        .with_budget(config.budget)
}

/// The supervisor's delay after a failed heal attempt: the first retry…
const HEAL_BACKOFF_MS: u64 = 10;
/// …doubling (with jitter) up to this ceiling.
const HEAL_BACKOFF_MAX_MS: u64 = 1_000;

/// The supervisor loop: sleep until degraded, then retry [`Core::heal`]
/// with jittered exponential backoff until it succeeds or the service
/// stops. Backoff is bounded (`HEAL_BACKOFF_MAX_MS`) so a long outage
/// retries steadily instead of backing off into the far future.
fn supervise(core: &Core) {
    let mut rng = rng_seed();
    while core.health.wait_degraded_or_stop(&core.stop) {
        let mut backoff = HEAL_BACKOFF_MS;
        loop {
            if core.stop.load(Ordering::SeqCst) {
                return;
            }
            if core.heal().is_ok() {
                break;
            }
            // Full jitter in [backoff/2, backoff): desynchronises retry
            // storms if several services share a failing disk.
            let jitter = xorshift(&mut rng) % (backoff / 2 + 1);
            sleep_unless_stopped(&core.stop, Duration::from_millis(backoff / 2 + jitter));
            backoff = (backoff * 2).min(HEAL_BACKOFF_MAX_MS);
        }
    }
}

/// Sleeps in short slices so a stop request never waits out a long backoff.
fn sleep_unless_stopped(stop: &AtomicBool, total: Duration) {
    let deadline = Instant::now() + total;
    while !stop.load(Ordering::SeqCst) {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        std::thread::sleep((deadline - now).min(Duration::from_millis(20)));
    }
}

/// A seed that differs per process/thread without consulting the clock:
/// `RandomState` is randomly keyed at construction.
fn rng_seed() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    std::collections::hash_map::RandomState::new()
        .build_hasher()
        .finish()
        | 1
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

#[cfg(test)]
mod tests {
    use super::*;
    use alexander_parser::{parse, parse_atom};

    const RULES: &str = "anc(X, Y) :- par(X, Y). anc(X, Y) :- par(X, Z), anc(Z, Y).";

    fn service(extra_facts: &str) -> QueryService {
        let program = parse(&format!("{RULES} {extra_facts}")).unwrap().program;
        QueryService::open(program, Database::new(), None, ServerConfig::default()).unwrap()
    }

    #[test]
    fn commits_publish_epochs_and_pinned_queries_stay_put() {
        let s = service("par(a, b).");
        let q = parse_atom("anc(a, X)").unwrap();
        assert_eq!(s.generation(), 0);

        let epoch0 = s.pin();
        s.insert(&parse_atom("par(b, c)").unwrap()).unwrap();
        let info = s.commit().unwrap();
        assert_eq!(info.generation, 1);
        assert_eq!(info.committed, 1);

        // New queries see the new epoch…
        let r = s.query("t", &q, None).unwrap();
        assert_eq!(r.generation, 1);
        assert_eq!(r.answers, ["anc(a, b)", "anc(a, c)"]);
        // …the old pin still answers from generation 0.
        let old = epoch0.engine().query(&q, Strategy::Alexander).unwrap();
        assert_eq!(old.answers.len(), 1);
    }

    #[test]
    fn deletes_retract_derived_consequences_in_the_next_epoch() {
        let s = service("par(a, b). par(b, c).");
        let q = parse_atom("anc(a, X)").unwrap();
        assert_eq!(s.query("t", &q, None).unwrap().answers.len(), 2);
        s.delete(&parse_atom("par(b, c)").unwrap()).unwrap();
        s.commit().unwrap();
        assert_eq!(s.query("t", &q, None).unwrap().answers, ["anc(a, b)"]);
    }

    #[test]
    fn idb_and_nonground_mutations_are_rejected() {
        let s = service("par(a, b).");
        let err = s.insert(&parse_atom("anc(a, b)").unwrap()).unwrap_err();
        assert!(matches!(err, ServerError::Rejected(_)), "{err}");
        let err = s.insert(&parse_atom("par(a, X)").unwrap()).unwrap_err();
        assert!(matches!(err, ServerError::Rejected(_)), "{err}");
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn empty_commit_is_a_noop() {
        let s = service("par(a, b).");
        let info = s.commit().unwrap();
        assert_eq!(info.generation, 0);
        assert_eq!(info.committed, 0);
        assert_eq!(s.generation(), 0);
        // A batch that changes nothing publishes nothing either.
        s.insert(&parse_atom("par(a, b)").unwrap()).unwrap();
        s.delete(&parse_atom("par(x, y)").unwrap()).unwrap();
        let info = s.commit().unwrap();
        assert_eq!((info.generation, info.committed), (0, 2));
        assert_eq!(s.generation(), 0);
    }

    #[test]
    fn session_budget_flags_partial_results() {
        let program = parse(&format!("{RULES} par(a, b). par(b, c). par(c, d)."))
            .unwrap()
            .program;
        let config = ServerConfig {
            budget: Budget::default().with_max_facts(1),
            ..ServerConfig::default()
        };
        let s = QueryService::open(program, Database::new(), None, config).unwrap();
        let q = parse_atom("anc(X, Y)").unwrap();
        let r = s.query("t", &q, Some(Strategy::SemiNaive)).unwrap();
        assert!(!r.complete, "{r:?}");
        assert!(r.completion.contains("budget"), "{}", r.completion);
    }

    #[test]
    fn queries_against_extensional_predicates_are_lookups() {
        let s = service("par(a, b).");
        let r = s
            .query("t", &parse_atom("par(a, X)").unwrap(), None)
            .unwrap();
        assert_eq!(r.answers, ["par(a, b)"]);
    }

    #[test]
    fn an_edb_with_rows_of_an_intensional_predicate_is_refused_at_open() {
        let program = parse(RULES).unwrap().program;
        let mut edb = Database::new();
        edb.insert_atom(&parse_atom("anc(z, q)").unwrap()).unwrap();
        let err = QueryService::open(program, edb, None, ServerConfig::default())
            .err()
            .expect("refused");
        assert!(matches!(err, ServerError::Rejected(_)), "{err}");
    }

    #[test]
    fn a_snapshot_with_rows_of_an_intensional_predicate_is_refused_at_open() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let snap = dir.join(format!("alexander_svc_idbsnap_{pid}.snap"));
        let wal = dir.join(format!("alexander_svc_idbsnap_{pid}.wal"));
        // A store written under a program where `anc` is extensional.
        let mut edb = Database::new();
        edb.insert_atom(&parse_atom("anc(z, q)").unwrap()).unwrap();
        DurableStore::create(Program::new(), edb, &snap, &wal).unwrap();
        let program = parse(RULES).unwrap().program;
        let err = QueryService::open(
            program,
            Database::new(),
            Some((&snap, &wal)),
            ServerConfig::default(),
        )
        .err()
        .expect("refused");
        assert!(
            matches!(
                err,
                ServerError::Durable(DurableError::Replay(EvalError::IdbUpdate(_)))
            ),
            "{err}"
        );
        std::fs::remove_file(&snap).ok();
        std::fs::remove_file(&wal).ok();
    }

    #[test]
    fn an_in_memory_service_is_healthy_and_checkpoint_is_a_noop() {
        let s = service("par(a, b).");
        assert_eq!(s.state(), ServerState::Healthy);
        assert!(!s.checkpoint().unwrap(), "nothing durable to checkpoint");
        assert_eq!(s.durable_wal_len(), None);
    }

    #[test]
    fn checkpoint_refuses_while_mutations_are_pending() {
        let s = service("par(a, b).");
        s.insert(&parse_atom("par(b, c)").unwrap()).unwrap();
        let err = s.checkpoint().unwrap_err();
        assert!(matches!(err, ServerError::Rejected(_)), "{err}");
        s.commit().unwrap();
        assert!(!s.checkpoint().unwrap());
    }

    #[test]
    fn a_saturated_service_sheds_queries_as_busy() {
        let program = parse(&format!("{RULES} par(a, b).")).unwrap().program;
        let config = ServerConfig {
            max_concurrent: 1,
            tenant_cap: 1,
            max_queue: 0,
            ..ServerConfig::default()
        };
        let s = QueryService::open(program, Database::new(), None, config).unwrap();
        // Hold the only slot directly via the admission controller, then
        // observe the query path shed.
        let slot = s.admission().admit("hog").expect("a free slot admits");
        let err = s
            .query("t", &parse_atom("anc(a, X)").unwrap(), None)
            .unwrap_err();
        match err {
            ServerError::Busy { retry_after_ms } => {
                assert_eq!(retry_after_ms, crate::admission::RETRY_AFTER_BASE_MS);
            }
            other => panic!("expected Busy, got {other}"),
        }
        assert_eq!(s.admission().shed_total(), 1);
        drop(slot);
        assert!(s
            .query("t", &parse_atom("anc(a, X)").unwrap(), None)
            .is_ok());
    }
}
