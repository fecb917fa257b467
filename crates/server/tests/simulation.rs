//! Seeded whole-stack simulation: one loop takes a durable
//! [`QueryService`] through random insert, delete, commit, checkpoint, query
//! and reopen steps, and checks the service against a `BTreeSet` model of
//! its EDB after every step. Every run is a fixed seed from [`SEEDS`]; a
//! failing run prints the program, seed and step that replay it.
//!
//! Three programs run. The `anc` chain, with extensional and intensional
//! inline facts, is answered by a breadth-first closure of the model's
//! `par` edges, independent of every engine. A stratified reach/unreach
//! program, and win–move (not stratifiable, so answered under the
//! conditional fixpoint only) over acyclic `move` facts, are answered by a
//! fresh in-memory [`Engine`] over the model.
//!
//! Under the `failpoints` feature the same loop also arms IO faults
//! before some commits and checkpoints: a WAL crash inside the commit's
//! frame, a WAL fsync error (for a plain batch, or for a
//! delete/reinsert/extend mixed one, whose frame the heal then replays),
//! and a snapshot crash. A poisoned commit must answer `Degraded`, a read
//! in the degraded window must answer a committed-batch boundary, the
//! supervisor must heal with one new generation, and the healed EDB must
//! equal the model before or after the in-flight batch — after it, for an
//! fsync error, whose frame is whole on disk. A snapshot crash must fail
//! the checkpoint cleanly, without degrading.
//!
//! ```text
//! cargo test -p alexander-server --test simulation
//! cargo test -p alexander-server --features failpoints --test simulation
//! ```

use alexander_core::{Engine, Strategy};
use alexander_durable::{read_snapshot, WAL_HEADER};
use alexander_ir::render_atoms;
use alexander_parser::{parse, parse_atom};
use alexander_server::{QueryService, ServerConfig, ServerError};
use alexander_storage::Database;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[cfg(feature = "failpoints")]
use alexander_eval::failpoints::{self, Action};

/// The seeds every test replays.
const SEEDS: [u64; 6] = [1, 2, 3, 5, 8, 13];
/// Steps per seed.
const STEPS: usize = 200;
/// Every constant a random fact or query uses.
const CONSTS: [&str; 5] = ["a", "b", "c", "d", "e"];

/// Rendered ground facts: a model EDB, or a set of answers.
type Facts = BTreeSet<String>;

/// A program under simulation.
struct Case {
    name: &'static str,
    /// The rules, with any inline facts of intensional predicates.
    rules: &'static str,
    /// The program's inline facts of extensional predicates: every open
    /// commits those the store lacks.
    inline: &'static [&'static str],
    edb: &'static [(&'static str, usize)],
    idb: &'static [(&'static str, usize)],
    /// Answer from [`closure`] instead of a fresh engine.
    closure: bool,
    /// The strategies queries run under.
    strategies: &'static [Strategy],
    /// Every random fact's arguments strictly ascend, so a binary relation
    /// has no cycle.
    acyclic: bool,
}

const ANC: Case = Case {
    name: "anc",
    rules: "anc(X, Y) :- par(X, Y). anc(X, Y) :- par(X, Z), anc(Z, Y). anc(d, d).",
    inline: &["par(a, b)", "par(b, c)"],
    edb: &[("par", 2)],
    idb: &[("anc", 2)],
    closure: true,
    strategies: &Strategy::ALL,
    acyclic: false,
};

const REACH: Case = Case {
    name: "reach",
    rules: "reach(X) :- source(X). reach(Y) :- reach(X), edge(X, Y). \
            unreach(X) :- node(X), not reach(X).",
    inline: &["source(a)", "node(a)", "node(b)"],
    edb: &[("source", 1), ("edge", 2), ("node", 1)],
    idb: &[("reach", 1), ("unreach", 1)],
    closure: false,
    strategies: &Strategy::ALL,
    acyclic: false,
};

/// Win–move cannot be stratified; over an acyclic `move` every `win` atom
/// is decided, so the conditional fixpoint answers every query.
const WIN: Case = Case {
    name: "win",
    rules: "win(X) :- move(X, Y), not win(Y).",
    inline: &["move(a, b)", "move(b, c)"],
    edb: &[("move", 2)],
    idb: &[("win", 1)],
    closure: false,
    strategies: &[Strategy::ConditionalFixpoint],
    acyclic: true,
};

/// Every step kind a run over all seeds must take.
const KINDS: &str = "insert, delete, rejected, empty commit, plain commit, mixed commit, \
                     checkpoint, checkpoint refused, query, reopen";
/// …and every fault kind and outcome, when faults are compiled in.
#[cfg(feature = "failpoints")]
const FAULT_KINDS: &str = ", wal crash, fsync error, mixed-batch fsync error, snapshot crash, \
                           recovered before the batch, recovered after the batch";
#[cfg(not(feature = "failpoints"))]
const FAULT_KINDS: &str = "";

/// Everything the `anc` program derives from `model`, computed without an
/// engine: `par`, its transitive closure as `anc`, and the inline `anc(d, d)`.
fn closure(model: &Facts) -> Facts {
    let mut truth = model.clone();
    truth.insert("anc(d, d)".into());
    for x in CONSTS {
        let (mut seen, mut stack) = (BTreeSet::new(), vec![x]);
        while let Some(y) = stack.pop() {
            for z in CONSTS {
                if model.contains(&format!("par({y}, {z})")) && seen.insert(z) {
                    stack.push(z);
                }
            }
        }
        truth.extend(seen.into_iter().map(|z| format!("anc({x}, {z})")));
    }
    truth
}

/// A query: a predicate, and each argument a constant or a fresh variable.
struct Query(&'static str, Vec<Option<&'static str>>);

impl Query {
    fn text(&self) -> String {
        let args: Vec<String> = (self.1.iter().enumerate())
            .map(|(i, a)| a.map_or(format!("X{i}"), str::to_string))
            .collect();
        format!("{}({})", self.0, args.join(", "))
    }

    /// Every ground instance over [`CONSTS`].
    fn instances(&self) -> Vec<String> {
        let mut rows = vec![Vec::new()];
        for arg in &self.1 {
            let choices = arg.map_or(CONSTS.to_vec(), |c| vec![c]);
            rows = (rows.iter())
                .flat_map(|r| choices.iter().map(move |c| [r.clone(), vec![*c]].concat()))
                .collect();
        }
        let rows = rows.iter().map(|r| format!("{}({})", self.0, r.join(", ")));
        rows.collect()
    }
}

fn facts_of(db: &Database) -> Facts {
    (db.predicates().into_iter())
        .flat_map(|p| db.atoms_of(p))
        .map(|a| a.to_string())
        .collect()
}

fn database(model: &Facts) -> Database {
    let mut db = Database::new();
    for f in model {
        db.insert_atom(&parse_atom(f).unwrap()).unwrap();
    }
    db
}

/// `answers` as a set; a repeated answer fails.
fn answer_set(answers: Vec<String>) -> Facts {
    let n = answers.len();
    let set: Facts = answers.into_iter().collect();
    assert_eq!(set.len(), n, "answers repeat: {set:?}");
    set
}

fn engine_answers(engine: &Engine, q: &Query, strategy: Strategy) -> Result<Facts, String> {
    let atom = parse_atom(&q.text()).unwrap();
    let r = engine.query(&atom, strategy).map_err(|e| e.to_string())?;
    assert!(r.report.completion.is_complete());
    Ok(answer_set(render_atoms(&r.answers)))
}

/// The service's answer and the generation it was pinned to.
fn served(s: &QueryService, q: &Query, strategy: Strategy) -> (u64, Result<Facts, String>) {
    match s.query("sim", &parse_atom(&q.text()).unwrap(), Some(strategy)) {
        Ok(r) => {
            assert!(r.complete, "{}: {}", q.text(), r.completion);
            (r.generation, Ok(answer_set(r.answers)))
        }
        Err(ServerError::Engine(e)) => (s.generation(), Err(e)),
        Err(e) => panic!("{}: {e}", q.text()),
    }
}

/// `model` with `batch` applied in order, as the store's fold applies it.
fn applied(model: &Facts, batch: &[(bool, String)]) -> Facts {
    let mut out = model.clone();
    for (insert, fact) in batch {
        if *insert {
            out.insert(fact.clone());
        } else {
            out.remove(fact);
        }
    }
    out
}

/// One seeded run: the service, its files, and the model it must match.
/// Dropped by a failing assertion, it prints where the run was.
struct Sim {
    case: &'static Case,
    seed: u64,
    step: usize,
    rng: StdRng,
    snap: PathBuf,
    wal: PathBuf,
    /// `None` only between a reopen's drop and its open.
    service: Option<Arc<QueryService>>,
    /// The committed EDB.
    model: Facts,
    /// The buffered batch, `(insert, fact)` in order.
    pending: Vec<(bool, String)>,
    generation: u64,
    /// Generation → the committed EDB it publishes, since the last open.
    states: BTreeMap<u64, Facts>,
    /// The step kinds taken, for the coverage check, and the latest.
    ran: BTreeSet<&'static str>,
    last: &'static str,
}

impl Sim {
    /// Creates the store from a few random facts, then opens it. `tag`
    /// keeps concurrently running tests' files apart.
    fn new(case: &'static Case, seed: u64, tag: &str) -> Sim {
        let pid = std::process::id();
        let tag = format!("alexander_sim_{}_{seed}_{tag}_{pid}", case.name);
        let dir = std::env::temp_dir();
        let mut sim = Sim {
            case,
            seed,
            step: 0,
            rng: StdRng::seed_from_u64(seed),
            snap: dir.join(format!("{tag}.snap")),
            wal: dir.join(format!("{tag}.wal")),
            service: None,
            model: Facts::new(),
            pending: Vec::new(),
            generation: 0,
            states: BTreeMap::new(),
            ran: BTreeSet::new(),
            last: "open",
        };
        std::fs::remove_file(&sim.snap).ok();
        std::fs::remove_file(&sim.wal).ok();
        sim.model = (0..3).map(|_| sim.fact(case.edb, false)).collect();
        sim.open(database(&sim.model));
        sim.check();
        sim
    }

    fn service(&self) -> &QueryService {
        self.service.as_ref().expect("service open")
    }

    fn took(&mut self, kind: &'static str) {
        self.ran.insert(kind);
        self.last = kind;
    }

    /// Opens the service; `edb` is read only when the store is created.
    /// The open commits the inline facts the store lacks.
    fn open(&mut self, edb: Database) {
        let paths = Some((self.snap.as_path(), self.wal.as_path()));
        let program = format!("{} {}.", self.case.rules, self.case.inline.join(". "));
        let program = parse(&program).unwrap().program;
        let service = QueryService::open(program, edb, paths, ServerConfig::default()).unwrap();
        self.service = Some(Arc::new(service));
        let inline = self.case.inline.iter().map(|f| f.to_string());
        self.model.extend(inline);
        self.generation = 0;
        self.states = BTreeMap::from([(0, self.model.clone())]);
    }

    /// Runs [`STEPS`] random steps, checking the service after each.
    fn run(&mut self) {
        for step in 1..=STEPS {
            self.step = step;
            match self.rng.random_range(0..100) {
                0..=29 => self.mutate(true),
                30..=44 => self.mutate(false),
                45..=64 => self.commit(),
                65..=74 => self.checkpoint(),
                75..=93 => self.query(),
                // Reopening needs the only handle: not while readers share it.
                _ if Arc::strong_count(self.service.as_ref().unwrap()) == 1 => self.reopen(),
                _ => self.query(),
            }
            self.check();
        }
    }

    /// What must hold between steps.
    fn check(&self) {
        let s = self.service();
        assert_eq!(s.generation(), self.generation);
        assert_eq!(s.pending(), self.pending.len());
        assert!(!s.state().is_degraded());
        assert_eq!(facts_of(s.pin().engine().edb()), self.model);
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.rng.random_range(0..from.len())]
    }

    /// A random fact of one of `preds`; with `open_arg`, its first argument
    /// is a variable.
    fn fact(&mut self, preds: &[(&'static str, usize)], open_arg: bool) -> String {
        let (pred, arity) = self.pick(preds);
        let mut args: Vec<&str> = (0..arity).map(|_| self.pick(&CONSTS)).collect();
        while self.case.acyclic && !args.is_sorted_by(|a, b| a < b) {
            args = (0..arity).map(|_| self.pick(&CONSTS)).collect();
        }
        if open_arg {
            args[0] = "X";
        }
        format!("{pred}({})", args.join(", "))
    }

    fn present(&mut self) -> Option<String> {
        let i = self.rng.random_range(0..self.model.len().max(1));
        self.model.iter().nth(i).cloned()
    }

    /// A query of an intensional predicate, one time in four of an
    /// extensional one, under a random one of the case's strategies.
    fn random_query(&mut self) -> (Query, Strategy) {
        let preds = self.pick(&[self.case.edb, self.case.idb, self.case.idb, self.case.idb]);
        let (pred, arity) = self.pick(preds);
        let args = (0..arity)
            .map(|_| self.rng.random_bool().then(|| self.pick(&CONSTS)))
            .collect();
        (Query(pred, args), self.pick(self.case.strategies))
    }

    /// The exact answers to `q` over the committed EDB `model`.
    fn oracle(&self, model: &Facts, q: &Query, strategy: Strategy) -> Result<Facts, String> {
        if self.case.closure {
            let truth = closure(model);
            let instances = q.instances().into_iter();
            return Ok(instances.filter(|f| truth.contains(f)).collect());
        }
        let rules = parse(self.case.rules).unwrap().program;
        engine_answers(&Engine::new(rules, database(model)).unwrap(), q, strategy)
    }

    /// Inserts or deletes `fact`; `Ok` carries the pending count.
    fn send(&self, insert: bool, fact: &str) -> Result<usize, ServerError> {
        let (s, atom) = (self.service(), parse_atom(fact).unwrap());
        if insert {
            s.insert(&atom)
        } else {
            s.delete(&atom)
        }
    }

    /// Buffers an insert or delete that the service must accept.
    fn buffer(&mut self, insert: bool, fact: String) {
        let pending = self.send(insert, &fact).unwrap();
        self.pending.push((insert, fact));
        assert_eq!(pending, self.pending.len());
    }

    /// Inserts or deletes a present, a random, an intensional or a
    /// non-ground fact; the last two are rejected and buffer nothing.
    fn mutate(&mut self, insert: bool) {
        let (fact, accepted) = match self.rng.random_range(0..8) {
            0..=2 if !self.model.is_empty() => (self.present().unwrap(), true),
            0..=5 => (self.fact(self.case.edb, false), true),
            6 => (self.fact(self.case.idb, false), false),
            _ => (self.fact(self.case.edb, true), false),
        };
        if accepted {
            self.took(if insert { "insert" } else { "delete" });
            return self.buffer(insert, fact);
        }
        self.took("rejected");
        let r = self.send(insert, &fact);
        assert!(matches!(r, Err(ServerError::Rejected(_))), "{fact}: {r:?}");
    }

    /// Records a newly published generation.
    fn publish(&mut self) {
        self.generation += 1;
        self.states.insert(self.generation, self.model.clone());
    }

    fn commit(&mut self) {
        #[cfg(feature = "failpoints")]
        if self.rng.random_range(0..4) == 0 {
            return self.wal_fault();
        }
        let inserts = self.pending.iter().filter(|(insert, _)| *insert).count();
        self.took(match (self.pending.len(), inserts) {
            (0, _) => "empty commit",
            (n, i) if n == i => "plain commit",
            _ => "mixed commit",
        });
        let before = self.model.clone();
        let pinned = self.service().pin();
        let info = self.service().commit().unwrap();
        assert_eq!(info.committed, self.pending.len());
        self.model = applied(&self.model, &std::mem::take(&mut self.pending));
        if info.committed > 0 {
            self.publish();
        }
        assert_eq!(info.generation, self.generation);
        // The epoch pinned before the commit still answers its own state.
        assert_eq!(facts_of(pinned.engine().edb()), before);
        let (q, strategy) = self.random_query();
        let want = self.oracle(&before, &q, strategy);
        let got = engine_answers(pinned.engine(), &q, strategy);
        assert_eq!(got, want, "pinned {} under {strategy}", q.text());
    }

    fn checkpoint(&mut self) {
        if !self.pending.is_empty() {
            self.took("checkpoint refused");
            let r = self.service().checkpoint();
            assert!(matches!(r, Err(ServerError::Rejected(_))), "{r:?}");
            return;
        }
        #[cfg(feature = "failpoints")]
        if self.rng.random_range(0..3) == 0 {
            self.snapshot_fault();
        }
        self.took("checkpoint");
        assert!(self.service().checkpoint().unwrap());
        assert_eq!(self.service().durable_wal_len(), Some(WAL_HEADER));
        assert_eq!(facts_of(&read_snapshot(&self.snap).unwrap()), self.model);
    }

    fn query(&mut self) {
        self.took("query");
        let (q, strategy) = self.random_query();
        let (generation, got) = served(self.service(), &q, strategy);
        assert_eq!(generation, self.generation);
        let want = self.oracle(&self.model, &q, strategy);
        assert_eq!(got, want, "{} under {strategy}", q.text());
    }

    /// Drops the service, as a process exit would, and opens the same
    /// snapshot/WAL pair. The buffered batch is lost; every inline fact of
    /// the program is back. The open appends a WAL frame exactly when the
    /// store lacked one of them, so a second open in a row appends nothing.
    fn reopen(&mut self) {
        self.took("reopen");
        loop {
            let lacked = self.case.inline.iter().any(|f| !self.model.contains(*f));
            let wal_len = self.service().durable_wal_len();
            self.service = None;
            self.pending.clear();
            self.open(Database::new());
            self.check();
            let appended = self.service().durable_wal_len() != wal_len;
            assert_eq!(appended, lacked, "the open's seed frame, from {wal_len:?}");
            if !lacked {
                return;
            }
        }
    }
}

#[cfg(feature = "failpoints")]
const SITE_WAL: &str = "durable-wal-io";
#[cfg(feature = "failpoints")]
const SITE_SNAP: &str = "durable-snapshot-io";
/// Bytes in the smallest WAL frame, one `node(a)` record: a crash offset
/// below it always lands inside the frame being appended.
#[cfg(feature = "failpoints")]
const MIN_FRAME: u64 = 40;

#[cfg(feature = "failpoints")]
impl Sim {
    /// Arms a WAL crash inside the commit's frame, a WAL fsync error, or
    /// the fsync error under a mixed batch (delete and reinsert one present
    /// fact, delete a present one, insert an absent one); commits into it;
    /// reads in the degraded window; disarms; and adopts the healed EDB,
    /// which must be the model before or after the batch.
    fn wal_fault(&mut self) {
        // An extensional fact the model lacks, if a few draws find one.
        let draws: Vec<String> = (0..64).map(|_| self.fact(self.case.edb, false)).collect();
        let absent = draws.into_iter().find(|f| !self.model.contains(f));
        let Some(extend) = absent else { return };
        let wal_len = self.service().durable_wal_len().unwrap();
        let crash = Action::CrashAfterBytes(wal_len + 1 + self.rng.random_range(0..MIN_FRAME - 1));
        let (kind, action) = match self.rng.random_range(0..3) {
            0 => ("wal crash", crash),
            1 => ("fsync error", Action::FsyncError),
            _ => ("mixed-batch fsync error", Action::FsyncError),
        };
        self.took(kind);
        if kind.starts_with("mixed") {
            if let (Some(tip), Some(gone)) = (self.present(), self.present()) {
                self.buffer(false, tip.clone());
                self.buffer(true, tip);
                self.buffer(false, gone);
            }
        }
        self.buffer(true, extend);
        let before = self.model.clone();
        let after = applied(&before, &std::mem::take(&mut self.pending));
        let heals = self.service().health().heals();

        failpoints::configure(SITE_WAL, action);
        let r = self.service().commit();
        assert!(matches!(r, Err(ServerError::Degraded(_))), "{kind}: {r:?}");
        // Reads serve throughout: from the last epoch, or the healed one.
        let (q, strategy) = self.random_query();
        let (generation, got) = served(self.service(), &q, strategy);
        let want = |model: &Facts| self.oracle(model, &q, strategy);
        let on_boundary = match generation.checked_sub(self.generation) {
            Some(0) => got == want(&before),
            Some(1) => got == want(&before) || got == want(&after),
            _ => panic!("generation {generation} in the degraded window"),
        };
        assert!(
            on_boundary,
            "{kind}: {} under {strategy}: {got:?}",
            q.text()
        );
        failpoints::remove(SITE_WAL);

        let s = self.service();
        assert!(s.wait_for_healthy(std::time::Duration::from_secs(10)));
        assert_eq!(s.health().heals(), heals + 1);
        let recovered = facts_of(s.pin().engine().edb());
        // Writes succeed under an fsync error, so its heal replays the frame.
        if recovered == before && !kind.ends_with("fsync error") {
            self.took("recovered before the batch");
        } else {
            assert_eq!(recovered, after, "{kind}: off the batch boundary");
            self.took("recovered after the batch");
        }
        self.model = recovered;
        self.publish();
    }

    /// Arms a crash inside the snapshot's 24-byte header: the checkpoint
    /// fails cleanly and the writer stays healthy.
    fn snapshot_fault(&mut self) {
        self.took("snapshot crash");
        let offset = self.rng.random_range(0..24);
        failpoints::configure(SITE_SNAP, Action::CrashAfterBytes(offset));
        let r = self.service().checkpoint();
        assert!(matches!(r, Err(ServerError::Durable(_))), "{r:?}");
        assert!(!self.service().state().is_degraded());
        failpoints::remove(SITE_SNAP);
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let (name, seed, step, last) = (self.case.name, self.seed, self.step, self.last);
            eprintln!("simulation failed: {name} seed {seed} step {step} ({last})");
        }
        self.service = None;
        std::fs::remove_file(&self.snap).ok();
        std::fs::remove_file(&self.wal).ok();
    }
}

/// Runs `case` over every seed and checks every step kind ran.
fn over_seeds(case: &'static Case) {
    #[cfg(feature = "failpoints")]
    let _fp = failpoints::scoped();
    let mut ran = BTreeSet::new();
    for seed in SEEDS {
        let mut sim = Sim::new(case, seed, "solo");
        sim.run();
        ran.append(&mut sim.ran);
    }
    for kind in format!("{KINDS}{FAULT_KINDS}").split(", ") {
        assert!(ran.contains(kind), "{}: no {kind} step ran", case.name);
    }
}

#[test]
fn the_anc_chain_matches_its_closure_over_every_seed() {
    over_seeds(&ANC);
}

#[test]
fn stratified_reach_matches_a_fresh_engine_over_every_seed() {
    over_seeds(&REACH);
}

#[test]
fn win_move_matches_a_fresh_engine_over_every_seed() {
    over_seeds(&WIN);
}

/// One seed with two threads reading throughout: every reply must equal the
/// state the simulation recorded for the generation it was pinned to, and no
/// reader's generations may fall.
#[test]
fn concurrent_readers_see_only_published_states() {
    #[cfg(feature = "failpoints")]
    let _fp = failpoints::scoped();
    let mut sim = Sim::new(&ANC, SEEDS[0], "readers");
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2u64)
        .map(|i| {
            let (service, stop) = (sim.service.clone().unwrap(), stop.clone());
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(i);
                let all = parse_atom("anc(X, Y)").unwrap();
                let mut seen = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let strategy = Strategy::ALL[rng.random_range(0..Strategy::ALL.len())];
                    let r = service.query(&format!("reader{i}"), &all, Some(strategy));
                    let r = r.unwrap();
                    seen.push((r.generation, r.answers));
                }
                seen
            })
        })
        .collect();
    // The readers stop even when the simulation fails, so no thread outlives
    // the test.
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()));
    stop.store(true, Ordering::Relaxed);
    let seen: Vec<_> = readers.into_iter().map(|r| r.join().unwrap()).collect();
    if let Err(panic) = run {
        std::panic::resume_unwind(panic);
    }
    let all = Query("anc", vec![None, None]);
    for seen in seen {
        let monotone = seen.windows(2).all(|w| w[0].0 <= w[1].0);
        assert!(!seen.is_empty() && monotone, "a reader's generation fell");
        for (generation, answers) in seen {
            let want = sim.oracle(&sim.states[&generation], &all, Strategy::Alexander);
            assert_eq!(Ok(answer_set(answers)), want, "generation {generation}");
        }
    }
}
