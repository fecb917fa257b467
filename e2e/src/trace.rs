//! The traced run: where an operation's time goes, layer by layer.
//!
//! Spans are recorded from here, around calls into each layer's public
//! functions; nothing inside the program is instrumented. One thread replays
//! a seeded sample of a workload's operations three ways — over TCP as the
//! untraced run does, in process, and step by step under spans — so the parts
//! can be set against the whole.
//!
//! Some work runs inside a call that cannot be opened from outside:
//! `eval_seminaive_opts` compiles plans and builds indexes before it joins,
//! `DurableEngine::commit` applies the batch after it logs it. Such work is
//! *re-enacted* right after the call, on the same inputs, and recorded as a
//! child of the call's span. A span's self time is its duration minus its
//! children's durations, re-enacted or nested.

use crate::batch;
use crate::client::Client;
use crate::gen;
use crate::json::Json;
use crate::model::{Digest, Model};
use crate::serve::{self, Kind, Query, Rig, Toggler};
use crate::stats::{self, summarize};
use crate::{Outcome, Params};
use alexander_core::{Engine, Strategy};
use alexander_durable::{read_snapshot, DurableEngine};
use alexander_eval::{
    compile_plan, compile_rule, ensure_rule_indexes, eval_conditional_opts, eval_seminaive_opts,
    EvalMetrics, IncrementalEngine,
};
use alexander_ir::{match_atom, Atom, Polarity, Subst};
use alexander_parser::{parse, parse_atom};
use alexander_server::proto::{parse_request, Request};
use alexander_server::{Epoch, EpochStore};
use alexander_storage::Database;
use alexander_topdown::{oldt_query_opts, OldtMetrics, OldtOptions};
use alexander_transform::{alexander, magic_sets, query_answers, sup_magic_sets, SipOptions};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one operation share this.
    pub op: u32,
    /// Ran after `parent` had closed, repeating work done inside it.
    pub reenacted: bool,
}

/// Spans kept in memory until the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens the root span of the next operation.
    pub fn begin_op(&mut self, name: &'static str) -> u32 {
        assert!(self.open.is_empty(), "operations do not nest");
        self.op += 1;
        self.enter(name)
    }

    /// Opens a span caused by the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let parent = self.open.last().copied();
        self.push(name, parent, false)
    }

    /// Opens a span that re-enacts work which ran inside the closed span
    /// `parent`.
    pub fn reenact(&mut self, name: &'static str, parent: u32) -> u32 {
        self.push(name, Some(parent), true)
    }

    fn push(&mut self, name: &'static str, parent: Option<u32>, reenacted: bool) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
            reenacted,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: u32) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now();
    }

    /// Each span's duration minus its children's durations.
    pub fn self_ns(&self) -> Vec<u64> {
        let dur = |s: &Span| s.end_ns - s.start_ns;
        let mut own: Vec<u64> = self.spans.iter().map(dur).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(dur(s));
            }
        }
        own
    }

    /// Per operation: self time in microseconds summed by span name, and the
    /// operation's traced wall time — its root's duration less the
    /// re-enactments that ran inside it.
    pub fn ops(&self) -> Vec<OpTimes> {
        let mut ops = vec![OpTimes::default(); self.op as usize + 1];
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let op = &mut ops[s.op as usize];
            let us = (s.end_ns - s.start_ns) as f64 / 1e3;
            if s.parent.is_none() {
                op.root = s.name;
                op.wall_us += us;
            } else {
                *op.self_us.entry(s.name).or_default() += own as f64 / 1e3;
            }
            if s.reenacted {
                op.wall_us -= us;
            }
        }
        ops.remove(0);
        ops
    }

    /// One JSON object per line: `name`, `start_ns`, `end_ns`, `parent` (a
    /// line number, from 0, or null), `op` and `reenacted`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Json::obj([
                ("name", Json::str(s.name)),
                ("start_ns", Json::Int(s.start_ns)),
                ("end_ns", Json::Int(s.end_ns)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p.into())),
                ),
                ("op", Json::Int(s.op.into())),
                ("reenacted", Json::Bool(s.reenacted)),
            ]);
            writeln!(f, "{line}")?;
        }
        f.flush()
    }
}

/// One operation's spans, reduced. The root's own self time is glue between
/// layers and belongs to none of them.
#[derive(Clone, Default)]
pub struct OpTimes {
    pub root: &'static str,
    pub self_us: HashMap<&'static str, f64>,
    pub wall_us: f64,
}

/// Medians over operations, of each layer's self time and of their sum.
struct Attribution {
    layers: Vec<(&'static str, f64)>,
    /// Median of the per-operation sum of layer self times, by root.
    attributed_us: HashMap<&'static str, f64>,
    /// Median traced wall time, by root.
    traced_us: HashMap<&'static str, f64>,
}

impl Attribution {
    fn attributed(&self, root: &str) -> f64 {
        self.attributed_us.get(root).copied().unwrap_or(0.0)
    }

    fn traced(&self, root: &str) -> f64 {
        self.traced_us.get(root).copied().unwrap_or(0.0)
    }
}

fn attribute(tr: &Tracer) -> Attribution {
    let mut by_layer: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut sums: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut walls: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for op in tr.ops() {
        for (name, us) in &op.self_us {
            by_layer.entry(name).or_default().push(*us);
        }
        sums.entry(op.root)
            .or_default()
            .push(op.self_us.values().sum());
        walls.entry(op.root).or_default().push(op.wall_us);
    }
    let medians = |m: HashMap<&'static str, Vec<f64>>| {
        m.into_iter().map(|(k, v)| (k, stats::median(v))).collect()
    };
    let mut layers: Vec<(&'static str, f64)> = medians(by_layer);
    layers.sort_by(|a, b| a.0.cmp(b.0));
    Attribution {
        layers,
        attributed_us: medians(sums).into_iter().collect(),
        traced_us: medians(walls).into_iter().collect(),
    }
}

/// Counters gathered beside the spans; `add` keeps one value per operation.
#[derive(Default)]
struct Counters(HashMap<&'static str, Vec<f64>>);

impl Counters {
    fn add(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// One operation's work, in the layers' own counters.
    fn work(&mut self, w: &Work) {
        if w.rules_out > 0 {
            self.add("transform.rules_out", w.rules_out as f64);
        }
        if let Some(m) = &w.eval {
            self.add("eval.firings", m.firings as f64);
            self.add("eval.new_facts", m.new_facts as f64);
            self.add("eval.probes", m.probes as f64);
            self.add("eval.iterations", m.iterations as f64);
            let derivations = m.derivations().max(1) as f64;
            self.add("eval.dup_ratio", m.duplicate_facts as f64 / derivations);
            self.add("eval.rows_per_block", m.exec.rows_per_block());
        }
        if let Some(m) = &w.oldt {
            self.add("topdown.calls", m.calls as f64);
            self.add("topdown.answers", m.answers as f64);
            self.add("topdown.resolution_steps", m.resolution_steps as f64);
        }
    }

    fn medians(self) -> Vec<(&'static str, f64)> {
        self.0
            .into_iter()
            .map(|(k, v)| (k, stats::median(v)))
            .collect()
    }
}

/// What the layers counted while answering: one query's, or a sweep's summed
/// over its cells.
#[derive(Default)]
struct Work {
    rules_out: u64,
    eval: Option<EvalMetrics>,
    oldt: Option<OldtMetrics>,
}

impl Work {
    fn absorb(&mut self, other: Work) {
        self.rules_out += other.rules_out;
        if let Some(m) = other.eval {
            *self.eval.get_or_insert_with(EvalMetrics::default) += m;
        }
        if let Some(m) = other.oldt {
            let sum = self.oldt.get_or_insert_with(OldtMetrics::default);
            sum.calls += m.calls;
            sum.answers += m.answers;
            sum.resolution_steps += m.resolution_steps;
        }
    }
}

fn normalise(mut atoms: Vec<Atom>) -> Vec<Atom> {
    atoms.sort();
    atoms.dedup();
    atoms
}

/// `Engine::query`, step by step through the layers' own functions. Returns
/// the answers, sorted and deduplicated as the engine returns them, and what
/// the layers counted.
fn traced_query(
    tr: &mut Tracer,
    engine: &Engine,
    query: &Atom,
    strategy: Strategy,
) -> (Vec<Atom>, Work) {
    let sip = SipOptions::default();
    let mut work = Work::default();
    let rewritten = match strategy {
        Strategy::Alexander | Strategy::SupplementaryMagic | Strategy::Magic => {
            let s = tr.enter("transform.rewrite_us");
            let rw = match strategy {
                Strategy::Alexander => alexander(engine.program(), query, sip),
                Strategy::SupplementaryMagic => sup_magic_sets(engine.program(), query, sip),
                _ => magic_sets(engine.program(), query, sip),
            }
            .expect("rewriting");
            tr.exit(s);
            work.rules_out = rw.program.rules.len() as u64;
            Some(rw)
        }
        Strategy::Oldt => {
            let s = tr.enter("topdown.oldt_us");
            let r = oldt_query_opts(
                engine.program(),
                engine.edb(),
                query,
                OldtOptions::default(),
            )
            .expect("oldt");
            tr.exit(s);
            work.oldt = Some(r.metrics);
            let s = tr.enter("core.extract_us");
            let answers = normalise(r.answers);
            tr.exit(s);
            return (answers, work);
        }
        _ => None,
    };
    let program = rewritten
        .as_ref()
        .map_or(engine.program(), |rw| &rw.program);
    let idb = program.idb_predicates();
    let semipositive = strategy != Strategy::ConditionalFixpoint
        && program.rules.iter().all(|r| {
            r.body
                .iter()
                .all(|l| l.polarity == Polarity::Positive || !idb.contains(&l.atom.predicate()))
        });

    let e = tr.enter("eval.fixpoint_us");
    let (db, metrics) = if semipositive {
        let r = eval_seminaive_opts(program, engine.edb(), engine.eval_options()).expect("eval");
        (r.db, r.metrics)
    } else {
        // The conditional fixpoint is one call from outside; all of it counts
        // as fixpoint time.
        let r = eval_conditional_opts(program, engine.edb(), engine.eval_options()).expect("eval");
        (r.db, r.metrics)
    };
    tr.exit(e);
    work.eval = Some(metrics);
    if semipositive {
        // Re-enact what the evaluator did before its first join: compile
        // every rule to a plan, then build the indexes the plans probe on a
        // copy-on-write clone of the EDB.
        let c = tr.reenact("eval.compile_us", e);
        let compiled: Vec<_> = program
            .rules
            .iter()
            .map(|r| compile_rule(r).expect("compiles"))
            .collect();
        let plans: Vec<_> = compiled.iter().map(compile_plan).collect();
        tr.exit(c);
        std::hint::black_box(plans);
        let mut seeded = engine.edb().clone();
        for f in &program.facts {
            seeded.insert_atom(f).expect("ground seed");
        }
        let i = tr.reenact("eval.index_us", e);
        for r in &compiled {
            ensure_rule_indexes(r, &mut seeded);
        }
        tr.exit(i);
    }

    let s = tr.enter("core.extract_us");
    let answers = match &rewritten {
        Some(rw) => normalise(
            query_answers(&db, &rw.query)
                .into_iter()
                .map(|a| Atom {
                    pred: query.pred,
                    terms: a.terms,
                })
                .collect(),
        ),
        None => normalise(
            db.atoms_of(query.predicate())
                .into_iter()
                .filter(|a| match_atom(query, a, &mut Subst::new()))
                .collect(),
        ),
    };
    // `Engine::query` frees the evaluated database before it returns.
    drop(db);
    drop(rewritten);
    tr.exit(s);
    (answers, work)
}

/// The reply `respond` would buffer for these answers.
fn encode(answers: &[String], generation: u64) -> Vec<u8> {
    let mut w = Vec::new();
    for a in answers {
        writeln!(w, "ANSWER {a}").expect("vec write");
    }
    writeln!(w, "OK {} epoch {generation} complete", answers.len()).expect("vec write");
    w
}

fn digest_of_reply(wire: &[u8]) -> Digest {
    let text = std::str::from_utf8(wire).expect("utf8 reply");
    Digest::of(text.lines().filter_map(|l| l.strip_prefix("ANSWER ")))
}

/// Operations each way runs at a stretch.
const BLOCK: usize = 16;

/// Latency samples of the three ways an operation is run.
#[derive(Default)]
struct Ways {
    tcp_ms: Vec<f64>,
    /// The whole request handled in process: parse, query or commit, encode.
    in_process_us: Vec<f64>,
    /// `QueryService::query` alone.
    service_us: Vec<f64>,
}

struct ServeTrace<'a> {
    rig: &'a Rig,
    tr: Tracer,
    counters: Counters,
    queries: Ways,
    commits: Ways,
    attempted: u64,
    failed: u64,
    /// The service's edge set now, and what `anc` must answer over it.
    model: Model,
    expected: HashMap<u32, Digest>,
}

impl ServeTrace<'_> {
    fn check(&mut self, qi: u32, got: Digest) {
        let rig = self.rig;
        let model = &self.model;
        let want = *self
            .expected
            .entry(qi)
            .or_insert_with(|| serve::expected(rig, model, &rig.queries[qi as usize]));
        self.attempted += 1;
        self.failed += u64::from(want != got);
    }

    /// The query as the untraced run issues it.
    fn query_over_tcp(&mut self, client: &mut Client, qi: u32) {
        let q: &Query = &self.rig.queries[qi as usize];
        let t = Instant::now();
        let reply = client.request(&q.line).expect("query");
        self.queries.tcp_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.failed += u64::from(!reply.ok);
        self.check(qi, reply.answers);
    }

    /// The transport alone: a request the server answers without work.
    fn ping(&mut self, client: &mut Client) {
        let t = Instant::now();
        let reply = client.request("PING").expect("ping");
        self.counters
            .add("server.ping_us", t.elapsed().as_secs_f64() * 1e6);
        assert!(reply.ok, "{}", reply.terminal);
    }

    /// What a session does with the request line, without the socket.
    fn query_in_process(&mut self, qi: u32) {
        let rig = self.rig;
        let q: &Query = &rig.queries[qi as usize];
        let t = Instant::now();
        let Ok(Request::Query { atom, .. }) = parse_request(&q.line) else {
            panic!("a query line parses as a query")
        };
        let atom = parse_atom(&atom).expect("atom parses");
        let t_service = Instant::now();
        let r = rig.service.query("trace", &atom, None).expect("query");
        let service_us = t_service.elapsed().as_secs_f64() * 1e6;
        let wire = encode(&r.answers, r.generation);
        self.queries
            .in_process_us
            .push(t.elapsed().as_secs_f64() * 1e6);
        self.queries.service_us.push(service_us);
        self.check(qi, digest_of_reply(&wire));
    }

    /// The same, step by step under spans.
    fn query_stepwise(&mut self, qi: u32) {
        let rig = self.rig;
        let q: &Query = &rig.queries[qi as usize];
        let tr = &mut self.tr;
        let root = tr.begin_op("op.query");
        let s = tr.enter("parser.request_us");
        let parsed = parse_request(&q.line).and_then(|r| match r {
            Request::Query { atom, .. } => parse_atom(&atom).map_err(|e| e.to_string()),
            other => Err(format!("not a query: {other:?}")),
        });
        tr.exit(s);
        self.counters.add("parser.requests", 1.0);
        self.counters
            .add("parser.errors", f64::from(u8::from(parsed.is_err())));
        let atom = parsed.expect("query line parses");
        let s = tr.enter("server.admit_us");
        let slot = rig.service.admission().admit("trace").expect("admitted");
        tr.exit(s);
        let s = tr.enter("server.pin_us");
        let epoch = rig.service.pin();
        tr.exit(s);
        let s = tr.enter("storage.clone_us");
        let config = rig.service.config();
        let engine = epoch
            .engine()
            .clone()
            .with_threads(config.threads)
            .with_budget(config.budget);
        tr.exit(s);
        let (answers, work) = traced_query(tr, &engine, &atom, config.default_strategy);
        self.counters.work(&work);
        let s = tr.enter("server.encode_us");
        let strings: Vec<String> = answers.iter().map(|a| a.to_string()).collect();
        let wire = encode(&strings, epoch.generation());
        // The service frees the result once it has rendered it, and the
        // session its rendering once it is buffered.
        drop(answers);
        drop(strings);
        tr.exit(s);
        drop(engine);
        drop(slot);
        tr.exit(root);
        self.check(qi, digest_of_reply(&wire));
    }
}

/// The commit path outside a service, on state of its own: the pieces
/// `QueryService::commit` strings together.
struct CommitBench {
    program: alexander_ir::Program,
    shadow: Database,
    durable: DurableEngine,
    /// Mirrors the durable engine's materialisation, to re-enact the batch
    /// application that `DurableEngine::commit` does after logging.
    mirror: IncrementalEngine,
    epochs: EpochStore,
    toggler: Toggler,
    dir: std::path::PathBuf,
    commits: u64,
}

impl CommitBench {
    fn new(rig: &Rig, seed: u64) -> CommitBench {
        let program = parse(gen::ANCESTOR).expect("program parses").program;
        let shadow = rig.service.pin().engine().edb().clone();
        let dir = rig
            .store
            .as_ref()
            .expect("durable")
            .0
            .with_extension("bench");
        std::fs::create_dir_all(&dir).expect("bench store");
        let durable = DurableEngine::create(
            program.clone(),
            shadow.clone(),
            &dir.join("db.snap"),
            &dir.join("db.wal"),
        )
        .expect("durable engine");
        let engine0 = Engine::new(program.clone(), shadow.clone()).expect("engine");
        CommitBench {
            mirror: IncrementalEngine::new(program.clone(), shadow.clone()).expect("mirror"),
            epochs: EpochStore::new(Epoch::new(0, engine0)),
            program,
            shadow,
            durable,
            toggler: Toggler::new(rig, seed ^ 0xbe),
            dir,
            commits: 0,
        }
    }

    fn ops(&mut self, rig: &Rig) -> Vec<(bool, Atom)> {
        self.toggler
            .next_batch()
            .into_iter()
            .map(|(insert, c)| {
                let (p, c) = (rig.tree.name(c / 2), rig.tree.name(c));
                (insert, gen::fact("par", &p, &c))
            })
            .collect()
    }

    /// One commit under spans.
    fn commit(&mut self, rig: &Rig, tr: &mut Tracer, counters: &mut Counters) {
        let ops = self.ops(rig);
        for (insert, fact) in &ops {
            if *insert {
                self.durable.insert(fact).expect("buffer");
            } else {
                self.durable.delete(fact).expect("buffer");
            }
        }
        let wal_before = self.durable.wal_len();

        let root = tr.begin_op("op.commit");
        let s = tr.enter("parser.request_us");
        let parsed = parse_request("COMMIT");
        tr.exit(s);
        assert_eq!(parsed, Ok(Request::Commit));
        let s = tr.enter("storage.clone_us");
        let mut staged = self.shadow.clone();
        for (insert, fact) in &ops {
            if *insert {
                staged.insert_atom(fact).expect("ground");
            } else {
                staged.remove_atom(fact);
            }
        }
        tr.exit(s);
        let s = tr.enter("core.engine_new_us");
        let engine = Engine::new(self.program.clone(), staged).expect("engine");
        tr.exit(s);
        let d = tr.enter("durable.commit_us");
        self.durable.commit().expect("commit");
        tr.exit(d);
        self.shadow = engine.edb().clone();
        self.epochs.publish(engine);
        // Re-enact the batch application the durable engine did after logging.
        let r = tr.reenact("eval.apply_batch_us", d);
        let a = self.mirror.apply_batch(&ops).expect("apply");
        tr.exit(r);
        tr.exit(root);
        counters.add("eval.batch_added", a.added as f64);
        counters.add("eval.batch_overdeleted", a.overdeleted as f64);
        counters.add("eval.batch_rederived", a.rederived as f64);
        let wal_bytes = (self.durable.wal_len() - wal_before) as f64;
        counters.add("durable.wal_bytes_per_op", wal_bytes / ops.len() as f64);
        self.commits += 1;
    }

    /// Checkpoints, commits a fixed number of batches, then recovers from the
    /// pair on disk a few times, re-enacting recovery's parts.
    fn recovery(mut self, rig: &Rig, counters: &mut Counters) {
        let t = Instant::now();
        self.durable.checkpoint().expect("checkpoint");
        counters.add("durable.checkpoint_ms", t.elapsed().as_secs_f64() * 1e3);
        for _ in 0..serve::REPLAY_BATCHES {
            self.commit(rig, &mut Tracer::new(), &mut Counters::default());
        }
        let (snap, wal) = (self.dir.join("db.snap"), self.dir.join("db.wal"));
        let program = self.program.clone();
        drop(self.durable);
        for _ in 0..serve::RECOVER_CYCLES {
            let t = Instant::now();
            let (engine, found) =
                DurableEngine::recover(program.clone(), &snap, &wal).expect("recovery");
            let recover_ms = t.elapsed().as_secs_f64() * 1e3;
            drop(engine);
            let t = Instant::now();
            let edb = read_snapshot(&snap).expect("snapshot");
            let load_ms = t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let materialised = IncrementalEngine::new(program.clone(), edb).expect("materialise");
            let materialise_ms = t.elapsed().as_secs_f64() * 1e3;
            drop(materialised);
            counters.add("durable.recover_ms", recover_ms);
            counters.add("durable.snapshot_load_ms", load_ms);
            counters.add("eval.materialise_ms", materialise_ms);
            counters.add(
                "durable.replay_ms",
                (recover_ms - load_ms - materialise_ms).max(0.0),
            );
            counters.add("durable.replayed_batches", found.batches_replayed as f64);
        }
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn write_spans(tr: &Tracer, out: Option<&Path>) {
    if let Some(path) = out {
        tr.write(path).expect("write the trace file");
    }
}

fn ms_to_us(ms: f64) -> f64 {
    ms * 1e3
}

/// The server answers on a session thread, never on the process's first
/// thread, whose allocator arena behaves differently; the replay runs on a
/// thread of its own so that the in-process times can be set against the
/// served ones.
pub fn run_serve(kind: Kind, p: &Params, out: Option<&Path>) -> Outcome {
    std::thread::scope(|s| s.spawn(|| replay_serve(kind, p, out)).join()).expect("replay thread")
}

fn replay_serve(kind: Kind, p: &Params, out: Option<&Path>) -> Outcome {
    let (rig, mut client, _) = serve::set_up_rounds(kind, p);
    let mut t = ServeTrace {
        rig: &rig,
        tr: Tracer::new(),
        counters: Counters::default(),
        queries: Ways::default(),
        commits: Ways::default(),
        attempted: 0,
        failed: 0,
        model: rig.model.clone(),
        expected: HashMap::new(),
    };
    let mut bench = (kind == Kind::MixedRw).then(|| CommitBench::new(&rig, p.seed));
    let mut service_toggler = Toggler::new(&rig, p.seed);
    let deadline = Instant::now() + Duration::from_secs_f64(p.seconds);
    let mut k = kind.warm_up_reads();
    // Each way runs a block of operations at a stretch, as the untraced loop
    // does, so that none of them starts every operation on a cold core.
    while Instant::now() < deadline {
        let block: Vec<u32> = (k..k + BLOCK)
            .map(|k| rig.schedule[k % rig.schedule.len()])
            .collect();
        k += BLOCK;
        for qi in &block {
            t.query_over_tcp(&mut client, *qi);
            t.ping(&mut client);
        }
        for qi in &block {
            t.query_in_process(*qi);
        }
        for qi in &block {
            t.query_stepwise(*qi);
        }
        // One commit for every four reads, each of the three ways.
        let Some(bench) = bench.as_mut() else {
            continue;
        };
        let apply = |t: &mut ServeTrace, ops: &[(bool, u32)]| {
            for (insert, c) in ops {
                if *insert {
                    t.model.insert(c / 2, *c);
                } else {
                    t.model.delete(c / 2, *c);
                }
            }
            t.expected.clear();
            t.attempted += 1;
        };
        for _ in 0..BLOCK / 4 {
            let ops = service_toggler.next_batch();
            let (reply, ms) = serve::commit_batch(&rig, &mut client, &ops);
            t.failed += u64::from(!reply.ok);
            t.commits.tcp_ms.push(ms);
            apply(&mut t, &ops);
        }
        for _ in 0..BLOCK / 4 {
            let ops = service_toggler.next_batch();
            for (insert, c) in &ops {
                let fact = parse_atom(&rig.edge_atom(*c)).expect("fact parses");
                if *insert {
                    rig.service.insert(&fact).expect("stage");
                } else {
                    rig.service.delete(&fact).expect("stage");
                }
            }
            let at = Instant::now();
            assert_eq!(parse_request("COMMIT"), Ok(Request::Commit));
            let info = rig.service.commit().expect("commit");
            let mut w = Vec::new();
            writeln!(
                w,
                "OK epoch {} committed {}",
                info.generation, info.committed
            )
            .expect("vec");
            t.commits
                .in_process_us
                .push(at.elapsed().as_secs_f64() * 1e6);
            apply(&mut t, &ops);
        }
        for _ in 0..BLOCK / 4 {
            bench.commit(&rig, &mut t.tr, &mut t.counters);
            t.attempted += 1;
        }
    }
    let sheds = rig.service.admission().shed_total();
    let live_matches = serve::edb_matches(&rig.tree, &rig.service, &t.model);
    if let Some(bench) = bench {
        bench.recovery(&rig, &mut t.counters);
    }

    let ServeTrace {
        tr,
        counters,
        queries,
        commits,
        attempted,
        failed,
        ..
    } = t;
    let load_facts_per_s = rig.facts_loaded as f64 / rig.load_s;
    drop(client);
    rig.tear_down();
    write_spans(&tr, out);

    let mut att = attribute(&tr);
    let q_tcp = summarize(queries.tcp_ms);
    let q_in = stats::median(queries.in_process_us);
    let c_tcp = summarize(commits.tcp_ms);
    let c_in = stats::median(commits.in_process_us);
    let net_us = ms_to_us(q_tcp.p50) - q_in;
    let attributed = att.attributed("op.query");
    let traced = att.traced("op.query");
    let mut metrics = std::mem::take(&mut att.layers);
    metrics.extend(counters.medians());
    metrics.extend([
        ("storage.load_facts_per_s", load_facts_per_s),
        ("server.service_query_us", stats::median(queries.service_us)),
        ("server.net_us", net_us),
        (
            "server.commit_net_us",
            if c_tcp.n > 0 {
                ms_to_us(c_tcp.p50) - c_in
            } else {
                0.0
            },
        ),
        ("server.sheds", sheds as f64),
        ("server.query_p50_ms", q_tcp.p50),
        ("server.query_tail_ms", q_tcp.tail),
        ("server.query_tail_pct", q_tcp.tail_pct),
        ("server.commit_p50_ms", c_tcp.p50),
        ("server.commit_tail_ms", c_tcp.tail),
        ("server.commit_tail_pct", c_tcp.tail_pct),
        (
            "trace.unattributed_share",
            1.0 - (attributed + net_us) / ms_to_us(q_tcp.p50),
        ),
        ("trace.overhead_share", traced / q_in - 1.0),
    ]);
    Outcome {
        correct: failed == 0 && live_matches,
        attempted,
        failed,
        metrics,
        diagnostics: Json::obj([
            ("query_samples", Json::Int(q_tcp.n as u64)),
            ("commit_samples", Json::Int(c_tcp.n as u64)),
            ("query_in_process_us", Json::Num(q_in)),
            ("query_attributed_us", Json::Num(attributed)),
            ("commit_in_process_us", Json::Num(c_in)),
            (
                "commit_attributed_us",
                Json::Num(att.attributed("op.commit")),
            ),
            ("spans", Json::Int(tr.spans.len() as u64)),
        ]),
    }
}

pub fn run_batch(p: &Params, out: Option<&Path>) -> Outcome {
    let (shapes, baseline, _) = batch::set_up_rounds(p);
    let mut tr = Tracer::new();
    let mut counters = Counters::default();
    let mut untraced_ms = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs_f64(p.seconds);
    while Instant::now() < deadline {
        let t = Instant::now();
        let counts = batch::sweep(&shapes, false).0;
        untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        attempted += counts.len() as u64;
        failed += counts.iter().zip(&baseline).filter(|(a, b)| a != b).count() as u64;

        let mut work = Work::default();
        let root = tr.begin_op("op.sweep");
        for shape in &shapes {
            for s in shape.strategies {
                let (answers, cell) = traced_query(&mut tr, &shape.engine, &shape.query, *s);
                work.absorb(cell);
                let got = Digest::of(answers.iter().map(|a| a.to_string()));
                attempted += 1;
                failed += u64::from(got != shape.expected);
            }
        }
        tr.exit(root);
        counters.work(&work);
    }
    write_spans(&tr, out);
    let mut att = attribute(&tr);
    let sweep = summarize(untraced_ms);
    let attributed = att.attributed("op.sweep");
    let traced = att.traced("op.sweep");
    let mut metrics = std::mem::take(&mut att.layers);
    metrics.extend(counters.medians());
    metrics.extend([
        (
            "trace.unattributed_share",
            1.0 - attributed / ms_to_us(sweep.p50),
        ),
        ("trace.overhead_share", traced / ms_to_us(sweep.p50) - 1.0),
    ]);
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        diagnostics: Json::obj([
            ("sweep_samples", Json::Int(sweep.n as u64)),
            ("sweep_p50_ms", Json::Num(sweep.p50)),
            ("sweep_attributed_us", Json::Num(attributed)),
            ("counts", batch::counts_json(&shapes, &baseline)),
            ("spans", Json::Int(tr.spans.len() as u64)),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>, op: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op,
            reenacted: false,
        }
    }

    #[test]
    fn self_time_is_duration_less_children_nested_or_re_enacted() {
        let mut tr = Tracer::new();
        tr.op = 2;
        tr.spans = vec![
            span("op.query", 0, 10_000, None, 1),
            span("a", 1_000, 7_000, Some(0), 1),
            // Nested in `a`.
            span("b", 2_000, 4_000, Some(1), 1),
            // Re-enacted after `a` closed: outside its interval, still its child.
            Span {
                reenacted: true,
                ..span("c", 7_500, 8_500, Some(1), 1)
            },
            span("op.query", 20_000, 21_000, None, 2),
            // A child longer than its parent cannot make self time negative.
            span("a", 20_000, 23_000, Some(4), 2),
        ];
        assert_eq!(tr.self_ns(), [4_000, 3_000, 2_000, 1_000, 0, 3_000]);
        let ops = tr.ops();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].root, "op.query");
        assert_eq!(ops[0].self_us["a"], 3.0);
        assert_eq!(ops[0].self_us["b"], 2.0);
        assert!(
            !ops[0].self_us.contains_key("op.query"),
            "the root is no layer"
        );
        // 10 us of root less the 1 us re-enactment that ran inside it.
        assert_eq!(ops[0].wall_us, 9.0);
        let att = attribute(&tr);
        // Layers sum to 6 us in the first operation and 3 us in the second.
        assert_eq!(att.attributed("op.query"), 4.5);
        assert_eq!(att.traced("op.query"), 5.0);
        assert_eq!(att.layers[0], ("a", 3.0));
    }

    #[test]
    fn spans_nest_by_the_order_they_open() {
        let mut tr = Tracer::new();
        let root = tr.begin_op("op.query");
        let a = tr.enter("a");
        let b = tr.enter("b");
        tr.exit(b);
        tr.exit(a);
        let c = tr.reenact("c", a);
        tr.exit(c);
        tr.exit(root);
        let parents: Vec<Option<u32>> = tr.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(1)]);
        assert!(tr.spans.iter().all(|s| s.op == 1 && s.end_ns >= s.start_ns));
    }

    #[test]
    fn the_step_by_step_query_answers_as_the_engine_does() {
        let p = Params {
            seed: 2,
            seconds: 0.1,
            smoke: true,
        };
        let (shapes, _) = batch::set_up(&p, 0);
        let mut tr = Tracer::new();
        for shape in &shapes {
            for s in shape.strategies {
                let root = tr.begin_op("op.sweep");
                let (got, _) = traced_query(&mut tr, &shape.engine, &shape.query, *s);
                tr.exit(root);
                let want = shape.engine.query(&shape.query, *s).unwrap().answers;
                assert_eq!(got, want, "{}", batch::cell_name(shape, *s));
            }
        }
    }

    #[test]
    fn every_traced_workload_runs_and_writes_its_spans() {
        let p = Params {
            seed: 5,
            seconds: 0.3,
            smoke: true,
        };
        let dir = serve::scratch_dir("trace-test");
        for kind in [Kind::PointReads, Kind::MixedRw] {
            let file = dir.join(format!("{kind:?}.jsonl"));
            let out = run_serve(kind, &p, Some(&file));
            assert!(out.correct, "{kind:?}: failed {}", out.failed);
            let text = std::fs::read_to_string(&file).unwrap();
            let first = Json::parse(text.lines().next().unwrap()).unwrap();
            assert_eq!(first.get("name").and_then(Json::as_str), Some("op.query"));
            assert_eq!(first.get("parent"), Some(&Json::Null));
            let value = |name: &str| out.metrics.iter().find(|m| m.0 == name).map(|m| m.1);
            assert!(value("eval.fixpoint_us").unwrap() > 0.0);
            assert!(value("server.query_p50_ms").unwrap() > 0.0);
            if kind == Kind::MixedRw {
                assert!(value("durable.commit_us").unwrap() > 0.0);
                assert!(value("durable.wal_bytes_per_op").unwrap() > 0.0);
                assert_eq!(
                    value("durable.replayed_batches"),
                    Some(serve::REPLAY_BATCHES as f64)
                );
            }
        }
        let out = run_batch(&p, None);
        assert!(out.correct);
        assert!(out
            .metrics
            .iter()
            .any(|m| m.0 == "topdown.oldt_us" && m.1 > 0.0));
        serve::remove_scratch(&dir);
    }
}
