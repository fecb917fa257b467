//! The three served workloads: a `QueryService` behind the in-process
//! `serve_tcp` listener, driven over real sockets in a closed loop — callers
//! of a query server wait for their reply. `nproc` is 2 here, so there is at
//! most one reader and one writer connection.

use crate::client::{Client, Reply};
use crate::gen::{self, Rng, Tree, Zipf};
use crate::json::Json;
use crate::model::{Digest, Dir, Model};
use crate::stats::{self, summarize, Timeline};
use crate::{Outcome, Params};
use alexander_ir::Predicate;
use alexander_parser::parse;
use alexander_server::{serve_tcp, QueryService, ServeHandle, ServerConfig};
use alexander_storage::Database;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Operations per batch: half deletes of live edges, half inserts.
const BATCH_OPS: usize = 8;
const THINK: Duration = Duration::from_millis(10);
const CHECKPOINT_EVERY: u64 = 200;
/// Batches committed after the last checkpoint, so that every recovery
/// replays the same amount of log over the same size of snapshot.
pub const REPLAY_BATCHES: u64 = 50;
pub const RECOVER_CYCLES: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    PointReads,
    DeepReads,
    MixedRw,
}

impl Kind {
    pub fn depth(self, smoke: bool) -> u32 {
        match (self, smoke) {
            (_, true) => 6,
            (Kind::PointReads, false) => 14,
            (Kind::DeepReads | Kind::MixedRw, false) => 12,
        }
    }

    pub fn warm_up_reads(self) -> usize {
        match self {
            Kind::PointReads | Kind::MixedRw => 200,
            Kind::DeepReads => 14,
        }
    }
}

pub struct Query {
    pub node: u32,
    pub dir: Dir,
    /// The request line: `QUERY anc(a7, X)` or `QUERY anc(X, a7)`.
    pub line: String,
}

/// One set-up, ready to be driven.
pub struct Rig {
    pub kind: Kind,
    pub tree: Tree,
    pub queries: Vec<Query>,
    /// Indices into `queries`, in the order the reader issues them (cycled).
    pub schedule: Vec<u32>,
    /// The edge set at generation 0.
    pub model: Model,
    /// Children of the edges the writer turns off and on, and whether each is
    /// on at generation 0.
    pub toggles: Vec<(u32, bool)>,
    pub service: Arc<QueryService>,
    pub handle: ServeHandle,
    pub store: Option<(PathBuf, PathBuf)>,
    pub facts_loaded: usize,
    pub load_s: f64,
}

/// The tree edge into `child`, as the fact the program stores.
fn par_atom(tree: &Tree, child: u32) -> String {
    format!("par({}, {})", tree.name(child / 2), tree.name(child))
}

/// Applies a batch (`true` = insert, by child id) to the model.
pub fn apply_batch(model: &mut Model, ops: &[(bool, u32)]) {
    for (insert, child) in ops {
        if *insert {
            model.insert(child / 2, *child);
        } else {
            model.delete(child / 2, *child);
        }
    }
}

impl Rig {
    pub fn edge_atom(&self, child: u32) -> String {
        par_atom(&self.tree, child)
    }

    pub fn connect(&self, tenant: &str) -> Client {
        let addr = self.handle.tcp_addr().expect("tcp listener");
        Client::connect(addr, tenant).expect("connect to the in-process listener")
    }

    /// Stops the listener, waits for its sessions to end, drops the service
    /// and removes the store.
    pub fn tear_down(self) {
        self.handle.shutdown_graceful(Duration::from_secs(2));
        drop(self.service);
        if let Some((snap, _)) = &self.store {
            remove_scratch(snap.parent().expect("store dir"));
        }
    }
}

fn anc_atom(tree: &Tree, node: u32, dir: Dir) -> String {
    match dir {
        Dir::Down => format!("anc({}, X)", tree.name(node)),
        Dir::Up => format!("anc(X, {})", tree.name(node)),
    }
}

/// The reader's operations. What is drawn from the seed is which nodes are
/// asked for; the mix of levels and of query shapes is fixed, so that every
/// seed costs the same.
fn plan_reads(kind: Kind, tree: &Tree, rng: &mut Rng) -> (Vec<Query>, Vec<u32>) {
    let d = tree.depth;
    let shuffled = |levels: std::ops::RangeInclusive<u32>, rng: &mut Rng| -> Vec<Vec<u32>> {
        levels
            .map(|l| {
                let mut ids: Vec<u32> = tree.level(l).collect();
                rng.shuffle(&mut ids);
                ids
            })
            .collect()
    };
    // Point reads: Zipf over the bottom four levels, ranks dealt to the
    // levels in turn. Two in three bind the first argument, so the median
    // sits inside that shape's mode and not between two modes.
    let bottom = shuffled(d - 3..=d, rng);
    let ranked: Vec<u32> = (0..bottom[0].len() * 4)
        .map(|r| bottom[r % 4][r / 4])
        .collect();
    let zipf = Zipf::new(ranked.len());
    let point = |k: usize, rng: &mut Rng| {
        let dir = if k % 3 == 2 { Dir::Up } else { Dir::Down };
        (ranked[zipf.sample(rng)], dir)
    };
    let ops: Vec<(u32, Dir)> = match kind {
        Kind::PointReads => (0..8192).map(|k| point(k, rng)).collect(),
        // Deep reads rotate over the top three levels, 1 + 2 + 4 nodes, in
        // the same order on every seed: the order in which results of such
        // different sizes are built and freed moves the peak memory by a fifth.
        Kind::DeepReads => (1..8).map(|n| (n, Dir::Down)).collect(),
        // Mixed: point reads alternate with medium ones, a few levels up.
        Kind::MixedRw => {
            let medium: Vec<u32> = shuffled(d / 3..=d / 2, rng).concat();
            (0..8192)
                .map(|k| {
                    if k % 2 == 0 {
                        point(k / 2, rng)
                    } else {
                        (medium[rng.below(medium.len())], Dir::Down)
                    }
                })
                .collect()
        }
    };
    let mut index: HashMap<(u32, Dir), u32> = HashMap::new();
    let mut queries = Vec::new();
    let schedule = ops
        .into_iter()
        .map(|(node, dir)| {
            *index.entry((node, dir)).or_insert_with(|| {
                queries.push(Query {
                    node,
                    dir,
                    line: format!("QUERY {}", anc_atom(tree, node, dir)),
                });
                queries.len() as u32 - 1
            })
        })
        .collect();
    (queries, schedule)
}

/// The edges the writer works on: the same number at each of the bottom five
/// levels, every other one off at generation 0, so the number of live edges
/// never drifts.
fn plan_toggles(tree: &Tree, rng: &mut Rng) -> Vec<(u32, bool)> {
    let mut out = Vec::new();
    for l in tree.depth - 4..=tree.depth {
        let mut ids: Vec<u32> = tree.level(l).collect();
        rng.shuffle(&mut ids);
        let n = 48.min(ids.len() / 2);
        out.extend(ids[..n].iter().enumerate().map(|(i, c)| (*c, i % 2 == 0)));
    }
    out
}

/// A scratch directory under the directory of the running binary — the build
/// directory, which is inside the checkout and ignored by git.
pub fn scratch_dir(tag: &str) -> PathBuf {
    // Tests run as threads of one process: the process id alone would let two
    // of them share a store.
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let exe = std::env::current_exe().expect("current_exe");
    let dir = exe
        .parent()
        .expect("binary directory")
        .join("e2e-tmp")
        .join(format!("{}-{n}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// Removes a scratch directory, and `e2e-tmp` itself once it is empty.
pub fn remove_scratch(dir: &Path) {
    std::fs::remove_dir_all(dir).ok();
    if let Some(parent) = dir.parent() {
        std::fs::remove_dir(parent).ok();
    }
}

/// Everything from the seed to a listening, warmed-up service, and the
/// reader's connection: opened for the warm-up and kept for the window, so
/// that one session thread, warm, serves both.
pub fn set_up(kind: Kind, p: &Params, round: usize) -> (Rig, Client) {
    let (mut rng, prefix) = gen::round(p.seed, round);
    let tree = Tree::new(kind.depth(p.smoke), prefix, &mut rng);
    let (queries, schedule) = plan_reads(kind, &tree, &mut rng);
    let toggles = if kind == Kind::MixedRw {
        plan_toggles(&tree, &mut rng)
    } else {
        Vec::new()
    };
    let off: HashSet<u32> = toggles.iter().filter(|t| !t.1).map(|t| t.0).collect();
    let model = Model::from_edges(tree.edges().filter(|(_, c)| !off.contains(c)));

    let t = Instant::now();
    let mut edb = Database::new();
    for (a, b) in model.edges() {
        gen::insert(&mut edb, "par", &tree.name(*a), &tree.name(*b));
    }
    let load_s = t.elapsed().as_secs_f64();

    let program = parse(gen::ANCESTOR).expect("program parses").program;
    let store = (kind == Kind::MixedRw).then(|| {
        let dir = scratch_dir(&format!("store{round}"));
        (dir.join("db.snap"), dir.join("db.wal"))
    });
    let service = QueryService::open(
        program,
        edb,
        store.as_ref().map(|(s, w)| (s.as_path(), w.as_path())),
        ServerConfig::default(),
    )
    .expect("service opens");
    let service = Arc::new(service);
    let handle = serve_tcp(service.clone(), "127.0.0.1:0").expect("bind");
    let rig = Rig {
        kind,
        facts_loaded: model.edges().len(),
        tree,
        queries,
        schedule,
        model,
        toggles,
        service,
        handle,
        store,
        load_s,
    };
    // Warm-up: the same operations as the window, not timed, a fixed number
    // of them on every commit.
    let mut reader = rig.connect("reader");
    for k in 0..kind.warm_up_reads() {
        let q = &rig.queries[rig.schedule[k % rig.schedule.len()] as usize];
        let r = reader.request(&q.line).expect("warm-up query");
        assert!(r.ok, "warm-up query failed: {}", r.terminal);
    }
    (rig, reader)
}

/// Runs the set-up `gen::SETUP_ROUNDS` times, keeps the last, and returns the
/// seconds each took.
pub fn set_up_rounds(kind: Kind, p: &Params) -> (Rig, Client, Vec<f64>) {
    let mut times = Vec::new();
    let mut kept: Option<(Rig, Client)> = None;
    for round in 0..gen::SETUP_ROUNDS {
        if let Some((rig, reader)) = kept.take() {
            drop(reader);
            rig.tear_down();
        }
        let t = Instant::now();
        kept = Some(set_up(kind, p, round));
        times.push(t.elapsed().as_secs_f64());
    }
    let (rig, reader) = kept.expect("at least one round");
    (rig, reader, times)
}

/// One answered read, kept for checking after the window.
pub struct ReadLog {
    pub generation: u64,
    pub query: u32,
    pub answers: Digest,
}

/// One acknowledged commit: the generation it made and what it changed
/// (`true` = insert) by child id.
pub struct CommitLog {
    pub generation: u64,
    pub ops: Vec<(bool, u32)>,
}

#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub sheds: u64,
}

impl Tally {
    fn note(&mut self, r: &Reply) {
        self.attempted += 1;
        self.failed += u64::from(!r.ok);
        self.sheds += u64::from(r.sheds);
    }
}

#[derive(Default)]
struct ReaderRun {
    timeline: Timeline,
    log: Vec<ReadLog>,
    tally: Tally,
}

fn read_until(rig: &Rig, client: &mut Client, started: Instant, deadline: Instant) -> ReaderRun {
    let mut run = ReaderRun::default();
    // Start past the warm-up's operations.
    let mut k = rig.kind.warm_up_reads();
    while Instant::now() < deadline {
        let qi = rig.schedule[k % rig.schedule.len()];
        let t = Instant::now();
        let reply = client
            .request(&rig.queries[qi as usize].line)
            .expect("query");
        run.tally.note(&reply);
        if reply.ok {
            run.timeline.push(
                started.elapsed().as_secs_f64(),
                t.elapsed().as_secs_f64() * 1e3,
            );
            run.log.push(ReadLog {
                generation: reply.generation,
                query: qi,
                answers: reply.answers,
            });
        }
        k += 1;
    }
    run
}

/// The writer's side of the edge set: which toggled edges are on.
pub struct Toggler {
    on: Vec<u32>,
    off: Vec<u32>,
    rng: Rng,
}

impl Toggler {
    pub fn new(rig: &Rig, seed: u64) -> Toggler {
        let pick = |want: bool| {
            rig.toggles
                .iter()
                .filter(|t| t.1 == want)
                .map(|t| t.0)
                .collect()
        };
        Toggler {
            on: pick(true),
            off: pick(false),
            rng: Rng::new(seed ^ 0x77_72_69_74_65_72),
        }
    }

    /// Half deletes of edges that are on, half inserts of edges that are off;
    /// no edge twice in one batch.
    pub fn next_batch(&mut self) -> Vec<(bool, u32)> {
        let mut ops = Vec::with_capacity(BATCH_OPS);
        for _ in 0..BATCH_OPS / 2 {
            let c = self.on.swap_remove(self.rng.below(self.on.len()));
            ops.push((false, c));
            let c = self.off.swap_remove(self.rng.below(self.off.len()));
            ops.push((true, c));
        }
        for (insert, c) in &ops {
            if *insert { &mut self.on } else { &mut self.off }.push(*c);
        }
        ops
    }
}

#[derive(Default)]
struct WriterRun {
    timeline: Timeline,
    log: Vec<CommitLog>,
    tally: Tally,
    checkpoints: u64,
    think_s: f64,
    late_s: f64,
}

/// Stages a batch (not timed), then times `COMMIT` alone.
pub fn commit_batch(rig: &Rig, client: &mut Client, ops: &[(bool, u32)]) -> (Reply, f64) {
    for (insert, child) in ops {
        let verb = if *insert { "INSERT" } else { "DELETE" };
        let r = client
            .request(&format!("{verb} {}", rig.edge_atom(*child)))
            .expect("stage");
        assert!(r.ok, "staging failed: {}", r.terminal);
    }
    let t = Instant::now();
    let reply = client.request("COMMIT").expect("commit");
    (reply, t.elapsed().as_secs_f64() * 1e3)
}

fn write_until(rig: &Rig, seed: u64, started: Instant, deadline: Instant) -> WriterRun {
    let mut client = rig.connect("writer");
    let mut toggler = Toggler::new(rig, seed);
    let mut run = WriterRun::default();
    let mut since_checkpoint = 0;
    let mut commit = |run: &mut WriterRun, timed: bool| {
        let ops = toggler.next_batch();
        let (reply, ms) = commit_batch(rig, &mut client, &ops);
        if timed {
            run.tally.note(&reply);
        }
        if timed && reply.ok {
            run.timeline.push(started.elapsed().as_secs_f64(), ms);
        }
        assert!(
            reply.ok || timed,
            "untimed commit failed: {}",
            reply.terminal
        );
        if reply.ok {
            run.log.push(CommitLog {
                generation: reply.generation,
                ops,
            });
        }
    };
    while Instant::now() < deadline {
        commit(&mut run, true);
        since_checkpoint += 1;
        if since_checkpoint == CHECKPOINT_EVERY {
            // There is no wire verb for it; an operator would call this.
            rig.service.checkpoint().expect("checkpoint");
            run.checkpoints += 1;
            since_checkpoint = 0;
        }
        // Think by spinning, not sleeping. With two cores and two closed
        // loops, a writer that sleeps looks idle to the scheduler, which then
        // stacks its threads on the reader's core for seconds at a time and
        // the commit latency has two modes 40% apart. A writer that stays
        // runnable keeps a core, which nothing else here needs.
        let due = Instant::now() + THINK;
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        run.think_s += THINK.as_secs_f64();
        run.late_s += due.elapsed().as_secs_f64();
    }
    // Leave the same store behind on every run: a fresh snapshot and a fixed
    // number of batches after it.
    rig.service.checkpoint().expect("final checkpoint");
    for _ in 0..REPLAY_BATCHES {
        commit(&mut run, false);
    }
    run
}

/// The lines `anc` must answer for `q` over `model`.
pub fn expected(rig: &Rig, model: &Model, q: &Query) -> Digest {
    let me = rig.tree.name(q.node);
    Digest::of(model.reach(q.node, q.dir).into_iter().map(|n| {
        let other = rig.tree.name(n);
        match q.dir {
            Dir::Down => format!("anc({me}, {other})"),
            Dir::Up => format!("anc({other}, {me})"),
        }
    }))
}

/// Checks every logged reply against the breadth-first reference over the
/// edge set of the generation it was pinned to. Returns the number of wrong
/// replies and the model after the last commit.
pub fn verify_reads(rig: &Rig, reads: &[ReadLog], commits: &[CommitLog]) -> (u64, Model) {
    let mut model = rig.model.clone();
    let mut commits = commits.iter().peekable();
    let mut apply_through = |model: &mut Model, generation: u64| {
        while let Some(c) = commits.next_if(|c| c.generation <= generation) {
            apply_batch(model, &c.ops);
        }
    };
    let mut wrong = 0;
    let mut at = 0;
    let mut cache: HashMap<u32, Digest> = HashMap::new();
    for r in reads {
        assert!(r.generation >= at, "one connection never reads backwards");
        if r.generation > at {
            apply_through(&mut model, r.generation);
            cache.clear();
            at = r.generation;
        }
        let want = *cache
            .entry(r.query)
            .or_insert_with(|| expected(rig, &model, &rig.queries[r.query as usize]));
        wrong += u64::from(want != r.answers);
    }
    apply_through(&mut model, u64::MAX);
    (wrong, model)
}

/// Whether the service's extensional database is exactly `model`.
pub fn edb_matches(tree: &Tree, service: &QueryService, model: &Model) -> bool {
    let mut got: Vec<String> = service
        .pin()
        .engine()
        .edb()
        .atoms_of(Predicate::new("par", 2))
        .iter()
        .map(|a| a.to_string())
        .collect();
    got.sort();
    let mut want: Vec<String> = model
        .edges()
        .iter()
        .map(|(_, c)| par_atom(tree, *c))
        .collect();
    want.sort();
    got == want
}

/// Drops the service and reopens it on the snapshot and log it left, timing
/// `QueryService::open`. Returns each open's milliseconds and whether every
/// recovered database equalled `model`, the edge set after the last
/// acknowledged commit.
pub fn recover_cycles(rig: Rig, model: &Model) -> (Vec<f64>, bool) {
    let Rig {
        handle,
        service,
        tree,
        store,
        ..
    } = rig;
    let (snap, wal) = store.expect("durable workload");
    handle.shutdown_graceful(Duration::from_secs(2));
    drop(service);
    let program = parse(gen::ANCESTOR).expect("program parses").program;
    let mut times = Vec::new();
    let mut all_match = true;
    for _ in 0..RECOVER_CYCLES {
        let t = Instant::now();
        let service = QueryService::open(
            program.clone(),
            Database::new(),
            Some((&snap, &wal)),
            ServerConfig::default(),
        )
        .expect("recovery");
        times.push(t.elapsed().as_secs_f64() * 1e3);
        all_match &= edb_matches(&tree, &service, model);
    }
    remove_scratch(snap.parent().expect("store dir"));
    (times, all_match)
}

/// The untraced run: the end-to-end metrics.
pub fn run(kind: Kind, p: &Params) -> Outcome {
    let (rig, mut reader_conn, setup_times) = set_up_rounds(kind, p);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(p.seconds);
    let (reader, writer) = std::thread::scope(|s| {
        let writer = (kind == Kind::MixedRw)
            .then(|| s.spawn(|| write_until(&rig, p.seed, started, deadline)));
        let reader = read_until(&rig, &mut reader_conn, started, deadline);
        let writer = writer.map(|w| w.join().expect("writer thread"));
        (reader, writer.unwrap_or_default())
    });
    let sheds = rig.service.admission().shed_total();

    let (wrong, final_model) = verify_reads(&rig, &reader.log, &writer.log);
    let live_matches = edb_matches(&rig.tree, &rig.service, &final_model);
    let (recover_ms, recovered_matches) = if kind == Kind::MixedRw {
        recover_cycles(rig, &final_model)
    } else {
        rig.tear_down();
        (Vec::new(), true)
    };
    let peak_rss_mb = stats::peak_rss_mb();

    let window_s = p.seconds;
    let (reads, writes) = (
        reader.timeline.steady(window_s),
        writer.timeline.steady(window_s),
    );
    let queries = summarize(reader.timeline.ms);
    let commits = summarize(writer.timeline.ms);
    let failed = reader.tally.failed + writer.tally.failed + wrong;
    // The operation whose latency a caller of this workload waits on: the
    // commit where there is a writer, the query where there is none.
    let latency = if kind == Kind::MixedRw {
        writes.p50_ms
    } else {
        reads.p50_ms
    };
    let late_share = if writer.think_s > 0.0 {
        writer.late_s / writer.think_s
    } else {
        0.0
    };
    Outcome {
        correct: failed == 0 && live_matches && recovered_matches,
        attempted: reader.tally.attempted + writer.tally.attempted,
        failed,
        metrics: vec![
            ("latency_p50_ms", latency),
            ("throughput_per_s", reads.per_s),
            ("peak_rss_mb", peak_rss_mb),
            ("setup_s", stats::median(setup_times.clone())),
        ],
        diagnostics: Json::obj([
            ("clients", Json::str("closed loop: 1 reader, 0 or 1 writer")),
            ("query_slice_p50_ms", Json::nums(&reads.slice_p50_ms)),
            ("commit_slice_p50_ms", Json::nums(&writes.slice_p50_ms)),
            ("query_p50_ms", Json::Num(reads.p50_ms)),
            ("query_pooled_p50_ms", Json::Num(queries.p50)),
            ("query_tail_ms", Json::Num(queries.tail)),
            ("query_tail_pct", Json::Num(queries.tail_pct)),
            ("query_samples", Json::Int(queries.n as u64)),
            ("query_qps", Json::Num(reads.per_s)),
            ("commit_p50_ms", Json::Num(writes.p50_ms)),
            ("commit_pooled_p50_ms", Json::Num(commits.p50)),
            ("commit_tail_ms", Json::Num(commits.tail)),
            ("commit_tail_pct", Json::Num(commits.tail_pct)),
            ("commit_samples", Json::Int(commits.n as u64)),
            ("checkpoints", Json::Int(writer.checkpoints)),
            ("writer_late_share", Json::Num(late_share)),
            ("commit_unresolved", Json::Bool(late_share > 0.10)),
            ("recover_ms", Json::Num(stats::median(recover_ms.clone()))),
            ("recover_samples", Json::Int(recover_ms.len() as u64)),
            (
                "sheds",
                Json::Int(sheds + reader.tally.sheds + writer.tally.sheds),
            ),
            ("wrong_answers", Json::Int(wrong)),
            (
                "store_matches_model",
                Json::Bool(live_matches && recovered_matches),
            ),
            (
                "flush_policy",
                Json::str("server default: one fsync per commit; page-cache speed here"),
            ),
            ("setup_samples_s", Json::nums(&setup_times)),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> Params {
        Params {
            seed: 11,
            seconds: 0.2,
            smoke: true,
        }
    }

    #[test]
    fn the_read_plan_is_fixed_by_the_seed_and_keeps_its_mix() {
        let plan = |seed| {
            let mut rng = Rng::new(seed);
            let tree = Tree::new(8, "n", &mut rng);
            let (queries, schedule) = plan_reads(Kind::PointReads, &tree, &mut rng);
            let lines: Vec<String> = schedule
                .iter()
                .map(|i| queries[*i as usize].line.clone())
                .collect();
            let ups = schedule
                .iter()
                .filter(|i| queries[**i as usize].dir == Dir::Up)
                .count();
            (lines, ups)
        };
        assert_eq!(plan(5).0, plan(5).0);
        assert_ne!(plan(5).0, plan(6).0);
        // One operation in three binds the second argument, on every seed.
        assert_eq!(plan(5).1, 8192 / 3);
        assert_eq!(plan(6).1, 8192 / 3);
    }

    #[test]
    fn batches_keep_the_number_of_live_edges() {
        let rig = set_up(Kind::MixedRw, &smoke(), 0).0;
        let on = rig.toggles.iter().filter(|t| t.1).count();
        let mut toggler = Toggler::new(&rig, 3);
        let mut model = rig.model.clone();
        for _ in 0..20 {
            let ops = toggler.next_batch();
            assert_eq!(ops.len(), BATCH_OPS);
            for (insert, c) in &ops {
                let live = model.edges().contains(&(c / 2, *c));
                assert_eq!(live, !insert, "ops flip live state");
            }
            apply_batch(&mut model, &ops);
            assert_eq!(toggler.on.len(), on);
        }
        rig.tear_down();
    }

    #[test]
    fn a_wrong_reply_is_caught_after_the_window() {
        let rig = set_up(Kind::DeepReads, &smoke(), 0).0;
        let good = expected(&rig, &rig.model, &rig.queries[0]);
        assert!(
            good.count >= 30,
            "a node of the top three levels of a depth-6 tree"
        );
        let mut bad = good;
        bad.sum ^= 1;
        let reads = [
            ReadLog {
                generation: 0,
                query: 0,
                answers: good,
            },
            ReadLog {
                generation: 0,
                query: 0,
                answers: bad,
            },
        ];
        assert_eq!(verify_reads(&rig, &reads, &[]).0, 1);
        rig.tear_down();
    }

    #[test]
    fn every_served_workload_runs_and_checks_out() {
        for kind in [Kind::PointReads, Kind::DeepReads, Kind::MixedRw] {
            let out = run(kind, &smoke());
            assert!(out.correct, "{kind:?}: {}", out.diagnostics);
            assert!(out.attempted > 0);
            assert_eq!(out.failed, 0);
            for (name, value) in &out.metrics {
                assert!(*value > 0.0, "{kind:?} {name} = {value}");
            }
        }
    }
}
