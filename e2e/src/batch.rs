//! `batch.strategies`: the paper's own comparison. No server, no sockets, no
//! disk — single-threaded `Engine::query` over every strategy × shape cell.

use crate::gen::{self, Rng, Tree};
use crate::json::Json;
use crate::model::{Digest, Dir, Model};
use crate::stats::{self, summarize, Timeline};
use crate::{Outcome, Params};
use alexander_core::{check_power_correspondence, Engine, QueryResult, Strategy};
use alexander_ir::Atom;
use alexander_parser::{parse, parse_atom};
use alexander_storage::Database;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// The strategies of the sweep. Win–move is not stratified: semi-naive is
/// replaced there by the conditional fixpoint, and OLDT rejects it.
const POSITIVE: [Strategy; 5] = [
    Strategy::Alexander,
    Strategy::SupplementaryMagic,
    Strategy::Magic,
    Strategy::Oldt,
    Strategy::SemiNaive,
];
const WIN_MOVE: [Strategy; 4] = [
    Strategy::Alexander,
    Strategy::SupplementaryMagic,
    Strategy::Magic,
    Strategy::ConditionalFixpoint,
];

pub struct Shape {
    pub name: &'static str,
    pub engine: Engine,
    pub query: Atom,
    pub strategies: &'static [Strategy],
    /// The answers the benchmark's own reference expects.
    pub expected: Digest,
}

/// The counts of one cell; they must repeat exactly from sweep to sweep.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Counts {
    pub answers: u64,
    pub calls: u64,
    pub firings: u64,
    pub facts_materialised: u64,
}

impl Counts {
    pub fn of(r: &QueryResult) -> Counts {
        Counts {
            answers: r.answers.len() as u64,
            calls: r.report.calls.unwrap_or(0),
            firings: match (&r.report.eval, &r.report.oldt) {
                (Some(m), _) => m.firings,
                (None, Some(m)) => m.resolution_steps,
                (None, None) => 0,
            },
            facts_materialised: r.report.facts_materialised,
        }
    }

    fn json(&self) -> Json {
        Json::obj([
            ("answers", Json::Int(self.answers)),
            ("calls", Json::Int(self.calls)),
            ("firings", Json::Int(self.firings)),
            ("facts_materialised", Json::Int(self.facts_materialised)),
        ])
    }
}

struct Sizes {
    chain: usize,
    tree_depth: u32,
    crossover: usize,
    sg_depth: u32,
    game: (usize, usize, usize),
}

/// Sized so that one sweep takes about 300 ms on the sandbox.
const FULL: Sizes = Sizes {
    chain: 288,
    tree_depth: 10,
    crossover: 160,
    sg_depth: 8,
    game: (14, 64, 3),
};
const SMOKE: Sizes = Sizes {
    chain: 24,
    tree_depth: 5,
    crossover: 16,
    sg_depth: 4,
    game: (4, 6, 2),
};

fn anc_lines(model: &Model, name: &dyn Fn(u32) -> String, from: u32) -> Digest {
    let me = name(from);
    Digest::of(
        model
            .reach(from, Dir::Down)
            .into_iter()
            .map(|n| format!("anc({me}, {})", name(n))),
    )
}

/// `sg(x, Y)` over a complete binary tree in heap numbering: `flat(x)`, which
/// is `x`'s sibling, plus the children of whatever is in the same generation
/// as `x`'s parent.
fn same_generation(x: u32) -> HashSet<u32> {
    let mut out = HashSet::new();
    if x == 1 {
        return out;
    }
    out.insert(x ^ 1);
    for v in same_generation(x / 2) {
        out.extend([2 * v, 2 * v + 1]);
    }
    out
}

/// Retrograde analysis of a `move` graph without cycles: a position wins when
/// some move leads to one that does not.
fn wins(moves: &HashMap<String, Vec<String>>, at: &str, memo: &mut HashMap<String, bool>) -> bool {
    if let Some(w) = memo.get(at) {
        return *w;
    }
    let w = moves
        .get(at)
        .is_some_and(|next| next.iter().any(|n| !wins(moves, n, memo)));
    memo.insert(at.to_string(), w);
    w
}

pub fn shapes(p: &Params, round: usize) -> Vec<Shape> {
    let z = if p.smoke { &SMOKE } else { &FULL };
    let (mut rng, prefix) = gen::round(p.seed, round);
    let program = |src: &str| parse(src).expect("program parses").program;
    let engine = |src: &str, edb: Database| Engine::new(program(src), edb).expect("valid program");
    // A chain needs no search: node i reaches every later node.
    let chain_shape = |name, n: usize, free: bool, rng: &mut Rng| {
        let (edb, names) = gen::chain("par", n, &format!("{prefix}{name}"), rng);
        let starts = if free { n } else { 1 };
        let expected = Digest::of((0..starts).flat_map(|i| {
            let names = &names;
            (i + 1..=n).map(move |j| format!("anc({}, {})", names[i], names[j]))
        }));
        let query = if free {
            "anc(X, Y)".to_string()
        } else {
            format!("anc({}, X)", names[0])
        };
        Shape {
            name,
            engine: engine(gen::ANCESTOR, edb),
            query: parse_atom(&query).expect("query parses"),
            strategies: &POSITIVE,
            expected,
        }
    };

    let chain = chain_shape("chain", z.chain, false, &mut rng);
    let crossover = chain_shape("crossover", z.crossover, true, &mut rng);

    let tree = Tree::new(z.tree_depth, &format!("{prefix}t"), &mut rng);
    let from = 2 + rng.below(2) as u32;
    let tree_shape = Shape {
        name: "tree",
        engine: engine(gen::ANCESTOR, gen::tree_edb("par", &tree)),
        query: parse_atom(&format!("anc({}, X)", tree.name(from))).expect("query parses"),
        strategies: &POSITIVE,
        expected: anc_lines(&Model::from_edges(tree.edges()), &|n| tree.name(n), from),
    };

    let sg_tree = Tree::new(z.sg_depth, &format!("{prefix}s"), &mut rng);
    let leaf = sg_tree.level(z.sg_depth).start + rng.below(1 << z.sg_depth) as u32;
    let sg = Shape {
        name: "same_generation",
        engine: engine(gen::SAME_GENERATION, gen::same_generation_edb(&sg_tree)),
        query: parse_atom(&format!("sg({}, Y)", sg_tree.name(leaf))).expect("query parses"),
        strategies: &POSITIVE,
        expected: Digest::of(
            same_generation(leaf)
                .into_iter()
                .map(|y| format!("sg({}, {})", sg_tree.name(leaf), sg_tree.name(y))),
        ),
    };

    let (layers, width, fanout) = z.game;
    let edges = gen::game_dag(layers, width, fanout, &format!("{prefix}g"), &mut rng);
    let start = edges[0].0.clone();
    let mut moves_db = Database::new();
    let mut moves: HashMap<String, Vec<String>> = HashMap::new();
    for (from, to) in &edges {
        gen::insert(&mut moves_db, "move", from, to);
        moves.entry(from.clone()).or_default().push(to.clone());
    }
    let start_wins = wins(&moves, &start, &mut HashMap::new());
    let game = Shape {
        name: "win_move",
        engine: engine(gen::WIN_MOVE, moves_db),
        query: parse_atom(&format!("win({start})")).expect("query parses"),
        strategies: &WIN_MOVE,
        expected: Digest::of(start_wins.then(|| format!("win({start})"))),
    };

    vec![chain, tree_shape, crossover, sg, game]
}

pub fn cell_name(shape: &Shape, s: Strategy) -> String {
    format!("{}/{}", shape.name, s.name())
}

/// One pass over every cell; returns each cell's counts and milliseconds, and
/// checks its answers against the reference when asked to.
pub fn sweep(shapes: &[Shape], check_answers: bool) -> (Vec<Counts>, Vec<f64>) {
    let (mut counts, mut ms) = (Vec::new(), Vec::new());
    for shape in shapes {
        for s in shape.strategies {
            let t = Instant::now();
            let r = shape.engine.query(&shape.query, *s).expect("query runs");
            ms.push(t.elapsed().as_secs_f64() * 1e3);
            assert!(r.report.completion.is_complete(), "unbudgeted run");
            if check_answers {
                let got = Digest::of(r.answers.iter().map(|a| a.to_string()));
                assert_eq!(
                    got,
                    shape.expected,
                    "{}: wrong answers",
                    cell_name(shape, *s)
                );
            }
            counts.push(Counts::of(&std::hint::black_box(r)));
        }
    }
    (counts, ms)
}

/// The paper's claim, checked before anything is timed: bottom-up evaluation
/// of the Alexander templates fills exactly OLDT's call and answer tables
/// (per adorned predicate, by the product's own checker), and supplementary
/// magic issues the same calls for the query's adornment.
fn assert_power_correspondence(shapes: &[Shape], counts: &[Counts]) {
    let mut at = 0;
    for shape in shapes {
        let cell = |want: Strategy| {
            let i = shape.strategies.iter().position(|s| *s == want);
            counts[at + i.expect("every shape runs both rewritings")]
        };
        let (alexander, supmagic) = (
            cell(Strategy::Alexander),
            cell(Strategy::SupplementaryMagic),
        );
        assert_eq!(
            (supmagic.calls, supmagic.answers),
            (alexander.calls, alexander.answers),
            "{}: supplementary magic and alexander disagree",
            shape.name
        );
        if shape.strategies.contains(&Strategy::Oldt) {
            let e = &shape.engine;
            let power = check_power_correspondence(e.program(), e.edb(), &shape.query)
                .expect("definite program");
            assert!(power.holds(), "{}: {power}", shape.name);
        }
        at += shape.strategies.len();
    }
}

/// Inputs, engines, the checked sweep and one more to warm up.
pub fn set_up(p: &Params, round: usize) -> (Vec<Shape>, Vec<Counts>) {
    let shapes = shapes(p, round);
    let counts = sweep(&shapes, true).0;
    assert_power_correspondence(&shapes, &counts);
    assert_eq!(sweep(&shapes, false).0, counts, "counts repeat");
    (shapes, counts)
}

pub fn set_up_rounds(p: &Params) -> (Vec<Shape>, Vec<Counts>, Vec<f64>) {
    let mut times = Vec::new();
    let mut kept = None;
    for round in 0..gen::SETUP_ROUNDS {
        let t = Instant::now();
        kept = Some(set_up(p, round));
        times.push(t.elapsed().as_secs_f64());
    }
    let (shapes, counts) = kept.expect("at least one round");
    (shapes, counts, times)
}

pub fn cell_names(shapes: &[Shape]) -> impl Iterator<Item = String> + '_ {
    shapes
        .iter()
        .flat_map(|sh| sh.strategies.iter().map(|s| cell_name(sh, *s)))
}

pub fn counts_json(shapes: &[Shape], counts: &[Counts]) -> Json {
    Json::obj(cell_names(shapes).zip(counts.iter().map(Counts::json)))
}

pub fn run(p: &Params) -> Outcome {
    let (shapes, baseline, setup_times) = set_up_rounds(p);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(p.seconds);
    let mut sweeps = Timeline::default();
    let mut cells_ms: Vec<Vec<f64>> = vec![Vec::new(); baseline.len()];
    let (mut attempted, mut failed) = (0u64, 0u64);
    while Instant::now() < deadline {
        let t = Instant::now();
        let (counts, ms) = sweep(&shapes, false);
        sweeps.push(
            started.elapsed().as_secs_f64(),
            t.elapsed().as_secs_f64() * 1e3,
        );
        for (cell, ms) in cells_ms.iter_mut().zip(ms) {
            cell.push(ms);
        }
        attempted += counts.len() as u64;
        failed += counts.iter().zip(&baseline).filter(|(a, b)| a != b).count() as u64;
    }
    let peak_rss_mb = stats::peak_rss_mb();
    let steady = sweeps.steady(p.seconds);
    let s = summarize(sweeps.ms);
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            ("latency_p50_ms", steady.p50_ms),
            // Cells, not sweeps: the unit a reader of the paper compares.
            ("throughput_per_s", steady.per_s * baseline.len() as f64),
            ("peak_rss_mb", peak_rss_mb),
            ("setup_s", stats::median(setup_times.clone())),
        ],
        diagnostics: Json::obj([
            ("sweep_slice_p50_ms", Json::nums(&steady.slice_p50_ms)),
            ("sweep_p50_ms", Json::Num(steady.p50_ms)),
            ("sweep_pooled_p50_ms", Json::Num(s.p50)),
            ("sweep_tail_ms", Json::Num(s.tail)),
            ("sweep_tail_pct", Json::Num(s.tail_pct)),
            ("sweep_samples", Json::Int(s.n as u64)),
            ("cells_per_sweep", Json::Int(baseline.len() as u64)),
            ("counts", counts_json(&shapes, &baseline)),
            (
                "cell_p50_ms",
                Json::obj(
                    cell_names(&shapes)
                        .zip(cells_ms.into_iter().map(|c| Json::Num(stats::median(c)))),
                ),
            ),
            ("setup_samples_s", Json::nums(&setup_times)),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(seed: u64) -> Params {
        Params {
            seed,
            seconds: 0.2,
            smoke: true,
        }
    }

    #[test]
    fn the_breadth_first_reference_agrees_with_every_strategy_on_a_small_tree() {
        // `set_up` checks every cell's answers against the reference and the
        // power correspondence; surviving it is the assertion.
        let (shapes, counts) = set_up(&smoke(1), 0);
        assert_eq!(counts.len(), 4 * 5 + 4);
        let tree = &shapes[1];
        assert_eq!(
            tree.expected.count, 30,
            "a child of the root of a depth-5 tree"
        );
        assert!(counts.iter().all(|c| c.facts_materialised > 0));
    }

    #[test]
    fn counts_repeat_across_runs_of_one_seed() {
        let a = set_up(&smoke(9), 0).1;
        let b = set_up(&smoke(9), 0).1;
        assert_eq!(a, b);
    }

    #[test]
    fn the_workload_runs_and_checks_out() {
        let out = run(&smoke(4));
        assert!(out.correct);
        assert!(out.attempted >= 24);
        for (name, value) in &out.metrics {
            assert!(*value > 0.0, "{name} = {value}");
        }
    }

    #[test]
    fn same_generation_reference_on_a_tiny_tree() {
        // Leaves 4..8 of a depth-2 tree: 4's sibling is 5, its cousins 6 and 7.
        let mut sg: Vec<u32> = same_generation(4).into_iter().collect();
        sg.sort_unstable();
        assert_eq!(sg, [5, 6, 7]);
        assert!(same_generation(1).is_empty());
    }
}
