//! F10 (figure): incremental maintenance — update latency vs full recompute
//! across update-batch sizes, workload shapes and both sides of the
//! engine's counting/DRed switch.
//!
//! Each row materialises a program over one workload, applies one mixed
//! update batch through [`IncrementalEngine::apply_batch`], and compares
//! against evaluating the program from scratch on the post-update EDB.
//! Two programs cover the two maintenance mechanisms the engine chooses
//! between by the dependency graph's SCCs:
//!
//! * `tc` — transitive closure, one recursive SCC, so deletions run DRed;
//!   over a chain, a binary tree and a dense cycle;
//! * `layered` — `two(X, Z) :- e(X, Y), e(Y, Z).` and `three(X, W) :-
//!   two(X, Z), e(Z, W).`, no recursion and many alternative derivations
//!   per fact, so deletions run exact firing counts; over a random graph.
//!
//! Correctness comes first: an untimed pass asserts the maintained database
//! and the full recompute are bit-identical before any number is reported.
//! Timings are then taken on fresh engines (materialisation excluded),
//! best-of-3.
//!
//! Batch composition is explicit in the `ops` column — deletions target
//! every `edges/d`-th existing edge starting with the *first* edge, so the
//! single-delete rows remove a boundary edge (`e(n0, n1)` on the chain),
//! the case where incremental maintenance should shine: the doomed set is
//! O(n) against an O(n²) recompute. Mid-chain deletions would doom ~half
//! the closure and no maintenance algorithm could beat recompute by a wide
//! margin there. Insertions are fresh disjoint edges, so large batches
//! measure batch plumbing rather than closure growth. Deletions are capped
//! at half the workload's edges (the cap shows up in `ops`, never
//! silently).
//!
//! The `chain(512)` / `batch(1)` row's `speedup` (full recompute over
//! apply) is what the CI perf gate pins against the committed
//! BENCH_F10.json (best-of-2 harness runs, 20% band, like F6/F8) with the
//! hard bar speedup ≥ 10.

use crate::table::{ms, Table};
use alexander_eval::{eval_seminaive, IncrementalEngine};
use alexander_ir::{Atom, Predicate, Program};
use alexander_parser::{parse, parse_atom};
use alexander_storage::Database;
use alexander_workload as workload;
use std::time::{Duration, Instant};

/// The update-batch sizes of the transitive-closure rows; the layered rows
/// take the first three.
const BATCHES: [usize; 4] = [1, 16, 256, 4096];

pub fn run() -> Table {
    let mut cells: Vec<(Shape, &[usize])> = closure_shapes(512, 12, 192)
        .into_iter()
        .map(|shape| (shape, &BATCHES[..]))
        .collect();
    cells.push((layered(200, 2000), &BATCHES[..3]));
    run_with(cells)
}

/// One workload: a label, the program maintained over it, its EDB, and the
/// edge list in insertion order (deletions are drawn from it, spread evenly
/// from the first edge).
struct Shape {
    label: String,
    /// `tc` or `layered`.
    program_name: &'static str,
    program: Program,
    edb: Database,
    edges: Vec<Atom>,
    /// First node id not used by the base graph (fresh inserts start here).
    fresh: usize,
}

impl Shape {
    fn closure(label: String, edb: Database, edges: &[(usize, usize)], fresh: usize) -> Shape {
        Shape {
            label,
            program_name: "tc",
            program: workload::transitive_closure(),
            edb,
            edges: edges.iter().map(|&(a, b)| edge_atom(a, b)).collect(),
            fresh,
        }
    }
}

fn closure_shapes(chain: usize, tree_depth: usize, cycle: usize) -> Vec<Shape> {
    let mut out = Vec::new();
    let links: Vec<(usize, usize)> = (0..chain).map(|i| (i, i + 1)).collect();
    out.push(Shape::closure(
        format!("chain({chain})"),
        workload::chain("e", chain),
        &links,
        chain + 1,
    ));
    let (db, nodes) = workload::tree("e", 2, tree_depth);
    // BFS order, parent → child: edge i leads to node i+1.
    let parents: Vec<(usize, usize)> = (1..nodes).map(|c| ((c - 1) / 2, c)).collect();
    out.push(Shape::closure(
        format!("tree(2,{tree_depth})"),
        db,
        &parents,
        nodes,
    ));
    // A cycle plus skip-2 chords: every closure fact has many alternative
    // derivations, so a deletion overdeletes almost the whole closure and
    // phase 2 rederives nearly all of it — DRed's worst case, shown
    // deliberately next to the chain rows where it shines.
    let mut edges: Vec<(usize, usize)> = (0..cycle).map(|i| (i, (i + 1) % cycle)).collect();
    edges.extend((0..cycle).step_by(2).map(|i| (i, (i + 2) % cycle)));
    let mut db = workload::cycle("e", cycle);
    for &(a, b) in &edges[cycle..] {
        db.insert_atom(&edge_atom(a, b)).expect("ground");
    }
    out.push(Shape::closure(
        format!("dense-cycle({cycle})"),
        db,
        &edges,
        cycle,
    ));
    out
}

/// The non-recursive layered joins over `random_graph("e", nodes, edges,
/// 7)`: every head is counted, and most facts have several derivations.
fn layered(nodes: usize, edges: usize) -> Shape {
    let edb = workload::random_graph("e", nodes, edges, 7);
    Shape {
        label: format!("random({nodes},{edges})"),
        program_name: "layered",
        program: parse("two(X, Z) :- e(X, Y), e(Y, Z). three(X, W) :- two(X, Z), e(Z, W).")
            .expect("layered program parses")
            .program,
        edges: edb.atoms_of(Predicate::new("e", 2)),
        edb,
        fresh: nodes,
    }
}

fn edge_atom(a: usize, b: usize) -> Atom {
    parse_atom(&format!("e(n{a}, n{b})")).expect("ground edge")
}

/// The mixed batch for one (shape, size) cell: `d` deletions spread evenly
/// over the existing edges starting with the first, and `size - d` fresh
/// disjoint insertions. Deletions are capped at half the edges.
fn batch_ops(shape: &Shape, size: usize) -> (Vec<(bool, Atom)>, String) {
    let want = size.div_ceil(2).max(1).min(size);
    let d = want.min(shape.edges.len() / 2).max(1).min(size);
    let inserts = size - d;
    let mut ops = Vec::with_capacity(size);
    for i in 0..d {
        ops.push((false, shape.edges[i * shape.edges.len() / d].clone()));
    }
    for i in 0..inserts {
        let (a, b) = (shape.fresh + 2 * i, shape.fresh + 2 * i + 1);
        ops.push((true, edge_atom(a, b)));
    }
    (ops, format!("{d}d+{inserts}i"))
}

/// The post-update EDB, built independently of the engines.
fn edb_after(shape: &Shape, ops: &[(bool, Atom)]) -> Database {
    let mut db = shape.edb.clone();
    for (insert, atom) in ops {
        if *insert {
            db.insert_atom(atom).expect("ground");
        }
    }
    // Database has no removal API by design; rebuild without the victims.
    let deleted: std::collections::HashSet<&Atom> = ops
        .iter()
        .filter(|(insert, _)| !insert)
        .map(|(_, a)| a)
        .collect();
    let mut out = Database::new();
    for p in db.predicates() {
        for atom in db.atoms_of(p) {
            if !deleted.contains(&atom) {
                out.insert_atom(&atom).expect("ground");
            }
        }
    }
    out
}

fn sorted_facts(db: &Database) -> Vec<String> {
    let mut out: Vec<String> = db
        .predicates()
        .into_iter()
        .flat_map(|p| db.atoms_of(p))
        .map(|a| a.to_string())
        .collect();
    out.sort();
    out
}

/// Best-of-3 wall time of `f` run against a freshly built state.
fn best_of_3(mut f: impl FnMut() -> Duration) -> Duration {
    (0..3).map(|_| f()).min().expect("three samples")
}

fn run_with(cells: Vec<(Shape, &[usize])>) -> Table {
    let mut t = Table::new(
        "F10",
        "figure: incremental update latency vs full recompute, by batch size and workload",
        "A program is materialised once — transitive closure (`tc`, one \
         recursive SCC: deletions run DRed) or two layered joins \
         (`layered`, no recursion: deletions run exact firing counts) — \
         then one mixed update batch (deletions spread from the first \
         edge + fresh-edge insertions; exact composition in `ops`) is \
         applied through the incremental engine and compared with a \
         from-scratch evaluation of the post-update EDB. An untimed pass \
         asserts both databases are bit-identical before anything is \
         timed; timings are best-of-3 on fresh engines, materialisation \
         excluded. Single-delete rows remove the first edge — on the chain \
         the boundary edge `e(n0, n1)`, the O(doomed) vs O(n²) case \
         incremental maintenance exists for — and the chain single-delete \
         `speedup` is the CI-gated headline (hard bar: ≥ 10x, then a 20% \
         band against BENCH_F10.json, best-of-2, like F6/F8).",
        &[
            "workload",
            "program",
            "edges",
            "batch",
            "ops",
            "apply_ms",
            "recompute_ms",
            "speedup",
            "identical",
        ],
    );
    for (shape, batches) in &cells {
        for &size in *batches {
            t.row(cell(shape, size));
        }
    }
    t
}

fn cell(shape: &Shape, size: usize) -> Vec<String> {
    let program = &shape.program;
    let (ops, composition) = batch_ops(shape, size);
    let after = edb_after(shape, &ops);

    // Correctness pass, untimed: maintained == full recompute,
    // bit-identical, before any number is reported.
    let mut engine =
        IncrementalEngine::new(program.clone(), shape.edb.clone()).expect("incremental engine");
    engine.apply_batch(&ops).expect("batch");
    assert_eq!(
        sorted_facts(engine.db()),
        sorted_facts(&eval_seminaive(program, &after).expect("recompute").db),
        "{} {} batch({size}): maintenance diverged from recompute",
        shape.label,
        shape.program_name
    );

    // Timed pass: fresh engines, apply only (materialisation excluded).
    let apply_t = best_of_3(|| {
        let mut engine =
            IncrementalEngine::new(program.clone(), shape.edb.clone()).expect("engine");
        let start = Instant::now();
        engine.apply_batch(&ops).expect("batch");
        start.elapsed()
    });
    let recompute_t = best_of_3(|| {
        let start = Instant::now();
        eval_seminaive(program, &after).expect("recompute");
        start.elapsed()
    });
    let speedup = recompute_t.as_secs_f64() / apply_t.as_secs_f64().max(1e-9);

    vec![
        shape.label.clone(),
        shape.program_name.to_string(),
        shape.edges.len().to_string(),
        size.to_string(),
        composition,
        ms(apply_t),
        ms(recompute_t),
        format!("{speedup:.1}"),
        // Reaching this line means the correctness pass above held.
        "yes".to_string(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_f10_reports_identical_rows_for_every_shape_and_batch() {
        let mut cells: Vec<(Shape, &[usize])> = closure_shapes(24, 4, 12)
            .into_iter()
            .map(|shape| (shape, &[1, 8][..]))
            .collect();
        cells.push((layered(12, 40), &[1, 8][..]));
        let t = run_with(cells);
        assert_eq!(t.rows.len(), 8, "four shapes x two batch sizes");
        for row in &t.rows {
            assert_eq!(row.len(), t.columns.len());
            assert_eq!(row[8], "yes", "{row:?}");
            assert!(row[7].parse::<f64>().unwrap() > 0.0, "{row:?}");
        }
        assert_eq!(t.rows[0][0], "chain(24)");
        assert_eq!(t.rows[0][4], "1d+0i", "single delete, boundary edge");
        // Half-and-half until the deletion cap bites.
        assert_eq!(t.rows[1][4], "4d+4i");
        assert_eq!(t.rows[4][0], "dense-cycle(12)");
        assert_eq!(t.rows[6][..3], ["random(12,40)", "layered", "40"]);
    }

    #[test]
    fn batches_cap_deletions_at_half_the_edges_without_hiding_it() {
        let shape = &closure_shapes(6, 2, 6)[0]; // chain(6): 6 edges, cap 3
        let (ops, composition) = batch_ops(shape, 4096);
        assert_eq!(composition, "3d+4093i");
        assert_eq!(ops.len(), 4096);
        assert_eq!(ops.iter().filter(|(ins, _)| !ins).count(), 3);
    }

    #[test]
    fn the_layered_program_is_maintained_by_counting() {
        let shape = layered(12, 40);
        let engine = IncrementalEngine::new(shape.program, shape.edb).unwrap();
        for head in ["two", "three"] {
            assert!(engine.is_counted(Predicate::new(head, 2)), "{head}");
        }
    }
}
