//! F10 (figure): incremental maintenance — update latency vs full recompute
//! across update-batch sizes and workload shapes.
//!
//! Each row materialises transitive closure over one workload, applies one
//! mixed update batch through [`IncrementalEngine::apply_batch`] (counting
//! mode and DRed-forced mode), and compares against recomputing the closure
//! from scratch on the post-update EDB. Correctness comes first: an untimed
//! pass asserts the counting database, the DRed database, and the full
//! recompute are bit-identical before any number is reported. Timings are
//! then taken on fresh engines (materialisation excluded), best-of-3.
//!
//! Batch composition is explicit in the `ops` column — deletions target
//! every `edges/d`-th existing edge starting with the *first* edge, so the
//! single-delete rows remove a boundary edge (`e(n0, n1)`), the case where
//! incremental maintenance should shine: the doomed set is O(n) against an
//! O(n²) recompute. Mid-chain deletions would doom ~half the closure and no
//! maintenance algorithm could beat recompute by a wide margin there.
//! Insertions are fresh disjoint edges, so large batches measure batch
//! plumbing rather than closure growth. Deletions are capped at half the
//! workload's edges (the cap shows up in `ops`, never silently).
//!
//! The `chain(512)` / `batch(1)` row's `speedup` (full recompute over
//! counting apply) is what the CI perf gate pins against the committed
//! BENCH_F10.json (best-of-2 harness runs, 20% band, like F6/F8) with the
//! hard bar speedup ≥ 10.

use crate::table::{ms, Table};
use alexander_eval::{eval_seminaive, IncrementalEngine, Maintenance};
use alexander_ir::{Atom, Program};
use alexander_parser::parse_atom;
use alexander_storage::Database;
use alexander_workload as workload;
use std::time::{Duration, Instant};

/// The four update-batch sizes of the figure.
const BATCHES: [usize; 4] = [1, 16, 256, 4096];

pub fn run() -> Table {
    run_with(512, 12, 192, &BATCHES)
}

/// One workload shape: a label, its EDB, and the edge list in insertion
/// order (deletions are drawn from it, spread evenly from the first edge).
struct Shape {
    label: String,
    edb: Database,
    edges: Vec<(usize, usize)>,
    /// First node id not used by the base graph (fresh inserts start here).
    fresh: usize,
}

fn shapes(chain: usize, tree_depth: usize, cycle: usize) -> Vec<Shape> {
    let mut out = Vec::new();
    out.push(Shape {
        label: format!("chain({chain})"),
        edb: workload::chain("e", chain),
        edges: (0..chain).map(|i| (i, i + 1)).collect(),
        fresh: chain + 1,
    });
    let (db, nodes) = workload::tree("e", 2, tree_depth);
    // BFS order, parent → child: edge i leads to node i+1.
    let parents: Vec<(usize, usize)> = (1..nodes).map(|c| ((c - 1) / 2, c)).collect();
    out.push(Shape {
        label: format!("tree(2,{tree_depth})"),
        edb: db,
        edges: parents,
        fresh: nodes,
    });
    // A cycle plus skip-2 chords: every closure fact has many alternative
    // derivations, so a deletion overdeletes almost the whole closure and
    // phase 2 rederives nearly all of it — DRed's worst case, shown
    // deliberately next to the chain rows where it shines.
    let mut edges: Vec<(usize, usize)> = (0..cycle).map(|i| (i, (i + 1) % cycle)).collect();
    edges.extend((0..cycle).step_by(2).map(|i| (i, (i + 2) % cycle)));
    let mut db = workload::cycle("e", cycle);
    for &(a, b) in &edges[cycle..] {
        db.insert(
            alexander_ir::Predicate::new("e", 2),
            alexander_storage::Tuple::new(vec![workload::node(a), workload::node(b)]),
        );
    }
    out.push(Shape {
        label: format!("dense-cycle({cycle})"),
        edb: db,
        edges,
        fresh: cycle,
    });
    out
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
        let (a, b) = shape.edges[i * shape.edges.len() / d];
        ops.push((false, edge_atom(a, b)));
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

pub fn run_with(chain: usize, tree_depth: usize, cycle: usize, batches: &[usize]) -> Table {
    let mut t = Table::new(
        "F10",
        "figure: incremental update latency vs full recompute, by batch size and workload",
        "Transitive closure is materialised once, then one mixed update \
         batch (deletions spread from the first edge + fresh-edge \
         insertions; exact composition in `ops`) is applied through the \
         counting engine, the DRed-forced engine, and a from-scratch \
         recompute of the post-update EDB. An untimed pass asserts all \
         three databases are bit-identical before anything is timed; \
         timings are best-of-3 on fresh engines, materialisation excluded. \
         Single-delete rows remove the boundary edge `e(n0, n1)` — the \
         O(doomed) vs O(n²) case incremental maintenance exists for — and \
         the chain single-delete `speedup` is the CI-gated headline \
         (hard bar: ≥ 10x, then a 20% band against BENCH_F10.json, \
         best-of-2, like F6/F8).",
        &[
            "workload",
            "edges",
            "batch",
            "ops",
            "counting_ms",
            "dred_ms",
            "recompute_ms",
            "speedup",
            "identical",
        ],
    );
    let program = workload::transitive_closure();
    for shape in shapes(chain, tree_depth, cycle) {
        for &size in batches {
            t.row(cell(&program, &shape, size));
        }
    }
    t
}

fn cell(program: &Program, shape: &Shape, size: usize) -> Vec<String> {
    let (ops, composition) = batch_ops(shape, size);
    let after = edb_after(shape, &ops);

    // Correctness pass, untimed: counting == dred == full recompute,
    // bit-identical, before any number is reported.
    let mut counting =
        IncrementalEngine::with_mode(program.clone(), shape.edb.clone(), Maintenance::Counting)
            .expect("counting engine");
    let mut dred =
        IncrementalEngine::with_mode(program.clone(), shape.edb.clone(), Maintenance::Dred)
            .expect("dred engine");
    counting.apply_batch(&ops).expect("counting batch");
    dred.apply_batch(&ops).expect("dred batch");
    let expected = sorted_facts(&eval_seminaive(program, &after).expect("recompute").db);
    assert_eq!(
        sorted_facts(counting.db()),
        expected,
        "{} batch({size}): counting diverged from recompute",
        shape.label
    );
    assert_eq!(
        sorted_facts(dred.db()),
        expected,
        "{} batch({size}): dred diverged from recompute",
        shape.label
    );

    // Timed pass: fresh engines, apply only (materialisation excluded).
    let timed_apply = |mode: Maintenance| {
        best_of_3(|| {
            let mut engine = IncrementalEngine::with_mode(program.clone(), shape.edb.clone(), mode)
                .expect("engine");
            let start = Instant::now();
            engine.apply_batch(&ops).expect("batch");
            start.elapsed()
        })
    };
    let counting_t = timed_apply(Maintenance::Counting);
    let dred_t = timed_apply(Maintenance::Dred);
    let recompute_t = best_of_3(|| {
        let start = Instant::now();
        eval_seminaive(program, &after).expect("recompute");
        start.elapsed()
    });
    let speedup = recompute_t.as_secs_f64() / counting_t.as_secs_f64().max(1e-9);

    vec![
        shape.label.clone(),
        shape.edges.len().to_string(),
        size.to_string(),
        composition,
        ms(counting_t),
        ms(dred_t),
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
        let t = run_with(24, 4, 12, &[1, 8]);
        assert_eq!(t.rows.len(), 6, "three shapes x two batch sizes");
        for row in &t.rows {
            assert_eq!(row.len(), t.columns.len());
            assert_eq!(row[8], "yes", "{row:?}");
            assert!(row[7].parse::<f64>().unwrap() > 0.0, "{row:?}");
        }
        assert_eq!(t.rows[0][0], "chain(24)");
        assert_eq!(t.rows[0][3], "1d+0i", "single delete, boundary edge");
        // Half-and-half until the deletion cap bites.
        assert_eq!(t.rows[1][3], "4d+4i");
        assert_eq!(t.rows[4][0], "dense-cycle(12)");
    }

    #[test]
    fn batches_cap_deletions_at_half_the_edges_without_hiding_it() {
        let shape = &shapes(6, 2, 6)[0]; // chain(6): 6 edges, cap 3
        let (ops, composition) = batch_ops(shape, 4096);
        assert_eq!(composition, "3d+4093i");
        assert_eq!(ops.len(), 4096);
        assert_eq!(ops.iter().filter(|(ins, _)| !ins).count(), 3);
    }
}
