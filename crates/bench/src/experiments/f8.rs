//! F8 (figure): durability costs — snapshot size and write/load time, and
//! cold-start recovery (snapshot + WAL replay, then materialisation) vs EDB
//! size.
//!
//! Two kinds of rows:
//!
//! * `reach(nodes,edges)` — single-source reachability over a random graph.
//!   The run commits the bulk of the edges up front, checkpoints, appends a
//!   slice of the edges as committed WAL batches, then recovers from disk
//!   and times the full cold start of a `DurableEngine` (read snapshot →
//!   fold in the WAL batches → materialise). The store's recovery derives
//!   nothing; the engine then re-derives the IDB from scratch, so
//!   `recover_ms` bounds the restart latency of a deployment that serves a
//!   materialised view.
//! * `edbload(n)` — a facts-only database (no rules): isolates the snapshot
//!   codec itself. Its `load_facts_per_sec` (best-of-reps decode throughput)
//!   is the number the CI perf gate tracks against the committed
//!   `BENCH_F8.json` (20% band, best-of-2 harness runs, like F6).
//!
//! Snapshot files carry a string table plus tagged cells (9 bytes per
//! 2-symbol row + shared interned names), so `snap_kb` also documents the
//! on-disk footprint per fact.

use crate::table::{ms, timed, Table};
use alexander_durable::{read_snapshot, write_snapshot, DurableEngine};
use alexander_ir::{Const, Predicate, Program, Symbol};
use alexander_parser::parse;
use alexander_storage::{row_atom, Database};
use alexander_workload as workload;
use std::path::PathBuf;
use std::time::Duration;

/// Decode repetitions per row; the minimum is reported.
const REPS: usize = 3;

pub fn run() -> Table {
    run_with(
        &[(2_000, 6_000), (8_000, 24_000), (20_000, 60_000)],
        200_000,
        REPS,
    )
}

/// Parameterised run (tests use small sizes and one repetition).
pub fn run_with(graphs: &[(usize, usize)], load_facts: usize, reps: usize) -> Table {
    let mut t = Table::new(
        "F8",
        "figure: snapshot + WAL durability — cold-start load and recovery time vs EDB size",
        "Reachability rows build a random-graph EDB, commit most edges before \
         a checkpoint and the rest as WAL batches, then time a cold start: \
         read + validate the checksummed snapshot and fold in the committed \
         batches (recovery itself derives nothing), then materialise the \
         program over the recovered EDB. Derived facts are never persisted, \
         so `recover_ms` includes re-derivation. The `edbload` row has no \
         rules: its `load_facts_per_sec` is pure snapshot-decode throughput \
         (best-of-reps) and is the row the CI perf gate pins against the \
         committed BENCH_F8.json (20% band, best-of-2).",
        &[
            "workload",
            "edb_facts",
            "derived_facts",
            "snap_kb",
            "snap_write_ms",
            "snap_load_ms",
            "load_facts_per_sec",
            "wal_batches",
            "wal_records",
            "recover_ms",
        ],
    );

    for &(nodes, edges) in graphs {
        t.row(reach_row(nodes, edges, reps));
    }
    t.row(edbload_row(load_facts, reps));
    t
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("alexander_f8_{name}_{}", std::process::id()))
}

fn reach_program() -> Program {
    parse("reach(Y) :- src(Y).\nreach(Y) :- reach(X), edge(X, Y).")
        .expect("parses")
        .program
}

/// Single-source reachability over `random_graph(nodes, edges)`: most edges
/// are in the checkpointed snapshot, the last slice arrives as WAL batches.
fn reach_row(nodes: usize, edges: usize, reps: usize) -> Vec<String> {
    let sp = tmp(&format!("reach_{nodes}.snap"));
    let wp = tmp(&format!("reach_{nodes}.wal"));

    let full = workload::random_graph("edge", nodes, edges, 0xF8);
    let edge_pred = Predicate::new("edge", 2);
    let all_rows: Vec<Vec<Const>> = {
        let rel = full.relation(edge_pred).expect("graph has edges");
        (0..rel.len() as u32).map(|i| rel.row(i).to_vec()).collect()
    };
    // 1% of edges (at least one batch of 32) arrive post-checkpoint.
    let tail = (all_rows.len() / 100).max(32).min(all_rows.len());
    let split = all_rows.len() - tail;

    let mut base = Database::new();
    for row in &all_rows[..split] {
        base.insert_row(edge_pred, row);
    }
    base.insert_row(Predicate::new("src", 1), &[workload::node(0)]);
    let edb_facts = base.total_tuples() + tail;

    // Build the on-disk pair: create (initial snapshot), then the tail as
    // committed WAL batches of 32.
    let mut eng = DurableEngine::create(reach_program(), base, &sp, &wp).expect("durable create");
    let mut wal_batches = 0usize;
    for chunk in all_rows[split..].chunks(32) {
        for row in chunk {
            eng.insert(&row_atom(Symbol::intern("edge"), row))
                .expect("insert");
        }
        eng.commit().expect("commit");
        wal_batches += 1;
    }
    let total_after = eng.db().total_tuples();
    let derived = total_after - edb_facts;
    drop(eng);

    // Re-checkpoint timing: how long does writing the full EDB snapshot
    // take? (Measured on a fresh engine state via recover-then-checkpoint
    // below; here we time the raw snapshot write of the full EDB.)
    let (rec0, _) = DurableEngine::recover(reach_program(), &sp, &wp).expect("warm recover");
    let full_edb = {
        let mut db = Database::new();
        for row in &all_rows {
            db.insert_row(edge_pred, row);
        }
        db.insert_row(Predicate::new("src", 1), &[workload::node(0)]);
        db
    };
    drop(rec0);
    let snap_scratch = tmp(&format!("reach_{nodes}_scratch.snap"));
    let ((), write_d) = timed(|| write_snapshot(&full_edb, &snap_scratch).expect("write"));
    let snap_kb = std::fs::metadata(&snap_scratch)
        .expect("snapshot written")
        .len()
        / 1024;
    let (load_best, _) = best_decode(&snap_scratch, reps);
    std::fs::remove_file(&snap_scratch).ok();

    // The headline number: full cold start from the snapshot + WAL pair.
    let mut recover_best = Duration::MAX;
    let mut wal_records = 0usize;
    for _ in 0..reps.max(1) {
        let ((eng, stats), d) =
            timed(|| DurableEngine::recover(reach_program(), &sp, &wp).expect("recover"));
        assert_eq!(
            eng.db().total_tuples(),
            total_after,
            "reach({nodes},{edges}): recovery diverged from the writer's state"
        );
        wal_records = stats.records_replayed;
        recover_best = recover_best.min(d);
    }

    std::fs::remove_file(&sp).ok();
    std::fs::remove_file(&wp).ok();
    vec![
        format!("reach({nodes},{edges})"),
        edb_facts.to_string(),
        derived.to_string(),
        snap_kb.to_string(),
        ms(write_d),
        ms(load_best),
        format!(
            "{:.0}",
            edb_facts as f64 / load_best.as_secs_f64().max(1e-9)
        ),
        wal_batches.to_string(),
        wal_records.to_string(),
        ms(recover_best),
    ]
}

/// Facts-only row: pure snapshot codec throughput, no rules, no WAL.
fn edbload_row(n: usize, reps: usize) -> Vec<String> {
    let sp = tmp(&format!("edbload_{n}.snap"));
    let db = workload::random_graph("edge", (n / 3).max(16), n, 0xED);
    let facts = db.total_tuples();
    let ((), write_d) = timed(|| write_snapshot(&db, &sp).expect("write"));
    let snap_kb = std::fs::metadata(&sp).expect("snapshot written").len() / 1024;
    let (load_best, loaded) = best_decode(&sp, reps);
    assert_eq!(loaded, facts, "edbload({n}): decode dropped facts");
    std::fs::remove_file(&sp).ok();
    vec![
        format!("edbload({n})"),
        facts.to_string(),
        "0".to_string(),
        snap_kb.to_string(),
        ms(write_d),
        ms(load_best),
        format!("{:.0}", facts as f64 / load_best.as_secs_f64().max(1e-9)),
        "0".to_string(),
        "0".to_string(),
        "-".to_string(),
    ]
}

/// Best-of-`reps` snapshot decode; returns (best duration, facts decoded).
fn best_decode(path: &std::path::Path, reps: usize) -> (Duration, usize) {
    let mut best = Duration::MAX;
    let mut facts = 0usize;
    for _ in 0..reps.max(1) {
        let (db, d) = timed(|| read_snapshot(path).expect("decode"));
        facts = db.total_tuples();
        best = best.min(d);
    }
    (best, facts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_f8_produces_consistent_rows() {
        let t = run_with(&[(60, 150)], 500, 1);
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            assert_eq!(row.len(), t.columns.len());
        }
        let reach = &t.rows[0];
        assert!(reach[0].starts_with("reach("), "{reach:?}");
        assert!(
            reach[7].parse::<usize>().unwrap() >= 1,
            "wal batches: {reach:?}"
        );
        let load = &t.rows[1];
        assert_eq!(load[0], "edbload(500)");
        assert!(load[6].parse::<f64>().unwrap() > 0.0, "{load:?}");
    }
}
