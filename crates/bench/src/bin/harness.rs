//! The experiment harness: regenerates every table and figure.
//!
//! Usage:
//!
//! ```text
//! harness                    # run all experiments, print markdown
//! harness e3 e4              # run selected experiments
//! harness --list             # list experiment ids
//! harness --json             # print JSON instead of markdown
//! harness f6 --out BENCH_F6.json   # also write the JSON tables to a file
//! harness gate f6 a.json b.json    # CI perf gate: best of two `--out` runs
//!                                  # against ./BENCH_F6.json
//! ```
//!
//! By convention, perf-tracking runs are written to `BENCH_<id>.json` at the
//! repository root and committed, so the performance trajectory accumulates
//! across PRs.

use alexander_bench::{experiments, gate, table};
use std::io::Write;

/// `harness gate <id> <run-a.json> <run-b.json>`: exits non-zero unless the
/// better of the two runs holds the gate against `./BENCH_<ID>.json`.
fn run_gate(args: &[String]) -> Result<String, String> {
    let [id, run_a, run_b] = args else {
        return Err("usage: harness gate <id> <run-a.json> <run-b.json>".into());
    };
    let id = id.to_ascii_uppercase();
    let gate = gate::GATES
        .iter()
        .find(|g| g.id == id)
        .ok_or_else(|| format!("no perf gate for `{id}`"))?;
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    gate.check(
        &read(&format!("BENCH_{id}.json"))?,
        &read(run_a)?,
        &read(run_b)?,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("gate") {
        match run_gate(&args[1..]) {
            Ok(report) => return println!("{report}"),
            Err(e) => {
                eprintln!("perf gate: {e}");
                std::process::exit(1);
            }
        }
    }
    let json = args.iter().any(|a| a == "--json");
    let list = args.iter().any(|a| a == "--list");
    let mut out_path: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" | "--list" => {}
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => out_path = Some(p.clone()),
                    None => {
                        eprintln!("--out needs a file path");
                        std::process::exit(2);
                    }
                }
            }
            a if a.starts_with("--") => {
                eprintln!("unknown flag `{a}`");
                std::process::exit(2);
            }
            a => ids.push(a.to_string()),
        }
        i += 1;
    }

    if list {
        for id in experiments::ids() {
            println!("{id}");
        }
        return;
    }

    let tables = if ids.is_empty() {
        eprintln!(
            "running all {} experiments…",
            experiments::EXPERIMENTS.len()
        );
        experiments::all()
    } else {
        let mut out = Vec::new();
        for id in &ids {
            match experiments::by_id(id) {
                Some(t) => out.push(t),
                None => {
                    eprintln!("unknown experiment `{id}`; try --list");
                    std::process::exit(2);
                }
            }
        }
        out
    };

    if let Some(path) = &out_path {
        let payload = table::tables_to_json(&tables);
        std::fs::write(path, payload + "\n").unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {path}");
    }

    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    if json {
        writeln!(lock, "{}", table::tables_to_json(&tables)).expect("write json");
    } else {
        for t in &tables {
            writeln!(lock, "{t}").expect("write table");
        }
    }
}
