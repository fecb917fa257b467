//! `e2e`: the repository's benchmark. See `README.md` beside `Cargo.toml`
//! for the metrics, the workloads and how to read a trace.
//!
//! ```text
//! e2e --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE] [--smoke]
//! e2e [--seed N] [--seconds S] [--smoke]        every workload, one JSON document
//! e2e aa [--sets 2] [--seed N] [--seconds S]    the suite twice, compared to the bounds
//! ```

mod batch;
mod client;
mod gen;
mod json;
mod model;
mod serve;
mod stats;
mod trace;

use json::Json;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

pub struct Params {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Tiny inputs, for tests and a quick look.
    pub smoke: bool,
}

/// What one run of one workload found.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Values by metric name; a per-layer metric left out is a layer this
    /// workload does no work in, and prints as 0.
    pub metrics: Vec<(&'static str, f64)>,
    /// Printed on the line before the result.
    pub diagnostics: Json,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may worsen.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

pub const WORKLOADS: [&str; 4] = [
    "serve.point_reads",
    "serve.deep_reads",
    "serve.mixed_rw",
    "batch.strategies",
];

/// Measured with tracing off. `BENCHMARK.json` repeats this table; a test
/// keeps the two the same.
pub const END_TO_END: [Metric; 4] = [
    gated("latency_p50_ms", "ms", "lower", 0.25),
    gated("throughput_per_s", "1/s", "higher", 0.25),
    gated("peak_rss_mb", "MB", "lower", 0.25),
    gated("setup_s", "s", "lower", 0.25),
];

/// Measured by the traced run, per primary operation unless the unit says
/// otherwise.
pub const PER_LAYER: [Metric; 50] = [
    layer("parser.request_us", "us", "lower"),
    layer("parser.requests", "count", "higher"),
    layer("parser.errors", "count", "lower"),
    layer("transform.rewrite_us", "us", "lower"),
    layer("transform.rules_out", "count", "lower"),
    layer("eval.compile_us", "us", "lower"),
    layer("eval.index_us", "us", "lower"),
    layer("eval.fixpoint_us", "us", "lower"),
    layer("eval.firings", "count", "lower"),
    layer("eval.new_facts", "count", "lower"),
    layer("eval.probes", "count", "lower"),
    layer("eval.iterations", "count", "lower"),
    layer("eval.dup_ratio", "ratio", "lower"),
    layer("eval.rows_per_block", "count", "higher"),
    layer("eval.apply_batch_us", "us", "lower"),
    layer("eval.batch_added", "count", "lower"),
    layer("eval.batch_overdeleted", "count", "lower"),
    layer("eval.batch_rederived", "count", "lower"),
    layer("eval.materialise_ms", "ms", "lower"),
    layer("topdown.oldt_us", "us", "lower"),
    layer("topdown.calls", "count", "lower"),
    layer("topdown.answers", "count", "lower"),
    layer("topdown.resolution_steps", "count", "lower"),
    layer("core.extract_us", "us", "lower"),
    layer("core.engine_new_us", "us", "lower"),
    layer("storage.load_facts_per_s", "1/s", "higher"),
    layer("storage.clone_us", "us", "lower"),
    layer("durable.commit_us", "us", "lower"),
    layer("durable.wal_bytes_per_op", "B", "lower"),
    layer("durable.checkpoint_ms", "ms", "lower"),
    layer("durable.snapshot_load_ms", "ms", "lower"),
    layer("durable.replay_ms", "ms", "lower"),
    layer("durable.replayed_batches", "count", "lower"),
    layer("durable.recover_ms", "ms", "lower"),
    layer("server.service_query_us", "us", "lower"),
    layer("server.admit_us", "us", "lower"),
    layer("server.pin_us", "us", "lower"),
    layer("server.encode_us", "us", "lower"),
    layer("server.ping_us", "us", "lower"),
    layer("server.net_us", "us", "lower"),
    layer("server.commit_net_us", "us", "lower"),
    layer("server.sheds", "count", "lower"),
    layer("server.query_p50_ms", "ms", "lower"),
    layer("server.query_tail_ms", "ms", "lower"),
    layer("server.query_tail_pct", "%", "higher"),
    layer("server.commit_p50_ms", "ms", "lower"),
    layer("server.commit_tail_ms", "ms", "lower"),
    layer("server.commit_tail_pct", "%", "higher"),
    layer("trace.unattributed_share", "ratio", "lower"),
    layer("trace.overhead_share", "ratio", "lower"),
];

struct Args {
    aa: bool,
    workload: Option<String>,
    params: Params,
    trace: bool,
    trace_out: Option<PathBuf>,
    sets: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        aa: false,
        workload: None,
        params: Params {
            seed: 1,
            seconds: 0.0,
            smoke: false,
        },
        trace: false,
        trace_out: None,
        sets: 2,
    };
    let mut seconds = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "aa" => a.aa = true,
            "--smoke" => a.params.smoke = true,
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.params.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = Some(
                    value("a number")?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--trace-out" => a.trace_out = Some(PathBuf::from(value("a file")?)),
            "--sets" => {
                a.sets = value("a number")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    a.params.seconds = seconds.unwrap_or(if a.params.smoke { 1.0 } else { 30.0 });
    if a.params.seconds.is_nan() || a.params.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload `{w}`; one of: {}",
                WORKLOADS.join(" ")
            ));
        }
    }
    Ok(a)
}

fn run_workload(name: &str, a: &Args) -> Outcome {
    let out = a.trace_out.as_deref();
    let kind = match name {
        "serve.point_reads" => serve::Kind::PointReads,
        "serve.deep_reads" => serve::Kind::DeepReads,
        "serve.mixed_rw" => serve::Kind::MixedRw,
        _ if a.trace => return trace::run_batch(&a.params, out),
        _ => return batch::run(&a.params),
    };
    if a.trace {
        trace::run_serve(kind, &a.params, out)
    } else {
        serve::run(kind, &a.params)
    }
}

/// The contract's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every metric of the requested set.
fn result_line(outcome: &Outcome, defs: &[Metric]) -> Json {
    let metrics = defs.iter().map(|d| {
        let value = outcome.metrics.iter().find(|(n, _)| *n == d.name);
        let value = match (value, d.bound) {
            (Some((_, v)), _) => *v,
            (None, None) => 0.0,
            (None, Some(_)) => panic!("{} was not measured", d.name),
        };
        let cell = Json::obj([("value", Json::Num(value)), ("unit", Json::str(d.unit))]);
        (d.name, cell)
    });
    Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Int(outcome.attempted)),
        ("failed", Json::Int(outcome.failed)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn run_one(name: &str, a: &Args) -> ExitCode {
    let outcome = run_workload(name, a);
    let context = Json::obj([
        ("workload", Json::str(name)),
        ("seed", Json::Int(a.params.seed)),
        ("seconds", Json::Num(a.params.seconds)),
        ("smoke", Json::Bool(a.params.smoke)),
        ("host", stats::host()),
        ("diagnostics", outcome.diagnostics.clone()),
    ]);
    println!("{context}");
    let defs: &[Metric] = if a.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", result_line(&outcome, defs));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a process of its own: the symbol interner is global
/// to a process and never shrinks, and `peak_rss_mb` is per workload. Returns
/// the context line and the result line.
fn run_child(name: &str, a: &Args, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &a.params.seed.to_string()])
        .args(["--seconds", &a.params.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if a.params.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines().rev();
    let result = lines.next().ok_or("child printed nothing")?;
    let context = lines.next().ok_or("child printed no context")?;
    if !out.status.success() {
        return Err(format!("{name} failed: {result}"));
    }
    Ok((Json::parse(context)?, Json::parse(result)?))
}

fn suite(a: &Args) -> Result<Json, String> {
    let mut workloads = Vec::new();
    for name in WORKLOADS {
        let (context, end_to_end) = run_child(name, a, false)?;
        let (traced, per_layer) = run_child(name, a, true)?;
        workloads.push((
            name,
            Json::obj([
                ("end_to_end", end_to_end),
                (
                    "diagnostics",
                    context.get("diagnostics").cloned().unwrap_or(Json::Null),
                ),
                ("per_layer", per_layer),
                (
                    "traced_diagnostics",
                    traced.get("diagnostics").cloned().unwrap_or(Json::Null),
                ),
            ]),
        ));
    }
    Ok(Json::obj([
        ("seed", Json::Int(a.params.seed)),
        ("seconds", Json::Num(a.params.seconds)),
        ("host", stats::host()),
        ("workloads", Json::obj(workloads)),
    ]))
}

/// A/A: the end-to-end half of the suite `sets` times on this one binary.
/// Prints, per workload and metric, every value, the spread between the best
/// and the worst as a share of the best, and the bound; fails when a spread
/// is outside its bound.
fn aa(a: &Args) -> Result<bool, String> {
    let mut sets: Vec<Vec<Json>> = Vec::new();
    for _ in 0..a.sets.max(2) {
        let mut set = Vec::new();
        for name in WORKLOADS {
            set.push(run_child(name, a, false)?.1);
        }
        sets.push(set);
    }
    let mut rows = Vec::new();
    let mut within = true;
    for (w, name) in WORKLOADS.iter().enumerate() {
        for d in &END_TO_END {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|set| set[w].get("metrics")?.get(d.name)?.get("value")?.as_f64())
                .collect();
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let spread = (hi - lo) / lo;
            let bound = d.bound.expect("end-to-end metrics are bounded");
            within &= spread <= bound;
            rows.push(Json::obj([
                ("workload", Json::str(name)),
                ("metric", Json::str(d.name)),
                ("unit", Json::str(d.unit)),
                ("values", Json::nums(&values)),
                ("spread", Json::Num(spread)),
                ("bound", Json::Num(bound)),
                ("within", Json::Bool(spread <= bound)),
            ]));
        }
    }
    for row in &rows {
        println!("{row}");
    }
    println!("{}", Json::obj([("within_bounds", Json::Bool(within))]));
    Ok(within)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let done = if a.aa {
        aa(&a)
    } else if let Some(name) = a.workload.clone() {
        return run_one(&name, &a);
    } else {
        suite(&a).map(|doc| {
            println!("{doc}");
            true
        })
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "serve.deep_reads",
            "--seed",
            "42",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve.deep_reads"));
        assert_eq!((a.params.seed, a.params.seconds, a.trace), (42, 20.0, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert_eq!(args(&["--smoke"]).unwrap().params.seconds, 1.0);
        assert!(args(&["aa", "--sets", "3"]).unwrap().aa);
    }

    /// `BENCHMARK.json` and the tables above name the same workloads and
    /// metrics, with the same units, directions and bounds, and the result
    /// line carries exactly the keys the contract asks for.
    #[test]
    fn output_keys_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = spec.pairs().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str| -> Vec<String> {
            spec.get(key)
                .expect(key)
                .items()
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = spec.get(key).expect(key).items();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (m, d) in listed.iter().zip(defs) {
                assert_eq!(m.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                assert_eq!(
                    m.get("better").and_then(Json::as_str),
                    Some(d.better),
                    "{}",
                    d.name
                );
                assert_eq!(m.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
            }
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));

        let outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: END_TO_END.iter().map(|d| (d.name, 1.5)).collect(),
            diagnostics: Json::Null,
        };
        let line = result_line(&outcome, &END_TO_END);
        let keys: Vec<&str> = line.pairs().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let printed: Vec<&str> = line
            .get("metrics")
            .unwrap()
            .pairs()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(printed, names("end_to_end"));
        // A layer a workload does no work in prints as 0, never goes missing.
        let line = result_line(&outcome, &PER_LAYER);
        assert_eq!(line.get("metrics").unwrap().pairs().len(), PER_LAYER.len());
    }
}
