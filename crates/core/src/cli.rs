//! The `alexander` command-line interface, as a testable library function.
//!
//! ```text
//! alexander program.dl                        # run the file's ?- queries
//! alexander program.dl -q 'anc(adam, X)'      # ad-hoc query
//! alexander program.dl -s oldt --stats        # choose strategy, show counters
//! alexander program.dl -q 'anc(a, d)' --proof # print a constructive proof
//! alexander program.dl --analyze              # stratification ladder
//! ```

use crate::{Engine, Strategy};
use alexander_eval::{eval_stratified, prove, Budget, EvalError, EvalMetrics, Prover};
use alexander_ir::analysis::{loosely_stratified, stratify};
use alexander_ir::{Atom, Program};
use alexander_parser::{parse, parse_atom};
use alexander_storage::Database;
// invariant: every `writeln!(...).unwrap()` below targets a `String` through
// `fmt::Write`, which cannot fail — there is no I/O in this module; the
// binary decides where the returned text goes.
use std::fmt::Write as _;

/// Parsed command-line options.
#[derive(Clone, Debug, Default)]
pub struct CliOptions {
    pub source: String,
    pub queries: Vec<String>,
    pub strategy: Option<String>,
    pub stats: bool,
    pub proof: bool,
    pub analyze: bool,
    /// `pred/arity=path.csv` specs to bulk-load into the EDB.
    pub loads: Vec<String>,
    /// Worker threads for bottom-up fixpoint rounds (`None` = sequential).
    pub threads: Option<usize>,
    /// Wall-clock budget per query, in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Derived-fact budget per query.
    pub max_facts: Option<u64>,
    /// Fixpoint-round / restart budget per query.
    pub max_rounds: Option<u64>,
    /// Snapshot file: written after loading (default) or read as the EDB
    /// when `--recover` is set.
    pub snapshot: Option<String>,
    /// WAL file replayed on top of the snapshot under `--recover`.
    pub wal: Option<String>,
    /// Rebuild the EDB from the `--snapshot`/`--wal` pair instead of
    /// starting empty.
    pub recover: bool,
    /// Run as a long-lived query server (the `serve` subcommand). The
    /// serving loop itself lives in the `alexander-server` crate; this
    /// module only parses and validates the flags.
    pub serve: bool,
    /// TCP listen address (`host:port`) for serve mode.
    pub listen: Option<String>,
    /// Unix-domain socket path for serve mode.
    pub unix: Option<String>,
    /// Global cap on concurrently executing queries in serve mode.
    pub max_concurrent: Option<usize>,
    /// Per-tenant cap on concurrently executing queries in serve mode.
    pub tenant_cap: Option<usize>,
    /// Admission wait-queue bound in serve mode; arrivals beyond it are
    /// shed with `ERR BUSY retry-after-ms=<hint>` (0 = shed as soon as the
    /// caps are reached).
    pub max_queue: Option<usize>,
    /// Per-session idle budget (ms) in serve mode: silent connections are
    /// closed after this long.
    pub idle_timeout_ms: Option<u64>,
    /// Per-write socket deadline (ms) in serve mode: clients that stop
    /// draining replies are disconnected after this long.
    pub write_timeout_ms: Option<u64>,
}

impl CliOptions {
    /// The per-query budget `--timeout-ms`, `--max-facts` and
    /// `--max-rounds` set; unlimited when none is given.
    pub fn budget(&self) -> Budget {
        let mut budget = Budget::default();
        if let Some(ms) = self.timeout_ms {
            budget = budget.with_timeout_ms(ms);
        }
        if let Some(n) = self.max_facts {
            budget = budget.with_max_facts(n);
        }
        if let Some(n) = self.max_rounds {
            budget = budget.with_max_rounds(n);
        }
        budget
    }

    /// The strategy `--strategy` names (`alexander` when none is given),
    /// or the error listing the known names.
    pub fn chosen_strategy(&self) -> Result<Strategy, String> {
        Strategy::from_name(self.strategy.as_deref().unwrap_or("alexander"))
    }
}

/// Usage text.
pub const USAGE: &str = "\
usage: alexander <file.dl | -> [options]
       alexander serve <file.dl> (--listen HOST:PORT | --unix PATH) [options]
  -q, --query ATOM    ad-hoc query (repeatable; overrides ?- queries in the file)
  -s, --strategy S    naive | seminaive | stratified | conditional | magic |
                      supmagic | alexander | oldt | qsqr  (default: alexander)
      --load P/N=FILE bulk-load relation P (arity N) from a CSV/TSV file
                      (query mode only)
      --threads N     worker threads per bottom-up fixpoint round (default 1);
                      answers and counters are identical at any thread count
      --timeout-ms N  wall-clock budget per query; on expiry the partial
                      answers derived so far are printed and flagged
      --max-facts N   stop after deriving N facts (partial answers, flagged)
      --max-rounds N  stop after N fixpoint rounds / restarts
      --snapshot FILE with --recover: read the EDB from this checksummed
                      snapshot. In serve mode: the durable store's snapshot
                      half (created if missing, recovered if present)
      --wal FILE      the write-ahead log paired with --snapshot: committed
                      batches are replayed on top of the snapshot
      --recover       rebuild the EDB from the --snapshot/--wal pair instead
                      of starting empty; torn WAL tails are reported and
                      skipped (query mode only — serve recovers by itself)
      --stats         print instrumentation counters per query (not under
                      serve: ask the STATS verb)
      --proof         print a constructive proof tree per answer
      --analyze       print stratification analysis and exit
  -h, --help          this text

serve mode only:
      --listen ADDR   accept the line protocol on this TCP address
      --unix PATH     accept the line protocol on this unix socket
      --max-concurrent N  global cap on concurrently executing queries
      --tenant-cap N  per-tenant cap on concurrently executing queries
      --max-queue N   admission wait-queue bound; arrivals beyond it get
                      `ERR BUSY retry-after-ms=<hint>` (0 = shed when the
                      caps are reached; default 16)
      --idle-timeout-ms N   close sessions silent for N ms (default 300000)
      --write-timeout-ms N  disconnect clients that cannot drain a reply
                      within N ms (default 30000)
";

/// Parses argv-style arguments (without the program name).
pub fn parse_args(args: &[String]) -> Result<(Option<String>, CliOptions), String> {
    let mut opts = CliOptions::default();
    let mut path: Option<String> = None;
    let mut i = 0;
    if args.first().map(String::as_str) == Some("serve") {
        opts.serve = true;
        i = 1;
    }
    while i < args.len() {
        let a = args[i].as_str();
        match a {
            "-h" | "--help" => return Err(USAGE.to_string()),
            "-q" | "--query" => {
                i += 1;
                let q = args.get(i).ok_or("missing argument to --query")?;
                opts.queries.push(q.clone());
            }
            "-s" | "--strategy" => {
                i += 1;
                let s = args.get(i).ok_or("missing argument to --strategy")?;
                opts.strategy = Some(s.clone());
            }
            "--load" => {
                i += 1;
                let l = args.get(i).ok_or("missing argument to --load")?;
                opts.loads.push(l.clone());
            }
            "--threads" => {
                i += 1;
                let t = args.get(i).ok_or("missing argument to --threads")?;
                let n: usize = t
                    .parse()
                    .map_err(|_| format!("--threads expects a positive integer, got `{t}`"))?;
                if n == 0 {
                    return Err("--threads expects a positive integer, got `0`".into());
                }
                opts.threads = Some(n);
            }
            "--timeout-ms" | "--max-facts" | "--max-rounds" => {
                let flag = a.to_string();
                i += 1;
                let v = args
                    .get(i)
                    .ok_or_else(|| format!("missing argument to {flag}"))?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("{flag} expects a positive integer, got `{v}`"))?;
                if n == 0 {
                    return Err(format!("{flag} expects a positive integer, got `0`"));
                }
                match flag.as_str() {
                    "--timeout-ms" => opts.timeout_ms = Some(n),
                    "--max-facts" => opts.max_facts = Some(n),
                    // invariant: the outer match arm only admits these three.
                    _ => opts.max_rounds = Some(n),
                }
            }
            "--snapshot" => {
                i += 1;
                let p = args.get(i).ok_or("missing argument to --snapshot")?;
                opts.snapshot = Some(p.clone());
            }
            "--wal" => {
                i += 1;
                let p = args.get(i).ok_or("missing argument to --wal")?;
                opts.wal = Some(p.clone());
            }
            "--recover" => opts.recover = true,
            "--listen" => {
                i += 1;
                let addr = args.get(i).ok_or("missing argument to --listen")?;
                opts.listen = Some(addr.clone());
            }
            "--unix" => {
                i += 1;
                let p = args.get(i).ok_or("missing argument to --unix")?;
                opts.unix = Some(p.clone());
            }
            "--max-concurrent" | "--tenant-cap" => {
                let flag = a.to_string();
                i += 1;
                let v = args
                    .get(i)
                    .ok_or_else(|| format!("missing argument to {flag}"))?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("{flag} expects a positive integer, got `{v}`"))?;
                if n == 0 {
                    return Err(format!("{flag} expects a positive integer, got `0`"));
                }
                if flag == "--max-concurrent" {
                    opts.max_concurrent = Some(n);
                } else {
                    opts.tenant_cap = Some(n);
                }
            }
            "--max-queue" => {
                i += 1;
                let v = args.get(i).ok_or("missing argument to --max-queue")?;
                // 0 is meaningful here: shed the moment the caps are hit.
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--max-queue expects an integer, got `{v}`"))?;
                opts.max_queue = Some(n);
            }
            "--idle-timeout-ms" | "--write-timeout-ms" => {
                let flag = a.to_string();
                i += 1;
                let v = args
                    .get(i)
                    .ok_or_else(|| format!("missing argument to {flag}"))?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("{flag} expects a positive integer, got `{v}`"))?;
                if n == 0 {
                    return Err(format!("{flag} expects a positive integer, got `0`"));
                }
                if flag == "--idle-timeout-ms" {
                    opts.idle_timeout_ms = Some(n);
                } else {
                    opts.write_timeout_ms = Some(n);
                }
            }
            "--stats" => opts.stats = true,
            "--proof" => opts.proof = true,
            "--analyze" => opts.analyze = true,
            other if other.starts_with('-') && other != "-" => {
                return Err(format!("unknown option `{other}`\n{USAGE}"));
            }
            _ => {
                if path.is_some() {
                    return Err(format!("unexpected extra argument `{a}`\n{USAGE}"));
                }
                path = Some(a.to_string());
            }
        }
        i += 1;
    }
    validate(&opts)?;
    Ok((path, opts))
}

/// Rejects contradictory or silently-ignored flag combinations with a
/// usage error naming both flags involved. Called by [`parse_args`] and
/// again by [`run`] (whose callers may build [`CliOptions`] directly).
pub fn validate(opts: &CliOptions) -> Result<(), String> {
    if opts.serve {
        // Serve mode answers queries over the wire against a durable store;
        // one-shot flags would be silently ignored — reject them instead.
        if opts.analyze {
            return Err(
                "--analyze is a one-shot analysis pass and does nothing under \
                 `serve`; run it without the serve subcommand"
                    .into(),
            );
        }
        if opts.proof {
            return Err(
                "--proof has no wire representation; `serve` cannot honour it (run a \
                 one-shot query with --proof instead)"
                    .into(),
            );
        }
        if !opts.queries.is_empty() {
            return Err(
                "--query is silently ignored by `serve` (queries arrive over the \
                 wire); drop it or run without the serve subcommand"
                    .into(),
            );
        }
        if opts.recover {
            return Err(
                "`serve` recovers by itself when the --snapshot/--wal pair exists; \
                 drop --recover"
                    .into(),
            );
        }
        if !opts.loads.is_empty() {
            return Err(
                "--load is silently ignored by `serve` (its EDB is the program's facts \
                 and the --snapshot/--wal pair); drop it and INSERT the rows over the \
                 wire, or run without the serve subcommand"
                    .into(),
            );
        }
        if opts.stats {
            return Err(
                "--stats prints one-shot query counters and does nothing under `serve`; \
                 drop it and ask the STATS verb over the wire"
                    .into(),
            );
        }
        if opts.snapshot.is_some() != opts.wal.is_some() {
            return Err("`serve` persists through a snapshot + WAL pair; pass both \
                 --snapshot FILE and --wal FILE (or neither for an in-memory \
                 server)"
                .into());
        }
        match (&opts.listen, &opts.unix) {
            (None, None) => {
                return Err(format!(
                    "`serve` needs a listener: --listen HOST:PORT or --unix PATH\n{USAGE}"
                ))
            }
            (Some(_), Some(_)) => {
                return Err("--listen and --unix are mutually exclusive; pick one".into())
            }
            _ => {}
        }
    } else {
        for (flag, set) in [
            ("--listen", opts.listen.is_some()),
            ("--unix", opts.unix.is_some()),
            ("--max-concurrent", opts.max_concurrent.is_some()),
            ("--tenant-cap", opts.tenant_cap.is_some()),
            ("--max-queue", opts.max_queue.is_some()),
            ("--idle-timeout-ms", opts.idle_timeout_ms.is_some()),
            ("--write-timeout-ms", opts.write_timeout_ms.is_some()),
        ] {
            if set {
                return Err(format!(
                    "{flag} only makes sense with the `serve` subcommand\n{USAGE}"
                ));
            }
        }
        if opts.wal.is_some() && !opts.recover {
            return Err(
                "--wal only makes sense with --recover (a query run never writes a log)".into(),
            );
        }
        if opts.recover {
            if opts.snapshot.is_none() {
                return Err("--recover needs --snapshot FILE to read the EDB from".into());
            }
            if opts.wal.is_none() {
                return Err(
                    "--recover without --wal would silently drop every batch committed \
                     after the snapshot; pass the paired --wal FILE (empty is fine)"
                        .into(),
                );
            }
        } else if opts.snapshot.is_some() {
            return Err(
                "--snapshot without --recover would overwrite the snapshot during a \
                 read-only query run; snapshots are written by `alexander serve` \
                 (pass --recover to read one instead)"
                    .into(),
            );
        }
    }
    Ok(())
}

/// Runs the CLI on already-loaded source text; returns the printable output.
pub fn run(source: &str, opts: &CliOptions) -> Result<String, String> {
    validate(opts)?;
    if opts.serve {
        return Err(
            "serve mode is a long-lived process; the `alexander` binary handles \
             it (cli::run only answers one-shot queries)"
                .into(),
        );
    }
    let parsed = parse(source).map_err(|e| e.to_string())?;
    let mut out = String::new();

    if opts.analyze {
        analyze(&parsed.program, &mut out);
        return Ok(out);
    }

    let strategy = opts.chosen_strategy()?;
    let file_queries = parsed.queries.clone();

    // Bulk-load external relations before building the engine.
    let mut edb = Database::new();
    for spec in &opts.loads {
        let (pred_part, path) = spec
            .split_once('=')
            .ok_or_else(|| format!("--load expects pred/arity=path, got `{spec}`"))?;
        let (name, arity) = pred_part
            .split_once('/')
            .ok_or_else(|| format!("--load expects pred/arity=path, got `{spec}`"))?;
        let arity: usize = arity
            .parse()
            .map_err(|_| format!("bad arity in --load `{spec}`"))?;
        let pred = alexander_ir::Predicate::new(name, arity);
        let n = alexander_storage::load_file(&mut edb, pred, std::path::Path::new(path))
            .map_err(|e| e.to_string())?;
        writeln!(out, "loaded {n} tuples into {pred} from {path}").unwrap();
    }

    // Durability flags (validated above: `--recover` always arrives with
    // the full --snapshot/--wal pair). The pair is read as the store's own
    // recovery reads it, minus the torn-tail truncation: a query run writes
    // nothing.
    if let (true, Some(snap_path), Some(wal_path)) =
        (opts.recover, opts.snapshot.as_deref(), opts.wal.as_deref())
    {
        let r = alexander_durable::replay(
            &parsed.program,
            std::path::Path::new(snap_path),
            std::path::Path::new(wal_path),
        )
        .map_err(|e| e.to_string())?;
        writeln!(
            out,
            "recovered {} facts from snapshot {snap_path}",
            r.stats.snapshot_facts
        )
        .unwrap();
        writeln!(
            out,
            "replayed {} committed batches ({} records) from wal {wal_path}",
            r.stats.batches_replayed, r.stats.records_replayed
        )
        .unwrap();
        if r.wal.torn {
            writeln!(
                out,
                "!! wal has a torn tail after byte {} (crash mid-append); ignored",
                r.wal.valid_len
            )
            .unwrap();
        }
        // The log has the last word over `--load` rows too: a fact a record
        // names ends where its last record leaves it, whatever the union
        // held before.
        edb.merge(&r.edb);
        for batch in &r.wal.batches {
            alexander_durable::apply_to_database(&batch.records, &mut edb);
        }
    }

    let engine = Engine::new(parsed.program, edb)
        .map_err(|e| e.to_string())?
        .with_threads(opts.threads.unwrap_or(1))
        .with_budget(opts.budget());

    let queries: Vec<Atom> = if opts.queries.is_empty() {
        file_queries
    } else {
        opts.queries
            .iter()
            .map(|q| parse_atom(q).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?
    };
    if queries.is_empty() {
        return Err("no queries: add `?- goal.` lines to the file or pass --query".into());
    }

    // Proofs are read off the stratified model, computed once if requested
    // (stratified programs only — report a friendly error otherwise).
    let proofs = if opts.proof {
        let unproven = |e: EvalError| format!("--proof needs a stratified program: {e}");
        let program = engine.program();
        let mut model = eval_stratified(program, engine.edb()).map_err(unproven)?.db;
        let prover = Prover::new(program, &mut EvalMetrics::default()).map_err(unproven)?;
        prover.ensure_indexes(&mut model);
        Some((prover, model))
    } else {
        None
    };

    for query in &queries {
        writeln!(out, "?- {query}.  [{}]", strategy.name()).unwrap();
        match engine.query(query, strategy) {
            Ok(result) => {
                if result.answers.is_empty() {
                    writeln!(out, "  no").unwrap();
                }
                for a in &result.answers {
                    writeln!(out, "  {a}").unwrap();
                    if let Some((prover, model)) = &proofs {
                        match prove(prover, model, engine.edb(), a) {
                            Some(tree) => {
                                for line in tree.to_string().lines() {
                                    writeln!(out, "    | {line}").unwrap();
                                }
                            }
                            None => writeln!(out, "    | (not in the stratified model)").unwrap(),
                        }
                    }
                }
                if !result.report.completion.is_complete() {
                    writeln!(
                        out,
                        "  !! partial result: {} — answers above are sound but incomplete",
                        result.report.completion
                    )
                    .unwrap();
                }
                if opts.stats {
                    writeln!(out, "  -- {}", result.report).unwrap();
                }
            }
            Err(e) => writeln!(out, "  error: {e}").unwrap(),
        }
    }
    Ok(out)
}

fn analyze(program: &Program, out: &mut String) {
    writeln!(out, "rules: {}", program.rules.len()).unwrap();
    writeln!(out, "inline facts: {}", program.facts.len()).unwrap();
    let mut idb: Vec<String> = program
        .idb_predicates()
        .into_iter()
        .map(|p| p.to_string())
        .collect();
    idb.sort();
    writeln!(out, "intensional: {}", idb.join(", ")).unwrap();
    let mut edb: Vec<String> = program
        .edb_predicates()
        .into_iter()
        .map(|p| p.to_string())
        .collect();
    edb.sort();
    writeln!(out, "extensional: {}", edb.join(", ")).unwrap();
    match stratify(program) {
        Ok(s) => writeln!(out, "stratified: yes ({} strata)", s.len()).unwrap(),
        Err(e) => writeln!(out, "stratified: no — {e}").unwrap(),
    }
    match loosely_stratified(program) {
        Ok(()) => writeln!(out, "loosely stratified: yes").unwrap(),
        Err(w) => writeln!(out, "loosely stratified: no — {w}").unwrap(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "
        par(adam, seth). par(seth, enos).
        anc(X, Y) :- par(X, Y).
        anc(X, Y) :- par(X, Z), anc(Z, Y).
        ?- anc(adam, X).
    ";

    #[test]
    fn runs_file_queries_with_default_strategy() {
        let out = run(SRC, &CliOptions::default()).unwrap();
        assert!(out.contains("?- anc(adam, X).  [alexander]"), "{out}");
        assert!(out.contains("anc(adam, seth)"), "{out}");
        assert!(out.contains("anc(adam, enos)"), "{out}");
    }

    #[test]
    fn adhoc_query_overrides_file_queries() {
        let opts = CliOptions {
            queries: vec!["anc(seth, X)".into()],
            strategy: Some("oldt".into()),
            stats: true,
            ..CliOptions::default()
        };
        let out = run(SRC, &opts).unwrap();
        assert!(out.contains("[oldt]"), "{out}");
        assert!(out.contains("anc(seth, enos)"), "{out}");
        assert!(!out.contains("anc(adam"), "{out}");
        assert!(out.contains("--"), "stats line expected: {out}");
    }

    #[test]
    fn proof_mode_prints_trees() {
        let opts = CliOptions {
            queries: vec!["anc(adam, enos)".into()],
            proof: true,
            ..CliOptions::default()
        };
        let out = run(SRC, &opts).unwrap();
        assert!(out.contains("[rule 1]"), "{out}");
        assert!(out.contains("[fact]"), "{out}");
    }

    #[test]
    fn proofs_show_builtins_negations_and_inline_facts() {
        let src = "
            e(a, b). e(b, b). e(c, d). blocked(c). q(z).
            q(X) :- e(X, Y), neq(X, Y), !blocked(X).
        ";
        let opts = CliOptions {
            queries: vec!["q(X)".into()],
            proof: true,
            ..CliOptions::default()
        };
        let out = run(src, &opts).unwrap();
        for line in [
            "    | q(a)  [rule 0]",
            "    |   neq(a, b)  [holds]",
            "    |   !blocked(a)  [fails]",
            "    |   e(a, b)  [fact]",
            // The inline fact of `q` is a body-less rule, printed as the
            // fact it was written as: every `[rule N]` names a rule of the
            // file.
            "    | q(z)  [fact]",
        ] {
            assert!(out.lines().any(|l| l == line), "missing `{line}`:\n{out}");
        }
        assert!(!out.contains("no recorded proof"), "{out}");
        assert!(!out.contains("[rule 1]"), "{out}");
    }

    #[test]
    fn analyze_mode() {
        let opts = CliOptions {
            analyze: true,
            ..CliOptions::default()
        };
        let out = run(SRC, &opts).unwrap();
        assert!(out.contains("stratified: yes"), "{out}");
        assert!(out.contains("intensional: anc/2"), "{out}");
        assert!(out.contains("extensional: par/2"), "{out}");
    }

    #[test]
    fn failing_query_prints_no() {
        let opts = CliOptions {
            queries: vec!["anc(enos, adam)".into()],
            ..CliOptions::default()
        };
        let out = run(SRC, &opts).unwrap();
        assert!(out.contains("  no\n"), "{out}");
    }

    #[test]
    fn bad_strategy_is_reported() {
        let opts = CliOptions {
            strategy: Some("quantum".into()),
            ..CliOptions::default()
        };
        let err = run(SRC, &opts).unwrap_err();
        assert!(err.contains("unknown strategy"), "{err}");
    }

    #[test]
    fn usage_names_every_strategy() {
        let words: Vec<&str> = USAGE.split(|c: char| !c.is_alphanumeric()).collect();
        for s in Strategy::ALL {
            assert!(words.contains(&s.name()), "USAGE omits `{s}`");
        }
    }

    #[test]
    fn no_queries_is_an_error() {
        let err = run("p(a).", &CliOptions::default()).unwrap_err();
        assert!(err.contains("no queries"), "{err}");
    }

    #[test]
    fn bulk_loading_via_load_flag() {
        let dir = std::env::temp_dir();
        let path = dir.join("alexander_cli_load.csv");
        std::fs::write(
            &path,
            "adam,seth
seth,enos
",
        )
        .unwrap();
        let opts = CliOptions {
            queries: vec!["anc(adam, X)".into()],
            loads: vec![format!("par/2={}", path.display())],
            ..CliOptions::default()
        };
        let out = run(
            "anc(X, Y) :- par(X, Y). anc(X, Y) :- par(X, Z), anc(Z, Y).",
            &opts,
        )
        .unwrap();
        std::fs::remove_file(&path).ok();
        assert!(out.contains("loaded 2 tuples into par/2"), "{out}");
        assert!(out.contains("anc(adam, enos)"), "{out}");
    }

    #[test]
    fn bad_load_specs_are_reported() {
        for spec in ["nopath", "p=file.csv", "p/x=file.csv"] {
            let opts = CliOptions {
                queries: vec!["p(X)".into()],
                loads: vec![spec.into()],
                ..CliOptions::default()
            };
            assert!(run("p(X) :- q(X).", &opts).is_err(), "{spec}");
        }
    }

    #[test]
    fn parse_args_roundtrip() {
        let args: Vec<String> = [
            "prog.dl",
            "-q",
            "p(X)",
            "-s",
            "oldt",
            "--stats",
            "--threads",
            "4",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (path, opts) = parse_args(&args).unwrap();
        assert_eq!(path.as_deref(), Some("prog.dl"));
        assert_eq!(opts.queries, ["p(X)"]);
        assert_eq!(opts.strategy.as_deref(), Some("oldt"));
        assert!(opts.stats);
        assert_eq!(opts.threads, Some(4));
        assert!(parse_args(&["--bogus".to_string()]).is_err());
        assert!(parse_args(&["--help".to_string()]).is_err());
    }

    #[test]
    fn budget_flags_are_validated_and_parsed() {
        for flag in ["--timeout-ms", "--max-facts", "--max-rounds"] {
            for bad in [
                vec!["prog.dl".to_string(), flag.to_string()],
                vec!["prog.dl".to_string(), flag.to_string(), "soon".to_string()],
                vec!["prog.dl".to_string(), flag.to_string(), "0".to_string()],
            ] {
                assert!(parse_args(&bad).is_err(), "{bad:?}");
            }
        }
        let args: Vec<String> = [
            "prog.dl",
            "--timeout-ms",
            "200",
            "--max-facts",
            "1000",
            "--max-rounds",
            "7",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (_, opts) = parse_args(&args).unwrap();
        assert_eq!(opts.timeout_ms, Some(200));
        assert_eq!(opts.max_facts, Some(1000));
        assert_eq!(opts.max_rounds, Some(7));
    }

    #[test]
    fn fact_budget_prints_flagged_partial_answers() {
        let opts = CliOptions {
            queries: vec!["anc(X, Y)".into()],
            strategy: Some("seminaive".into()),
            max_facts: Some(1),
            stats: true,
            ..CliOptions::default()
        };
        let out = run(SRC, &opts).unwrap();
        assert!(out.contains("partial result"), "{out}");
        assert!(out.contains("budget exhausted (facts)"), "{out}");
        assert!(out.contains("PARTIAL"), "stats line flags it too: {out}");
    }

    #[test]
    fn ample_budget_stays_silent() {
        let opts = CliOptions {
            queries: vec!["anc(adam, X)".into()],
            strategy: Some("seminaive".into()),
            max_facts: Some(10_000),
            timeout_ms: Some(60_000),
            ..CliOptions::default()
        };
        let out = run(SRC, &opts).unwrap();
        assert!(!out.contains("partial result"), "{out}");
        assert!(out.contains("anc(adam, enos)"), "{out}");
    }

    #[test]
    fn retired_exec_flag_is_an_unknown_option() {
        let args: Vec<String> = ["prog.dl", "--exec", "tuple"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = parse_args(&args).unwrap_err();
        assert!(err.starts_with("unknown option `--exec`"), "{err}");
    }

    #[test]
    fn recover_reads_a_snapshot_wal_pair_back() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let snap = dir.join(format!("alexander_cli_snap_{pid}.snap"));
        let wal = dir.join(format!("alexander_cli_snap_{pid}.wal"));
        let mut db = Database::new();
        let par = alexander_ir::Predicate::new("par", 2);
        for (a, b) in [("adam", "seth"), ("seth", "enos")] {
            db.insert_row(
                par,
                &[alexander_ir::Const::sym(a), alexander_ir::Const::sym(b)],
            );
        }
        alexander_durable::write_snapshot(&db, &snap).unwrap();
        drop(alexander_durable::Wal::create(&wal).unwrap()); // empty log

        // Rules but NO facts — they come from the snapshot; the empty WAL
        // adds nothing but is required so committed batches can't be lost.
        let rules_only = "anc(X, Y) :- par(X, Y). anc(X, Y) :- par(X, Z), anc(Z, Y).";
        let opts = CliOptions {
            queries: vec!["anc(adam, X)".into()],
            snapshot: Some(snap.display().to_string()),
            wal: Some(wal.display().to_string()),
            recover: true,
            ..CliOptions::default()
        };
        let out = run(rules_only, &opts).unwrap();
        std::fs::remove_file(&snap).ok();
        std::fs::remove_file(&wal).ok();
        assert!(out.contains("recovered 2 facts"), "{out}");
        assert!(out.contains("replayed 0 committed batches"), "{out}");
        assert!(out.contains("anc(adam, enos)"), "{out}");
    }

    #[test]
    fn recover_replays_committed_wal_batches() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let snap = dir.join(format!("alexander_cli_rec_{pid}.snap"));
        let wal = dir.join(format!("alexander_cli_rec_{pid}.wal"));
        // Snapshot: par(adam, seth) only. WAL: insert par(seth, enos),
        // then delete par(adam, seth) — recovery must honour both.
        let mut db = Database::new();
        let par = alexander_ir::Predicate::new("par", 2);
        db.insert_row(
            par,
            &[
                alexander_ir::Const::sym("adam"),
                alexander_ir::Const::sym("seth"),
            ],
        );
        alexander_durable::write_snapshot(&db, &snap).unwrap();
        let mut w = alexander_durable::Wal::create(&wal).unwrap();
        let rec = |op, a: &str, b: &str| alexander_durable::WalRecord {
            op,
            pred: par,
            values: vec![alexander_ir::Const::sym(a), alexander_ir::Const::sym(b)],
        };
        w.append_batch(&[rec(alexander_durable::Op::Insert, "seth", "enos")])
            .unwrap();
        w.append_batch(&[rec(alexander_durable::Op::Delete, "adam", "seth")])
            .unwrap();
        drop(w);

        let opts = CliOptions {
            queries: vec!["anc(X, Y)".into()],
            snapshot: Some(snap.display().to_string()),
            wal: Some(wal.display().to_string()),
            recover: true,
            ..CliOptions::default()
        };
        let out = run(
            "anc(X, Y) :- par(X, Y). anc(X, Y) :- par(X, Z), anc(Z, Y).",
            &opts,
        )
        .unwrap();
        std::fs::remove_file(&snap).ok();
        std::fs::remove_file(&wal).ok();
        assert!(
            out.contains("replayed 2 committed batches (2 records)"),
            "{out}"
        );
        assert!(out.contains("anc(seth, enos)"), "{out}");
        assert!(
            !out.contains("anc(adam"),
            "deleted base fact resurfaced: {out}"
        );
    }

    #[test]
    fn a_logged_delete_also_removes_a_loaded_row() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let snap = dir.join(format!("alexander_cli_loaddel_{pid}.snap"));
        let wal = dir.join(format!("alexander_cli_loaddel_{pid}.wal"));
        let csv = dir.join(format!("alexander_cli_loaddel_{pid}.csv"));
        let par = alexander_ir::Predicate::new("par", 2);
        alexander_durable::write_snapshot(&Database::new(), &snap).unwrap();
        let mut w = alexander_durable::Wal::create(&wal).unwrap();
        w.append_batch(&[alexander_durable::WalRecord {
            op: alexander_durable::Op::Delete,
            pred: par,
            values: vec![
                alexander_ir::Const::sym("adam"),
                alexander_ir::Const::sym("seth"),
            ],
        }])
        .unwrap();
        drop(w);
        std::fs::write(&csv, "adam,seth\nseth,enos\n").unwrap();
        let opts = CliOptions {
            queries: vec!["anc(X, Y)".into()],
            loads: vec![format!("par/2={}", csv.display())],
            snapshot: Some(snap.display().to_string()),
            wal: Some(wal.display().to_string()),
            recover: true,
            ..CliOptions::default()
        };
        let out = run(
            "anc(X, Y) :- par(X, Y). anc(X, Y) :- par(X, Z), anc(Z, Y).",
            &opts,
        );
        for f in [&snap, &wal, &csv] {
            std::fs::remove_file(f).ok();
        }
        let out = out.unwrap();
        assert!(out.contains("anc(seth, enos)"), "{out}");
        assert!(
            !out.contains("anc(adam"),
            "deleted loaded row resurfaced: {out}"
        );
    }

    #[test]
    fn loading_rows_of_an_intensional_predicate_is_refused() {
        let path =
            std::env::temp_dir().join(format!("alexander_cli_load_idb_{}.csv", std::process::id()));
        std::fs::write(&path, "z,z\n").unwrap();
        let opts = CliOptions {
            queries: vec!["anc(z, X)".into()],
            loads: vec![format!("anc/2={}", path.display())],
            ..CliOptions::default()
        };
        let res = run(SRC, &opts);
        std::fs::remove_file(&path).ok();
        let err = res.unwrap_err();
        assert!(err.contains("anc/2 is intensional"), "{err}");
    }

    #[test]
    fn recover_refuses_a_wal_record_of_a_derived_predicate() {
        // `anc` is intensional: a logged `anc(a, z)` can only mean the
        // program changed underneath the log. Folding it into the EDB would
        // store a derived fact, so recovery refuses, as the store's does.
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let snap = dir.join(format!("alexander_cli_idb_{pid}.snap"));
        let wal = dir.join(format!("alexander_cli_idb_{pid}.wal"));
        alexander_durable::write_snapshot(&Database::new(), &snap).unwrap();
        let mut w = alexander_durable::Wal::create(&wal).unwrap();
        w.append_batch(&[alexander_durable::WalRecord {
            op: alexander_durable::Op::Insert,
            pred: alexander_ir::Predicate::new("anc", 2),
            values: vec![alexander_ir::Const::sym("a"), alexander_ir::Const::sym("z")],
        }])
        .unwrap();
        drop(w);
        let opts = CliOptions {
            queries: vec!["anc(a, X)".into()],
            snapshot: Some(snap.display().to_string()),
            wal: Some(wal.display().to_string()),
            recover: true,
            strategy: Some("seminaive".into()),
            ..CliOptions::default()
        };
        let res = run(SRC, &opts);
        std::fs::remove_file(&snap).ok();
        std::fs::remove_file(&wal).ok();
        let err = res.unwrap_err();
        assert!(err.contains("anc/2"), "{err}");
    }

    #[test]
    fn intensional_inline_facts_answer_under_every_strategy() {
        let src = "e(a, b). e(b, c). anc(z, z).
                   anc(X, Y) :- e(X, Y).
                   anc(X, Y) :- e(X, Z), anc(Z, Y).";
        for s in Strategy::ALL {
            let opts = CliOptions {
                queries: vec!["anc(z, X)".into()],
                strategy: Some(s.name().into()),
                ..CliOptions::default()
            };
            let out = run(src, &opts).unwrap();
            assert!(out.contains("\n  anc(z, z)\n"), "{s}: {out}");
        }
    }

    #[test]
    fn torn_wal_tails_are_reported_and_skipped() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let snap = dir.join(format!("alexander_cli_torn_{pid}.snap"));
        let wal = dir.join(format!("alexander_cli_torn_{pid}.wal"));
        alexander_durable::write_snapshot(&Database::new(), &snap).unwrap();
        let par = alexander_ir::Predicate::new("par", 2);
        let mut w = alexander_durable::Wal::create(&wal).unwrap();
        w.append_batch(&[alexander_durable::WalRecord {
            op: alexander_durable::Op::Insert,
            pred: par,
            values: vec![
                alexander_ir::Const::sym("adam"),
                alexander_ir::Const::sym("seth"),
            ],
        }])
        .unwrap();
        drop(w);
        // Simulate a crash mid-append: chop the last 3 bytes of a second,
        // hand-appended frame header.
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes.extend_from_slice(&[9, 0, 0]);
        std::fs::write(&wal, &bytes).unwrap();

        let opts = CliOptions {
            queries: vec!["anc(X, Y)".into()],
            snapshot: Some(snap.display().to_string()),
            wal: Some(wal.display().to_string()),
            recover: true,
            ..CliOptions::default()
        };
        let out = run("anc(X, Y) :- par(X, Y).", &opts).unwrap();
        std::fs::remove_file(&snap).ok();
        std::fs::remove_file(&wal).ok();
        assert!(out.contains("torn tail"), "{out}");
        assert!(
            out.contains("anc(adam, seth)"),
            "committed batch lost: {out}"
        );
    }

    #[test]
    fn durability_flag_combinations_are_validated() {
        let base = CliOptions {
            queries: vec!["anc(adam, X)".into()],
            ..CliOptions::default()
        };
        let err = run(
            SRC,
            &CliOptions {
                wal: Some("x.wal".into()),
                ..base.clone()
            },
        )
        .unwrap_err();
        assert!(
            err.contains("--wal only makes sense with --recover"),
            "{err}"
        );
        let err = run(
            SRC,
            &CliOptions {
                recover: true,
                ..base.clone()
            },
        )
        .unwrap_err();
        assert!(err.contains("--recover needs --snapshot"), "{err}");
        // Recovering a snapshot without its paired log would silently drop
        // committed batches — rejected.
        let err = run(
            SRC,
            &CliOptions {
                recover: true,
                snapshot: Some("x.snap".into()),
                ..base.clone()
            },
        )
        .unwrap_err();
        assert!(err.contains("--recover without --wal"), "{err}");
        // A bare --snapshot on the read-only query path would overwrite the
        // file as a side effect — rejected.
        let err = run(
            SRC,
            &CliOptions {
                snapshot: Some("x.snap".into()),
                ..base.clone()
            },
        )
        .unwrap_err();
        assert!(err.contains("--snapshot without --recover"), "{err}");
        // A missing snapshot file is a structured error, not a panic.
        let err = run(
            SRC,
            &CliOptions {
                recover: true,
                snapshot: Some("/nonexistent/alexander.snap".into()),
                wal: Some("/nonexistent/alexander.wal".into()),
                ..base
            },
        )
        .unwrap_err();
        assert!(err.contains("io error"), "{err}");
    }

    #[test]
    fn serve_args_parse_and_are_validated() {
        let parse = |args: &[&str]| {
            let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parse_args(&v)
        };
        let (path, opts) = parse(&[
            "serve",
            "prog.dl",
            "--listen",
            "127.0.0.1:7171",
            "--max-concurrent",
            "8",
            "--tenant-cap",
            "2",
        ])
        .unwrap();
        assert_eq!(path.as_deref(), Some("prog.dl"));
        assert!(opts.serve);
        assert_eq!(opts.listen.as_deref(), Some("127.0.0.1:7171"));
        assert_eq!(opts.max_concurrent, Some(8));
        assert_eq!(opts.tenant_cap, Some(2));

        // `serve` needs exactly one listener.
        let err = parse(&["serve", "prog.dl"]).unwrap_err();
        assert!(err.contains("needs a listener"), "{err}");
        let err = parse(&[
            "serve",
            "prog.dl",
            "--listen",
            "x:1",
            "--unix",
            "/tmp/s.sock",
        ])
        .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");

        // One-shot flags are rejected rather than silently ignored.
        for extra in [
            vec!["--analyze"],
            vec!["--proof"],
            vec!["-q", "p(X)"],
            vec!["--recover"],
            vec!["--snapshot", "x.snap"], // snapshot without its wal half
        ] {
            let mut args = vec!["serve", "prog.dl", "--listen", "x:1"];
            args.extend(extra.iter());
            assert!(parse(&args).is_err(), "{extra:?}");
        }
        // The full pair is fine.
        let (_, opts) = parse(&[
            "serve",
            "prog.dl",
            "--listen",
            "x:1",
            "--snapshot",
            "x.snap",
            "--wal",
            "x.wal",
        ])
        .unwrap();
        assert_eq!(opts.snapshot.as_deref(), Some("x.snap"));
        assert_eq!(opts.wal.as_deref(), Some("x.wal"));

        // Serve-only flags outside serve mode are located errors.
        for args in [
            vec!["prog.dl", "--listen", "x:1"],
            vec!["prog.dl", "--unix", "/tmp/s.sock"],
            vec!["prog.dl", "--max-concurrent", "4"],
            vec!["prog.dl", "--tenant-cap", "2"],
            vec!["prog.dl", "--max-queue", "8"],
            vec!["prog.dl", "--idle-timeout-ms", "1000"],
            vec!["prog.dl", "--write-timeout-ms", "1000"],
        ] {
            let err = parse(&args).unwrap_err();
            assert!(err.contains("serve` subcommand"), "{args:?}: {err}");
        }
        // Zero caps are rejected like every other count flag.
        assert!(parse(&[
            "serve",
            "prog.dl",
            "--listen",
            "x:1",
            "--max-concurrent",
            "0"
        ])
        .is_err());

        // Session-robustness knobs parse; --max-queue 0 is meaningful
        // (shed the moment the caps are hit), zero deadlines are not.
        let (_, opts) = parse(&[
            "serve",
            "prog.dl",
            "--listen",
            "x:1",
            "--max-queue",
            "0",
            "--idle-timeout-ms",
            "2000",
            "--write-timeout-ms",
            "500",
        ])
        .unwrap();
        assert_eq!(opts.max_queue, Some(0));
        assert_eq!(opts.idle_timeout_ms, Some(2000));
        assert_eq!(opts.write_timeout_ms, Some(500));
        for bad in [
            vec!["serve", "prog.dl", "--listen", "x:1", "--max-queue", "many"],
            vec![
                "serve",
                "prog.dl",
                "--listen",
                "x:1",
                "--idle-timeout-ms",
                "0",
            ],
            vec![
                "serve",
                "prog.dl",
                "--listen",
                "x:1",
                "--write-timeout-ms",
                "0",
            ],
        ] {
            assert!(parse(&bad).is_err(), "{bad:?}");
        }

        // run() refuses to host serve mode.
        let err = run(
            SRC,
            &CliOptions {
                serve: true,
                listen: Some("127.0.0.1:0".into()),
                ..CliOptions::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("serve mode"), "{err}");
    }

    /// The error `parse_args` gives for `serve` plus `extra` flags.
    fn serve_error(extra: &[&str]) -> String {
        let args: Vec<String> = ["serve", "tc.dl", "--listen", "127.0.0.1:0"]
            .iter()
            .chain(extra)
            .map(|s| s.to_string())
            .collect();
        parse_args(&args).unwrap_err()
    }

    #[test]
    fn serve_rejects_load_instead_of_ignoring_it() {
        let err = serve_error(&["--load", "e/2=edges.csv"]);
        assert!(err.starts_with("--load is silently ignored"), "{err}");
    }

    #[test]
    fn serve_rejects_stats_instead_of_ignoring_it() {
        let err = serve_error(&["--stats"]);
        assert!(err.starts_with("--stats prints one-shot"), "{err}");
    }

    #[test]
    fn durability_args_parse() {
        let args: Vec<String> = [
            "prog.dl",
            "--snapshot",
            "db.snap",
            "--wal",
            "db.wal",
            "--recover",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (_, opts) = parse_args(&args).unwrap();
        assert_eq!(opts.snapshot.as_deref(), Some("db.snap"));
        assert_eq!(opts.wal.as_deref(), Some("db.wal"));
        assert!(opts.recover);
        for bad in [
            vec!["prog.dl".to_string(), "--snapshot".to_string()],
            vec!["prog.dl".to_string(), "--wal".to_string()],
        ] {
            assert!(parse_args(&bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn threads_flag_is_validated_and_applied() {
        for bad in [
            vec!["prog.dl".to_string(), "--threads".to_string()],
            vec![
                "prog.dl".to_string(),
                "--threads".to_string(),
                "zero".to_string(),
            ],
            vec![
                "prog.dl".to_string(),
                "--threads".to_string(),
                "0".to_string(),
            ],
        ] {
            assert!(parse_args(&bad).is_err(), "{bad:?}");
        }
        let opts = CliOptions {
            queries: vec!["anc(adam, X)".into()],
            strategy: Some("seminaive".into()),
            stats: true,
            threads: Some(4),
            ..CliOptions::default()
        };
        let out = run(SRC, &opts).unwrap();
        assert!(out.contains("anc(adam, enos)"), "{out}");
        assert!(out.contains("threads=4"), "{out}");
    }
}
