//! The `alexander` CLI: load a Datalog file and answer its queries, or run
//! the long-lived query server (`alexander serve`).
//!
//! See [`alexander_core::cli::USAGE`] or run with `--help`.

use alexander_core::cli;
use alexander_server::{serve_tcp, serve_unix, QueryService, ServeHandle, ServerConfig};
use alexander_storage::Database;
use std::io::Read;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Set by the signal handler; the serve loop polls it.
static STOP: AtomicBool = AtomicBool::new(false);

// `signal(2)` directly — no libc crate in the dependency tree. The real
// handler type is `sighandler_t`; the return value may be SIG_DFL (null),
// so it is declared as a plain word, not a function pointer.
type SigHandler = extern "C" fn(i32);
extern "C" {
    fn signal(signum: i32, handler: SigHandler) -> usize;
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" fn on_signal(_signum: i32) {
    // Only async-signal-safe work here: one atomic store.
    STOP.store(true, Ordering::SeqCst);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (path, opts) = match cli::parse_args(&args) {
        Ok(x) => x,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let Some(path) = path else {
        eprintln!("{}", cli::USAGE);
        std::process::exit(2);
    };
    let source = if path == "-" {
        let mut buf = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
            eprintln!("error reading stdin: {e}");
            std::process::exit(1);
        }
        buf
    } else {
        match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error reading {path}: {e}");
                std::process::exit(1);
            }
        }
    };
    if opts.serve {
        serve(&source, &opts);
        return;
    }
    match cli::run(&source, &opts) {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

/// Runs the server until SIGTERM/SIGINT, then shuts down gracefully:
/// stop accepting, drain in-flight sessions with a deadline, take a final
/// checkpoint when healthy, remove the unix socket file. Flag coherence was
/// already validated by `parse_args`; this only wires options into the
/// service.
fn serve(source: &str, opts: &cli::CliOptions) {
    let program = match alexander_parser::parse(source) {
        Ok(p) => p.program,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let mut config = ServerConfig::default();
    if let Some(n) = opts.max_concurrent {
        config.max_concurrent = n;
    }
    if let Some(n) = opts.tenant_cap {
        config.tenant_cap = n;
    }
    if let Some(n) = opts.max_queue {
        config.max_queue = n;
    }
    if let Some(ms) = opts.idle_timeout_ms {
        config.idle_timeout = Some(Duration::from_millis(ms));
    }
    if let Some(ms) = opts.write_timeout_ms {
        config.write_timeout = Some(Duration::from_millis(ms));
    }
    config.budget = opts.budget();
    config.default_strategy = match opts.chosen_strategy() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    let store = opts
        .snapshot
        .as_deref()
        .zip(opts.wal.as_deref())
        .map(|(s, w)| (std::path::PathBuf::from(s), std::path::PathBuf::from(w)));
    let service = match QueryService::open(
        program,
        Database::new(),
        store.as_ref().map(|(s, w)| (s.as_path(), w.as_path())),
        config,
    ) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };

    let handle: ServeHandle = if let Some(addr) = opts.listen.as_deref() {
        match serve_tcp(service.clone(), addr) {
            Ok(h) => {
                // invariant: serve_tcp always records the bound address.
                eprintln!("listening on tcp {}", h.tcp_addr().expect("bound"));
                h
            }
            Err(e) => {
                eprintln!("cannot listen on {addr}: {e}");
                std::process::exit(1);
            }
        }
    } else {
        // invariant: parse_args demands exactly one of --listen/--unix.
        let path = std::path::Path::new(opts.unix.as_deref().expect("validated"));
        match serve_unix(service.clone(), path) {
            Ok(h) => {
                eprintln!("listening on unix {}", path.display());
                h
            }
            Err(e) => {
                eprintln!("cannot listen on {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    };

    // Serve until a signal arrives; `handle` keeps the accept loop alive.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
    while !STOP.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }

    eprintln!("shutting down: draining sessions");
    if !handle.shutdown_graceful(Duration::from_secs(5)) {
        eprintln!("shutdown: some sessions did not drain within the deadline");
    }
    // A final checkpoint bounds the next start's WAL replay. Skipped (with
    // a note, not a failure) when the service is degraded, has uncommitted
    // mutations, or is in-memory.
    match service.checkpoint() {
        Ok(true) => eprintln!("shutdown: final checkpoint taken"),
        Ok(false) => {}
        Err(e) => eprintln!("shutdown: checkpoint skipped: {e}"),
    }
}
