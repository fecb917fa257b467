//! Degraded-mode integration tests (failpoints builds only): poison the
//! durable writer over the wire, watch the service go read-only without
//! dropping a single read, then heal it and verify disk truth won.
#![cfg(feature = "failpoints")]

use alexander_eval::failpoints::{self, Action};
use alexander_parser::parse;
use alexander_server::{serve_tcp, QueryService, ServerConfig, ServerError, ServerState};
use alexander_storage::Database;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const RULES: &str = "anc(X, Y) :- par(X, Y). anc(X, Y) :- par(X, Z), anc(Z, Y).";
const SITE_WAL: &str = "durable-wal-io";

fn store_paths(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    (
        dir.join(format!("alexander_degraded_{tag}_{pid}.snap")),
        dir.join(format!("alexander_degraded_{tag}_{pid}.wal")),
    )
}

fn durable_service(tag: &str) -> (Arc<QueryService>, PathBuf, PathBuf) {
    let (sp, wp) = store_paths(tag);
    std::fs::remove_file(&sp).ok();
    std::fs::remove_file(&wp).ok();
    let program = parse(&format!("{RULES} par(a, b).")).unwrap().program;
    let s = QueryService::open(
        program,
        Database::new(),
        Some((&sp, &wp)),
        ServerConfig::default(),
    )
    .unwrap();
    (Arc::new(s), sp, wp)
}

/// Sends one request line and reads lines until the `OK`/`ERR` terminal.
fn exchange(conn: &mut BufReader<TcpStream>, line: &str) -> Vec<String> {
    writeln!(conn.get_mut(), "{line}").unwrap();
    conn.get_mut().flush().unwrap();
    let mut out = Vec::new();
    loop {
        let mut l = String::new();
        match conn.read_line(&mut l) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(e) => panic!("read: {e}"),
        }
        let l = l.trim_end().to_string();
        let terminal = l.starts_with("OK") || l.starts_with("ERR");
        out.push(l);
        if terminal {
            break;
        }
    }
    out
}

#[test]
fn a_poisoned_commit_degrades_to_read_only_then_heals_from_disk_truth() {
    let _fp = failpoints::scoped();
    let (service, sp, wp) = durable_service("fsync");
    let handle = serve_tcp(service.clone(), "127.0.0.1:0").unwrap();
    let mut conn = BufReader::new(TcpStream::connect(handle.tcp_addr().unwrap()).unwrap());

    // A clean commit first, so there is real committed state to preserve.
    assert_eq!(exchange(&mut conn, "INSERT par(b, c)"), ["OK pending 1"]);
    assert_eq!(exchange(&mut conn, "COMMIT"), ["OK epoch 1 committed 1"]);

    // Arm a fsync failure: the next commit's WAL bytes land on disk but
    // durability cannot be proven, so the writer must poison itself.
    failpoints::configure(SITE_WAL, Action::FsyncError);
    assert_eq!(exchange(&mut conn, "INSERT par(c, d)"), ["OK pending 1"]);
    let out = exchange(&mut conn, "COMMIT");
    assert_eq!(out.len(), 1);
    assert!(
        out[0].starts_with("ERR DEGRADED writer poisoned by commit"),
        "{out:?}"
    );
    assert!(service.health().degradations() >= 1);

    // The degraded window still serves epoch-pinned reads, over the wire.
    let out = exchange(&mut conn, "QUERY anc(a, X)");
    let last = out.last().unwrap();
    assert!(
        last.starts_with("OK ") && last.contains("complete"),
        "{out:?}"
    );
    assert!(out.contains(&"ANSWER anc(a, b)".to_string()), "{out:?}");

    // Disarm; the supervisor heals, republishes from disk, and stays up.
    failpoints::remove(SITE_WAL);
    assert!(
        service.wait_for_healthy(Duration::from_secs(5)),
        "supervisor must heal once the fault is lifted"
    );
    assert_eq!(service.state(), ServerState::Healthy);
    assert!(service.health().heals() >= 1);

    // Disk truth won: the fsync-failed batch *had* persisted its bytes, so
    // recovery replays it — `par(c, d)` is there even though its commit
    // answered ERR.
    let out = exchange(&mut conn, "QUERY anc(a, X)");
    assert!(out.contains(&"ANSWER anc(a, d)".to_string()), "{out:?}");

    // And the writer accepts mutations again.
    assert_eq!(exchange(&mut conn, "INSERT par(d, e)"), ["OK pending 1"]);
    let out = exchange(&mut conn, "COMMIT");
    assert!(
        out[0].starts_with("OK epoch ") && out[0].ends_with("committed 1"),
        "{out:?}"
    );
    let out = exchange(&mut conn, "QUERY anc(a, X)");
    assert!(out.contains(&"ANSWER anc(a, e)".to_string()), "{out:?}");

    handle.shutdown();
    std::fs::remove_file(&sp).ok();
    std::fs::remove_file(&wp).ok();
}

#[test]
fn a_torn_wal_append_loses_only_the_in_flight_batch() {
    let _fp = failpoints::scoped();
    let (service, sp, wp) = durable_service("torn");
    use alexander_parser::parse_atom;

    service.insert(&parse_atom("par(b, c)").unwrap()).unwrap();
    service.commit().unwrap();

    // Crash one byte into the next append: a torn frame recovery must cut.
    let wal_len = service.durable_wal_len().unwrap();
    failpoints::configure(SITE_WAL, Action::CrashAfterBytes(wal_len + 1));
    service.insert(&parse_atom("par(c, d)").unwrap()).unwrap();
    let err = service.commit().unwrap_err();
    assert!(matches!(err, ServerError::Degraded(_)), "{err}");

    failpoints::remove(SITE_WAL);
    assert!(service.wait_for_healthy(Duration::from_secs(5)));

    // The committed chain survived; the torn batch is gone whole — a
    // committed-batch boundary, not a byte-level prefix.
    let q = parse_atom("anc(a, X)").unwrap();
    let r = service.query("t", &q, None).unwrap();
    assert_eq!(r.answers, ["anc(a, b)", "anc(a, c)"]);

    // Mutations flow again and land after the preserved history.
    service.insert(&parse_atom("par(c, z)").unwrap()).unwrap();
    service.commit().unwrap();
    let r = service.query("t", &q, None).unwrap();
    assert_eq!(r.answers, ["anc(a, b)", "anc(a, c)", "anc(a, z)"]);

    std::fs::remove_file(&sp).ok();
    std::fs::remove_file(&wp).ok();
}

#[test]
fn mutations_answer_err_degraded_while_poisoned_and_the_buffer_is_dropped() {
    let _fp = failpoints::scoped();
    let (service, sp, wp) = durable_service("reject");
    use alexander_parser::parse_atom;

    // The failing commit itself must surface as Degraded (not a bare IO
    // error), its batch must be dropped whole, and reads must keep serving
    // the published epoch throughout.
    let wal_len = service.durable_wal_len().unwrap();
    failpoints::configure(SITE_WAL, Action::CrashAfterBytes(wal_len + 1));
    service.insert(&parse_atom("par(b, c)").unwrap()).unwrap();
    let err = service.commit().unwrap_err();
    assert!(matches!(err, ServerError::Degraded(_)), "{err}");
    assert_eq!(service.pending(), 0, "a failed commit drops its batch");

    // Reads serve in every state — the epoch store is untouched.
    let q = parse_atom("anc(a, X)").unwrap();
    assert_eq!(service.query("t", &q, None).unwrap().answers, ["anc(a, b)"]);

    failpoints::remove(SITE_WAL);
    assert!(service.wait_for_healthy(Duration::from_secs(5)));
    std::fs::remove_file(&sp).ok();
    std::fs::remove_file(&wp).ok();
}
