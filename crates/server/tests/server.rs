//! End-to-end serving tests: the TCP listener and the durable writer, both
//! driven exactly as a client would.

use alexander_core::{Engine, Strategy};
use alexander_parser::{parse, parse_atom};
use alexander_server::admission::RETRY_AFTER_BASE_MS;
use alexander_server::{serve_tcp, serve_unix, QueryService, ServerConfig, SessionEnd};
use alexander_storage::Database;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

const RULES: &str = "anc(X, Y) :- par(X, Y). anc(X, Y) :- par(X, Z), anc(Z, Y).";

fn service(extra: &str) -> Arc<QueryService> {
    let program = parse(&format!("{RULES} {extra}")).unwrap().program;
    Arc::new(QueryService::open(program, Database::new(), None, ServerConfig::default()).unwrap())
}

/// Sends one request line and reads lines until the `OK`/`ERR` terminal.
fn exchange<S: std::io::Read + Write>(reader: &mut BufReader<S>, line: &str) -> Vec<String> {
    writeln!(reader.get_mut(), "{line}").unwrap();
    reader.get_mut().flush().unwrap();
    let mut out = Vec::new();
    loop {
        let mut l = String::new();
        match reader.read_line(&mut l) {
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
fn tcp_sessions_speak_the_protocol_end_to_end() {
    let handle = serve_tcp(service("par(adam, seth)."), "127.0.0.1:0").unwrap();
    let addr = handle.tcp_addr().unwrap();

    let stream = TcpStream::connect(addr).unwrap();
    let mut conn = BufReader::new(stream);
    assert_eq!(
        exchange(&mut conn, "HELLO acme"),
        ["OK tenant acme epoch 0"]
    );
    assert_eq!(exchange(&mut conn, "PING"), ["OK pong"]);
    assert_eq!(
        exchange(&mut conn, "INSERT par(seth, enos)"),
        ["OK pending 1"]
    );
    assert_eq!(exchange(&mut conn, "COMMIT"), ["OK epoch 1 committed 1"]);
    assert_eq!(
        exchange(&mut conn, "QUERY anc(adam, X)"),
        [
            "ANSWER anc(adam, enos)",
            "ANSWER anc(adam, seth)",
            "OK 2 epoch 1 complete"
        ]
    );
    // Garbage stays in-band.
    let out = exchange(&mut conn, "QUERY anc(adam,");
    assert!(out[0].starts_with("ERR "), "{out:?}");
    assert_eq!(exchange(&mut conn, "QUIT"), ["OK bye"]);

    // A second connection sees the committed state (same epoch chain).
    let stream = TcpStream::connect(addr).unwrap();
    let mut conn = BufReader::new(stream);
    assert_eq!(exchange(&mut conn, "EPOCH"), ["OK epoch 1"]);
    handle.shutdown();
}

#[test]
fn tcp_replies_are_the_engine_answers_rendered_by_display() {
    let facts = "par(a, b). par(b, c). par(c, d). par(d, b). par(z, a).
                 par(a, 10). par(a, 9). par(a, -1). par(a, z_1).";
    let program = parse(&format!("{RULES} {facts}")).unwrap().program;
    let fresh = Engine::new(program, Database::new()).unwrap();
    let handle = serve_tcp(service(facts), "127.0.0.1:0").unwrap();
    let mut conn = BufReader::new(TcpStream::connect(handle.tcp_addr().unwrap()).unwrap());
    for q in ["anc(X, X)", "anc(a, d)", "anc(d, a)", "par(a, X)"] {
        let answers = fresh
            .query(&parse_atom(q).unwrap(), Strategy::Alexander)
            .unwrap()
            .answers;
        let mut want: Vec<String> = answers.iter().map(|a| format!("ANSWER {a}")).collect();
        want.push(format!("OK {} epoch 0 complete", answers.len()));
        assert_eq!(exchange(&mut conn, &format!("QUERY {q}")), want, "{q}");
    }
    // Integers first, numerically; then symbols by string.
    assert_eq!(
        exchange(&mut conn, "QUERY par(a, X)")[..5],
        [
            "ANSWER par(a, -1)",
            "ANSWER par(a, 9)",
            "ANSWER par(a, 10)",
            "ANSWER par(a, b)",
            "ANSWER par(a, z_1)"
        ]
    );
    assert_eq!(
        exchange(&mut conn, "QUERY anc(X, X)"),
        [
            "ANSWER anc(b, b)",
            "ANSWER anc(c, c)",
            "ANSWER anc(d, d)",
            "OK 3 epoch 0 complete"
        ]
    );
    handle.shutdown();
}

#[test]
fn stats_over_tcp_reports_listener_and_service_counters() {
    let handle = serve_tcp(service("par(adam, seth)."), "127.0.0.1:0").unwrap();
    let addr = handle.tcp_addr().unwrap();

    // One whole session ends cleanly first, so the quit counter is non-zero.
    {
        let mut conn = BufReader::new(TcpStream::connect(addr).unwrap());
        assert_eq!(exchange(&mut conn, "QUIT"), ["OK bye"]);
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while handle.stats().ended(SessionEnd::Quit) == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    let mut conn = BufReader::new(TcpStream::connect(addr).unwrap());
    let out = exchange(&mut conn, "STATS");
    let (stats, terminal) = out.split_at(out.len() - 1);
    assert!(stats.iter().all(|l| l.starts_with("STAT ")), "{out:?}");
    assert_eq!(terminal[0], format!("OK {} epoch 0", stats.len()));
    let value = |key: &str| -> u64 {
        stats
            .iter()
            .find_map(|l| l.strip_prefix(&format!("STAT {key} ")))
            .unwrap_or_else(|| panic!("missing {key}: {out:?}"))
            .parse()
            .unwrap()
    };
    assert_eq!(value("net.accepted"), 2, "the quit session and this one");
    assert_eq!(value("net.quit"), 1);
    assert_eq!(value("net.active"), 1, "this session");
    assert_eq!(value("admission.active"), 0, "no query in flight");
    assert_eq!(value("admission.shed"), 0);
    assert_eq!(value("health.degradations"), 0);
    assert_eq!(value("health.heals"), 0);
    handle.shutdown();
}

#[test]
fn a_saturated_server_sheds_over_tcp_and_the_retry_is_answered() {
    let program = parse(&format!("{RULES} par(a, b). par(b, c)."))
        .unwrap()
        .program;
    let config = ServerConfig {
        max_concurrent: 1,
        tenant_cap: 1,
        max_queue: 0,
        ..ServerConfig::default()
    };
    let service =
        Arc::new(QueryService::open(program.clone(), Database::new(), None, config).unwrap());
    // Hold the only slot before any session starts, so the first query has
    // nowhere to run and no queue to wait in.
    let slot = service
        .admission()
        .admit("hog")
        .expect("a free slot admits");
    let handle = serve_tcp(service.clone(), "127.0.0.1:0").unwrap();
    let mut conn = BufReader::new(TcpStream::connect(handle.tcp_addr().unwrap()).unwrap());

    let shed = exchange(&mut conn, "QUERY anc(a, X)");
    let [terminal] = &shed[..] else {
        panic!("a shed query answers only its terminal: {shed:?}");
    };
    let hint: u64 = terminal
        .strip_prefix("ERR BUSY retry-after-ms=")
        .unwrap_or_else(|| panic!("{terminal}"))
        .parse()
        .unwrap();
    assert_eq!(hint, RETRY_AFTER_BASE_MS, "{terminal}");

    let stats = exchange(&mut conn, "STATS");
    assert!(
        stats.iter().any(|l| l == "STAT admission.shed 1"),
        "{stats:?}"
    );

    // Once the slot frees, the same session's retry is answered in full.
    drop(slot);
    let q = parse_atom("anc(a, X)").unwrap();
    let fresh = Engine::new(program, Database::new())
        .unwrap()
        .query(&q, Strategy::Alexander)
        .unwrap();
    assert_eq!(fresh.answers.len(), 2);
    let mut expected: Vec<String> = fresh
        .answers
        .iter()
        .map(|a| format!("ANSWER {a}"))
        .collect();
    expected.push(format!("OK {} epoch 0 complete", fresh.answers.len()));
    assert_eq!(exchange(&mut conn, "QUERY anc(a, X)"), expected);
    handle.shutdown();
}

#[test]
fn concurrent_tcp_clients_get_consistent_epoch_tagged_answers() {
    let handle = serve_tcp(service("par(n0, n1)."), "127.0.0.1:0").unwrap();
    let addr = handle.tcp_addr().unwrap();

    // Writer connection appends the chain one commit at a time; reader
    // threads hammer queries. Every response must equal the oracle for the
    // epoch it is tagged with — never a half-committed view.
    const COMMITS: usize = 8;
    let writer = std::thread::spawn(move || {
        let mut conn = BufReader::new(TcpStream::connect(addr).unwrap());
        for i in 1..=COMMITS {
            exchange(&mut conn, &format!("INSERT par(n{i}, n{})", i + 1));
            let out = exchange(&mut conn, "COMMIT");
            assert_eq!(out, [format!("OK epoch {i} committed 1")]);
        }
    });
    let readers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut conn = BufReader::new(TcpStream::connect(addr).unwrap());
                for _ in 0..20 {
                    let out = exchange(&mut conn, "QUERY anc(n0, X)");
                    let last = out.last().unwrap();
                    assert!(last.starts_with("OK "), "{out:?}");
                    // "OK <n> epoch <g> complete"
                    let mut it = last.split_whitespace();
                    let n: usize = it.nth(1).unwrap().parse().unwrap();
                    let g: usize = it.nth(1).unwrap().parse().unwrap();
                    // Epoch g has the chain n0..n(g+1): g+1 answers.
                    assert_eq!(n, g + 1, "{out:?}");
                    assert_eq!(out.len(), n + 1, "{out:?}");
                    for (i, a) in out[..n].iter().enumerate() {
                        assert_eq!(a, &format!("ANSWER anc(n0, n{})", i + 1), "{out:?}");
                    }
                }
            })
        })
        .collect();
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
    handle.shutdown();
}

#[test]
fn unix_socket_serves_the_same_protocol() {
    let path = std::env::temp_dir().join(format!("alexander_srv_{}.sock", std::process::id()));
    let handle = serve_unix(service("par(adam, seth)."), &path).unwrap();
    let stream = std::os::unix::net::UnixStream::connect(&path).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_millis(200)))
        .unwrap();
    let mut conn = BufReader::new(stream);
    assert_eq!(exchange(&mut conn, "PING"), ["OK pong"]);
    assert_eq!(
        exchange(&mut conn, "QUERY anc(adam, X)"),
        ["ANSWER anc(adam, seth)", "OK 1 epoch 0 complete"]
    );
    handle.shutdown();
    assert!(!path.exists(), "socket file cleaned up on shutdown");
}

#[test]
fn unix_socket_refuses_a_live_server_but_replaces_a_stale_file() {
    let path = std::env::temp_dir().join(format!("alexander_srv_live_{}.sock", std::process::id()));
    std::fs::remove_file(&path).ok();
    let handle = serve_unix(service("par(adam, seth)."), &path).unwrap();
    // A second server must not steal the endpoint out from under the first.
    let err = match serve_unix(service("par(adam, seth)."), &path) {
        Ok(_) => panic!("binding over a live server must fail"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");
    handle.shutdown();

    // A stale socket file — left by a listener that died without cleanup —
    // is replaced.
    drop(std::os::unix::net::UnixListener::bind(&path).unwrap());
    assert!(path.exists());
    let handle = serve_unix(service("par(adam, seth)."), &path).unwrap();
    let stream = std::os::unix::net::UnixStream::connect(&path).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_millis(200)))
        .unwrap();
    let mut conn = BufReader::new(stream);
    assert_eq!(exchange(&mut conn, "PING"), ["OK pong"]);
    handle.shutdown();
}

#[test]
fn a_client_vanishing_mid_reply_tears_down_only_its_session() {
    // A substantial chain so replies span multiple writes' worth of bytes
    // and evaluation leaves time for the peer's RST to land between them.
    let mut extra = String::new();
    for i in 0..256 {
        extra.push_str(&format!("par(m{i}, m{}). ", i + 1));
    }
    let handle = serve_tcp(service(&extra), "127.0.0.1:0").unwrap();
    let addr = handle.tcp_addr().unwrap();

    // The rude client pipelines several queries and hangs up without
    // reading a byte: the server's replies hit a closed peer.
    {
        let mut rude = TcpStream::connect(addr).unwrap();
        for _ in 0..4 {
            writeln!(rude, "QUERY anc(m0, X)").unwrap();
        }
        rude.flush().unwrap();
    } // dropped: FIN now, RST as soon as a reply reaches the dead socket

    // The teardown must be structured — a counted ClientGone/ReadError end,
    // not a panic — and must not take the listener down with it.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let gone = |s: &alexander_server::NetStats| {
        s.ended(SessionEnd::ClientGone) + s.ended(SessionEnd::ReadError) + s.ended(SessionEnd::Eof)
    };
    while gone(handle.stats()) == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(
        gone(handle.stats()) >= 1,
        "the abandoned session must end with a structured reason"
    );

    // Other sessions are untouched: a fresh client gets full service.
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_millis(200)))
        .unwrap();
    let mut conn = BufReader::new(stream);
    assert_eq!(exchange(&mut conn, "PING"), ["OK pong"]);
    let out = exchange(&mut conn, "QUERY anc(m0, m256)");
    assert_eq!(out.last().unwrap(), "OK 1 epoch 0 complete", "{out:?}");
    handle.shutdown();
}

fn store_paths(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    (
        dir.join(format!("alexander_srv_{tag}_{pid}.snap")),
        dir.join(format!("alexander_srv_{tag}_{pid}.wal")),
    )
}

#[test]
fn durable_service_recovers_committed_epochs_across_restarts() {
    let (sp, wp) = store_paths("recover");
    std::fs::remove_file(&sp).ok();
    std::fs::remove_file(&wp).ok();
    let program = parse(RULES).unwrap().program;
    let q = parse_atom("anc(a, X)").unwrap();

    {
        let mut edb = Database::new();
        edb.insert_atom(&parse_atom("par(a, b)").unwrap()).unwrap();
        let s = QueryService::open(
            program.clone(),
            edb,
            Some((&sp, &wp)),
            ServerConfig::default(),
        )
        .unwrap();
        s.insert(&parse_atom("par(b, c)").unwrap()).unwrap();
        s.commit().unwrap();
        s.insert(&parse_atom("par(c, d)").unwrap()).unwrap();
        s.delete(&parse_atom("par(a, b)").unwrap()).unwrap();
        s.commit().unwrap();
        assert_eq!(s.generation(), 2);
        assert_eq!(s.query("t", &q, None).unwrap().answers.len(), 0);
    } // dropped without checkpoint: state lives in snapshot + WAL

    // A fresh open recovers: generation restarts at 0 but the data is the
    // committed state (insert survived, delete stuck).
    let s = QueryService::open(
        program,
        Database::new(),
        Some((&sp, &wp)),
        ServerConfig::default(),
    )
    .unwrap();
    assert_eq!(s.generation(), 0);
    assert_eq!(s.query("t", &q, None).unwrap().answers.len(), 0);
    let all = parse_atom("anc(b, X)").unwrap();
    assert_eq!(
        s.query("t", &all, None).unwrap().answers,
        ["anc(b, c)", "anc(b, d)"]
    );
    std::fs::remove_file(&sp).ok();
    std::fs::remove_file(&wp).ok();
}

#[test]
fn half_present_durable_store_is_refused_not_wiped() {
    let (sp, wp) = store_paths("half");
    std::fs::remove_file(&sp).ok();
    std::fs::remove_file(&wp).ok();
    let program = parse(RULES).unwrap().program;

    {
        let mut edb = Database::new();
        edb.insert_atom(&parse_atom("par(a, b)").unwrap()).unwrap();
        let s = QueryService::open(
            program.clone(),
            edb,
            Some((&sp, &wp)),
            ServerConfig::default(),
        )
        .unwrap();
        s.insert(&parse_atom("par(b, c)").unwrap()).unwrap();
        s.commit().unwrap();
    }

    // Lose the WAL: opening must fail loudly, not recreate the store over
    // the surviving snapshot.
    std::fs::remove_file(&wp).unwrap();
    let before = std::fs::read(&sp).unwrap();
    let err = match QueryService::open(
        program.clone(),
        Database::new(),
        Some((&sp, &wp)),
        ServerConfig::default(),
    ) {
        Ok(_) => panic!("half-present pair (snapshot only) must be refused"),
        Err(e) => e,
    };
    assert!(
        matches!(err, alexander_server::ServerError::Rejected(_)),
        "{err}"
    );
    assert_eq!(
        std::fs::read(&sp).unwrap(),
        before,
        "the surviving snapshot must not be touched"
    );
    assert!(
        !wp.exists(),
        "no WAL may be created over a half-present pair"
    );

    // The mirror case: snapshot lost, WAL surviving.
    std::fs::remove_file(&sp).unwrap();
    std::fs::write(&wp, b"surviving wal").unwrap();
    let err = match QueryService::open(
        program,
        Database::new(),
        Some((&sp, &wp)),
        ServerConfig::default(),
    ) {
        Ok(_) => panic!("half-present pair (WAL only) must be refused"),
        Err(e) => e,
    };
    assert!(
        matches!(err, alexander_server::ServerError::Rejected(_)),
        "{err}"
    );
    assert_eq!(std::fs::read(&wp).unwrap(), b"surviving wal");
    std::fs::remove_file(&wp).ok();
}

#[test]
fn uncommitted_mutations_never_reach_any_epoch() {
    let s = service("par(a, b).");
    let q = parse_atom("anc(a, X)").unwrap();
    s.insert(&parse_atom("par(b, c)").unwrap()).unwrap();
    assert_eq!(s.pending(), 1);
    // Still epoch 0 — the buffered insert is invisible.
    let r = s.query("t", &q, None).unwrap();
    assert_eq!(r.generation, 0);
    assert_eq!(r.answers, ["anc(a, b)"]);
    s.commit().unwrap();
    assert_eq!(s.query("t", &q, None).unwrap().answers.len(), 2);
}
