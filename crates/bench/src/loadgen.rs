//! Load-driver client for the serving layer: a minimal line-protocol TCP
//! client that honours the shed contract, and a single-threaded consistency
//! oracle. The chaos soak (`chaos.rs`, `--bin chaos`) drives the server
//! through these.
//!
//! The workload is the append-only chain: the EDB starts as
//! `par(n0,n1) … par(n{base-1},n{base})` and generation `g` appends the edge
//! `par(n{base+g-1}, n{base+g})`. That makes the expected answer set of
//! `anc(n0, X)` at every generation a pure function of `g`, so any client
//! can verify any epoch-tagged response against an independent
//! single-threaded engine — the "bit-identical vs oracle" check.

use alexander_core::{Engine, Strategy};
use alexander_parser::{parse, parse_atom};
use alexander_storage::Database;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

/// The serving workload's program: transitive closure over `par`.
pub const RULES: &str = "anc(X, Y) :- par(X, Y). anc(X, Y) :- par(X, Z), anc(Z, Y).";

/// The query every load client issues.
pub const QUERY: &str = "anc(n0, X)";

/// Chain EDB `par(n0,n1) … par(n{len-1},n{len})`.
pub fn chain_db(len: usize) -> Database {
    let mut db = Database::new();
    for i in 0..len {
        db.insert_atom(&parse_atom(&format!("par(n{i}, n{})", i + 1)).expect("ground"))
            .expect("insertable");
    }
    db
}

/// The fact generation `g` (1-based) appends to a `base`-length chain.
pub fn update_fact(base: usize, g: u64) -> String {
    let head = base as u64 + g;
    format!("par(n{}, n{head})", head - 1)
}

/// Expected answers per generation, computed by a fresh single-threaded
/// engine over the exact EDB of that generation and cached.
pub struct Oracle {
    base: usize,
    cache: Mutex<HashMap<u64, Vec<String>>>,
}

impl Oracle {
    /// An oracle for a chain of initial length `base`.
    pub fn new(base: usize) -> Oracle {
        Oracle {
            base,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// The exact (sorted, deduplicated) answer strings of [`QUERY`] at
    /// `generation`.
    pub fn answers(&self, generation: u64) -> Vec<String> {
        if let Some(hit) = self.cache.lock().expect("oracle lock").get(&generation) {
            return hit.clone();
        }
        let program = parse(RULES).expect("rules parse").program;
        let engine =
            Engine::new(program, chain_db(self.base + generation as usize)).expect("oracle engine");
        let r = engine
            .query(
                &parse_atom(QUERY).expect("query parses"),
                Strategy::Alexander,
            )
            .expect("oracle query");
        assert!(
            r.report.completion.is_complete(),
            "oracle must run unbudgeted"
        );
        let answers: Vec<String> = r.answers.iter().map(|a| a.to_string()).collect();
        self.cache
            .lock()
            .expect("oracle lock")
            .insert(generation, answers.clone());
        answers
    }
}

/// One epoch-tagged query reply.
#[derive(Clone, Debug)]
pub struct QueryReply {
    /// Whether the terminal line was `OK` (vs `ERR`).
    pub ok: bool,
    /// The epoch the server pinned for the query.
    pub generation: u64,
    /// `ANSWER` payloads, in server order (sorted).
    pub answers: Vec<String>,
    /// The raw terminal line, for diagnostics.
    pub terminal: String,
}

impl QueryReply {
    /// The server's `retry-after-ms` hint, when the reply was a shed
    /// (`ERR BUSY retry-after-ms=<n>`). `None` for every other terminal.
    pub fn retry_after_ms(&self) -> Option<u64> {
        busy_retry_after(&self.terminal)
    }
}

/// Parses the shed terminal `ERR BUSY retry-after-ms=<n>`; this is the wire
/// contract every well-behaved client backs off on.
pub fn busy_retry_after(terminal: &str) -> Option<u64> {
    terminal
        .strip_prefix("ERR BUSY retry-after-ms=")?
        .trim()
        .parse()
        .ok()
}

/// A seed for [`jitter`] without a `rand` dependency: the std hasher's
/// per-process randomness, forced odd so xorshift never sees zero.
pub fn rng_seed() -> u64 {
    RandomState::new().build_hasher().finish() | 1
}

/// Cheap xorshift64 step over a [`rng_seed`] state; returns a value in
/// `[0, bound)` (`bound` 0 yields 0).
pub fn jitter(state: &mut u64, bound: u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    if bound == 0 {
        0
    } else {
        x % bound
    }
}

/// A blocking line-protocol client over TCP.
pub struct Client {
    conn: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Requests are tiny; never let Nagle hold one back.
        stream.set_nodelay(true)?;
        Ok(Client {
            conn: BufReader::new(stream),
        })
    }

    /// Sends one request line, collecting lines up to the `OK`/`ERR`
    /// terminal (inclusive).
    pub fn request(&mut self, line: &str) -> io::Result<Vec<String>> {
        writeln!(self.conn.get_mut(), "{line}")?;
        self.conn.get_mut().flush()?;
        let mut out = Vec::new();
        loop {
            let mut l = String::new();
            match self.conn.read_line(&mut l)? {
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed mid-response",
                    ))
                }
                _ => {
                    let l = l.trim_end().to_string();
                    let terminal = l.starts_with("OK") || l.starts_with("ERR");
                    out.push(l);
                    if terminal {
                        return Ok(out);
                    }
                }
            }
        }
    }

    /// Issues `QUERY <atom>` and parses the epoch-tagged reply.
    pub fn query(&mut self, atom: &str) -> io::Result<QueryReply> {
        let mut lines = self.request(&format!("QUERY {atom}"))?;
        let terminal = lines.pop().unwrap_or_default();
        if !terminal.starts_with("OK") {
            return Ok(QueryReply {
                ok: false,
                generation: 0,
                answers: Vec::new(),
                terminal,
            });
        }
        // "OK <n> epoch <g> complete|partial: …"
        let generation = terminal
            .split_whitespace()
            .nth(3)
            .and_then(|g| g.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed query terminal: {terminal}"),
                )
            })?;
        let answers = lines
            .into_iter()
            .map(|l| l.strip_prefix("ANSWER ").map(str::to_string).ok_or(l))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|l| {
                io::Error::new(io::ErrorKind::InvalidData, format!("unexpected line: {l}"))
            })?;
        Ok(QueryReply {
            ok: true,
            generation,
            answers,
            terminal,
        })
    }

    /// Issues `QUERY <atom>`, honouring the shed contract: an
    /// `ERR BUSY retry-after-ms=<n>` reply is retried after sleeping the
    /// hinted interval plus up to 50% jitter, at most `max_retries` times.
    /// Returns the final reply (which can still be a shed, left to the
    /// caller) and how many sheds were absorbed.
    pub fn query_retrying(
        &mut self,
        atom: &str,
        rng: &mut u64,
        max_retries: usize,
    ) -> io::Result<(QueryReply, usize)> {
        let mut sheds = 0usize;
        loop {
            let reply = self.query(atom)?;
            let Some(hint) = reply.retry_after_ms() else {
                return Ok((reply, sheds));
            };
            if sheds >= max_retries {
                return Ok((reply, sheds));
            }
            sheds += 1;
            // Jitter decorrelates a herd of shed clients so they do not all
            // return on the same tick and get shed again together.
            let wait = hint + jitter(rng, hint / 2 + 1);
            std::thread::sleep(Duration::from_millis(wait));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_answers_grow_with_the_chain() {
        let oracle = Oracle::new(3);
        assert_eq!(oracle.answers(0).len(), 3);
        assert_eq!(oracle.answers(2).len(), 5);
        // Cached result is identical.
        assert_eq!(oracle.answers(0), oracle.answers(0));
        assert_eq!(oracle.answers(0)[0], "anc(n0, n1)");
    }

    #[test]
    fn update_facts_extend_the_chain_contiguously() {
        assert_eq!(update_fact(3, 1), "par(n3, n4)");
        assert_eq!(update_fact(3, 2), "par(n4, n5)");
    }

    #[test]
    fn the_busy_terminal_yields_its_retry_hint() {
        assert_eq!(busy_retry_after("ERR BUSY retry-after-ms=25"), Some(25));
        assert_eq!(busy_retry_after("ERR BUSY retry-after-ms=0"), Some(0));
        assert_eq!(busy_retry_after("ERR BUSY"), None);
        assert_eq!(busy_retry_after("OK 3 epoch 1 complete"), None);
        assert_eq!(busy_retry_after("ERR DEGRADED writer poisoned"), None);
        let shed = QueryReply {
            ok: false,
            generation: 0,
            answers: Vec::new(),
            terminal: "ERR BUSY retry-after-ms=7".to_string(),
        };
        assert_eq!(shed.retry_after_ms(), Some(7));
    }

    #[test]
    fn jitter_stays_in_bounds_and_advances_state() {
        let mut s = rng_seed();
        assert_ne!(s, 0);
        for bound in [1u64, 2, 7, 1000] {
            for _ in 0..100 {
                assert!(jitter(&mut s, bound) < bound);
            }
        }
        assert_eq!(jitter(&mut s, 0), 0);
        let before = s;
        jitter(&mut s, 10);
        assert_ne!(s, before, "state must advance");
    }
}
