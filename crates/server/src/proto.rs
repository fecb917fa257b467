//! The line-oriented wire protocol.
//!
//! Requests are single lines, verb first (case-insensitive), operands raw:
//!
//! ```text
//! HELLO <tenant>                     -> OK tenant <name> epoch <gen>
//! QUERY <atom> [STRATEGY <name>]    -> ANSWER <atom>… then
//!                                       OK <n> epoch <gen> <completion>
//! INSERT <fact>                      -> OK pending <n>
//! DELETE <fact>                      -> OK pending <n>
//! COMMIT                             -> OK epoch <gen> committed <n>
//! EPOCH                              -> OK epoch <gen>
//! HEALTH                             -> OK healthy epoch <gen>
//!                                     | OK degraded epoch <gen> <reason>
//! STATS                              -> STAT <section>.<key> <value>… then
//!                                       OK <n> epoch <gen>
//! PING                               -> OK pong
//! QUIT                               -> OK bye (connection closes)
//! ```
//!
//! Every response's final line starts with `OK` or `ERR` — that is the
//! whole framing contract. `ANSWER` lines only appear before a `QUERY`'s
//! terminal line, and `STAT` lines only before a `STATS` terminal line.
//! Error text is flattened to one line. A request line holds at most
//! [`MAX_REQUEST_LINE_BYTES`] bytes before its newline; a longer one is
//! answered with one `ERR request line exceeds <n> bytes` line and the
//! connection closes.

/// The longest request line the server reads, in bytes, newline excluded.
pub const MAX_REQUEST_LINE_BYTES: usize = 64 << 10;

/// One parsed client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Names the session's tenant for admission accounting.
    Hello { tenant: String },
    /// A query; atom text is parsed server-side so errors come back as
    /// `ERR` lines rather than dropped connections.
    Query {
        atom: String,
        strategy: Option<String>,
    },
    /// Buffer an insertion.
    Insert { fact: String },
    /// Buffer a deletion.
    Delete { fact: String },
    /// Commit the buffered batch, publishing a new epoch.
    Commit,
    /// Report the current generation.
    Epoch,
    /// Report the server state (healthy or degraded read-only).
    Health,
    /// Report operational counters: connection outcomes, admission and
    /// shedding, health transitions.
    Stats,
    /// Liveness check.
    Ping,
    /// Close the session.
    Quit,
}

/// Parses one request line. The verb is case-insensitive; operands keep
/// their exact text (atoms contain spaces and case matters inside them).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    if line.is_empty() {
        return Err("empty request".into());
    }
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    let need = |what: &str| -> Result<String, String> {
        if rest.is_empty() {
            Err(format!("{} needs {what}", verb.to_ascii_uppercase()))
        } else {
            Ok(rest.to_string())
        }
    };
    match verb.to_ascii_uppercase().as_str() {
        "HELLO" => Ok(Request::Hello {
            tenant: need("a tenant name")?,
        }),
        "QUERY" => {
            let text = need("an atom")?;
            let upper = text.to_ascii_uppercase();
            if upper == "STRATEGY" || upper.starts_with("STRATEGY ") {
                return Err("QUERY needs an atom before STRATEGY <name>".into());
            }
            if let Some(at) = strategy_keyword(&text) {
                let atom = text[..at].trim().to_string();
                let strategy = text[at + "STRATEGY".len()..].trim().to_string();
                if atom.is_empty() || strategy.is_empty() {
                    return Err("QUERY needs an atom before STRATEGY <name>".into());
                }
                Ok(Request::Query {
                    atom,
                    strategy: Some(strategy),
                })
            } else {
                Ok(Request::Query {
                    atom: text,
                    strategy: None,
                })
            }
        }
        "INSERT" => Ok(Request::Insert {
            fact: need("a ground fact")?,
        }),
        "DELETE" => Ok(Request::Delete {
            fact: need("a ground fact")?,
        }),
        "COMMIT" => Ok(Request::Commit),
        "EPOCH" => Ok(Request::Epoch),
        "HEALTH" => Ok(Request::Health),
        "STATS" => Ok(Request::Stats),
        "PING" => Ok(Request::Ping),
        "QUIT" => Ok(Request::Quit),
        other => Err(format!(
            "unknown verb `{other}`; one of: HELLO QUERY INSERT DELETE COMMIT EPOCH HEALTH STATS \
             PING QUIT"
        )),
    }
}

/// Byte offset of the last `STRATEGY` keyword (case-insensitive, mirroring
/// the verb) that stands as its own whitespace-delimited word *outside*
/// parentheses and quoted symbols. Atom argument text — including a quoted
/// constant like `'a strategy b'` — can therefore never be mis-split into a
/// truncated atom plus a bogus strategy name.
fn strategy_keyword(text: &str) -> Option<usize> {
    const KW: &[u8] = b"STRATEGY";
    let b = text.as_bytes();
    let mut depth = 0usize;
    let mut quoted = false;
    let mut at = None;
    for i in 0..b.len() {
        match b[i] {
            b'\'' => quoted = !quoted,
            b'(' if !quoted => depth += 1,
            b')' if !quoted => depth = depth.saturating_sub(1),
            _ => {}
        }
        if quoted
            || depth != 0
            || i == 0
            || !b[i - 1].is_ascii_whitespace()
            || i + KW.len() >= b.len()
        {
            continue;
        }
        if b[i..i + KW.len()].eq_ignore_ascii_case(KW) && b[i + KW.len()].is_ascii_whitespace() {
            at = Some(i);
        }
    }
    at
}

/// Flattens error text into the single-line `ERR` form.
pub fn err_line(msg: &str) -> String {
    let flat: String = msg
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect::<Vec<_>>()
        .join("; ");
    format!("ERR {flat}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbs_parse_case_insensitively_with_raw_operands() {
        assert_eq!(
            parse_request("hello acme").unwrap(),
            Request::Hello {
                tenant: "acme".into()
            }
        );
        assert_eq!(
            parse_request("QUERY anc(adam, X)").unwrap(),
            Request::Query {
                atom: "anc(adam, X)".into(),
                strategy: None
            }
        );
        assert_eq!(
            parse_request("query anc(adam, X) strategy oldt").unwrap(),
            Request::Query {
                atom: "anc(adam, X)".into(),
                strategy: Some("oldt".into())
            }
        );
        assert_eq!(
            parse_request("INSERT par(adam, seth)").unwrap(),
            Request::Insert {
                fact: "par(adam, seth)".into()
            }
        );
        assert_eq!(parse_request("  commit  ").unwrap(), Request::Commit);
        assert_eq!(parse_request("EPOCH").unwrap(), Request::Epoch);
        assert_eq!(parse_request("health").unwrap(), Request::Health);
        assert_eq!(parse_request("stats").unwrap(), Request::Stats);
        assert_eq!(parse_request("ping").unwrap(), Request::Ping);
        assert_eq!(parse_request("QUIT").unwrap(), Request::Quit);
    }

    #[test]
    fn strategy_clause_only_binds_outside_parens_and_quotes() {
        // A quoted symbol containing the word ` strategy ` stays part of
        // the atom text.
        assert_eq!(
            parse_request("QUERY p('a strategy b')").unwrap(),
            Request::Query {
                atom: "p('a strategy b')".into(),
                strategy: None
            }
        );
        // …even when a real clause follows it.
        assert_eq!(
            parse_request("QUERY p('a strategy b') STRATEGY oldt").unwrap(),
            Request::Query {
                atom: "p('a strategy b')".into(),
                strategy: Some("oldt".into())
            }
        );
        // The word inside parentheses (argument position) does not bind.
        assert_eq!(
            parse_request("QUERY p(X, strategy )").unwrap(),
            Request::Query {
                atom: "p(X, strategy )".into(),
                strategy: None
            }
        );
    }

    #[test]
    fn malformed_requests_are_structured_errors() {
        assert!(parse_request("").is_err());
        assert!(parse_request("   ").is_err());
        assert!(parse_request("HELLO").is_err());
        assert!(parse_request("QUERY").is_err());
        assert!(parse_request("INSERT").is_err());
        assert!(parse_request("EXPLODE now").is_err());
        assert!(parse_request("QUERY STRATEGY oldt").is_err());
    }

    #[test]
    fn err_lines_are_single_lines() {
        let e = err_line("invalid program:\n  rule 3 is unsafe\n");
        assert_eq!(e, "ERR invalid program:; rule 3 is unsafe");
        assert!(!e.contains('\n'));
    }
}
