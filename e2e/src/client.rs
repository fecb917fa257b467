//! A blocking client for the line protocol, as a caller outside the process
//! would write it: one request line out, lines in until `OK` or `ERR`.

use crate::model::Digest;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How often a shed (`ERR BUSY`) request is retried before it counts as
/// failed.
const SHED_RETRIES: u32 = 5;

/// One reply, reduced while it streams in: nothing is kept per answer line.
#[derive(Clone, Debug, Default)]
pub struct Reply {
    /// `OK` terminal; for a query also `complete`.
    pub ok: bool,
    /// The number after `epoch` in the terminal line.
    pub generation: u64,
    /// Digest of the `ANSWER` payloads.
    pub answers: Digest,
    /// Times the server shed this request before answering it.
    pub sheds: u32,
    pub terminal: String,
}

pub struct Client {
    conn: BufReader<TcpStream>,
    line: String,
}

impl Client {
    pub fn connect(addr: SocketAddr, tenant: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Requests are one short line; Nagle must not hold them back.
        stream.set_nodelay(true)?;
        let mut c = Client {
            conn: BufReader::new(stream),
            line: String::new(),
        };
        let hello = c.request(&format!("HELLO {tenant}"))?;
        if !hello.ok {
            return Err(io::Error::other(hello.terminal));
        }
        Ok(c)
    }

    /// Sends `line` and reads its whole reply, backing off and retrying while
    /// the server sheds it.
    pub fn request(&mut self, line: &str) -> io::Result<Reply> {
        let mut sheds = 0;
        loop {
            let mut reply = self.round_trip(line)?;
            let retry_ms = reply
                .terminal
                .strip_prefix("ERR BUSY retry-after-ms=")
                .and_then(|ms| ms.trim().parse::<u64>().ok());
            match retry_ms {
                Some(ms) if sheds < SHED_RETRIES => {
                    sheds += 1;
                    std::thread::sleep(Duration::from_millis(ms));
                }
                _ => {
                    reply.sheds = sheds;
                    return Ok(reply);
                }
            }
        }
    }

    fn round_trip(&mut self, line: &str) -> io::Result<Reply> {
        let sock = self.conn.get_mut();
        sock.write_all(line.as_bytes())?;
        sock.write_all(b"\n")?;
        sock.flush()?;
        let mut reply = Reply::default();
        loop {
            self.line.clear();
            if self.conn.read_line(&mut self.line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed mid-reply",
                ));
            }
            let l = self.line.trim_end();
            if let Some(answer) = l.strip_prefix("ANSWER ") {
                reply.answers.add(answer.as_bytes());
            } else if l.starts_with("OK") || l.starts_with("ERR") {
                parse_terminal(l, &mut reply);
                return Ok(reply);
            }
        }
    }
}

/// `OK <n> epoch <g> complete` (query), `OK epoch <g> committed <n>` (commit),
/// `OK pending <n>`, `OK tenant <t> epoch <g>`; anything else is a failure.
fn parse_terminal(l: &str, reply: &mut Reply) {
    reply.terminal = l.to_string();
    let mut words = l.split_whitespace();
    reply.ok = words.next() == Some("OK") && !l.contains(" partial");
    while let Some(w) = words.next() {
        if w == "epoch" {
            reply.generation = words.next().and_then(|g| g.parse().ok()).unwrap_or(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_parse() {
        let mut r = Reply::default();
        parse_terminal("OK 3 epoch 17 complete", &mut r);
        assert!(r.ok);
        assert_eq!(r.generation, 17);
        parse_terminal("OK epoch 18 committed 8", &mut r);
        assert!(r.ok);
        assert_eq!(r.generation, 18);
        parse_terminal("OK 3 epoch 17 partial: budget exhausted (facts)", &mut r);
        assert!(!r.ok, "a partial answer is a failed operation");
        parse_terminal("ERR BUSY retry-after-ms=25", &mut r);
        assert!(!r.ok);
    }
}
