//! The line protocol: one UTF-8 line per request, one line per response
//! (`METRICS` alone answers several, closed by `# EOF`).
//!
//! * `QUERY <keywords…>` → one JSON line with the ranked answers;
//! * `EXPLAIN <keywords…>` → one JSON line with the answers *and* the
//!   full per-level execution trace (`central::QueryTrace`), bypassing
//!   the result cache so the trace reflects a real search. Diagnostic —
//!   does not count toward `--max-requests`;
//! * `PING` → `PONG`;
//! * `STATS`, `METRICS` → the serving counters, as documented in
//!   [`super::stats`]. Diagnostic;
//! * `QUIT` → closes the connection;
//! * anything else — an unknown command, an empty line, a `QUERY` with no
//!   keywords, a line that is not UTF-8, or a line longer than
//!   [`MAX_LINE`] bytes — is answered with a one-line JSON error
//!   (`{"error": …}`) on the same connection; no request is ever
//!   silently dropped and no byte sequence crashes the server.
//!
//! Verbs match case-insensitively; keywords are passed on as sent.
//! [`parse_request`] is the only place that knows this grammar and
//! [`respond`] the only function that writes to a client socket (besides
//! the load shedder's one-line refusal).
//!
//! Request lines are read byte-wise with a hard [`MAX_LINE`] cap; an
//! over-long line is answered with an error and discarded up to its
//! newline, so the connection stays usable and memory stays bounded.

use std::fmt;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};

/// The reply to an unknown request; it names every verb
/// [`parse_request`] accepts, in the order the docs list them.
pub(super) const UNKNOWN_VERB: &str = "expected QUERY/EXPLAIN/PING/STATS/METRICS/QUIT";

/// Hard cap on one request line (bytes, newline excluded). Long enough
/// for any sane keyword query; short enough that a hostile client cannot
/// grow a worker's buffer without bound.
pub(crate) const MAX_LINE: usize = 64 * 1024;

/// How one attempt to read a request line ended.
pub(super) enum LineRead {
    /// A complete line (newline stripped), within the size cap.
    Line(Vec<u8>),
    /// The line exceeded [`MAX_LINE`]; its remainder was discarded up to
    /// the newline, so the connection is resynchronized.
    Oversized,
    /// Clean EOF, drain, or a connection error — stop serving this peer.
    Closed,
}

/// Read one `\n`-terminated request line, byte-wise and bounded.
///
/// Reads through the connection's [`super::DRAIN_POLL`] timeout (so a
/// worker notices a drain while its client idles) and enforces
/// [`MAX_LINE`] *during* accumulation — a client streaming an endless
/// line costs a bounded buffer, not memory proportional to what it
/// sends. Once a line blows the cap its bytes are dropped up to the
/// newline, so the next request starts clean.
pub(super) fn read_request_line(
    reader: &mut BufReader<TcpStream>,
    draining: &AtomicBool,
) -> LineRead {
    let mut buf: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        let available = match reader.fill_buf() {
            // EOF: a non-empty unterminated tail still gets answered.
            Ok([]) if oversized || buf.is_empty() => return LineRead::Closed,
            Ok([]) => return LineRead::Line(buf),
            Ok(bytes) => bytes,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if draining.load(Ordering::SeqCst) {
                    return LineRead::Closed;
                }
                continue;
            }
            Err(_) => return LineRead::Closed,
        };
        let newline = available.iter().position(|&b| b == b'\n');
        let taken = newline.unwrap_or(available.len());
        if !oversized {
            buf.extend_from_slice(&available[..taken]);
            if buf.len() > MAX_LINE {
                oversized = true;
                buf = Vec::new();
            }
        }
        reader.consume(taken + usize::from(newline.is_some()));
        if newline.is_some() {
            return if oversized {
                LineRead::Oversized
            } else {
                LineRead::Line(buf)
            };
        }
    }
}

/// One parsed request line.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum Request<'a> {
    /// `QUIT`.
    Quit,
    /// `PING`.
    Ping,
    /// `STATS`.
    Stats,
    /// `METRICS`.
    Metrics,
    /// `QUERY <keywords>`; the keywords may be empty (answered with an
    /// error, not ignored).
    Query(&'a str),
    /// `EXPLAIN <keywords>`; likewise.
    Explain(&'a str),
    /// Anything else, the empty line included.
    Unknown,
}

/// Split off the first whitespace-delimited token; both halves trimmed.
fn split_verb(text: &str) -> (&str, &str) {
    let text = text.trim();
    match text.split_once(char::is_whitespace) {
        Some((verb, rest)) => (verb, rest.trim()),
        None => (text, ""),
    }
}

/// Parse one request line. The first token names the verb, in any case;
/// `QUERYX xml` is an unknown command, not a `QUERY`, and the verbs that
/// take no argument do not match with one.
pub(super) fn parse_request(line: &str) -> Request<'_> {
    let (verb, rest) = split_verb(line);
    let is = |name: &str| verb.eq_ignore_ascii_case(name);
    if is("QUERY") {
        Request::Query(rest)
    } else if is("EXPLAIN") {
        Request::Explain(rest)
    } else if !rest.is_empty() {
        Request::Unknown
    } else if is("STATS") {
        Request::Stats
    } else if is("PING") {
        Request::Ping
    } else if is("METRICS") {
        Request::Metrics
    } else if is("QUIT") {
        Request::Quit
    } else {
        Request::Unknown
    }
}

/// An insertion-ordered JSON object under construction — the response
/// documents are built key by key, in wire order.
#[derive(Default)]
pub(super) struct Doc(Vec<(String, serde_json::Value)>);

impl Doc {
    /// Append `key: value`.
    pub(super) fn put(&mut self, key: &str, value: serde_json::Value) {
        self.0.push((key.to_owned(), value));
    }
}

impl From<Doc> for serde_json::Value {
    fn from(doc: Doc) -> Self {
        serde_json::Value::Object(doc.0)
    }
}

/// One response, newline included.
pub(super) enum Reply {
    /// A JSON document, serialized straight onto the socket.
    Doc(serde_json::Value),
    /// Pre-rendered text ending in its own newline — `PONG`, the fixed
    /// error lines, and the multi-line `METRICS` exposition — written in
    /// one piece.
    Text(String),
}

impl Reply {
    /// The one-line `{"error": …}` refusal of a malformed request.
    pub(super) fn error(message: &str) -> Reply {
        Reply::Text(format!("{}\n", serde_json::json!({ "error": message })))
    }
}

impl fmt::Display for Reply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reply::Doc(doc) => writeln!(f, "{doc}"),
            Reply::Text(text) => f.write_str(text),
        }
    }
}

/// Whether a connection should keep being served after one request.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum Served {
    /// The request was answered (or skipped); the connection lives on.
    Continue,
    /// QUIT, EOF, a write failure, a drain, or `--max-requests` reached —
    /// stop serving this peer.
    Close,
}

/// Write one reply to the client. A peer that cannot be written to is
/// gone: the connection closes.
pub(super) fn respond(writer: &mut TcpStream, reply: &Reply) -> Served {
    if write!(writer, "{reply}").is_err() {
        Served::Close
    } else {
        Served::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `verb` in upper, lower and mixed case.
    fn spellings(verb: &str) -> [String; 3] {
        let mixed: String = verb
            .chars()
            .enumerate()
            .map(|(i, c)| {
                if i % 2 == 0 {
                    c.to_ascii_lowercase()
                } else {
                    c
                }
            })
            .collect();
        [verb.to_string(), verb.to_ascii_lowercase(), mixed]
    }

    #[test]
    fn every_verb_parses_in_every_case_with_and_without_arguments() {
        // (verb, parse of the bare verb, parse of `<verb> xml Sql`).
        let table: [(&str, Request<'_>, Request<'_>); 8] = [
            ("QUIT", Request::Quit, Request::Unknown),
            ("PING", Request::Ping, Request::Unknown),
            ("TOP", Request::Unknown, Request::Unknown),
            ("METRICS", Request::Metrics, Request::Unknown),
            ("STATS", Request::Stats, Request::Unknown),
            ("QUERY", Request::Query(""), Request::Query("xml Sql")),
            ("EXPLAIN", Request::Explain(""), Request::Explain("xml Sql")),
            ("QUERYX", Request::Unknown, Request::Unknown),
        ];
        for (verb, bare, with_arg) in &table {
            for v in spellings(verb) {
                assert_eq!(parse_request(&v), *bare, "{v:?}");
                assert_eq!(parse_request(&format!("{v} ")), *bare, "{v:?} + trailing space");
                assert_eq!(parse_request(&format!("  {v}\t\r")), *bare, "{v:?} padded");
                // Keywords keep their case; only the verb is folded.
                assert_eq!(parse_request(&format!("{v} xml Sql")), *with_arg, "{v:?} + arg");
                assert_eq!(parse_request(&format!("{v}   xml Sql  ")), *with_arg, "{v:?} + arg");
            }
        }
        for empty in ["", "   ", "\t"] {
            assert_eq!(parse_request(empty), Request::Unknown, "{empty:?}");
        }
    }

    #[test]
    fn stats_window_grammar_is_strict_but_case_blind() {
        // `STATS` takes no argument: every spelling of the retired
        // `STATS WINDOW <seconds>` is an unknown request.
        for stats in spellings("STATS") {
            for window in spellings("WINDOW") {
                for tail in [" 5", "   30 ", "", " 0", " five", "S 5"] {
                    let line = format!("{stats} {window}{tail}");
                    assert_eq!(parse_request(&line), Request::Unknown, "{line:?}");
                }
            }
        }
    }

    #[test]
    fn replies_carry_their_own_newline() {
        let doc = Reply::Doc(serde_json::json!({ "served": 3u64 }));
        assert_eq!(doc.to_string(), "{\"served\":3}\n");
        assert_eq!(Reply::error("empty query").to_string(), "{\"error\":\"empty query\"}\n");
        assert_eq!(Reply::Text("PONG\n".into()).to_string(), "PONG\n");
    }
}
