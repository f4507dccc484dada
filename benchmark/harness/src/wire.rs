//! The load generator: line-protocol connections and the closed- and
//! open-loop drivers.
//!
//! One process, std threads only, one thread per connection. Every
//! request is a single `write` on a `TCP_NODELAY` socket, so the client
//! never adds a stall of its own; the response is read up to its
//! trailing newline. Responses are kept as bytes and verified after the
//! timed window, so JSON parsing never competes with the server for a
//! core while the clock runs.

use crate::gen::Request;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Per-request client timeout. A request that exceeds it is a failure
/// recorded at this latency, and its connection is replaced.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// One line-protocol connection.
pub struct Conn {
    stream: TcpStream,
    port: u16,
    buf: Vec<u8>,
    /// Dial anew before every request (see [`Conn::per_request`]).
    fresh: bool,
}

fn dial(port: u16) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(("127.0.0.1", port))
        .map_err(|e| format!("connect 127.0.0.1:{port}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(REQUEST_TIMEOUT)).map_err(|e| e.to_string())?;
    Ok(stream)
}

/// What one round trip observed.
pub struct RoundTrip {
    /// The response line without its newline; `None` on timeout or a
    /// connection error.
    pub line: Option<Vec<u8>>,
    /// When the request was written.
    pub sent: Instant,
    /// When the first response byte arrived.
    pub first_byte: Instant,
    /// When the trailing newline arrived (or the request was given up).
    pub done: Instant,
}

impl Conn {
    /// Connect to a local server.
    pub fn open(port: u16) -> Result<Conn, String> {
        Ok(Conn { stream: dial(port)?, port, buf: Vec::with_capacity(8192), fresh: false })
    }

    /// Replace the stream with a new connection (dropping the old one
    /// hangs up). `false` when the server cannot be reached.
    fn redial(&mut self) -> bool {
        match dial(self.port) {
            Ok(stream) => {
                self.stream = stream;
                true
            }
            Err(_) => false,
        }
    }

    /// Make this a connection *slot* that dials anew for every request
    /// and hangs up on the previous one: how independent users arrive —
    /// each on a connection of their own — while the slot still caps how
    /// many are open at once. (A persistent connection in a tight loop
    /// is the other client shape; the two differ in how the kernel
    /// acknowledges the server's small writes, see the README.)
    pub fn per_request(mut self) -> Conn {
        self.fresh = true;
        self
    }

    /// Send `verb + " " + text` (or just `verb` when `text` is empty)
    /// and read one response line.
    pub fn round_trip(&mut self, verb: &str, text: &str) -> RoundTrip {
        let mut request = Vec::with_capacity(verb.len() + text.len() + 2);
        request.extend_from_slice(verb.as_bytes());
        if !text.is_empty() {
            request.push(b' ');
            request.extend_from_slice(text.as_bytes());
        }
        request.push(b'\n');
        // The server's worker is free again by the time the new
        // connection is accepted.
        if self.fresh && !self.redial() {
            let now = Instant::now();
            return RoundTrip { line: None, sent: now, first_byte: now, done: now };
        }
        let sent = Instant::now();
        let mut first_byte = None;
        let line = match self.stream.write_all(&request) {
            Ok(()) => self.read_line(sent, &mut first_byte),
            Err(_) => None,
        };
        let done = Instant::now();
        if line.is_none() {
            // The stream is out of step (or dead): never reuse it.
            self.redial();
        }
        RoundTrip { line, sent, first_byte: first_byte.unwrap_or(done), done }
    }

    fn read_line(&mut self, sent: Instant, first_byte: &mut Option<Instant>) -> Option<Vec<u8>> {
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => {
                    first_byte.get_or_insert_with(Instant::now);
                    self.buf.extend_from_slice(&chunk[..n]);
                    if chunk[..n].contains(&b'\n') {
                        let end = self.buf.iter().position(|&b| b == b'\n')?;
                        return Some(self.buf[..end].to_vec());
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return None,
            }
            if sent.elapsed() >= REQUEST_TIMEOUT {
                return None;
            }
        }
    }

    /// A diagnostic round trip (`PING`, `STATS`) as text; `Err` when the
    /// server did not answer.
    pub fn ask(&mut self, verb: &str) -> Result<String, String> {
        let rt = self.round_trip(verb, "");
        rt.line
            .map(|l| String::from_utf8_lossy(&l).into_owned())
            .ok_or_else(|| format!("no answer to {verb}"))
    }

    /// Close politely: `QUIT` frees the server's worker at once instead
    /// of at its next read timeout.
    pub fn quit(mut self) {
        let _ = self.stream.write_all(b"QUIT\n");
    }
}

/// One timed request.
pub struct Sample {
    /// Position in the request list / schedule.
    pub index: usize,
    /// The request's distinct-query id.
    pub query_id: usize,
    /// ns from the window's start to when the request was due (open
    /// loop) or written (closed loop).
    pub start_ns: u64,
    /// ns from the window's start to the write.
    pub sent_ns: u64,
    /// ns from the window's start to the first response byte.
    pub first_byte_ns: u64,
    /// ns from the window's start to the trailing newline.
    pub end_ns: u64,
    /// The response line, `None` on timeout.
    pub line: Option<Vec<u8>>,
    /// The `EXPLAIN` response taken right after this request (traced
    /// runs, every n-th request).
    pub explain: Option<Vec<u8>>,
}

impl Sample {
    /// Client-observed latency in ms: due/write → trailing newline; a
    /// failed request counts at the timeout value.
    pub fn latency_ms(&self) -> f64 {
        if self.line.is_none() {
            return REQUEST_TIMEOUT.as_secs_f64() * 1e3;
        }
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// How a window is driven.
pub enum Drive<'a> {
    /// Each connection sends its next request as soon as the previous
    /// one completed. The list is replayed in *whole passes* until
    /// `seconds` have elapsed: the window ends at the first pass
    /// boundary at or after that, so every request of the list is timed
    /// equally often whatever the server's speed.
    Closed { seconds: f64 },
    /// Requests are sent at these due times (ns from the window start,
    /// ascending), whichever connection is free first; a request that
    /// finds both busy waits and is timed from when it was due.
    Open { due_ns: &'a [u64] },
}

/// A cumulative counter read while a window runs (the server family's
/// CPU time): once before the first request and again whenever another
/// `every` requests have completed, which cuts the window into segments
/// of equal work.
pub struct Meter<'a> {
    /// Requests per segment.
    pub every: usize,
    /// The reading; called from the load threads.
    pub read: &'a (dyn Fn() -> u64 + Sync),
}

/// What a window produced.
pub struct Window {
    /// All samples, ordered by `index`.
    pub samples: Vec<Sample>,
    /// First write → last newline.
    pub wall: Duration,
    /// `(requests completed, meter reading)`, ascending, starting with
    /// `(0, reading before the first request)`; empty without a meter.
    pub marks: Vec<(usize, u64)>,
}

/// Drive `conns` with `list`, starting `offset` requests into it (a
/// second window continues where the first stopped). With
/// `explain_every = Some(n)` every n-th request is followed by an
/// untimed `EXPLAIN` of the same text on the same connection. With a
/// `meter` the window also records its readings at segment boundaries.
/// The connections are handed back for reuse.
pub fn run_window(
    conns: Vec<Conn>,
    list: &[Request],
    drive: &Drive<'_>,
    explain_every: Option<usize>,
    offset: usize,
    meter: Option<&Meter<'_>>,
) -> (Window, Vec<Conn>) {
    assert!(!list.is_empty() && !conns.is_empty());
    // The next index to hand out; `None` once the window is over.
    let next = Mutex::new(Some(0usize));
    let first_mark = meter.map(|m| (0, (m.read)()));
    let origin = Instant::now();
    let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
    // An index is handed out only if it will be sent, so the samples
    // cover 0..n without gaps; a closed loop checks the clock only where
    // a pass begins, so n is a whole number of passes.
    let take_index = || {
        let mut next = next.lock().unwrap();
        let index = (*next)?;
        let over = match drive {
            Drive::Closed { seconds } => {
                index > 0
                    && index.is_multiple_of(list.len())
                    && origin.elapsed().as_secs_f64() >= *seconds
            }
            Drive::Open { due_ns } => index >= due_ns.len(),
        };
        *next = if over { None } else { Some(index + 1) };
        (!over).then_some(index)
    };
    let mut per_thread: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|mut conn| {
                let take_index = &take_index;
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut marks = Vec::new();
                    while let Some(index) = take_index() {
                        let due = match drive {
                            Drive::Closed { .. } => None,
                            Drive::Open { due_ns } => Some(due_ns[index]),
                        };
                        if let Some(d) = due {
                            let wait = Duration::from_nanos(d).saturating_sub(origin.elapsed());
                            if !wait.is_zero() {
                                std::thread::sleep(wait);
                            }
                        }
                        let req = &list[(offset + index) % list.len()];
                        let rt = conn.round_trip("QUERY", &req.text);
                        let explain = match explain_every {
                            Some(n) if index.is_multiple_of(n) && rt.line.is_some() => {
                                conn.round_trip("EXPLAIN", &req.text).line
                            }
                            _ => None,
                        };
                        samples.push(Sample {
                            index,
                            query_id: req.query_id,
                            start_ns: due.unwrap_or_else(|| ns(rt.sent)),
                            sent_ns: ns(rt.sent),
                            first_byte_ns: ns(rt.first_byte),
                            end_ns: ns(rt.done),
                            line: rt.line,
                            explain,
                        });
                        if let Some(m) = meter {
                            if (index + 1).is_multiple_of(m.every) {
                                marks.push((index + 1, (m.read)()));
                            }
                        }
                    }
                    (samples, marks, conn)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });
    let mut samples = Vec::new();
    let mut marks: Vec<(usize, u64)> = first_mark.into_iter().collect();
    let mut conns = Vec::new();
    for (s, m, c) in per_thread.drain(..) {
        samples.extend(s);
        marks.extend(m);
        conns.push(c);
    }
    samples.sort_by_key(|s| s.index);
    marks.sort_unstable();
    let first = samples.iter().map(|s| s.sent_ns).min().unwrap_or(0);
    let last = samples.iter().map(|s| s.end_ns).max().unwrap_or(0);
    (
        Window { samples, wall: Duration::from_nanos(last.saturating_sub(first)), marks },
        conns,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A line server that answers every line with `ok <line>` split
    /// across two writes, `count` connections, then exits.
    fn echo_server(count: usize) -> (u16, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let handle = std::thread::spawn(move || {
            let mut workers = Vec::new();
            for _ in 0..count {
                let (stream, _) = listener.accept().unwrap();
                workers.push(std::thread::spawn(move || {
                    let mut w = stream.try_clone().unwrap();
                    for line in BufReader::new(stream).lines() {
                        let Ok(line) = line else { break };
                        if line == "QUIT" {
                            break;
                        }
                        w.write_all(b"ok ").unwrap();
                        w.write_all(format!("{line}\n").as_bytes()).unwrap();
                    }
                }));
            }
            for w in workers {
                w.join().unwrap();
            }
        });
        (port, handle)
    }

    fn requests(n: usize) -> Vec<Request> {
        (0..n).map(|i| Request { query_id: i % 3, text: format!("q{i}") }).collect()
    }

    #[test]
    fn closed_loop_cycles_the_list_in_order_and_reassembles_split_lines() {
        let (port, server) = echo_server(2);
        let conns = vec![Conn::open(port).unwrap(), Conn::open(port).unwrap()];
        let list = requests(5);
        let reads = std::sync::atomic::AtomicU64::new(0);
        let read = || reads.fetch_add(1, std::sync::atomic::Ordering::Relaxed) * 7;
        let meter = Meter { every: 5, read: &read };
        let (window, conns) =
            run_window(conns, &list, &Drive::Closed { seconds: 0.2 }, None, 0, Some(&meter));
        assert!(window.samples.len() > 5, "the list wraps around");
        assert_eq!(window.samples.len() % 5, 0, "the window ends on a pass boundary");
        // one reading before the first request, one after every pass
        let passes = window.samples.len() / 5;
        let counts: Vec<usize> = window.marks.iter().map(|m| m.0).collect();
        assert_eq!(counts, (0..=passes).map(|k| k * 5).collect::<Vec<_>>());
        assert_eq!(window.marks[0], (0, 0), "the first reading precedes every request");
        for (i, s) in window.samples.iter().enumerate() {
            assert_eq!(s.index, i, "every index exactly once");
            assert_eq!(s.query_id, (i % 5) % 3);
            let line = String::from_utf8(s.line.clone().unwrap()).unwrap();
            assert_eq!(line, format!("ok QUERY q{}", i % 5));
            assert!(s.start_ns <= s.first_byte_ns && s.first_byte_ns <= s.end_ns);
        }
        assert!(window.wall >= Duration::from_millis(150));
        conns.into_iter().for_each(Conn::quit);
        server.join().unwrap();
    }

    #[test]
    fn open_loop_times_from_the_due_instant_and_explains_every_nth() {
        let (port, server) = echo_server(1);
        let conns = vec![Conn::open(port).unwrap()];
        let list = requests(4);
        let due: Vec<u64> = (0..8).map(|i| i * 5_000_000).collect();
        let (window, conns) =
            run_window(conns, &list, &Drive::Open { due_ns: &due }, Some(4), 4, None);
        assert_eq!(window.samples.len(), 8, "exactly the schedule");
        for (s, &d) in window.samples.iter().zip(&due) {
            assert_eq!(s.start_ns, d, "timed from when it was due");
            assert!(s.sent_ns >= d, "never sent early");
            let explained = s.explain.as_ref().map(|l| String::from_utf8_lossy(l).into_owned());
            if s.index % 4 == 0 {
                assert_eq!(explained.unwrap(), format!("ok EXPLAIN q{}", s.index % 4));
            } else {
                assert!(explained.is_none());
            }
        }
        conns.into_iter().for_each(Conn::quit);
        server.join().unwrap();
    }

    #[test]
    fn a_per_request_slot_dials_anew_for_every_request() {
        // three requests, three accepted connections
        let (port, server) = echo_server(3);
        let mut slot = Conn::open(port).unwrap().per_request();
        for i in 0..2 {
            let rt = slot.round_trip("QUERY", &format!("q{i}"));
            assert_eq!(rt.line.unwrap(), format!("ok QUERY q{i}").into_bytes());
        }
        drop(slot);
        server.join().unwrap();
    }

    #[test]
    fn a_dead_peer_is_a_failed_sample_at_the_timeout_value() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let mut conn = Conn::open(port).unwrap();
        let (peer, _) = listener.accept().unwrap();
        drop(peer);
        drop(listener);
        let rt = conn.round_trip("QUERY", "x");
        assert!(rt.line.is_none());
        let s = Sample {
            index: 0,
            query_id: 0,
            start_ns: 0,
            sent_ns: 0,
            first_byte_ns: 5,
            end_ns: 5,
            line: None,
            explain: None,
        };
        assert_eq!(s.latency_ms(), 30_000.0);
    }
}
