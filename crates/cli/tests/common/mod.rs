//! The serving harness every CLI suite shares: the four-node fixture, one
//! launcher (in process or as the built binary), one client, and the one
//! normaliser that makes two servers' responses comparable byte for byte.
//!
//! Every live server starts on `--port 0` and the launcher reads the port
//! it bound from the banner `serve` prints, so no test probes a free port
//! and races another process to rebind it.

// Each suite is its own crate and uses its own subset.
#![allow(dead_code)]

use kgraph::KnowledgeGraph;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::OnceLock;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a server may take to print its banner, or to drain.
const PATIENCE: Duration = Duration::from_secs(30);

/// The fixture the wire-schema golden was captured on, written as TSV
/// under the temp dir and removed on drop. It displays as its path.
pub struct GraphFile {
    pub path: String,
    pub graph: KnowledgeGraph,
}

/// Nodes `x` "xml", `q` "query language", `s` "sql" and `r` "rdf", with a
/// `rel` edge from each of the other three into `q`. The file is keyed by
/// pid and `tag`.
pub fn graph_file(tag: &str) -> GraphFile {
    let mut b = kgraph::GraphBuilder::new();
    let x = b.add_node("x", "xml");
    let q = b.add_node("q", "query language");
    let s = b.add_node("s", "sql");
    let r = b.add_node("r", "rdf");
    for from in [x, s, r] {
        b.add_edge(from, q, "rel");
    }
    let graph = b.build();
    let path = std::env::temp_dir()
        .join(format!("ws-cli-{}-{tag}.tsv", std::process::id()))
        .to_string_lossy()
        .into_owned();
    std::fs::write(&path, kgraph::io::to_tsv(&graph)).unwrap();
    GraphFile { path, graph }
}

impl std::fmt::Display for GraphFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.path)
    }
}

impl Drop for GraphFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

fn argv(line: &str) -> Vec<String> {
    line.split_whitespace().map(String::from).collect()
}

/// Run `wikisearch <line>` to completion in process: its exit code and
/// output.
pub fn run_cli(line: &str) -> (i32, String) {
    let mut out = Vec::new();
    let code = wikisearch_cli::run(&argv(line), &mut out);
    (code, String::from_utf8(out).unwrap())
}

/// A live server. Dropping it kills a subprocess; an in-process server's
/// thread is left running and dies with the test process.
pub struct Server {
    pub port: u16,
    banner: String,
    /// Every line the server prints after its banner.
    lines: Receiver<String>,
    exit: Exit,
}

enum Exit {
    Thread(JoinHandle<i32>),
    Process(Process),
}

struct Process(Child);

impl Drop for Process {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The output of an in-process `wikisearch_cli::run`, forwarded line by
/// line over a channel.
struct Lines(Sender<String>, Vec<u8>);

impl Write for Lines {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.1.extend_from_slice(buf);
        while let Some(end) = self.1.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.1.drain(..=end).collect();
            let _ = self.0.send(String::from_utf8(line).unwrap());
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Server {
    /// Run `wikisearch <args> --port 0` on a thread of this process.
    pub fn in_process(args: &str) -> Server {
        let argv = argv(&format!("{args} --port 0"));
        let (tx, rx) = channel();
        let thread =
            std::thread::spawn(move || wikisearch_cli::run(&argv, &mut Lines(tx, Vec::new())));
        Server::started(rx, Exit::Thread(thread))
    }

    /// Run the built `wikisearch <args> --port 0` binary, stdout piped
    /// and forwarded line by line by a reader thread.
    pub fn subprocess(args: &str) -> Server {
        let mut process = Process(
            Command::new(env!("CARGO_BIN_EXE_wikisearch"))
                .args(argv(&format!("{args} --port 0")))
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawning the wikisearch subprocess"),
        );
        let stdout = BufReader::new(process.0.stdout.take().unwrap());
        let (tx, rx) = channel();
        std::thread::spawn(move || {
            for line in stdout.lines() {
                let Ok(line) = line else { break };
                if tx.send(line + "\n").is_err() {
                    break;
                }
            }
        });
        Server::started(rx, Exit::Process(process))
    }

    /// Wait up to [`PATIENCE`] for the banner and read the port from it.
    fn started(lines: Receiver<String>, exit: Exit) -> Server {
        let banner = lines.recv_timeout(PATIENCE).unwrap_or_default();
        Server { port: banner_port(&banner), banner, lines, exit }
    }

    /// Wait for the server to drain (`--max-requests`); its exit code and
    /// its log, banner included.
    pub fn drain(self) -> (i32, String) {
        let deadline = Instant::now() + PATIENCE;
        let mut log = self.banner;
        loop {
            match self.lines.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(line) => log.push_str(&line),
                Err(RecvTimeoutError::Timeout) => {
                    panic!("server did not drain after --max-requests: {log}")
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        let code = match self.exit {
            Exit::Thread(thread) => thread.join().unwrap(),
            Exit::Process(mut process) => process.0.wait().unwrap().code().unwrap_or(-1),
        };
        (code, log)
    }
}

/// The port of `wikisearch serving on 127.0.0.1:<port> (…)`; any other
/// first line (an `error:`, or none) fails the test with it.
fn banner_port(banner: &str) -> u16 {
    banner
        .strip_prefix("wikisearch serving on 127.0.0.1:")
        .and_then(|rest| rest.split(' ').next()?.parse().ok())
        .unwrap_or_else(|| panic!("the server did not start: {banner:?}"))
}

/// The port of one in-process `serve --backend seq --workers 2` over the
/// fixture, started by the first caller and shared by every test of the
/// suite (each opens its own connection).
pub fn shared_server() -> u16 {
    static PORT: OnceLock<u16> = OnceLock::new();
    *PORT.get_or_init(|| {
        let kb = graph_file("shared");
        Server::in_process(&format!("serve --graph {kb} --backend seq --workers 2")).port
    })
}

/// One connection to a live server.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

/// Connect to `port`, retrying while it comes up; every read on the
/// connection times out after 30 s.
pub fn connect(port: u16) -> Client {
    for _ in 0..150 {
        if let Ok(stream) = TcpStream::connect(("127.0.0.1", port)) {
            stream.set_read_timeout(Some(PATIENCE)).unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            return Client { stream, reader };
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("server not reachable on port {port}");
}

impl Client {
    /// Write `line` and a newline.
    pub fn send(&mut self, line: impl AsRef<[u8]>) {
        let mut bytes = line.as_ref().to_vec();
        bytes.push(b'\n');
        self.stream.write_all(&bytes).unwrap();
    }

    /// The next raw line, newline included; empty at EOF.
    pub fn line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        line
    }

    /// Send `request` and return its one full response line, newline
    /// stripped.
    pub fn request(&mut self, request: impl AsRef<[u8]>) -> String {
        self.send(&request);
        let line = self.line();
        let request = String::from_utf8_lossy(request.as_ref());
        assert!(line.ends_with('\n'), "truncated response to {request:?}: {line:?}");
        line.trim_end().to_string()
    }

    /// [`Client::request`], parsed as one JSON document.
    pub fn json(&mut self, request: &str) -> serde_json::Value {
        let response = self.request(request);
        serde_json::from_str(&response).unwrap_or_else(|e| panic!("bad JSON {response:?}: {e}"))
    }

    /// The `METRICS` exposition, one entry per line, up to `# EOF`.
    pub fn metrics(&mut self) -> Vec<String> {
        self.send("METRICS");
        let mut lines = Vec::new();
        loop {
            let line = self.line();
            assert!(!line.is_empty(), "METRICS ended before # EOF: {lines:?}");
            match line.trim_end() {
                "# EOF" => return lines,
                line => lines.push(line.to_string()),
            }
        }
    }
}

/// A query response with its volatile fields removed — wall time and
/// the per-query fleet-wide id — so two runs of the same query can be
/// compared byte for byte. Inside an EXPLAIN trace it also strips what
/// names the execution shape by design: the engine label, the session
/// identity (solo only), the stitched shard timelines (remote only) and
/// the phase timings. Everything else, per-level counts and total
/// expansions included, must match exactly.
pub fn normalized(response: &str) -> String {
    let mut doc: serde_json::Value =
        serde_json::from_str(response).unwrap_or_else(|e| panic!("bad JSON {response:?}: {e}"));
    let serde_json::Value::Object(entries) = &mut doc else {
        panic!("non-object response {response:?}");
    };
    entries.retain(|(key, _)| key != "ms" && key != "qid");
    if let Some((_, serde_json::Value::Object(trace))) =
        entries.iter_mut().find(|(key, _)| key == "trace")
    {
        trace.retain(|(key, _)| {
            !matches!(
                key.as_str(),
                "engine"
                    | "session_id"
                    | "session_queries"
                    | "shard_timelines"
                    | "phase_ms"
                    | "qid"
            )
        });
    }
    serde_json::to_string(&doc).unwrap()
}

/// A port nothing listens on: bound once, then released.
pub fn free_port() -> u16 {
    dead_addr().port()
}

/// An address that is guaranteed dead: bound once, then released.
pub fn dead_addr() -> SocketAddr {
    TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap()
}
