//! The shard-worker side of the remote protocol.
//!
//! A [`ShardWorker`] owns exactly one [`ShardPart`] of the deterministic
//! partition — built locally via [`ShardPlan::build_part`] from the
//! `(shards, seed)` contract, never shipped over the wire — and serves
//! coordinator connections over TCP, one thread and one
//! [`SearchState`] per connection. Each connection executes at most one
//! query at a time as a sequence of phase RPCs (see [`super::wire`]);
//! each handler runs the `crate::shard::ShardLane` method the in-process
//! coordinator's fork-join runs for that phase — one implementation, which
//! is what the remote-equivalence differential suite leans on.
//!
//! The worker never enforces query budgets itself: it runs an unlimited
//! counting tracker and reports per-level expansion charges back to the
//! coordinator, which owns the query's real [`crate::QueryBudget`] and
//! polls deadlines/caps at exactly the sequence points the in-process
//! driver does. A stalled or runaway worker is therefore bounded by the
//! coordinator's per-RPC timeouts, not by its own cooperation.
//!
//! Any protocol violation — undecodable payload, out-of-sequence opcode,
//! oversized frame — earns one structured [`wire::WireError`] reply
//! (when the stream is still writable) and the connection closes; the
//! framing has no resync point. A worker connection failing can never
//! corrupt another: every connection's state is private.

use super::frame::{read_frame, write_frame};
use super::wire::{self, Hello};
use crate::activation::{ActivationConfig, ActivationMap, ActivationTable};
use crate::bottom_up::BottomUpScratch;
use crate::model::INFINITE_LEVEL;
use crate::shard::{ShardBackend, ShardLane, ShardPart, ShardPlan};
use crate::state::SearchState;
use crate::trace::ShardSpan;
use crate::QueryBudget;
use kgraph::KnowledgeGraph;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// One shard's worker: the materialized part plus the partition contract
/// it validates handshakes against.
pub struct ShardWorker {
    part: ShardPart,
    shards: u32,
    index: u32,
    seed: u64,
    num_nodes: u64,
}

impl ShardWorker {
    /// Build the worker for shard `index` of an `N = shards` partition of
    /// `graph` under `seed`. Materializes only this shard's part.
    ///
    /// # Panics
    /// Panics when `index >= shards` (same contract as
    /// [`ShardPlan::build_part`]).
    pub fn new(graph: &KnowledgeGraph, shards: usize, index: usize, seed: u64) -> ShardWorker {
        ShardWorker {
            part: ShardPlan::build_part(graph, shards, seed, index),
            shards: shards as u32,
            index: index as u32,
            seed,
            num_nodes: graph.num_nodes() as u64,
        }
    }

    /// Owned-node count of this worker's part.
    pub fn num_owned(&self) -> u32 {
        self.part.num_owned
    }

    /// Serve coordinator connections on `listener` until the listener
    /// fails (for a process worker: until the process exits). One thread
    /// per connection; connection failures are contained to their thread.
    pub fn serve(self: &Arc<Self>, listener: TcpListener) {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { return };
            let worker = Arc::clone(self);
            std::thread::Builder::new()
                .name(format!("shard-worker-{}-conn", self.index))
                .spawn(move || worker.handle_connection(stream))
                .expect("spawning a worker connection thread");
        }
    }

    /// Bind an ephemeral localhost listener, serve it on a detached
    /// thread, and return the bound address. The in-process test harness
    /// for the remote path.
    pub fn spawn_local(
        graph: &KnowledgeGraph,
        shards: usize,
        index: usize,
        seed: u64,
    ) -> SocketAddr {
        let worker = Arc::new(ShardWorker::new(graph, shards, index, seed));
        let listener = TcpListener::bind("127.0.0.1:0").expect("binding a worker listener");
        let addr = listener.local_addr().expect("listener has a local addr");
        std::thread::Builder::new()
            .name(format!("shard-worker-{index}"))
            .spawn(move || worker.serve(listener))
            .expect("spawning a worker accept thread");
        addr
    }

    /// Drive one coordinator connection to completion. Public so process
    /// workers and in-process test workers share one code path.
    pub fn handle_connection(&self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let mut conn = Conn::new(self);
        let mut stream = stream;
        loop {
            let (opcode, payload) = match read_frame(&mut stream) {
                Ok(Some(frame)) => frame,
                Ok(None) => return, // clean coordinator disconnect
                Err(e) => {
                    if e.kind() == io::ErrorKind::InvalidData {
                        send_error(&mut stream, "bad_frame", &e.to_string());
                    }
                    return;
                }
            };
            // The frame is fully read at this point: span wait time is
            // worker-side dispatch latency, never coordinator think time.
            let ready = Instant::now();
            match conn.handle(&mut stream, opcode, &payload, ready) {
                Ok(Flow::Continue) => {}
                Ok(Flow::Close) => return,
                Err(e) => {
                    send_error(&mut stream, e.code, &e.message);
                    return;
                }
            }
        }
    }
}

/// Best-effort structured error reply; the connection closes either way.
fn send_error(stream: &mut TcpStream, code: &str, message: &str) {
    let err = wire::WireError { code: code.to_string(), message: message.to_string() };
    let _ = write_frame(stream, wire::OP_ERROR, &wire::encode(&err));
}

/// Whether the connection keeps serving after a frame.
enum Flow {
    Continue,
    // Only the fault-injection arms close a healthy connection mid-stream.
    #[cfg_attr(not(feature = "fault-inject"), allow(dead_code))]
    Close,
}

/// A protocol failure that earns one error frame before closing.
struct ConnError {
    code: &'static str,
    message: String,
}

impl ConnError {
    fn new(code: &'static str, message: impl Into<String>) -> ConnError {
        ConnError { code, message: message.into() }
    }

    /// A phase RPC arrived with no query in flight.
    fn before_start() -> ConnError {
        ConnError::new("bad_sequence", "phase RPC before START")
    }
}

/// Per-connection state: the search state and per-level buffers plus the
/// per-query execution knobs remembered from the last `Start`.
struct Conn<'w> {
    worker: &'w ShardWorker,
    greeted: bool,
    state: SearchState,
    scratch: BottomUpScratch,
    /// The part's activation levels under the last query's `α` and `A`.
    activation: ActivationTable,
    query: Option<QueryCtx>,
    /// The in-flight query's kernel pool (`CPU-Par` only), rebuilt when a
    /// query asks for a different thread count.
    pool: Option<(usize, rayon::ThreadPool)>,
}

/// Execution knobs of the in-flight query on a connection.
struct QueryCtx {
    /// Explicit activation table remapped onto this shard's locals
    /// (else the connection's [`ActivationTable`] applies).
    local_act: Option<Vec<u8>>,
    tracker: crate::budget::BudgetTracker,
    charged_mark: u64,
    /// Fleet-wide query ID from `Start`, echoed on collect.
    qid: Option<u64>,
    /// Per-RPC span accumulator, armed when the coordinator asked for
    /// spans. Shipped (taken) with the collect reply.
    spans: Option<Vec<ShardSpan>>,
}

/// Microseconds between two monotonic instants, saturating at zero.
fn micros(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_micros() as u64
}

/// The worker-side instants of one RPC, from which its [`ShardSpan`] is
/// cut: frame fully read (`ready`), payload decode started and finished.
/// A payload-less RPC has `decode_from == decode_done`.
struct RpcClock {
    ready: Instant,
    decode_from: Instant,
    decode_done: Instant,
}

impl RpcClock {
    /// Decode `payload` into its typed request, timing the decode.
    fn decode<T: serde::Deserialize>(
        payload: &[u8],
        ready: Instant,
    ) -> Result<(T, RpcClock), ConnError> {
        let decode_from = Instant::now();
        let req = wire::decode(payload).map_err(|e| ConnError::new("bad_frame", e))?;
        Ok((req, RpcClock { ready, decode_from, decode_done: Instant::now() }))
    }

    /// The span of this RPC, whose phase finished executing at
    /// `exec_done` and whose reply was on the wire at `sent`.
    fn span(&self, op: &str, level: Option<u8>, exec_done: Instant, sent: Instant) -> ShardSpan {
        ShardSpan {
            op: op.to_string(),
            level: level.map(u32::from),
            wait_us: micros(self.ready, self.decode_from),
            decode_us: micros(self.decode_from, self.decode_done),
            exec_us: micros(self.decode_done, exec_done),
            encode_us: micros(exec_done, sent),
        }
    }
}

impl<'w> Conn<'w> {
    fn new(worker: &'w ShardWorker) -> Conn<'w> {
        Conn {
            worker,
            greeted: false,
            state: SearchState::empty(),
            scratch: BottomUpScratch::default(),
            activation: ActivationTable::default(),
            query: None,
            pool: None,
        }
    }

    fn handle(
        &mut self,
        stream: &mut TcpStream,
        opcode: u8,
        payload: &[u8],
        ready: Instant,
    ) -> Result<Flow, ConnError> {
        match opcode {
            wire::OP_HELLO => self.on_hello(stream, payload),
            wire::OP_PING => {
                reply(stream, wire::OP_PONG, &[])?;
                Ok(Flow::Continue)
            }
            wire::OP_START => self.on_start(stream, payload, ready),
            wire::OP_ENQUEUE => self.on_enqueue(stream, ready),
            wire::OP_IDENTIFY => self.on_identify(stream, payload, ready),
            wire::OP_EXPAND => self.on_expand(stream, payload, ready),
            wire::OP_APPLY => self.on_apply(stream, payload, ready),
            wire::OP_COLLECT => self.on_collect(stream, payload, ready),
            other => Err(ConnError::new("bad_frame", format!("unknown opcode {other}"))),
        }
    }

    /// Encode and send a phase reply and, when the query is span-traced,
    /// record the RPC's span including the measured encode+write time.
    /// The query context is re-borrowed here so handlers can build their
    /// reply with the context borrowed.
    fn finish(
        &mut self,
        stream: &mut TcpStream,
        opcode: u8,
        payload: impl FnOnce() -> Vec<u8>,
        clock: &RpcClock,
        op: &str,
        level: Option<u8>,
    ) -> Result<Flow, ConnError> {
        let exec_done = Instant::now();
        reply(stream, opcode, &payload())?;
        if let Some(spans) = self.query.as_mut().and_then(|ctx| ctx.spans.as_mut()) {
            spans.push(clock.span(op, level, exec_done, Instant::now()));
        }
        Ok(Flow::Continue)
    }

    fn on_hello(&mut self, stream: &mut TcpStream, payload: &[u8]) -> Result<Flow, ConnError> {
        let hello: Hello = wire::decode(payload).map_err(|e| ConnError::new("bad_frame", e))?;
        let w = self.worker;
        // The contract is strict, protocol revision included — a worker
        // must never serve a differently-cut partition or a coordinator
        // that frames its payloads differently.
        let expect = Hello {
            version: wire::PROTOCOL_VERSION,
            shards: w.shards,
            shard_index: w.index,
            num_nodes: w.num_nodes,
            seed: w.seed,
        };
        if hello != expect {
            return Err(ConnError::new(
                "bad_handshake",
                format!("partition contract mismatch: got {hello:?}, serving {expect:?}"),
            ));
        }
        self.greeted = true;
        let ok = wire::HelloOk {
            shard_index: w.index,
            num_owned: w.part.num_owned,
            version: wire::PROTOCOL_VERSION,
        };
        reply(stream, wire::OP_HELLO_OK, &wire::encode(&ok))?;
        Ok(Flow::Continue)
    }

    fn on_start(
        &mut self,
        stream: &mut TcpStream,
        payload: &[u8],
        ready: Instant,
    ) -> Result<Flow, ConnError> {
        if !self.greeted {
            return Err(ConnError::new("bad_sequence", "START before HELLO"));
        }
        let (start, clock): (wire::Start, _) = RpcClock::decode(payload, ready)?;
        let query = start.query.to_query();

        // Network-shaped fault injection (test builds only): the chaos
        // suite asks this worker to misbehave at the wire level.
        #[cfg(feature = "fault-inject")]
        if let Some(fault) = crate::fault::network_fault(&query) {
            match fault {
                crate::fault::NetworkFault::Drop => return Ok(Flow::Close),
                crate::fault::NetworkFault::Stall(d) => std::thread::sleep(d),
                crate::fault::NetworkFault::Garbage => {
                    // An over-cap length header: the coordinator's frame
                    // decoder rejects it deterministically.
                    use std::io::Write as _;
                    let _ = stream.write_all(&[0xFF, 0xFF, 0xFF, 0xFF, 0xEE]);
                    return Ok(Flow::Close);
                }
            }
        }

        let part = &self.worker.part;
        let local = part.localize_query(&query);
        self.state.begin_query(part.graph.num_nodes(), &local);
        let threads = (start.threads as usize).max(1);
        let backend = [ShardBackend::Seq, ShardBackend::ParCpu(threads)]
            .into_iter()
            .find(|backend| backend.base_name() == start.backend)
            .ok_or_else(|| {
                ConnError::new("bad_sequence", format!("unknown backend {:?}", start.backend))
            })?;
        // A parallel kernel runs inside a connection-local pool sized to the
        // query's thread request, (re)built only when the size changes.
        if backend == ShardBackend::Seq {
            self.pool = None;
        } else if self.pool.as_ref().map(|(t, _)| *t) != Some(threads) {
            self.pool = Some((threads, crate::engine::build_pool(threads)));
        }
        let local_act = part.localize_activation(start.activation.as_deref());
        if local_act.is_none() {
            self.activation.levels(&part.graph, ActivationConfig::for_params(&start.params));
        }
        self.query = Some(QueryCtx {
            local_act,
            // Unlimited counting tracker: budgets are the coordinator's
            // job; this one only meters charges for `ExpandOk::charged`.
            tracker: QueryBudget::unlimited().start_counting(),
            charged_mark: 0,
            qid: start.qid,
            // Spans are recorded only when the coordinator asked for them.
            spans: start.spans.then(Vec::new),
        });
        let ok = wire::StartOk { keywords: query.num_keywords() as u32 };
        self.finish(stream, wire::OP_START_OK, || wire::encode(&ok), &clock, "start", None)
    }

    /// This connection's lane of the in-flight query (the same
    /// [`ShardLane`] the in-process coordinator steps) and its kernel
    /// pool.
    fn lane(&mut self) -> Result<(ShardLane<'_>, Option<&rayon::ThreadPool>), ConnError> {
        let part = &self.worker.part;
        let ctx = self.query.as_ref().ok_or_else(ConnError::before_start)?;
        let lane = ShardLane {
            part,
            state: &self.state,
            act: ActivationMap(ctx.local_act.as_deref().unwrap_or(self.activation.current())),
            budget: &ctx.tracker,
            scratch: &mut self.scratch,
        };
        Ok((lane, self.pool.as_ref().map(|(_, pool)| pool)))
    }

    fn on_enqueue(&mut self, stream: &mut TcpStream, ready: Instant) -> Result<Flow, ConnError> {
        let entered = Instant::now();
        let clock = RpcClock { ready, decode_from: entered, decode_done: entered };
        let ok = wire::EnqueueOk { frontier: self.lane()?.0.enqueue() as u64 };
        self.finish(stream, wire::OP_ENQUEUE_OK, || wire::encode(&ok), &clock, "enqueue", None)
    }

    fn on_identify(
        &mut self,
        stream: &mut TcpStream,
        payload: &[u8],
        ready: Instant,
    ) -> Result<Flow, ConnError> {
        let (req, clock): (wire::Identify, _) = RpcClock::decode(payload, ready)?;
        let (mut lane, _) = self.lane()?;
        let (new_hits, deferred) = lane.identify(req.level, req.traced);
        let ok = wire::IdentifyOk {
            newly: lane.newly().collect(),
            new_hits: new_hits as u64,
            deferred: deferred as u64,
        };
        let level = Some(req.level);
        self.finish(stream, wire::OP_IDENTIFY_OK, || wire::encode(&ok), &clock, "identify", level)
    }

    fn on_expand(
        &mut self,
        stream: &mut TcpStream,
        payload: &[u8],
        ready: Instant,
    ) -> Result<Flow, ConnError> {
        let (req, clock): (wire::Expand, _) = RpcClock::decode(payload, ready)?;
        let (mut lane, pool) = self.lane()?;
        let outbox = lane.expand(req.level, pool).to_vec();
        let ctx = self.query.as_mut().expect("lane() found the query");
        let total = ctx.tracker.expansions();
        let ok = wire::ExpandOk { outbox, charged: total - ctx.charged_mark };
        ctx.charged_mark = total;
        let level = Some(req.level);
        self.finish(stream, wire::OP_EXPAND_OK, || wire::encode(&ok), &clock, "expand", level)
    }

    fn on_apply(
        &mut self,
        stream: &mut TcpStream,
        payload: &[u8],
        ready: Instant,
    ) -> Result<Flow, ConnError> {
        let (req, clock): (wire::Apply, _) = RpcClock::decode(payload, ready)?;
        self.lane()?.0.apply(req.level, &req.pairs);
        self.finish(stream, wire::OP_APPLY_OK, Vec::new, &clock, "apply", Some(req.level))
    }

    fn on_collect(
        &mut self,
        stream: &mut TcpStream,
        payload: &[u8],
        ready: Instant,
    ) -> Result<Flow, ConnError> {
        let (req, clock): (wire::Collect, _) = RpcClock::decode(payload, ready)?;
        let (part, state) = (&self.worker.part, &self.state);
        let ctx = self.query.as_mut().ok_or_else(ConnError::before_start)?;
        let limit = if req.include_halos {
            part.locals.len()
        } else {
            part.num_owned as usize
        };
        let mut rows = Vec::new();
        let mut hits = vec![INFINITE_LEVEL; state.num_keywords()];
        for l in 0..limit as u32 {
            state.row_into(l, &mut hits);
            if hits.iter().all(|&h| h == INFINITE_LEVEL) {
                continue; // untouched row: the coordinator defaults it
            }
            rows.push(wire::WireRow { node: part.locals[l as usize], hits: hits.clone() });
        }
        let qid = ctx.qid;
        let mut spans = ctx.spans.take();
        if let Some(spans) = spans.as_mut() {
            // This span ships inside the reply it measures, so its own
            // encode+write time cannot be self-reported (it reads 0); the
            // coordinator attributes it to wire time.
            let exec_done = Instant::now();
            spans.push(clock.span("collect", None, exec_done, exec_done));
        }
        let ok = wire::CollectOk { rows, qid, spans };
        reply(stream, wire::OP_COLLECT_OK, &wire::encode(&ok))?;
        Ok(Flow::Continue)
    }
}

fn reply(stream: &mut TcpStream, opcode: u8, payload: &[u8]) -> Result<(), ConnError> {
    write_frame(stream, opcode, payload)
        .map_err(|e| ConnError::new("internal", format!("reply failed: {e}")))
}

/// Read one frame, failing on EOF (used by clients that expect a reply).
pub(super) fn expect_frame(r: &mut impl Read) -> io::Result<(u8, Vec<u8>)> {
    read_frame(r)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed mid conversation"))
}
