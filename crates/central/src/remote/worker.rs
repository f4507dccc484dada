//! The shard-worker side of the protocol.
//!
//! A [`ShardWorker`] owns exactly one [`ShardPart`] of the deterministic
//! partition. A coordinator steps it through lanes: a `Conn` is one lane —
//! one [`SearchState`], at most one query at a time, run as a sequence of
//! typed phase requests (see [`super::wire`]), each handled by the
//! `crate::shard::ShardLane` method of that phase. `Conn::handle` is
//! transport-free, so the two links share every handler: an in-process
//! coordinator owns its `Conn`s and calls it directly;
//! [`ShardWorker::handle_connection`] is the far end of the TCP link, one
//! thread per connection, and the only place a frame is read and decoded
//! or a reply encoded and written. A worker process builds its part
//! locally via [`ShardPlan::build_part`] from the `(shards, seed)`
//! contract — sub-graphs never travel.
//!
//! A lane never enforces query budgets itself: it runs an unlimited
//! counting tracker and reports per-level expansion charges back to the
//! coordinator, which owns the query's real [`crate::QueryBudget`] and
//! polls deadlines/caps at the level's sequence points. A stalled or
//! runaway worker process is therefore bounded by the coordinator's
//! per-RPC timeouts, not by its own cooperation.
//!
//! Any protocol violation on a connection — undecodable payload,
//! out-of-sequence opcode, oversized frame — earns one structured
//! [`wire::WireError`] reply (when the stream is still writable) and the
//! connection closes; the framing has no resync point. A worker connection
//! failing can never corrupt another: every lane's state is private.

use super::frame::{read_frame, write_frame};
use super::wire::{self, Hello, Request, Response};
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
        let part = ShardPlan::build_part(graph, shards, seed, index);
        ShardWorker::over(part, graph.num_nodes(), shards, index, seed)
    }

    /// The worker over `part`, already materialized as shard `index` of an
    /// `N = shards` partition under `seed` of a `num_nodes`-node graph (an
    /// in-process fleet cuts the whole plan once).
    pub(crate) fn over(
        part: ShardPart,
        num_nodes: usize,
        shards: usize,
        index: usize,
        seed: u64,
    ) -> ShardWorker {
        ShardWorker {
            part,
            shards: shards as u32,
            index: index as u32,
            seed,
            num_nodes: num_nodes as u64,
        }
    }

    /// Owned-node count of this worker's part.
    pub fn num_owned(&self) -> u32 {
        self.part.owned
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
    /// for the TCP link.
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

    /// Drive one coordinator connection to completion: read and decode a
    /// frame, hand the request to the connection's lane, encode and write
    /// the reply. Public so process workers and in-process test workers
    /// share one code path.
    pub fn handle_connection(self: &Arc<Self>, mut stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let mut conn = Conn::new(Arc::clone(self), false);
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
            let request = match Request::decode(opcode, &payload) {
                Ok(request) => request,
                Err(e) => return send_error(&mut stream, "bad_frame", &e),
            };
            let decode_us = micros(ready, Instant::now());

            // Network-shaped fault injection (test builds only): the chaos
            // suite asks this worker to misbehave at the wire level.
            #[cfg(feature = "fault-inject")]
            if let Request::Start(start) = &request {
                match crate::fault::network_fault(&start.query.to_query()) {
                    Some(crate::fault::NetworkFault::Drop) => return,
                    Some(crate::fault::NetworkFault::Stall(d)) => std::thread::sleep(d),
                    Some(crate::fault::NetworkFault::Garbage) => {
                        // An over-cap length header: the coordinator's frame
                        // decoder rejects it deterministically.
                        use std::io::Write as _;
                        let _ = stream.write_all(&[0xFF, 0xFF, 0xFF, 0xFF, 0xEE]);
                        return;
                    }
                    None => {}
                }
            }

            let wait_us = micros(ready, Instant::now()) - decode_us;
            let response = match conn.handle(&request, Arrival { wait_us, decode_us }) {
                Ok(response) => response,
                Err(e) => return send_error(&mut stream, e.code, &e.message),
            };
            let handled = Instant::now();
            let (opcode, payload) = response.encode();
            if write_frame(&mut stream, opcode, &payload).is_err() {
                return;
            }
            conn.sent(micros(handled, Instant::now()));
        }
    }
}

/// Best-effort structured error reply; the connection closes either way.
fn send_error(stream: &mut TcpStream, code: &str, message: &str) {
    let err = wire::WireError { code: code.to_string(), message: message.to_string() };
    let _ = write_frame(stream, wire::OP_ERROR, &wire::encode(&err));
}

/// A protocol failure: over TCP it earns one error frame before the
/// connection closes.
pub(crate) struct ConnError {
    pub(crate) code: &'static str,
    pub(crate) message: String,
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

/// One lane of a worker: the search state and per-level buffers plus the
/// per-query execution knobs remembered from the last `Start`.
pub(crate) struct Conn {
    worker: Arc<ShardWorker>,
    greeted: bool,
    /// Whether a `CPU-Par` query expands in a pool of the lane's own (a
    /// worker process) or on the thread that steps the lane (in process,
    /// where that is a thread of the coordinator's pool).
    own_pool: bool,
    state: SearchState,
    scratch: BottomUpScratch,
    /// The part's activation levels under the last query's `α` and `A`.
    activation: ActivationTable,
    query: Option<QueryCtx>,
    /// The in-flight query's kernel pool, rebuilt when a query asks for a
    /// different thread count.
    pool: Option<(usize, rayon::ThreadPool)>,
}

/// Execution knobs of the in-flight query on a lane.
struct QueryCtx {
    /// Explicit activation table remapped onto this shard's locals
    /// (else the lane's [`ActivationTable`] applies).
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

/// What the TCP link measured of an RPC before its handler ran: dispatch
/// latency once the frame was fully read, and the payload's decode. Zero
/// on an in-process link, which has no frame.
#[derive(Clone, Copy, Default)]
pub(crate) struct Arrival {
    wait_us: u64,
    decode_us: u64,
}

impl Conn {
    /// A lane of `worker`: owned by an in-process coordinator (`in_process`
    /// — the partition contract holds by construction, so it starts
    /// greeted), or the far end of a TCP connection, which must handshake.
    pub(crate) fn new(worker: Arc<ShardWorker>, in_process: bool) -> Conn {
        Conn {
            worker,
            greeted: in_process,
            own_pool: !in_process,
            state: SearchState::empty(),
            scratch: BottomUpScratch::default(),
            activation: ActivationTable::default(),
            query: None,
            pool: None,
        }
    }

    /// The shard this lane serves.
    #[cfg(test)]
    pub(crate) fn shard(&self) -> usize {
        self.worker.index as usize
    }

    /// Run one request against the lane. A phase of a span-traced query
    /// also records its [`ShardSpan`], `arrival` being what the link
    /// measured before the handler ran.
    pub(crate) fn handle(
        &mut self,
        request: &Request,
        arrival: Arrival,
    ) -> Result<Response, ConnError> {
        let entered = Instant::now();
        let (op, level, mut response) = match request {
            Request::Hello(hello) => return self.on_hello(hello),
            Request::Ping => return Ok(Response::Pong),
            Request::Start(start) => ("start", None, Response::StartOk(self.on_start(start)?)),
            Request::Step(req) => ("step", Some(req.level), Response::StepOk(self.on_step(req)?)),
            Request::Expand(req) => {
                ("expand", Some(req.level), Response::ExpandOk(self.on_expand(req)?))
            }
            Request::Collect(req) => ("collect", None, Response::CollectOk(self.on_collect(req)?)),
        };
        let ctx = self.query.as_mut().expect("a phase handler found the query");
        if let Some(spans) = ctx.spans.as_mut() {
            spans.push(ShardSpan {
                op: op.to_string(),
                level: level.map(u32::from),
                wait_us: arrival.wait_us,
                decode_us: arrival.decode_us,
                exec_us: micros(entered, Instant::now()),
                encode_us: 0,
            });
        }
        if let Response::CollectOk(ok) = &mut response {
            // The spans ship inside the reply that ends them, so the
            // collect span's own encode+write time cannot be self-reported
            // (it reads 0); the coordinator attributes it to wire time.
            ok.spans = ctx.spans.take();
        }
        Ok(response)
    }

    /// The reply to the last request took `encode_us` to encode and write:
    /// stamp it on that request's span (the spans have left with a collect
    /// reply, whose span keeps its 0).
    fn sent(&mut self, encode_us: u64) {
        let spans = self.query.as_mut().and_then(|ctx| ctx.spans.as_mut());
        if let Some(span) = spans.and_then(|spans| spans.last_mut()) {
            span.encode_us = encode_us;
        }
    }

    fn on_hello(&mut self, hello: &Hello) -> Result<Response, ConnError> {
        let w = &self.worker;
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
        if *hello != expect {
            return Err(ConnError::new(
                "bad_handshake",
                format!("partition contract mismatch: got {hello:?}, serving {expect:?}"),
            ));
        }
        self.greeted = true;
        Ok(Response::HelloOk(wire::HelloOk {
            shard_index: w.index,
            version: wire::PROTOCOL_VERSION,
        }))
    }

    fn on_start(&mut self, start: &wire::Start) -> Result<wire::StartOk, ConnError> {
        if !self.greeted {
            return Err(ConnError::new("bad_sequence", "START before HELLO"));
        }
        let query = start.query.to_query();
        let part = &self.worker.part;
        self.state.begin_query(part.graph.num_nodes(), &part.localize_query(&query));
        let threads = (start.threads as usize).max(1);
        let backend = [ShardBackend::Seq, ShardBackend::ParCpu(threads)]
            .into_iter()
            .find(|backend| backend.base_name() == start.backend)
            .ok_or_else(|| {
                ConnError::new("bad_sequence", format!("unknown backend {:?}", start.backend))
            })?;
        // A worker process runs a parallel kernel inside a lane-local pool
        // sized to the query's thread request, (re)built only when the size
        // changes.
        if backend == ShardBackend::Seq || !self.own_pool {
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
        Ok(wire::StartOk { keywords: query.num_keywords() as u32 })
    }

    /// This lane's slice of the in-flight query and its kernel pool.
    fn lane(&mut self) -> Result<(ShardLane<'_>, Option<&rayon::ThreadPool>), ConnError> {
        let ctx = self.query.as_ref().ok_or_else(ConnError::before_start)?;
        let lane = ShardLane {
            part: &self.worker.part,
            state: &self.state,
            act: ActivationMap(ctx.local_act.as_deref().unwrap_or(self.activation.current())),
            budget: &ctx.tracker,
            scratch: &mut self.scratch,
        };
        Ok((lane, self.pool.as_ref().map(|(_, pool)| pool)))
    }

    fn on_step(&mut self, req: &wire::Step) -> Result<wire::StepOk, ConnError> {
        let (mut lane, _) = self.lane()?;
        let (frontier, (new_hits, deferred)) = lane.step(req.level, req.traced, &req.pairs);
        Ok(wire::StepOk {
            frontier: frontier as u64,
            newly: lane.newly().collect(),
            new_hits: new_hits as u64,
            deferred: deferred as u64,
        })
    }

    fn on_expand(&mut self, req: &wire::Expand) -> Result<wire::ExpandOk, ConnError> {
        let (mut lane, pool) = self.lane()?;
        let outbox = lane.expand(req.level, pool).to_vec();
        let ctx = self.query.as_mut().expect("lane() found the query");
        let total = ctx.tracker.expansions();
        let ok = wire::ExpandOk { outbox, charged: total - ctx.charged_mark };
        ctx.charged_mark = total;
        Ok(ok)
    }

    fn on_collect(&mut self, req: &wire::Collect) -> Result<wire::CollectOk, ConnError> {
        let (part, state) = (&self.worker.part, &self.state);
        let ctx = self.query.as_ref().ok_or_else(ConnError::before_start)?;
        let limit = if req.include_halos {
            part.locals.len()
        } else {
            part.owned as usize
        };
        let (mut nodes, mut hits) = (Vec::new(), Vec::new());
        let mut row = vec![INFINITE_LEVEL; state.num_keywords()];
        for l in 0..limit as u32 {
            state.row_into(l, &mut row);
            if row.iter().all(|&h| h == INFINITE_LEVEL) {
                continue; // untouched row: the coordinator defaults it
            }
            nodes.push(part.locals[l as usize]);
            hits.extend_from_slice(&row);
        }
        Ok(wire::CollectOk { nodes, hits, qid: ctx.qid, spans: None })
    }
}

/// Read one frame, failing on EOF (used by clients that expect a reply).
pub(super) fn expect_frame(r: &mut impl Read) -> io::Result<(u8, Vec<u8>)> {
    read_frame(r)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed mid conversation"))
}
