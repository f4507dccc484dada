//! Message schema of the shard protocol.
//!
//! A coordinator channel exchanges one [`Request`] for one [`Response`]
//! per RPC. An in-process link hands the typed message straight to the
//! lane; the TCP link frames it (see [`super::frame`]) with its JSON
//! document as payload — the opcode selects the message type, so the JSON
//! never needs a type tag. The per-query RPC sequence is the round
//! protocol of [`crate::shard`]: a `Start`, then per BFS level one `Step`
//! and (unless the level ends the stage) one `Expand`, then a `Collect`.
//!
//! | opcode | request → response | round-protocol phase |
//! |---|---|---|
//! | [`OP_HELLO`] → [`OP_HELLO_OK`] | [`Hello`] → [`HelloOk`] | connection handshake: partition contract check; a fresh dial's handshake is also the failure-attribution probe |
//! | [`OP_START`] → [`OP_START_OK`] | [`Start`] → [`StartOk`] | scatter: localize + seed the query |
//! | [`OP_STEP`] → [`OP_STEP_OK`] | [`Step`] → [`StepOk`] | apply the last round's notifications, drain owned frontier flags, identify central nodes |
//! | [`OP_EXPAND`] → [`OP_EXPAND_OK`] | [`Expand`] → [`ExpandOk`] | expand + boundary scan |
//! | [`OP_COLLECT`] → [`OP_COLLECT_OK`] | [`Collect`] → [`CollectOk`] | ship hit rows for top-down |
//! | — → [`OP_ERROR`] | — → [`WireError`] | any failure; connection closes after |
//!
//! The coordinator never ships sub-graphs: both sides derive the
//! partition independently from the `(shards, seed, num_nodes)` contract
//! validated by the handshake, and the per-query payloads carry only
//! global node ids.

use crate::trace::ShardSpan;
use crate::SearchParams;
use serde::{Deserialize, Serialize};
use textindex::{KeywordGroup, ParsedQuery};

/// Protocol revision. There is no health-probe message: a coordinator
/// probes a worker by dialing it afresh, and the [`Hello`] / [`HelloOk`]
/// round trip proves it alive (opcodes 3 and 4, the retired probe pair,
/// stay unassigned). Tracing has one switch on the wire, the query's
/// `params.trace` in [`Start`]: a lane computes its traced-query
/// observations and records per-RPC spans exactly when it is set. Two
/// requests travel per shard per level ([`Step`] and [`Expand`]), the
/// collected rows travel as two columns ([`CollectOk::nodes`],
/// [`CollectOk::hits`]), and [`HelloOk::version`] is mandatory. The
/// handshake is strict on both sides: a worker rejects any [`Hello`] whose
/// revision (or partition contract) differs from its own with
/// `bad_handshake`, and the coordinator drops a channel whose [`HelloOk`]
/// echoes another revision or shard.
pub const PROTOCOL_VERSION: u32 = 8;

/// Hard cap on [`Start::threads`]: 1024. A worker spawns a `CPU-Par`
/// query's kernel pool up front, so a peer-supplied count can never make
/// it spawn more threads than this; it answers a `Start` over the cap with
/// `bad_request`. The engine's `Backend::parse` refuses the same counts,
/// so `search` and `serve` fail at start-up rather than on every query.
pub const MAX_THREADS: usize = 1024;

/// Handshake request.
pub const OP_HELLO: u8 = 1;
/// Handshake acknowledgement.
pub const OP_HELLO_OK: u8 = 2;
/// Begin a query on this connection.
pub const OP_START: u8 = 5;
/// Query accepted.
pub const OP_START_OK: u8 = 6;
/// Apply notifications, then enqueue and identify at a level.
pub const OP_STEP: u8 = 7;
/// Frontier count and newly identified nodes reply.
pub const OP_STEP_OK: u8 = 8;
/// Run the expansion kernel + boundary scan at a level.
pub const OP_EXPAND: u8 = 9;
/// Boundary outbox reply.
pub const OP_EXPAND_OK: u8 = 10;
/// Ship hit rows for the top-down stage.
pub const OP_COLLECT: u8 = 11;
/// Row shipment reply.
pub const OP_COLLECT_OK: u8 = 12;
/// Structured failure; the sender closes the connection afterwards.
pub const OP_ERROR: u8 = 13;

/// Encode a wire message as a JSON frame payload.
pub fn encode<T: Serialize>(msg: &T) -> Vec<u8> {
    serde_json::to_string(msg).expect("wire messages always serialize").into_bytes()
}

/// Decode a JSON frame payload into a wire message.
pub fn decode<T: Deserialize>(payload: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("payload not UTF-8: {e}"))?;
    serde_json::from_str(text).map_err(|e| format!("payload schema mismatch: {}", e.0))
}

/// One RPC's request, typed: what a lane's handler takes, whichever link
/// delivered it.
#[derive(Debug)]
pub enum Request {
    /// Connection handshake.
    Hello(Hello),
    /// Begin a query.
    Start(Start),
    /// Apply notifications, enqueue and identify at a level.
    Step(Step),
    /// Expand a level and scan the boundary.
    Expand(Expand),
    /// Ship rows for the top-down stage.
    Collect(Collect),
}

impl Request {
    /// The frame `(opcode, payload)` of this request.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        match self {
            Request::Hello(m) => (OP_HELLO, encode(m)),
            Request::Start(m) => (OP_START, encode(m)),
            Request::Step(m) => (OP_STEP, encode(m)),
            Request::Expand(m) => (OP_EXPAND, encode(m)),
            Request::Collect(m) => (OP_COLLECT, encode(m)),
        }
    }

    /// The request a frame carries; an unknown opcode or a payload that is
    /// not the opcode's message is an error.
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<Request, String> {
        Ok(match opcode {
            OP_HELLO => Request::Hello(decode(payload)?),
            OP_START => Request::Start(decode(payload)?),
            OP_STEP => Request::Step(decode(payload)?),
            OP_EXPAND => Request::Expand(decode(payload)?),
            OP_COLLECT => Request::Collect(decode(payload)?),
            other => return Err(format!("unknown opcode {other}")),
        })
    }
}

/// One RPC's successful reply, typed. A failure is not a `Response`: a
/// handler returns an error, which the TCP link carries as [`WireError`].
#[derive(Debug)]
pub enum Response {
    /// Handshake acknowledgement.
    HelloOk(HelloOk),
    /// Query accepted.
    StartOk(StartOk),
    /// Frontier count and newly identified nodes.
    StepOk(StepOk),
    /// Boundary outbox and budget charge.
    ExpandOk(ExpandOk),
    /// Row shipment.
    CollectOk(CollectOk),
}

impl Response {
    /// The frame `(opcode, payload)` of this reply.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        match self {
            Response::HelloOk(m) => (OP_HELLO_OK, encode(m)),
            Response::StartOk(m) => (OP_START_OK, encode(m)),
            Response::StepOk(m) => (OP_STEP_OK, encode(m)),
            Response::ExpandOk(m) => (OP_EXPAND_OK, encode(m)),
            Response::CollectOk(m) => (OP_COLLECT_OK, encode(m)),
        }
    }

    /// The reply a frame carries; a worker's [`WireError`] frame, an
    /// unknown opcode or a mismatched payload is an error.
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<Response, String> {
        Ok(match opcode {
            OP_HELLO_OK => Response::HelloOk(decode(payload)?),
            OP_START_OK => Response::StartOk(decode(payload)?),
            OP_STEP_OK => Response::StepOk(decode(payload)?),
            OP_EXPAND_OK => Response::ExpandOk(decode(payload)?),
            OP_COLLECT_OK => Response::CollectOk(decode(payload)?),
            OP_ERROR => {
                let e: WireError = decode(payload)?;
                return Err(format!("worker error {}: {}", e.code, e.message));
            }
            other => return Err(format!("unknown reply opcode {other}")),
        })
    }
}

/// Connection handshake: the coordinator states the partition contract it
/// expects; the worker rejects any mismatch with [`WireError`] so a
/// misconfigured worker can never silently serve a different partition.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Hello {
    /// Protocol revision of the coordinator ([`PROTOCOL_VERSION`]).
    pub version: u32,
    /// Total shard count of the partition.
    pub shards: u32,
    /// The shard index the coordinator believes this worker owns.
    pub shard_index: u32,
    /// Node count of the global graph (cheap whole-graph fingerprint).
    pub num_nodes: u64,
    /// Ownership-hash seed of the partition.
    pub seed: u64,
}

/// Handshake acknowledgement.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HelloOk {
    /// The worker's shard index (echoed back).
    pub shard_index: u32,
    /// The worker's protocol revision ([`PROTOCOL_VERSION`]).
    pub version: u32,
}

/// One keyword group of a query, in global node ids.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireGroup {
    /// The stemmed keyword term.
    pub term: String,
    /// Global ids of the nodes matching the term.
    pub nodes: Vec<u32>,
}

/// A parsed query in wire form (global node ids).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireQuery {
    /// Keyword groups, in BFS instance order.
    pub groups: Vec<WireGroup>,
    /// Query terms that matched no node (carried for fault tokens).
    pub unmatched: Vec<String>,
}

impl WireQuery {
    /// Lower a [`ParsedQuery`] onto the wire.
    pub fn from_query(q: &ParsedQuery) -> WireQuery {
        WireQuery {
            groups: q
                .groups
                .iter()
                .map(|g| WireGroup {
                    term: g.term.clone(),
                    nodes: g.nodes.iter().map(|n| n.0).collect(),
                })
                .collect(),
            unmatched: q.unmatched.clone(),
        }
    }

    /// Reconstruct the global [`ParsedQuery`] worker-side.
    pub fn to_query(&self) -> ParsedQuery {
        ParsedQuery {
            groups: self
                .groups
                .iter()
                .map(|g| KeywordGroup {
                    term: g.term.clone(),
                    nodes: g.nodes.iter().map(|&v| kgraph::NodeId(v)).collect(),
                })
                .collect(),
            unmatched: self.unmatched.clone(),
        }
    }
}

/// Begin a query: the scatter phase. The worker localizes the query onto
/// its part, re-arms its search state, and remembers the per-query
/// execution knobs for the following phase RPCs — `params.trace` among
/// them, the one tracing switch.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Start {
    /// The query, in global node ids.
    pub query: WireQuery,
    /// Search parameters. `explicit_activation` is serde-skipped on this
    /// type, so the table travels in [`Start::activation`] instead.
    pub params: SearchParams,
    /// Optional explicit global activation table (one level per global
    /// node); the worker remaps it onto its locals.
    pub activation: Option<Vec<u8>>,
    /// Expansion-kernel name: `"Seq"` or `"CPU-Par"`.
    pub backend: String,
    /// Worker threads the kernel was configured with.
    pub threads: u32,
    /// Fleet-wide query ID, echoed back on [`CollectOk`] so worker-side
    /// observations can be joined with the coordinator's (absent when
    /// the caller did not tag the query).
    pub qid: Option<u64>,
}

/// Query accepted.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StartOk {
    /// Keyword count after localization (always the global count).
    pub keywords: u32,
}

/// One level's step: the notifications of the previous round's exchange,
/// then the level's enqueue and identification. The barrier between one
/// level's expansion and the next level's enqueue is this request.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Step {
    /// The BFS level this step identifies at — also the hitting level the
    /// notifications write.
    pub level: u8,
    /// The previous round's deduplicated `(global node, instance)` pairs
    /// (empty at level 0). Every worker receives the full set and applies
    /// the pairs whose replica its part holds.
    pub pairs: Vec<(u32, u32)>,
}

/// Step reply.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StepOk {
    /// Frontier size contributed by this worker (its owned frontier
    /// flags drained this level).
    pub frontier: u64,
    /// Newly identified central nodes, as global ids, in local frontier
    /// scan order (the coordinator merges and sorts them).
    pub newly: Vec<u32>,
    /// Traced-query observation: keyword cells first covered this level.
    pub new_hits: u64,
    /// Traced-query observation: frontier nodes still activation-gated.
    pub deferred: u64,
}

/// Expand request for one level.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Expand {
    /// The current BFS level.
    pub level: u8,
}

/// Expand reply: the boundary outbox plus the budget charge.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExpandOk {
    /// `(global node, instance)` boundary cells that became `level + 1`.
    pub outbox: Vec<(u32, u32)>,
    /// Expansion units charged by this level's kernel on this worker; the
    /// coordinator charges the sum against the query's budget tracker at
    /// the same sequence point the in-process driver reaches the same
    /// total, keeping budget verdicts and traces byte-identical.
    pub charged: u64,
}

/// Collect request: ship rows for the top-down stage.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Collect {
    /// Also ship halo rows. Normally only owned rows travel (the owner is
    /// authoritative); under degraded answering the live shards' halo
    /// replicas stand in for a dead owner's rows.
    pub include_halos: bool,
}

/// Collect reply: the rows with at least one finite hitting level, as two
/// columns — a struct per row cost the coordinator an allocation per
/// node. A keyword node is a row holding a 0; central marks are the
/// coordinator's own, so neither travels.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CollectOk {
    /// Global ids of the shipped rows' nodes.
    pub nodes: Vec<u32>,
    /// The shipped rows, in `nodes` order, back to back: one hitting level
    /// per keyword instance (255 = unreached), `nodes.len() × q` in all.
    pub hits: Vec<u8>,
    /// The query ID from [`Start`], echoed back (absent when `Start`
    /// carried none).
    pub qid: Option<u64>,
    /// Per-RPC worker spans for this query, in RPC order — monotonic
    /// *durations* measured on the worker's clock, never absolute
    /// timestamps (absent unless the query is traced). The final `collect`
    /// span reports `encode_us = 0`: its own encode cannot observe itself
    /// and is attributed to wire time by the coordinator.
    pub spans: Option<Vec<ShardSpan>>,
}

/// Structured protocol failure. After sending one of these the worker
/// closes the connection (framing carries no resync point).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireError {
    /// Stable machine-readable code (`bad_handshake`, `bad_frame`,
    /// `bad_sequence`, `bad_request` — a node or instance outside the
    /// graph or query — `internal`).
    pub code: String,
    /// Human-readable detail.
    pub message: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_round_trip_through_the_codec() {
        let hello =
            Hello { version: PROTOCOL_VERSION, shards: 4, shard_index: 2, num_nodes: 12, seed: 7 };
        let back: Hello = decode(&encode(&hello)).unwrap();
        assert_eq!(back, hello);

        let step = Step { level: 2, pairs: vec![(3, 0), (9, 1)] };
        let back: Step = decode(&encode(&step)).unwrap();
        assert_eq!(back, step);

        let ok = ExpandOk { outbox: vec![(3, 0), (9, 1)], charged: 42 };
        let back: ExpandOk = decode(&encode(&ok)).unwrap();
        assert_eq!(back, ok);

        let ok = CollectOk {
            nodes: vec![5],
            hits: vec![0, 255],
            qid: Some(9),
            spans: Some(vec![ShardSpan { op: "collect".into(), ..ShardSpan::default() }]),
        };
        let back: CollectOk = decode(&encode(&ok)).unwrap();
        assert_eq!(back, ok);
    }

    #[test]
    fn untraced_payloads_without_telemetry_fields_decode() {
        // An untagged, untraced query carries no qid and no spans: the
        // keys may be null or absent and read back as `None` either way.
        let start = Start {
            query: WireQuery { groups: vec![], unmatched: vec![] },
            params: SearchParams::default(),
            activation: None,
            backend: "Seq".into(),
            threads: 1,
            qid: None,
        };
        let back: Start = decode(&encode(&start)).unwrap();
        assert_eq!((back.qid, back.params.trace), (None, false));
        let ok = CollectOk { nodes: vec![1], hits: vec![0], qid: None, spans: None };
        let back: CollectOk = decode(&encode(&ok)).unwrap();
        assert_eq!(back, ok);
        let bare: CollectOk = decode(br#"{"nodes":[1],"hits":[0]}"#).unwrap();
        assert_eq!(bare, ok);
        // A mandatory field is refused when missing, not defaulted.
        assert!(decode::<HelloOk>(br#"{"shard_index":1}"#).is_err());
    }

    #[test]
    fn queries_round_trip_including_unmatched_terms() {
        let q = ParsedQuery {
            groups: vec![KeywordGroup {
                term: "alpha".into(),
                nodes: vec![kgraph::NodeId(1), kgraph::NodeId(4)],
            }],
            unmatched: vec!["fault0drop".into()],
        };
        let wq = WireQuery::from_query(&q);
        let back: WireQuery = decode(&encode(&wq)).unwrap();
        let rq = back.to_query();
        assert_eq!(rq.groups.len(), 1);
        assert_eq!(rq.groups[0].term, "alpha");
        assert_eq!(rq.groups[0].nodes, q.groups[0].nodes);
        assert_eq!(rq.unmatched, q.unmatched);
    }

    #[test]
    fn params_survive_the_wire_minus_the_skipped_table() {
        let params = SearchParams::default()
            .with_top_k(7)
            .with_alpha(0.4)
            .with_average_distance(2.0)
            .with_explicit_activation(vec![1, 2, 3]);
        let start = Start {
            query: WireQuery { groups: vec![], unmatched: vec![] },
            activation: params.explicit_activation.as_deref().cloned(),
            params,
            backend: "CPU-Par".into(),
            threads: 4,
            qid: Some(3),
        };
        let back: Start = decode(&encode(&start)).unwrap();
        assert_eq!(back.params.top_k, 7);
        assert_eq!(back.params.explicit_activation, None, "serde-skipped field");
        assert_eq!(back.activation, Some(vec![1, 2, 3]), "table travels separately");
    }

    #[test]
    fn garbage_payloads_decode_to_structured_errors() {
        assert!(decode::<Hello>(b"\xff\xfe").is_err(), "non-UTF-8");
        assert!(decode::<Hello>(b"not json").is_err(), "non-JSON");
        assert!(decode::<Hello>(b"{\"version\":1}").is_err(), "schema mismatch");
    }
}
