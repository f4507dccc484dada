//! Message schema of the shard protocol.
//!
//! A coordinator channel exchanges one [`Request`] for one [`Response`]
//! per RPC. An in-process link hands the typed message straight to the
//! lane; the TCP link frames it (see [`super::frame`]) with its JSON
//! document as payload — the opcode selects the message type, so the JSON
//! never needs a type tag. The per-query RPC sequence is the round
//! protocol of [`crate::shard`], one message pair per phase:
//!
//! | opcode | request → response | round-protocol phase |
//! |---|---|---|
//! | [`OP_HELLO`] → [`OP_HELLO_OK`] | [`Hello`] → [`HelloOk`] | connection handshake: partition contract check |
//! | [`OP_PING`] → [`OP_PONG`] | empty → empty | heartbeat / breaker probe |
//! | [`OP_START`] → [`OP_START_OK`] | [`Start`] → [`StartOk`] | scatter: localize + seed the query |
//! | [`OP_ENQUEUE`] → [`OP_ENQUEUE_OK`] | empty → [`EnqueueOk`] | drain owned frontier flags |
//! | [`OP_IDENTIFY`] → [`OP_IDENTIFY_OK`] | [`Identify`] → [`IdentifyOk`] | identify central nodes this level |
//! | [`OP_EXPAND`] → [`OP_EXPAND_OK`] | [`Expand`] → [`ExpandOk`] | expand + boundary scan |
//! | [`OP_APPLY`] → [`OP_APPLY_OK`] | [`Apply`] → empty | apply broadcast notifications |
//! | [`OP_COLLECT`] → [`OP_COLLECT_OK`] | [`Collect`] → [`CollectOk`] | ship hit/central rows for top-down |
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

/// Protocol revision. Version 4 ships the collected rows as two columns
/// ([`CollectOk::nodes`], [`CollectOk::hits`]) instead of a struct per
/// row; version 3 made [`HelloOk::version`] and [`Start::spans`]
/// mandatory. The
/// handshake is strict on both sides: a worker rejects any [`Hello`]
/// whose revision (or partition contract) differs from its own with
/// `bad_handshake`, and the coordinator drops a channel whose
/// [`HelloOk`] echoes another revision or shard.
pub const PROTOCOL_VERSION: u32 = 4;

/// Handshake request.
pub const OP_HELLO: u8 = 1;
/// Handshake acknowledgement.
pub const OP_HELLO_OK: u8 = 2;
/// Health probe request (empty payload).
pub const OP_PING: u8 = 3;
/// Health probe response (empty payload).
pub const OP_PONG: u8 = 4;
/// Begin a query on this connection.
pub const OP_START: u8 = 5;
/// Query accepted.
pub const OP_START_OK: u8 = 6;
/// Drain owned frontier flags (empty payload).
pub const OP_ENQUEUE: u8 = 7;
/// Frontier count reply.
pub const OP_ENQUEUE_OK: u8 = 8;
/// Identify central nodes at a level.
pub const OP_IDENTIFY: u8 = 9;
/// Newly identified nodes reply.
pub const OP_IDENTIFY_OK: u8 = 10;
/// Run the expansion kernel + boundary scan at a level.
pub const OP_EXPAND: u8 = 11;
/// Boundary outbox reply.
pub const OP_EXPAND_OK: u8 = 12;
/// Apply broadcast boundary notifications.
pub const OP_APPLY: u8 = 13;
/// Notifications applied (empty payload).
pub const OP_APPLY_OK: u8 = 14;
/// Ship hit/central rows for the top-down stage.
pub const OP_COLLECT: u8 = 15;
/// Row shipment reply.
pub const OP_COLLECT_OK: u8 = 16;
/// Structured failure; the sender closes the connection afterwards.
pub const OP_ERROR: u8 = 17;

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
    /// Health probe.
    Ping,
    /// Begin a query.
    Start(Start),
    /// Drain owned frontier flags.
    Enqueue,
    /// Identify central nodes at a level.
    Identify(Identify),
    /// Expand a level and scan the boundary.
    Expand(Expand),
    /// Apply the level's notification set.
    Apply(Apply),
    /// Ship rows for the top-down stage.
    Collect(Collect),
}

impl Request {
    /// The frame `(opcode, payload)` of this request.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        match self {
            Request::Hello(m) => (OP_HELLO, encode(m)),
            Request::Ping => (OP_PING, Vec::new()),
            Request::Start(m) => (OP_START, encode(m)),
            Request::Enqueue => (OP_ENQUEUE, Vec::new()),
            Request::Identify(m) => (OP_IDENTIFY, encode(m)),
            Request::Expand(m) => (OP_EXPAND, encode(m)),
            Request::Apply(m) => (OP_APPLY, encode(m)),
            Request::Collect(m) => (OP_COLLECT, encode(m)),
        }
    }

    /// The request a frame carries; an unknown opcode or a payload that is
    /// not the opcode's message is an error.
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<Request, String> {
        Ok(match opcode {
            OP_HELLO => Request::Hello(decode(payload)?),
            OP_PING => Request::Ping,
            OP_START => Request::Start(decode(payload)?),
            OP_ENQUEUE => Request::Enqueue,
            OP_IDENTIFY => Request::Identify(decode(payload)?),
            OP_EXPAND => Request::Expand(decode(payload)?),
            OP_APPLY => Request::Apply(decode(payload)?),
            OP_COLLECT => Request::Collect(decode(payload)?),
            other => return Err(format!("unknown opcode {other}")),
        })
    }
}

/// One RPC's successful reply, typed. A failure is not a `Response`: a
/// handler returns an error, which the TCP link carries as [`WireError`].
#[derive(Debug, PartialEq)]
pub enum Response {
    /// Handshake acknowledgement.
    HelloOk(HelloOk),
    /// Health probe reply.
    Pong,
    /// Query accepted.
    StartOk(StartOk),
    /// Frontier count.
    EnqueueOk(EnqueueOk),
    /// Newly identified nodes.
    IdentifyOk(IdentifyOk),
    /// Boundary outbox and budget charge.
    ExpandOk(ExpandOk),
    /// Notifications applied.
    ApplyOk,
    /// Row shipment.
    CollectOk(CollectOk),
}

impl Response {
    /// The frame `(opcode, payload)` of this reply.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        match self {
            Response::HelloOk(m) => (OP_HELLO_OK, encode(m)),
            Response::Pong => (OP_PONG, Vec::new()),
            Response::StartOk(m) => (OP_START_OK, encode(m)),
            Response::EnqueueOk(m) => (OP_ENQUEUE_OK, encode(m)),
            Response::IdentifyOk(m) => (OP_IDENTIFY_OK, encode(m)),
            Response::ExpandOk(m) => (OP_EXPAND_OK, encode(m)),
            Response::ApplyOk => (OP_APPLY_OK, Vec::new()),
            Response::CollectOk(m) => (OP_COLLECT_OK, encode(m)),
        }
    }

    /// The reply a frame carries; a worker's [`WireError`] frame, an
    /// unknown opcode or a mismatched payload is an error.
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<Response, String> {
        Ok(match opcode {
            OP_HELLO_OK => Response::HelloOk(decode(payload)?),
            OP_PONG => Response::Pong,
            OP_START_OK => Response::StartOk(decode(payload)?),
            OP_ENQUEUE_OK => Response::EnqueueOk(decode(payload)?),
            OP_IDENTIFY_OK => Response::IdentifyOk(decode(payload)?),
            OP_EXPAND_OK => Response::ExpandOk(decode(payload)?),
            OP_APPLY_OK => Response::ApplyOk,
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
    /// Owned-node count of the worker's part — a partition fingerprint
    /// the coordinator can sanity-check.
    pub num_owned: u32,
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
/// execution knobs for the following phase RPCs.
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
    /// Ask the worker to record per-RPC spans for this query and
    /// piggyback them on [`CollectOk`] (traced queries only).
    pub spans: bool,
}

/// Query accepted.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StartOk {
    /// Keyword count after localization (always the global count).
    pub keywords: u32,
}

/// Enqueue reply: how many owned nodes this worker drained into its
/// frontier for the coming level.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EnqueueOk {
    /// Frontier size contributed by this worker.
    pub frontier: u64,
}

/// Identify request for one level.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Identify {
    /// The current BFS level.
    pub level: u8,
    /// Whether to also compute the traced-query observations.
    pub traced: bool,
}

/// Identify reply.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IdentifyOk {
    /// Newly identified central nodes, as global ids, in local frontier
    /// scan order (the coordinator merges and sorts, exactly like the
    /// in-process merge step).
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

/// Broadcast of the deduplicated notification union for one level. Every
/// worker receives the full set and applies the pairs present in its
/// part — membership filtering replaces the in-process holders routing,
/// with identical effect.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Apply {
    /// The current BFS level.
    pub level: u8,
    /// Deduplicated `(global node, instance)` pairs.
    pub pairs: Vec<(u32, u32)>,
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
    /// timestamps (absent unless `Start` asked). The final `collect` span
    /// reports `encode_us = 0`: its own encode cannot observe itself and
    /// is attributed to wire time by the coordinator.
    pub spans: Option<Vec<ShardSpan>>,
}

/// Structured protocol failure. After sending one of these the worker
/// closes the connection (framing carries no resync point).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireError {
    /// Stable machine-readable code (`bad_handshake`, `bad_frame`,
    /// `bad_sequence`, `internal`).
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
            spans: false,
        };
        let back: Start = decode(&encode(&start)).unwrap();
        assert_eq!((back.qid, back.spans), (None, false));
        let ok = CollectOk { nodes: vec![1], hits: vec![0], qid: None, spans: None };
        let back: CollectOk = decode(&encode(&ok)).unwrap();
        assert_eq!(back, ok);
        let bare: CollectOk = decode(br#"{"nodes":[1],"hits":[0]}"#).unwrap();
        assert_eq!(bare, ok);
        // What v3 made mandatory is refused when missing, not defaulted.
        assert!(decode::<HelloOk>(br#"{"shard_index":1,"num_owned":10}"#).is_err());
        let text = String::from_utf8(encode(&start)).unwrap();
        assert!(decode::<Start>(text.replace(r#","spans":false"#, "").as_bytes()).is_err());
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
            spans: true,
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
