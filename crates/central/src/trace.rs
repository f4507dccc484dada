//! Per-query execution traces: what [`crate::profile::PhaseProfile`] is to
//! wall-clock phases, [`QueryTrace`] is to the *shape* of a search — one
//! record per BFS level of Algorithm 1/2 (frontier size, expansion work,
//! newly covered keywords, activation gating, budget headroom) plus the
//! session that ran it and, over remote shards, each worker's spans.
//!
//! Tracing has one switch, the `SearchParams::trace` bool, and is
//! designed to be zero-cost when it is off: every collection site is
//! gated on `params.trace`, the budget tracker only arms its expansion
//! counter in tracing (or capped) mode, and `SearchOutcome` carries the
//! trace as `Option<Box<QueryTrace>>` so the untraced path moves one null
//! pointer. A differential test asserts that enabling tracing leaves
//! search results byte-for-byte identical. A traced request is always a
//! live search — the facade's result cache never answers or stores one —
//! so every trace describes the one search that produced the answers it
//! is attached to. Traces are serialize-only: the server renders them
//! into `EXPLAIN` and nothing reads one back.

use crate::profile::PhaseProfile;
use serde::{Deserialize, Serialize};

/// One bottom-up BFS level as the search engine saw it.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct TraceLevelRecord {
    /// BFS level (0 = the keyword hit nodes themselves).
    pub level: u32,
    /// Nodes in the frontier entering this level.
    pub frontier: usize,
    /// Central nodes identified (all `q` keywords covered) at this level.
    pub identified: usize,
    /// Keyword-hit cells `(node, keyword)` first covered at this level —
    /// how much new keyword coverage the level bought.
    pub new_hits: usize,
    /// Frontier nodes whose activation level exceeds this level: they are
    /// carried in the frontier but not yet allowed to identify (the
    /// paper's activation-level pruning in action).
    pub activation_deferred: usize,
    /// Budget units charged while expanding this frontier (Algorithm 2
    /// work items, weighted by keyword count).
    pub expansions: u64,
    /// Budget units remaining after this level (`None` when the query
    /// ran without an expansion cap).
    pub budget_remaining: Option<u64>,
}

/// One worker-side span for one RPC of a remote query, measured with the
/// worker's monotonic clock and reported in microseconds. Spans never
/// carry absolute timestamps: two hosts' clocks are never compared —
/// only *durations* travel, and the coordinator attributes the remainder
/// of its own observed round-trip to the wire. The handler times
/// `exec_us`; the other three are the TCP link's, stamped by the worker's
/// connection loop (a lane stepped in process reports 0 for them).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpan {
    /// The round-protocol request this RPC served (`"start"`, `"step"`,
    /// `"expand"`, `"collect"`).
    pub op: String,
    /// BFS level the RPC operated on, when the phase is per-level.
    pub level: Option<u32>,
    /// Worker-side dispatch latency: from this request's frame being fully
    /// read to its handler starting, less the decode below (coordinator
    /// think-time is *not* included — the clock starts once the bytes
    /// have arrived).
    pub wait_us: u64,
    /// Decoding the request payload into its typed message.
    pub decode_us: u64,
    /// Executing the phase (for `expand` this is the worker's local BFS
    /// over its partition — the per-level slice of `PhaseProfile`).
    pub exec_us: u64,
    /// Encoding and writing the response frame: measured once the send
    /// completes and stamped on this same span. The final `collect` span
    /// has already left inside the reply it would measure, so it reports 0
    /// (its encode is attributed to wire time by construction).
    pub encode_us: u64,
}

impl ShardSpan {
    /// Worker-side total for this RPC (everything but coordinator wire
    /// time).
    pub fn worker_us(&self) -> u64 {
        self.wait_us + self.decode_us + self.exec_us + self.encode_us
    }
}

/// One shard's stitched timeline for a remote query: the worker-reported
/// spans plus the coordinator-side attribution. Wire time is computed,
/// never measured: `rpc_us` (coordinator's monotonic clock around its
/// RPCs) minus `worker_us` (worker's monotonic clock inside them) — the
/// worker interval nests inside the coordinator's, so the subtraction is
/// sound without any cross-host clock comparison.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct ShardTimeline {
    /// Shard index this timeline describes.
    pub shard: usize,
    /// The query ID the worker echoed back (`None` when the query was
    /// started without one, outside the facade).
    pub qid: Option<u64>,
    /// RPCs the coordinator issued to this shard for this query.
    pub rpcs: u64,
    /// Coordinator-observed total round-trip time across those RPCs, µs.
    pub rpc_us: u64,
    /// Worker-reported total across the piggybacked spans, µs.
    pub worker_us: u64,
    /// `rpc_us − worker_us`, saturating: framing, kernel, and wire.
    pub wire_us: u64,
    /// The worker's per-RPC spans, in RPC order.
    pub spans: Vec<ShardSpan>,
}

/// The full execution trace of one query, carried on `SearchOutcome`
/// when `SearchParams::trace` is set and surfaced verbatim by the
/// server's `EXPLAIN` verb.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct QueryTrace {
    /// Engine that executed the search (`"Seq"`, `"CPU-Par"`,
    /// `"GPU-Par"`, `"CPU-Par-d"`, or `"<engine>[shards=n]"` through a
    /// shard coordinator).
    pub engine: String,
    /// Number of query keywords after index lookup.
    pub keywords: usize,
    /// One record per bottom-up BFS level, in level order.
    pub levels: Vec<TraceLevelRecord>,
    /// Total budget units charged across the whole search.
    pub total_expansions: u64,
    /// Whether the bottom-up stage was stopped by the `lmax` level cap
    /// rather than finding enough answers or exhausting the frontier.
    /// (Budget/deadline trips surface as errors, never as a trace.)
    pub terminated: bool,
    /// Pool session that executed the search.
    pub session_id: Option<u64>,
    /// Queries that session had run before this one (warmth indicator).
    pub session_queries: Option<u64>,
    /// Phase wall-times, serialized in milliseconds.
    pub phase_ms: PhaseProfile,
    /// Fleet-wide query ID assigned at accept (`None` for traces
    /// produced outside the serving/facade path).
    pub qid: Option<u64>,
    /// Per-shard stitched timelines for a remote query (`None` for
    /// local queries).
    pub shard_timelines: Option<Vec<ShardTimeline>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn trace_level_default_is_off() {
        assert!(!crate::SearchParams::default().trace);
        assert!(crate::SearchParams::default().with_trace(true).trace);
    }

    #[test]
    fn query_trace_round_trips_through_serde() {
        let t = QueryTrace {
            engine: "CPU-Seq".into(),
            keywords: 2,
            levels: vec![TraceLevelRecord {
                level: 0,
                frontier: 10,
                identified: 1,
                new_hits: 12,
                activation_deferred: 3,
                expansions: 20,
                budget_remaining: Some(980),
            }],
            total_expansions: 20,
            terminated: false,
            session_id: Some(4),
            session_queries: Some(7),
            phase_ms: PhaseProfile {
                expansion: Duration::from_millis(500),
                top_down: Duration::from_millis(250),
                ..PhaseProfile::default()
            },
            qid: Some(77),
            shard_timelines: Some(vec![ShardTimeline {
                shard: 1,
                qid: Some(77),
                rpcs: 4,
                rpc_us: 900,
                worker_us: 700,
                wire_us: 200,
                spans: vec![ShardSpan {
                    op: "expand".into(),
                    level: Some(2),
                    wait_us: 5,
                    decode_us: 10,
                    exec_us: 600,
                    encode_us: 85,
                }],
            }]),
        };
        let expected = concat!(
            r#"{"engine":"CPU-Seq","keywords":2,"levels":[{"level":0,"frontier":10,"#,
            r#""identified":1,"new_hits":12,"activation_deferred":3,"expansions":20,"#,
            r#""budget_remaining":980}],"total_expansions":20,"terminated":false,"#,
            r#""session_id":4,"session_queries":7,"phase_ms":{"init_ms":0.0,"#,
            r#""enqueue_ms":0.0,"identify_ms":0.0,"expansion_ms":500.0,"top_down_ms":250.0},"#,
            r#""qid":77,"shard_timelines":[{"shard":1,"qid":77,"#,
            r#""rpcs":4,"rpc_us":900,"worker_us":700,"wire_us":200,"spans":[{"op":"expand","#,
            r#""level":2,"wait_us":5,"decode_us":10,"exec_us":600,"encode_us":85}]}]}"#,
        );
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(json, expected, "every key, in order, with its number type");
        let back: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(back, serde_json::to_value(&t), "the text reads back as the same document");
    }

    #[test]
    fn absent_events_read_back_as_none() {
        let json = serde_json::to_string(&QueryTrace::default()).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let absent = ["session_id", "session_queries", "qid", "shard_timelines"];
        for key in absent {
            assert!(v[key].is_null(), "{key}: {v}");
        }
    }

    #[test]
    fn shard_span_worker_total_sums_all_phases() {
        let s = ShardSpan {
            op: "step".into(),
            level: Some(0),
            wait_us: 1,
            decode_us: 2,
            exec_us: 3,
            encode_us: 4,
        };
        assert_eq!(s.worker_us(), 10);
    }
}
