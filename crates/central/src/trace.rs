//! Per-query execution traces: what [`crate::profile::PhaseProfile`] is to
//! wall-clock phases, [`QueryTrace`] is to the *shape* of a search — one
//! record per BFS level of Algorithm 1/2 (frontier size, expansion work,
//! newly covered keywords, activation gating, budget headroom) plus the
//! cache and session-pool events around it.
//!
//! Tracing is opt-in via [`TraceLevel`] on `SearchParams` and is designed
//! to be zero-cost when disabled: every collection site is gated on
//! `params.trace.enabled()`, the budget tracker only arms its expansion
//! counter in tracing (or capped) mode, and `SearchOutcome` carries the
//! trace as `Option<Box<QueryTrace>>` so the disabled path moves one null
//! pointer. A differential test asserts that enabling tracing leaves
//! search results byte-for-byte identical.

use crate::profile::PhaseProfile;
use serde::{DeError, Deserialize, Serialize, Value};

/// How much per-query trace detail to collect.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceLevel {
    /// No trace (the default): collection sites compile down to a
    /// predictable branch, and no allocation happens on the query path.
    #[default]
    Off,
    /// Collect the full per-level trace.
    Full,
}

impl TraceLevel {
    /// Whether any trace should be collected.
    #[inline]
    pub fn enabled(self) -> bool {
        !matches!(self, TraceLevel::Off)
    }
}

// The vendored serde shim derives structs only; enums carry hand-written
// impls. `TraceLevel` encodes as `"off"` / `"full"`, and an absent field
// (`null`) reads as the default, matching `#[serde(default)]`.
impl Serialize for TraceLevel {
    fn to_value(&self) -> Value {
        Value::String(match self {
            TraceLevel::Off => "off".to_owned(),
            TraceLevel::Full => "full".to_owned(),
        })
    }
}

impl Deserialize for TraceLevel {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(TraceLevel::default()),
            _ => match v.as_str() {
                Some("off") => Ok(TraceLevel::Off),
                Some("full") => Ok(TraceLevel::Full),
                _ => Err(v.type_error("trace level (\"off\" or \"full\")")),
            },
        }
    }
}

/// One bottom-up BFS level as the search engine saw it.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
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

/// How the result cache participated in a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the cache; no search ran.
    Hit,
    /// Looked up, not found; the search ran and the result was inserted.
    Miss,
    /// The cache was not consulted (disabled, or an EXPLAIN query).
    Bypass,
}

impl Serialize for CacheOutcome {
    fn to_value(&self) -> Value {
        Value::String(
            match self {
                CacheOutcome::Hit => "hit",
                CacheOutcome::Miss => "miss",
                CacheOutcome::Bypass => "bypass",
            }
            .to_owned(),
        )
    }
}

impl Deserialize for CacheOutcome {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v.as_str() {
            Some("hit") => Ok(CacheOutcome::Hit),
            Some("miss") => Ok(CacheOutcome::Miss),
            Some("bypass") => Ok(CacheOutcome::Bypass),
            _ => Err(v.type_error("cache outcome (\"hit\", \"miss\" or \"bypass\")")),
        }
    }
}

/// Phase wall-times in milliseconds, the serialization-friendly face of
/// [`PhaseProfile`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseMillis {
    /// State initialisation / epoch bump.
    pub init_ms: f64,
    /// Frontier enqueue (Algorithm 1 lines 3–5).
    pub enqueue_ms: f64,
    /// Central-node identification.
    pub identify_ms: f64,
    /// Frontier expansion (Algorithm 2).
    pub expansion_ms: f64,
    /// Top-down extraction, pruning and ranking (Algorithm 3).
    pub top_down_ms: f64,
}

impl From<&PhaseProfile> for PhaseMillis {
    fn from(p: &PhaseProfile) -> Self {
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        PhaseMillis {
            init_ms: ms(p.init),
            enqueue_ms: ms(p.enqueue),
            identify_ms: ms(p.identify),
            expansion_ms: ms(p.expansion),
            top_down_ms: ms(p.top_down),
        }
    }
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
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
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
/// when [`TraceLevel::Full`] is requested and surfaced verbatim by the
/// server's `EXPLAIN` verb and the slow-query log.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct QueryTrace {
    /// Engine that executed the search (`"Seq"`, `"CPU-Par"`,
    /// `"GPU-Par"`, `"CPU-Par-d"`), or `"cache"` for a cache hit.
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
    /// How the result cache participated, if it was on the path
    /// (serialized as `null` when the query never saw a cache).
    pub cache: Option<CacheOutcome>,
    /// Pool session that executed the search.
    pub session_id: Option<u64>,
    /// Queries that session had run before this one (warmth indicator).
    pub session_queries: Option<u64>,
    /// Phase wall-times in milliseconds.
    pub phase_ms: PhaseMillis,
    /// Fleet-wide query ID assigned at accept (`None` for traces
    /// produced outside the serving/facade path).
    pub qid: Option<u64>,
    /// On a cache hit: the query ID that populated the entry being
    /// served, so a stale or wrong cached answer can be traced back to
    /// the query that computed it.
    pub cache_source_qid: Option<u64>,
    /// Per-shard stitched timelines for a remote query (`None` for
    /// local queries).
    pub shard_timelines: Option<Vec<ShardTimeline>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_level_default_is_off() {
        assert_eq!(TraceLevel::default(), TraceLevel::Off);
        assert!(!TraceLevel::Off.enabled());
        assert!(TraceLevel::Full.enabled());
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
            cache: Some(CacheOutcome::Miss),
            session_id: Some(4),
            session_queries: Some(7),
            phase_ms: PhaseMillis::default(),
            qid: Some(77),
            cache_source_qid: Some(41),
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
        let json = serde_json::to_string(&t).unwrap();
        assert!(json.contains("\"cache\":\"miss\""));
        assert!(json.contains("\"qid\":77"));
        let back: QueryTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn absent_events_read_back_as_none() {
        let json = serde_json::to_string(&QueryTrace::default()).unwrap();
        let back: QueryTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back.session_id, None);
        assert_eq!(back.cache, None);
        assert_eq!(back.qid, None);
        assert_eq!(back.cache_source_qid, None);
        assert_eq!(back.shard_timelines, None);
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
