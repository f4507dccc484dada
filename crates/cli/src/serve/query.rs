//! Answering `QUERY` and `EXPLAIN`: one engine call under the server's
//! budget and panic isolation, one answer document, and the slow-query
//! log.
//!
//! ## Query IDs
//!
//! Every `QUERY`/`EXPLAIN` request is assigned a fleet-wide query ID at
//! admission (`u64`, dense from 1) and carries it as `"qid"` in its
//! response — answer documents *and* error documents alike, so a client
//! report ("qid 4812 was slow") joins against the slow-query log, the
//! `EXPLAIN` trace (`trace.qid`), the per-shard timelines of remote
//! serving (the qid rides the frame protocol, Hello-gated), and `TOP`'s
//! slowest-recent view. A cache hit reports its own qid. Only `EXPLAIN`
//! runs traced, and a traced request is always a live search, so its
//! trace describes the search that produced the answers beside it.
//!
//! ## Slow-query log
//!
//! `--slow-query-ms N` arms a slow-query log: the server measures its
//! own wall time around each search and a query at or over the
//! threshold appends one JSON line — `{"ts_ms", "qid", "query", "ms",
//! "threshold_ms", "error", "phase_ms"}` — to the file named by
//! `--slow-query-log` (default `slow_queries.jsonl`). The phase profile
//! is measured by every search anyway, so the log costs no tracing; for
//! a slow query's per-level trace, run `EXPLAIN` on it.

use super::protocol::Doc;
use super::ServeCounters;
use central::PhaseProfile;
use parking_lot::Mutex;
use serde_json::json;
use std::io::Write;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use wikisearch_engine::{QueryRequest, WikiSearch, WikiSearchResult};

/// The armed slow-query log: a threshold and an append-mode file handle.
pub(super) struct SlowLog {
    /// Queries taking at least this many wall-clock milliseconds
    /// (measured by the server around the whole search) are logged.
    threshold_ms: u64,
    /// Appended one JSON line per slow query; the mutex serializes
    /// writers so lines never interleave.
    file: Mutex<std::fs::File>,
}

impl SlowLog {
    /// Open (append/create) the log file.
    pub(super) fn open(path: &str, threshold_ms: u64) -> Result<SlowLog, String> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("--slow-query-log {path}: {e}"))?;
        Ok(SlowLog { threshold_ms, file: Mutex::new(file) })
    }

    /// Append one line for `answer` if it crossed the threshold.
    pub(super) fn maybe_log(&self, q: &str, answer: &Answer, counters: &ServeCounters) {
        if answer.wall_ms < self.threshold_ms as f64 {
            return;
        }
        counters.slow_queries.fetch_add(1, Ordering::SeqCst);
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let doc = json!({
            "ts_ms": ts_ms,
            "qid": answer.qid,
            "query": q,
            "ms": answer.wall_ms,
            "threshold_ms": self.threshold_ms,
            "error": answer.error,
            "phase_ms": answer.phase_ms.as_ref().map(serde_json::to_value),
        });
        let mut file = self.file.lock();
        let _ = writeln!(file, "{doc}");
    }
}

/// The outcome of one served query: the JSON response line and the
/// server-side observations the slow-query log needs. Only an answer
/// without an `error` counts toward `--max-requests`.
pub(super) struct Answer {
    /// The one-line JSON response.
    pub(super) doc: serde_json::Value,
    /// Server-measured wall time around the whole search, in ms.
    pub(super) wall_ms: f64,
    /// The fleet-wide query ID assigned at admission.
    pub(super) qid: u64,
    /// Per-phase wall times, when the search completed (measured by
    /// every search; what the slow-query log records).
    pub(super) phase_ms: Option<PhaseProfile>,
    /// The error kind (`"internal"`, `"deadline_exceeded"`,
    /// `"budget_exhausted"`, `"shard_unavailable"`) when the query failed
    /// — the document is then an error document, not an answer.
    pub(super) error: Option<&'static str>,
}

/// One response line for one `QUERY` or `EXPLAIN`, under the request's
/// budget and the server's panic isolation. `req.qid` was assigned at
/// admission and rides the response — error documents included. With
/// `req.params.trace` the full execution trace is attached to the
/// document (the engine runs a traced request live, never from the
/// cache). The engine counts every refusal it returns, so the budget and
/// shard-availability counters on `STATS` need no bookkeeping here.
pub(super) fn answer_query(
    ws: &WikiSearch,
    req: &QueryRequest<'_>,
    counters: &ServeCounters,
) -> Answer {
    let qid = req.qid.expect("the server assigns a qid at admission");
    let started = Instant::now();
    // Panic isolation boundary: a panicking search unwinds through the
    // pooled session's guard (quarantining the session) and is caught
    // here, so the worker and its other clients are unaffected.
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| ws.execute(req)));
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let failed = |error: &'static str, detail: String| Answer {
        doc: json!({ "error": error, "detail": detail, "query": req.query, "qid": qid }),
        wall_ms,
        qid,
        phase_ms: None,
        error: Some(error),
    };
    let result = match result {
        Ok(Ok(result)) => result,
        Ok(Err(e)) => return failed(e.kind(), e.to_string()),
        Err(_panic) => {
            counters.panics.fetch_add(1, Ordering::SeqCst);
            let detail = "query execution panicked; its session was quarantined";
            return failed("internal", detail.to_owned());
        }
    };
    let mut doc = answer_document(ws, req.query, &result);
    if req.params.trace {
        doc.put("trace", json!(result.trace.as_deref()));
    }
    Answer { doc: doc.into(), wall_ms, qid, phase_ms: Some(result.profile), error: None }
}

/// The success-path JSON document shared by `QUERY` and `EXPLAIN`.
fn answer_document(ws: &WikiSearch, q: &str, result: &WikiSearchResult) -> Doc {
    let answers: Vec<serde_json::Value> = result
        .answers
        .iter()
        .map(|a| {
            json!({
                "central": ws.graph().node_text(a.central),
                "depth": a.depth,
                "score": a.score,
                "nodes": a.nodes.len(),
                "edges": a.edges.len(),
            })
        })
        .collect();
    let mut doc = Doc::default();
    doc.put("query", json!(q));
    doc.put("qid", json!(result.qid));
    doc.put("answers", json!(answers));
    doc.put("unmatched", json!(result.query.unmatched));
    doc.put("ms", json!(result.profile.total().as_secs_f64() * 1e3));
    doc.put("degraded", json!(result.degraded));
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::tests::tiny_engine;
    use central::QueryBudget;
    use std::time::Duration;

    #[test]
    fn deadline_zero_timeout_yields_structured_error() {
        // --timeout-ms cannot be 0 (that means "off"), so drive an
        // always-expiring deadline through answer_query directly.
        let ws = tiny_engine();
        let counters = ServeCounters::default();
        let expired = QueryBudget::unlimited().with_timeout(Duration::ZERO);
        let req = QueryRequest {
            budget: expired,
            qid: Some(11),
            ..QueryRequest::new("xml sql", ws.params())
        };
        let answer = answer_query(&ws, &req, &counters);
        assert_eq!(answer.doc["error"], "deadline_exceeded");
        assert_eq!(answer.doc["qid"], 11u64, "error documents carry the qid");
        assert_eq!(answer.error, Some("deadline_exceeded"));
        assert!(answer.phase_ms.is_none(), "failed queries have no phase profile");
        assert_eq!(ws.metrics_snapshot().deadline_exceeded, 1, "the engine counted the refusal");
        // And an unlimited budget still answers.
        let req = QueryRequest { qid: Some(12), ..QueryRequest::new("xml sql", ws.params()) };
        let answer = answer_query(&ws, &req, &counters);
        assert!(answer.error.is_none(), "{}", answer.doc);
        assert_eq!(answer.doc["qid"], 12u64, "answer documents carry the qid");
        assert!(answer.doc.get("trace").is_none(), "untraced queries carry no trace");
        assert!(answer.phase_ms.is_some(), "every completed search has a phase profile");
        assert_eq!(counters.served.load(Ordering::SeqCst), 0, "served is counted by the caller");
    }

    #[test]
    fn traced_answers_carry_a_trace_without_changing_the_document() {
        let ws = tiny_engine();
        let counters = ServeCounters::default();
        let plain = answer_query(
            &ws,
            &QueryRequest { qid: Some(1), ..QueryRequest::new("xml sql", ws.params()) },
            &counters,
        );
        let traced = ws.params().clone().with_trace(true);
        let explained = answer_query(
            &ws,
            &QueryRequest { qid: Some(2), ..QueryRequest::new("xml sql", &traced) },
            &counters,
        );
        assert!(explained.error.is_none());
        assert!(!explained.doc["trace"]["levels"].as_array().unwrap().is_empty(), "per-level");
        // A QUERY's document carries no trace, and the answers are the
        // same either way.
        assert!(plain.doc.get("trace").is_none(), "{}", plain.doc);
        assert_eq!(
            serde_json::to_string(&plain.doc["answers"]).unwrap(),
            serde_json::to_string(&explained.doc["answers"]).unwrap()
        );
    }

    #[test]
    fn explain_attaches_the_trace_to_the_answer_document() {
        let ws = tiny_engine();
        let counters = ServeCounters::default();
        let traced = ws.params().clone().with_trace(true);
        let req = QueryRequest { qid: Some(7), ..QueryRequest::new("xml sql", &traced) };
        let doc = answer_query(&ws, &req, &counters).doc;
        assert_eq!(doc["answers"][0]["central"], "query language", "{doc}");
        assert_eq!(doc["qid"], 7u64, "{doc}");
        assert!(doc["trace"]["levels"].is_array(), "{doc}");
        assert_eq!(doc["trace"]["qid"], 7u64, "the trace joins on the same qid: {doc}");
        assert_eq!(doc["trace"]["keywords"], 2u64, "{doc}");
        // EXPLAIN under an expired deadline reports the structured error.
        let expired = QueryBudget::unlimited().with_timeout(Duration::ZERO);
        let req = QueryRequest { budget: expired, qid: Some(8), ..req };
        let doc = answer_query(&ws, &req, &counters).doc;
        assert_eq!(doc["error"], "deadline_exceeded", "{doc}");
        assert_eq!(doc["qid"], 8u64, "{doc}");
    }

    fn slow_answer(wall_ms: f64, qid: u64) -> Answer {
        Answer {
            doc: json!({}),
            wall_ms,
            qid,
            phase_ms: Some(PhaseProfile {
                expansion: Duration::from_millis(33),
                ..PhaseProfile::default()
            }),
            error: None,
        }
    }

    #[test]
    fn slow_log_records_only_over_threshold_queries() {
        let path = std::env::temp_dir()
            .join(format!("ws-slowlog-unit-{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let _ = std::fs::remove_file(&path);
        let slow = SlowLog::open(&path, 50).unwrap();
        let counters = ServeCounters::default();
        slow.maybe_log("quick", &slow_answer(1.0, 1), &counters);
        slow.maybe_log("laggard", &slow_answer(80.0, 2), &counters);
        assert_eq!(counters.slow_queries.load(Ordering::SeqCst), 1);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1, "only the over-threshold query is logged: {text}");
        let doc: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(doc["query"], "laggard");
        assert_eq!(doc["qid"], 2u64, "the slow-query line joins on the qid: {doc}");
        assert_eq!(doc["threshold_ms"], 50u64);
        assert!(doc["phase_ms"]["expansion_ms"].is_number(), "{doc}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn untraced_slow_log_lines_carry_qid_and_phases_but_no_trace() {
        let path = std::env::temp_dir()
            .join(format!("ws-slowlog-unit2-{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let _ = std::fs::remove_file(&path);
        // Queries run untraced, so a logged line carries the qid and the
        // phase profile, and no trace key.
        let slow = SlowLog::open(&path, 50).unwrap();
        let counters = ServeCounters::default();
        slow.maybe_log("laggard", &slow_answer(80.0, 9), &counters);
        let text = std::fs::read_to_string(&path).unwrap();
        let doc: serde_json::Value = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        assert_eq!(doc["qid"], 9u64, "{doc}");
        assert_eq!(doc["phase_ms"]["expansion_ms"], 33.0, "{doc}");
        let serde_json::Value::Object(entries) = &doc else {
            panic!("{doc}")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        let schema = ["ts_ms", "qid", "query", "ms", "threshold_ms", "error", "phase_ms"];
        assert_eq!(keys, schema, "untraced lines have no trace: {doc}");
        let _ = std::fs::remove_file(&path);
    }
}
