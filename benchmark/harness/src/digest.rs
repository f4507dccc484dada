//! Response digests: what "the same answer" means to the oracle.
//!
//! A `QUERY` response is one JSON object. Its `qid` and `ms` differ on
//! every call, `query` echoes the request's own surface text, and later
//! changes may add top-level keys; none of that is part of the answer.
//! The digest covers exactly `answers[*].{central,depth,score,nodes,edges}`
//! in order plus `unmatched`, so two responses digest alike iff they rank
//! the same Central Graphs with the same scores.

use serde_json::Value;

/// How one response line classifies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// An answer document, with its digest.
    Answer(u64),
    /// A structured error or refusal (`{"error": kind, ...}`).
    Error(String),
    /// Not a JSON object with `answers` or `error` at all.
    Malformed,
}

/// Classify and digest one response line.
pub fn classify(line: &str) -> Outcome {
    let Ok(doc) = serde_json::from_str::<Value>(line.trim_end()) else {
        return Outcome::Malformed;
    };
    if let Some(kind) = doc.get("error") {
        return Outcome::Error(kind.as_str().unwrap_or("error").to_string());
    }
    match canonical(&doc) {
        Some(text) => Outcome::Answer(fnv1a(text.as_bytes())),
        None => Outcome::Malformed,
    }
}

/// The canonical text the digest hashes, or `None` when `doc` is not an
/// answer document. Field order inside an answer is fixed here, so a
/// server that reorders its keys still digests alike; a *missing* field
/// is rendered as `null` and therefore changes the digest.
pub fn canonical(doc: &Value) -> Option<String> {
    let answers = doc.get("answers")?.as_array()?;
    let mut out = String::new();
    for a in answers {
        for field in ["central", "depth", "score", "nodes", "edges"] {
            out.push_str(&a.get(field).map(Value::to_string).unwrap_or_else(|| "null".into()));
            out.push('\u{1f}');
        }
        out.push('\u{1e}');
    }
    out.push_str("unmatched=");
    out.push_str(&doc.get("unmatched").map(Value::to_string).unwrap_or_else(|| "null".into()));
    Some(out)
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{"query": "xml sql", "qid": 7, "answers": [{"central": "query language", "depth": 1, "score": 0.25, "nodes": 3, "edges": 2}], "unmatched": [], "ms": 1.5, "degraded": false}"#;

    fn digest(line: &str) -> u64 {
        match classify(line) {
            Outcome::Answer(d) => d,
            other => panic!("not an answer: {other:?}"),
        }
    }

    #[test]
    fn volatile_and_unknown_keys_do_not_change_the_digest() {
        let other = r#"{"future_key": [1, 2], "ms": 99.0, "qid": 123456, "query": "SQL the XML", "unmatched": [], "answers": [{"edges": 2, "nodes": 3, "score": 0.25, "depth": 1, "central": "query language", "extra": true}], "degraded": true}"#;
        assert_eq!(digest(BASE), digest(other));
        assert_eq!(digest(BASE), digest(&format!("{BASE}\n")), "trailing newline ignored");
    }

    #[test]
    fn every_answer_field_and_the_order_matter() {
        let d = digest(BASE);
        for (from, to) in [
            ("\"query language\"", "\"query languages\""),
            ("\"depth\": 1", "\"depth\": 2"),
            ("0.25", "0.250001"),
            ("\"nodes\": 3", "\"nodes\": 4"),
            ("\"edges\": 2", "\"edges\": 1"),
            ("\"unmatched\": []", "\"unmatched\": [\"zzz\"]"),
        ] {
            assert_ne!(d, digest(&BASE.replace(from, to)), "{from} -> {to}");
        }
        let two = r#"{"answers": [{"central": "a", "depth": 0, "score": 0.0, "nodes": 1, "edges": 0}, {"central": "b", "depth": 0, "score": 0.0, "nodes": 1, "edges": 0}], "unmatched": []}"#;
        let swapped = r#"{"answers": [{"central": "b", "depth": 0, "score": 0.0, "nodes": 1, "edges": 0}, {"central": "a", "depth": 0, "score": 0.0, "nodes": 1, "edges": 0}], "unmatched": []}"#;
        assert_ne!(digest(two), digest(swapped), "rank order is part of the answer");
        let missing = r#"{"answers": [{"central": "a", "depth": 0, "nodes": 1, "edges": 0}], "unmatched": []}"#;
        let present = r#"{"answers": [{"central": "a", "depth": 0, "score": 0.0, "nodes": 1, "edges": 0}], "unmatched": []}"#;
        assert_ne!(digest(missing), digest(present), "a dropped field is a changed answer");
    }

    #[test]
    fn errors_and_garbage_are_not_answers() {
        assert_eq!(
            classify(r#"{"error":"overloaded","detail":"request queue full, retry later"}"#),
            Outcome::Error("overloaded".into())
        );
        assert_eq!(
            classify(r#"{"error":"deadline_exceeded","query":"x","qid":3}"#),
            Outcome::Error("deadline_exceeded".into())
        );
        assert_eq!(classify("PONG"), Outcome::Malformed);
        assert_eq!(classify(r#"{"served": 3}"#), Outcome::Malformed);
        assert_eq!(classify(r#"{"answers": 3}"#), Outcome::Malformed);
        assert_eq!(classify(""), Outcome::Malformed);
    }

    #[test]
    fn empty_answer_sets_still_digest() {
        let a = digest(r#"{"answers": [], "unmatched": ["zzz"]}"#);
        let b = digest(r#"{"answers": [], "unmatched": []}"#);
        assert_ne!(a, b);
    }
}
