//! Protocol fuzzing: arbitrary byte streams thrown at a live server must
//! always produce exactly one response line per request line — a
//! structured JSON error for garbage — and must never crash the server
//! or desynchronize the connection.

mod common;

use common::{connect, shared_server};
use proptest::collection::vec;
use proptest::prelude::*;

/// Make raw fuzz bytes into exactly one request line that expects one
/// response: strip newlines (they would split the request) and dodge the
/// one input with no response line, a well-formed `QUIT`.
fn as_request_line(mut bytes: Vec<u8>) -> Vec<u8> {
    for b in &mut bytes {
        if *b == b'\n' {
            *b = b'.';
        }
    }
    if let Ok(text) = std::str::from_utf8(&bytes) {
        if text.trim().eq_ignore_ascii_case("quit") {
            bytes.push(b'x');
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn every_request_line_gets_exactly_one_response_line(
        raw_lines in vec(vec(0u8..=255u8, 0..120), 1..8),
    ) {
        let mut client = connect(shared_server());
        for raw in raw_lines {
            let request = as_request_line(raw);
            let response = client.request(&request);
            let valid = response == "PONG"
                || serde_json::from_str::<serde_json::Value>(&response).is_ok();
            assert!(valid, "unparseable response to {request:?}: {response:?}");
        }

        // The connection survived the garbage: a real query still works.
        let response = client.request("QUERY xml sql");
        assert!(response.contains("answers"), "{response}");
        client.send("QUIT");
    }
}
