//! The shard coordinator and its workers: one level-synchronous
//! coordinator over `N` shard lanes, reached either in this process or in
//! shard-worker processes speaking a length-prefixed binary frame
//! protocol, behind the same seam as the solo engines.
//!
//! This is the DKWS-style distributed design (arXiv:2309.01199) whose
//! round protocol [`crate::shard`] states (scatter → local BFS rounds →
//! boundary-notification exchange → merge) and argues answer-identical to
//! the monolithic engines; splitting it across processes changes no byte
//! of the answers. The layers:
//!
//! * [`wire`] — the typed message schema — per query a `Start`, a `Step`
//!   and an `Expand` per BFS level, and a `Collect` — and its JSON
//!   encoding;
//! * [`frame`] — the TCP link's framing: `[u32 len LE][u8 opcode][payload]`,
//!   hard-capped, with an incremental decoder hardened against arbitrary
//!   byte streams;
//! * [`worker`] — [`worker::ShardWorker`]: owns one part of the partition
//!   and the typed, transport-free handlers of a lane over it; serves them
//!   over TCP, one connection per coordinator channel (a worker process
//!   derives its part locally from the `(shards, seed)` contract —
//!   sub-graphs never travel);
//! * [`coordinator`] — [`coordinator::ShardCoordinator`]: drives the
//!   lanes through channels whose link is an owned in-process lane or a
//!   persistent TCP connection, with per-RPC deadlines, bounded retry with
//!   backoff + jitter, probe-based failure attribution, and per-shard
//!   circuit breakers ([`breaker`]), degrading or shedding per
//!   [`coordinator::RemoteOptions::degraded_answers`] when a shard stays
//!   down.
//!
//! The equivalence and failure contracts are pinned by: the
//! `shard_equivalence` and `remote_equivalence` differential suites (each
//! link == the solo sequential engine, byte-identical, both shard
//! backends), the scripted supervision tests in [`coordinator`] (drop /
//! garbage / stall at RPC *n* of an in-process fleet, no socket), the
//! frame-robustness proptest (arbitrary bytes never panic or
//! over-allocate the decoder), and the process-level chaos suite in the
//! CLI crate (worker kill / stall / garbage under concurrent well-behaved
//! load).

pub mod breaker;
pub mod coordinator;
pub mod frame;
pub mod wire;
pub mod worker;

pub use breaker::{BreakerState, CircuitBreaker};
pub use coordinator::{
    RemoteOptions, RemoteStats, ShardAddrs, ShardCoordinator, ShardedOutcome, StaticAddrs,
};
pub use frame::{FrameDecoder, FrameError, MAX_FRAME};
pub use worker::ShardWorker;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{digest, KeywordSearchEngine, SeqEngine};
    use crate::shard::{ShardBackend, DEFAULT_PARTITION_SEED};
    use crate::{QueryBudget, SearchParams};
    use kgraph::{GraphBuilder, KnowledgeGraph};
    use std::sync::Arc;
    use std::time::Duration;
    use textindex::{InvertedIndex, ParsedQuery};

    fn fixture() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        let hub = b.add_node("hub", "junction");
        for i in 0..5 {
            let a = b.add_node(&format!("a{i}"), "alpha");
            b.add_edge(a, hub, "p");
        }
        for i in 0..5 {
            let z = b.add_node(&format!("z{i}"), "omega");
            b.add_edge(hub, z, if i % 2 == 0 { "p" } else { "q" });
        }
        b.add_node("lone", "isolated");
        b.build()
    }

    /// Spin up an in-process worker fleet and a coordinator over it, with
    /// deterministic supervision knobs (no heartbeat, no retry waits).
    fn remote(g: &KnowledgeGraph, backend: ShardBackend, shards: usize) -> ShardCoordinator {
        let addrs: Vec<_> = (0..shards)
            .map(|s| ShardWorker::spawn_local(g, shards, s, DEFAULT_PARTITION_SEED))
            .collect();
        let opts = RemoteOptions {
            heartbeat: None,
            backoff_base: Duration::from_millis(1),
            ..RemoteOptions::default()
        };
        ShardCoordinator::remote(g, backend, shards, Arc::new(StaticAddrs(addrs)), opts)
    }

    #[test]
    fn remote_search_matches_the_monolithic_engine() {
        let g = fixture();
        let idx = InvertedIndex::build(&g);
        let params = SearchParams::default().with_average_distance(1.0);
        for raw in ["alpha omega", "alpha junction", "omega"] {
            let query = ParsedQuery::parse(&idx, raw);
            let mono = SeqEngine::new().search(&g, &query, &params);
            for shards in [1, 2, 3] {
                let r = remote(&g, ShardBackend::Seq, shards);
                let out = r
                    .try_search(&g, &query, &params, &QueryBudget::unlimited(), None)
                    .expect("unlimited budget");
                assert!(!out.degraded);
                assert_eq!(digest(&out.outcome), digest(&mono), "query {raw:?}, {shards} shards");
            }
        }
    }

    #[test]
    fn remote_traces_match_the_in_process_sharded_traces() {
        let g = fixture();
        let idx = InvertedIndex::build(&g);
        let params = SearchParams::default()
            .with_average_distance(1.0)
            .with_trace(crate::trace::TraceLevel::Full);
        let query = ParsedQuery::parse(&idx, "alpha omega");
        let budget = QueryBudget::unlimited();
        let sharded = ShardCoordinator::in_process(&g, ShardBackend::ParCpu(2), 3);
        let local = sharded.try_search(&g, &query, &params, &budget, None).expect("unlimited");
        let r = remote(&g, ShardBackend::ParCpu(2), 3);
        let out = r.try_search(&g, &query, &params, &budget, None).expect("unlimited");
        assert_eq!(digest(&out.outcome), digest(&local.outcome));
        let (lt, rt) = (local.outcome.trace.unwrap(), out.outcome.trace.unwrap());
        assert_eq!(rt.levels, lt.levels);
        assert_eq!(rt.total_expansions, lt.total_expansions);
        assert_eq!(rt.engine, lt.engine, "the engine name does not tell the link");
    }

    #[test]
    fn budget_error_classes_survive_the_wire() {
        let g = fixture();
        let idx = InvertedIndex::build(&g);
        let query = ParsedQuery::parse(&idx, "alpha omega");
        let r = remote(&g, ShardBackend::Seq, 2);
        let err = r
            .try_search(
                &g,
                &query,
                &SearchParams::default(),
                &QueryBudget::unlimited().with_timeout(Duration::ZERO),
                None,
            )
            .unwrap_err();
        assert_eq!(err.kind(), "deadline_exceeded");
        // The in-process link agrees on the expansion cap's class.
        for fleet in [r, ShardCoordinator::in_process(&g, ShardBackend::Seq, 2)] {
            let err = fleet
                .try_search(
                    &g,
                    &query,
                    &SearchParams::default().with_average_distance(1.0),
                    &QueryBudget::unlimited().with_max_expansions(1),
                    None,
                )
                .unwrap_err();
            assert_eq!(err.kind(), "budget_exhausted");
        }
    }

    #[test]
    fn empty_query_short_circuits_without_any_rpc() {
        let g = fixture();
        let idx = InvertedIndex::build(&g);
        let query = ParsedQuery::parse(&idx, "zzznothing");
        // No workers at all: the empty query never touches the network.
        let opts = RemoteOptions { heartbeat: None, ..RemoteOptions::default() };
        let r =
            ShardCoordinator::remote(&g, ShardBackend::Seq, 2, Arc::new(StaticAddrs(vec![])), opts);
        let out = r
            .try_search(&g, &query, &SearchParams::default(), &QueryBudget::unlimited(), None)
            .expect("no network needed");
        assert!(out.outcome.answers.is_empty());
        assert!(!out.degraded);
        assert_eq!(r.stats().rpcs, 0);
    }

    /// An explicit activation table one entry short of the graph fails
    /// [`crate::bottom_up::pre_flight`] on the caller's thread on every
    /// path — solo, 2 in-process shards, a loopback fleet — before any
    /// session is armed or RPC issued, and the engine answers the next
    /// query normally.
    #[test]
    fn a_short_activation_table_fails_pre_flight_on_every_path() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let g = fixture();
        let idx = InvertedIndex::build(&g);
        let query = ParsedQuery::parse(&idx, "alpha omega");
        let n = g.num_nodes();
        let good = SearchParams::default().with_explicit_activation(vec![0; n]);
        let short = SearchParams::default().with_explicit_activation(vec![0; n - 1]);
        let budget = QueryBudget::unlimited();
        let message = format!("explicit activation table holds {} levels for {n} nodes", n - 1);
        let assert_rejected = |search: &mut dyn FnMut(&SearchParams) -> String| {
            let payload = catch_unwind(AssertUnwindSafe(|| search(&short)))
                .expect_err("a short table must not reach the expansion");
            assert_eq!(payload.downcast_ref::<String>(), Some(&message));
        };

        let mut session = crate::SearchSession::new();
        let mut solo = |p: &SearchParams| {
            digest(&SeqEngine::new().search_session(&mut session, &g, &query, p))
        };
        assert_rejected(&mut solo);
        let want = solo(&good);
        assert!(want.contains("[c:"), "the good table answers: {want}");
        assert_eq!(session.queries_run(), 1, "the rejected query never armed the session");

        let sharded = ShardCoordinator::in_process(&g, ShardBackend::Seq, 2);
        let mut two_shards = |p: &SearchParams| {
            digest(&sharded.try_search(&g, &query, p, &budget, None).unwrap().outcome)
        };
        assert_rejected(&mut two_shards);
        assert_eq!(two_shards(&good), want, "2 shards");

        let fleet = remote(&g, ShardBackend::Seq, 2);
        let mut loopback = |p: &SearchParams| {
            digest(&fleet.try_search(&g, &query, p, &budget, None).unwrap().outcome)
        };
        assert_rejected(&mut loopback);
        assert_eq!(fleet.stats().rpcs, 0, "a bad query costs the fleet nothing");
        assert!(fleet.breaker_states().iter().all(|b| *b == BreakerState::Closed));
        assert_eq!(loopback(&good), want, "loopback fleet");
    }

    #[test]
    fn traced_remote_queries_stitch_per_shard_timelines() {
        let g = fixture();
        let idx = InvertedIndex::build(&g);
        let query = ParsedQuery::parse(&idx, "alpha omega");
        let params = SearchParams::default()
            .with_average_distance(1.0)
            .with_trace(crate::trace::TraceLevel::Full);
        let shards = 3;
        let r = remote(&g, ShardBackend::Seq, shards);
        let out = r
            .try_search(&g, &query, &params, &QueryBudget::unlimited(), Some(42))
            .expect("unlimited budget");
        let trace = out.outcome.trace.expect("traced query carries a trace");
        assert_eq!(trace.qid, Some(42));
        let timelines = trace.shard_timelines.expect("remote traces stitch timelines");
        assert_eq!(timelines.len(), shards, "one timeline per live shard");
        let levels: Vec<u32> = trace.levels.iter().map(|l| l.level).collect();
        let rounds = r.stats().exchange.rounds;
        for tl in &timelines {
            assert_eq!(tl.qid, Some(42), "worker echoes the fleet-wide qid");
            assert!(tl.rpcs > 0, "every shard served RPCs");
            assert!(!tl.spans.is_empty(), "traced queries ship spans");
            assert_eq!(
                tl.worker_us,
                tl.spans.iter().map(crate::trace::ShardSpan::worker_us).sum::<u64>(),
                "worker total is the sum of its spans"
            );
            assert!(tl.rpc_us >= tl.worker_us, "worker intervals nest inside the RPC envelope");
            assert_eq!(tl.wire_us, tl.rpc_us - tl.worker_us);
            // Per-level spans reconcile with the coordinator's level
            // records: one start and one collect; a step per driven level
            // plus the closing one that found the frontier dry (this query
            // runs out of frontier before 20 answers), each tagged with its
            // level; an expand per exchange round; nothing else.
            let ops = |op: &str| tl.spans.iter().filter(|s| s.op == op).count();
            assert_eq!((ops("start"), ops("collect")), (1, 1));
            let steps: Vec<u32> =
                tl.spans.iter().filter(|s| s.op == "step").filter_map(|s| s.level).collect();
            let closing = levels.len() as u32;
            assert_eq!(steps, levels.iter().copied().chain([closing]).collect::<Vec<_>>());
            assert_eq!(ops("expand") as u64, rounds, "one expand per exchange round");
            for span in tl.spans.iter().filter(|s| s.op == "expand") {
                let level = span.level.expect("expand spans are level-tagged");
                assert!(levels.contains(&level), "span level {level} not in {levels:?}");
            }
            assert_eq!(tl.spans.len(), 2 + steps.len() + rounds as usize, "no other op");
        }
    }

    #[test]
    fn handshake_rejects_a_mismatched_partition_contract() {
        let g = fixture();
        // Worker built for a 3-shard partition; coordinator expects 2.
        let addr = ShardWorker::spawn_local(&g, 3, 0, DEFAULT_PARTITION_SEED);
        let opts = RemoteOptions {
            heartbeat: None,
            attempts: 1,
            backoff_base: Duration::from_millis(1),
            ..RemoteOptions::default()
        };
        let r = ShardCoordinator::remote(
            &g,
            ShardBackend::Seq,
            2,
            Arc::new(StaticAddrs(vec![addr, addr])),
            opts,
        );
        let idx = InvertedIndex::build(&g);
        let query = ParsedQuery::parse(&idx, "alpha omega");
        let err = r
            .try_search(
                &g,
                &query,
                &SearchParams::default().with_average_distance(1.0),
                &QueryBudget::unlimited(),
                None,
            )
            .unwrap_err();
        assert_eq!(err.kind(), "shard_unavailable", "contract mismatch = unusable worker");
    }

    #[test]
    fn worker_answers_any_other_protocol_revision_with_bad_handshake() {
        let g = fixture();
        let addr = ShardWorker::spawn_local(&g, 2, 0, DEFAULT_PARTITION_SEED);
        let hello = |version| wire::Hello {
            version,
            shards: 2,
            shard_index: 0,
            num_nodes: g.num_nodes() as u64,
            seed: DEFAULT_PARTITION_SEED,
        };
        let greet = |version| {
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            frame::write_frame(&mut stream, wire::OP_HELLO, &wire::encode(&hello(version)))
                .unwrap();
            frame::read_frame(&mut stream)
                .unwrap()
                .expect("the worker answers before closing")
        };
        let (op, _) = greet(wire::PROTOCOL_VERSION);
        assert_eq!(op, wire::OP_HELLO_OK);
        for other in [wire::PROTOCOL_VERSION - 1, wire::PROTOCOL_VERSION + 1] {
            let (op, body) = greet(other);
            assert_eq!(op, wire::OP_ERROR, "revision {other} must be refused");
            let err: wire::WireError = wire::decode(&body).unwrap();
            assert_eq!(err.code, "bad_handshake");
        }
    }
}
