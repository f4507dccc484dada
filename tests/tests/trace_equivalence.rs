//! Tracing must be a pure observer: running any engine with
//! `SearchParams::trace` set returns byte-for-byte identical answers and
//! statistics to the untraced run, on arbitrary graphs and queries, for
//! all four engines.
//!
//! This is the differential guarantee the whole observability layer
//! leans on — `EXPLAIN` and `search --explain` re-run queries traced,
//! and may only do so because tracing provably never changes what the
//! user gets back. The suite also asserts the positive side: every
//! engine produces a structurally coherent per-level trace (level
//! numbers consecutive, frontier counts matching the engine's own
//! `SearchStats`, expansion totals consistent).

mod common;

use central::engine::{DynParEngine, GpuStyleEngine, KeywordSearchEngine, ParCpuEngine, SeqEngine};
use central::SearchParams;
use common::{build_graph, case_strategy, digest, raw_query};
use kgraph::GraphBuilder;
use proptest::prelude::*;
use textindex::{InvertedIndex, ParsedQuery};
use wikisearch_engine::{Backend, QueryRequest, WikiSearch};

fn engines() -> Vec<Box<dyn KeywordSearchEngine>> {
    vec![
        Box::new(SeqEngine::new()),
        Box::new(ParCpuEngine::new(3)),
        Box::new(GpuStyleEngine::new(3)),
        Box::new(DynParEngine::new(3)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn tracing_never_changes_any_engines_answers(case in case_strategy(24, 50)) {
        let graph = build_graph(&case);
        let idx = InvertedIndex::build(&graph);
        let query = ParsedQuery::parse(&idx, &raw_query(&case.query));
        let base = SearchParams { top_k: case.top_k, max_level: 12, ..SearchParams::default() };
        let traced_params = base.clone().with_trace(true);

        for engine in engines() {
            let plain = engine.search(&graph, &query, &base);
            let traced = engine.search(&graph, &query, &traced_params);
            prop_assert_eq!(
                digest(&plain.answers, &plain.stats),
                digest(&traced.answers, &traced.stats),
                "tracing changed {}'s answers",
                engine.name()
            );
            prop_assert!(plain.trace.is_none(), "untraced run carries a trace");

            // The trace itself is structurally coherent.
            let trace = traced.trace.as_deref();
            prop_assert!(trace.is_some(), "{} returned no trace when asked", engine.name());
            let trace = trace.unwrap();
            prop_assert_eq!(trace.engine.as_str(), engine.name());
            prop_assert_eq!(trace.keywords, query.num_keywords());
            prop_assert_eq!(
                trace.levels.len(),
                traced.stats.trace.len(),
                "{}: rich trace and SearchStats disagree on level count",
                engine.name()
            );
            let mut expansions = 0u64;
            for (i, (rec, stat)) in trace.levels.iter().zip(&traced.stats.trace).enumerate() {
                prop_assert_eq!(rec.level as usize, i, "{}: levels not consecutive", engine.name());
                prop_assert_eq!(
                    rec.frontier,
                    stat.frontier,
                    "{}: frontier mismatch at level {}",
                    engine.name(),
                    i
                );
                prop_assert_eq!(
                    rec.identified,
                    stat.identified,
                    "{}: identified mismatch at level {}",
                    engine.name(),
                    i
                );
                prop_assert!(
                    rec.activation_deferred <= rec.frontier,
                    "{}: more deferred nodes than frontier nodes",
                    engine.name()
                );
                expansions += rec.expansions;
            }
            prop_assert_eq!(
                expansions,
                trace.total_expansions,
                "{}: per-level expansions do not sum to the total",
                engine.name()
            );
            prop_assert!(
                rec_budget_is_unset(trace),
                "{}: budget_remaining set on an uncapped query",
                engine.name()
            );
        }
    }
}

fn rec_budget_is_unset(trace: &central::QueryTrace) -> bool {
    trace.levels.iter().all(|r| r.budget_remaining.is_none())
}

#[test]
fn explain_produces_per_level_traces_on_every_backend() {
    let mut b = GraphBuilder::new();
    let x = b.add_node("x", "xml");
    let q = b.add_node("q", "query language");
    let s = b.add_node("s", "sql");
    let r = b.add_node("r", "rdf");
    b.add_edge(x, q, "rel");
    b.add_edge(s, q, "rel");
    b.add_edge(r, q, "rel");
    let graph = b.build();

    for (backend, name) in [
        (Backend::Sequential, "Seq"),
        (Backend::ParCpu(2), "CPU-Par"),
        (Backend::GpuStyle(2), "GPU-Par"),
        (Backend::DynPar(2), "CPU-Par-d"),
    ] {
        let ws = WikiSearch::build_with(graph.clone(), backend);
        let result = ws.search_with_params("xml sql rdf", &ws.params().clone().with_trace(true));
        let trace = result.trace.as_deref().unwrap_or_else(|| panic!("{name}: no trace"));
        assert_eq!(trace.engine, name);
        assert!(!trace.levels.is_empty(), "{name}: no per-level records");
        assert_eq!(trace.keywords, 3, "{name}");
        // The answer is found at level 1; level 0 is the three hit nodes.
        assert_eq!(trace.levels[0].frontier, 3, "{name}: {:?}", trace.levels);
        assert!(trace.levels.iter().map(|r| r.new_hits).sum::<usize>() >= 3, "{name}");
        assert!(result.answers.iter().any(|a| a.central == q), "{name}");
    }
}

#[test]
fn capped_queries_report_budget_headroom_in_the_trace() {
    let mut b = GraphBuilder::new();
    let x = b.add_node("x", "xml");
    let q = b.add_node("q", "query language");
    let s = b.add_node("s", "sql");
    b.add_edge(x, q, "rel");
    b.add_edge(s, q, "rel");
    let ws = WikiSearch::build_with(b.build(), Backend::Sequential);
    let budget = central::QueryBudget::unlimited().with_max_expansions(1_000_000);
    let traced = ws.params().clone().with_trace(true);
    let result = ws
        .execute(&QueryRequest { budget, ..QueryRequest::new("xml sql", &traced) })
        .unwrap();
    let trace = result.trace.as_deref().expect("trace");
    assert!(!trace.levels.is_empty());
    for rec in &trace.levels {
        let remaining = rec.budget_remaining.expect("capped query reports headroom");
        assert!(remaining <= 1_000_000);
    }
}
