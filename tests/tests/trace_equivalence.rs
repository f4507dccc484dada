//! Tracing must be a pure observer: running any engine with
//! `TraceLevel::Full` returns byte-for-byte identical answers to the
//! untraced run, on arbitrary graphs and queries, for all four engines.
//!
//! This is the differential guarantee the whole observability layer
//! leans on — `EXPLAIN`, the slow-query log and `--explain` all re-run
//! queries traced, and may only do so because tracing provably never
//! changes what the user gets back. The suite also asserts the positive
//! side: every engine produces a structurally coherent per-level trace
//! (level numbers consecutive, frontier counts matching the engine's own
//! `SearchStats`, expansion totals consistent).

use central::engine::{DynParEngine, GpuStyleEngine, KeywordSearchEngine, ParCpuEngine, SeqEngine};
use central::{SearchParams, TraceLevel};
use kgraph::{GraphBuilder, KnowledgeGraph};
use proptest::prelude::*;
use textindex::{InvertedIndex, ParsedQuery};
use wikisearch_engine::{Backend, QueryRequest, WikiSearch};

const WORDS: &[&str] = &["alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa", "lambda"];

#[derive(Debug, Clone)]
struct Case {
    texts: Vec<Vec<usize>>,
    edges: Vec<(usize, usize)>,
    query: Vec<usize>,
    top_k: usize,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (2usize..24).prop_flat_map(|nodes| {
        let texts =
            proptest::collection::vec(proptest::collection::vec(0usize..WORDS.len(), 1..3), nodes);
        let edges = proptest::collection::vec((0usize..nodes, 0usize..nodes), 1..50);
        let query = proptest::collection::vec(0usize..WORDS.len(), 2..4);
        let top_k = 1usize..8;
        (texts, edges, query, top_k).prop_map(|(texts, edges, query, top_k)| Case {
            texts,
            edges,
            query,
            top_k,
        })
    })
}

fn build_graph(case: &Case) -> KnowledgeGraph {
    let mut b = GraphBuilder::new();
    for (i, words) in case.texts.iter().enumerate() {
        let text: Vec<&str> = words.iter().map(|&w| WORDS[w]).collect();
        b.add_node(&format!("n{i}"), &text.join(" "));
    }
    for (idx, &(s, d)) in case.edges.iter().enumerate() {
        if s != d {
            let s = b.node(&format!("n{s}")).unwrap();
            let d = b.node(&format!("n{d}")).unwrap();
            b.add_edge(s, d, if idx % 3 == 0 { "p" } else { "q" });
        }
    }
    b.build()
}

fn engines() -> Vec<Box<dyn KeywordSearchEngine>> {
    vec![
        Box::new(SeqEngine::new()),
        Box::new(ParCpuEngine::new(3)),
        Box::new(GpuStyleEngine::new(3)),
        Box::new(DynParEngine::new(3)),
    ]
}

/// The byte-exact digest tracing must not disturb: every field of every
/// answer, in rank order.
fn answer_digest(answers: &[central::CentralGraph]) -> String {
    format!("{answers:?}")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn tracing_never_changes_any_engines_answers(case in case_strategy()) {
        let graph = build_graph(&case);
        let idx = InvertedIndex::build(&graph);
        let raw: Vec<&str> = case.query.iter().map(|&w| WORDS[w]).collect();
        let query = ParsedQuery::parse(&idx, &raw.join(" "));
        let base = SearchParams { top_k: case.top_k, max_level: 12, ..SearchParams::default() };
        let traced_params = base.clone().with_trace(TraceLevel::Full);

        for engine in engines() {
            let plain = engine.search(&graph, &query, &base);
            let traced = engine.search(&graph, &query, &traced_params);
            prop_assert_eq!(
                answer_digest(&plain.answers),
                answer_digest(&traced.answers),
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
        let result = ws
            .execute(&QueryRequest {
                explain: true,
                ..QueryRequest::new("xml sql rdf", ws.params())
            })
            .unwrap();
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
    let result = ws
        .execute(&QueryRequest {
            budget,
            explain: true,
            ..QueryRequest::new("xml sql", ws.params())
        })
        .unwrap();
    let trace = result.trace.as_deref().expect("trace");
    assert!(!trace.levels.is_empty());
    for rec in &trace.levels {
        let remaining = rec.budget_remaining.expect("capped query reports headroom");
        assert!(remaining <= 1_000_000);
    }
}
