//! Quickstart: build a small knowledge graph, run a keyword search, and
//! print the answer graphs.
//!
//! This is the paper's Fig. 1 scenario: the keywords *XML, RDF, SQL*
//! against a query-language neighborhood, answered by a Central Graph
//! centered at "Query language".
//!
//! ```text
//! cargo run -p wikisearch-examples --bin quickstart
//! ```

use datagen::figures::fig4_graph;
use wikisearch_engine::{Backend, QueryRequest, WikiSearch};

fn main() {
    // The Fig. 1/Fig. 4 worked-example graph with its activation levels.
    let (graph, activation) = fig4_graph();
    println!(
        "graph: {} nodes, {} directed edges",
        graph.num_nodes(),
        graph.num_directed_edges()
    );

    let mut ws = WikiSearch::build_with(graph, Backend::Sequential);
    // Use the paper's drawn activation levels so the run reproduces the
    // Example 4 trace exactly (normally these come from node weights).
    let params = ws.params().clone().with_top_k(3).with_explicit_activation(activation);
    ws.set_params(params);

    let query = "XML RDF SQL";
    println!("query: {query:?}\n");
    let result = ws.search(query);

    println!(
        "matched {} keywords (kwf {:.1}), {} answers, total {:.2} ms\n",
        result.query.num_keywords(),
        result.kwf,
        result.answers.len(),
        result.profile.total().as_secs_f64() * 1e3
    );
    for (rank, answer) in result.answers.iter().enumerate() {
        println!("#{rank}:");
        print!("{}", ws.render_answer(answer));
        println!();
    }

    // The paper's Example 4: the best answer is centered at v2
    // ("Query language") with depth 4.
    let best = &result.answers[0];
    assert_eq!(ws.graph().node_text(best.central), "Query language");
    assert_eq!(best.depth, 4);
    println!("reproduced Example 4: central node 'Query language' at depth 4 ✓");

    // `search` is a convenience over the one general entry point,
    // `execute`: a request also carries a budget, a caller-assigned query
    // ID and the `explain` switch, which returns the per-level trace of a
    // live run — the bottom-up stage of Example 4, level by level.
    let request = QueryRequest { explain: true, ..QueryRequest::new(query, ws.params()) };
    let explained = ws.execute(&request).expect("an unlimited budget cannot be exceeded");
    let trace = explained.trace.expect("explain always traces");
    println!("\nbottom-up levels ({}):", trace.engine);
    for level in &trace.levels {
        println!(
            "  level {}: frontier {:>2}, central nodes identified {}",
            level.level, level.frontier, level.identified
        );
    }
}
