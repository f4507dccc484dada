//! One module per reproduced table/figure. Each exposes `run()`, which
//! prints the paper-style output and writes a JSON record.

pub mod blinks_cost;
pub mod effectiveness;
pub mod exp1_knum;
pub mod exp2_topk;
pub mod exp3_alpha;
pub mod exp4_threads;
pub mod fig3_activation;
pub mod gpu_projection;
pub mod rclique_sensitivity;
pub mod table2_datasets;
pub mod table4_storage;

use central::engine::{DynParEngine, GpuStyleEngine, KeywordSearchEngine, ParCpuEngine, SeqEngine};
use central::{PhaseProfile, SearchParams, SearchSession};
use kgraph::KnowledgeGraph;
use textindex::ParsedQuery;

/// The engine lineup of the paper's efficiency experiments.
pub fn engine_lineup(threads: usize) -> Vec<Box<dyn KeywordSearchEngine>> {
    vec![
        Box::new(GpuStyleEngine::new(threads)),
        Box::new(ParCpuEngine::new(threads)),
        Box::new(DynParEngine::new(threads)),
    ]
}

/// A single-threaded reference engine (Exp-4's `Tnum = 1`).
pub fn sequential_engine() -> Box<dyn KeywordSearchEngine> {
    Box::new(SeqEngine::new())
}

/// Run one engine over a query batch, returning the mean per-phase
/// profile (the paper averages 50 queries per datapoint). The batch runs
/// through one reusable [`SearchSession`], so all but the first query
/// take the warm allocation-free path — the datapoints measure search
/// work, not allocator traffic.
pub fn mean_profile_over(
    engine: &dyn KeywordSearchEngine,
    graph: &KnowledgeGraph,
    queries: &[ParsedQuery],
    params: &SearchParams,
) -> PhaseProfile {
    let mut session = SearchSession::new();
    let profiles: Vec<PhaseProfile> = queries
        .iter()
        .map(|q| engine.search_session(&mut session, graph, q, params).profile)
        .collect();
    central::profile::mean_profile(&profiles)
}
