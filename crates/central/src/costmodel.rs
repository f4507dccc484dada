//! Work counting and hardware cost projection.
//!
//! The paper's headline GPU numbers (two to three orders of magnitude over
//! BANKS-II, with GPU-Par ahead of CPU-Par on the memory-bound phases)
//! come from hardware we do not have: a GTX 1080 Ti with 480 GB/s GDDR5X
//! against a Xeon at ~56 GB/s (the paper quotes both figures). What we
//! *can* reproduce is the algorithm's exact work profile — every matrix
//! byte, adjacency entry and frontier flag the search touches — and then
//! project phase times on any memory system, because level-synchronous
//! BFS over CSR is bandwidth-bound (the premise of the paper's Sec. V-B
//! discussion and of the GPU-BFS literature it cites).
//!
//! [`count_work`] runs the sequential engine's own search — the kernel
//! every matrix engine expands with — under a counting budget tracker, and
//! reads the traffic per phase off what ran: the kernel's
//! [`Tally`] counters, the level bookkeeping and the finished `M`;
//! [`HardwareModel`] converts the tallies into projected times.

use crate::bottom_up::{pre_flight, PreFlight};
use crate::budget::{QueryBudget, Tally};
use crate::engine::{matrix_search, KeywordSearchEngine, SeqEngine};
use crate::model::INFINITE_LEVEL;
use crate::session::SearchSession;
use crate::SearchParams;
use kgraph::KnowledgeGraph;
use serde::{Deserialize, Serialize};
use textindex::ParsedQuery;

/// Byte/operation tallies of one search: the bottom-up stage's traffic,
/// plus the top-down memo's adjacency rows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkMeasure {
    /// Levels processed.
    pub levels: u32,
    /// Frontier entries drained over all levels.
    pub frontier_entries: u64,
    /// `FIdentifier` flags scanned during enqueue (|V| per level).
    pub flag_scans: u64,
    /// (frontier, instance) work items that passed the gates.
    pub work_items: u64,
    /// Adjacency entries scanned during expansion (8 bytes each).
    pub adjacency_scans: u64,
    /// Matrix reads during expansion + identification (1 byte each).
    pub matrix_reads: u64,
    /// Matrix writes (hits; 1 byte each).
    pub matrix_writes: u64,
    /// Central nodes identified.
    pub central_nodes: u64,
    /// Adjacency rows the top-down memo's Theorem V.4 oracle scanned, one
    /// per node asked about (stage 2: no part of the projection).
    pub memo_rows: u64,
}

impl WorkMeasure {
    /// Bytes moved during the expansion phase (adjacency + matrix + flag
    /// traffic — the dominant term).
    pub fn expansion_bytes(&self) -> u64 {
        self.adjacency_scans * 8 + self.matrix_reads + self.matrix_writes * 2
    }

    /// Bytes moved during enqueue (flag scan + queue writes).
    pub fn enqueue_bytes(&self) -> u64 {
        self.flag_scans + self.frontier_entries * 4
    }

    /// Bytes moved during identification (one matrix row per frontier).
    pub fn identify_bytes(&self, q: usize) -> u64 {
        self.frontier_entries * q as u64
    }
}

/// A memory system to project onto.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct HardwareModel {
    /// Display name.
    pub name: &'static str,
    /// Effective memory bandwidth in GB/s for the streaming phases. The
    /// paper quotes 480 GB/s (GDDR5X) and ~56 GB/s (DDR4).
    pub bandwidth_gbps: f64,
    /// Achievable fraction of peak bandwidth for this access pattern
    /// (scattered BFS traffic reaches nowhere near peak; 0.15–0.35 is the
    /// range reported by the GPU-BFS literature the paper cites).
    pub efficiency: f64,
    /// Fixed per-level synchronization overhead in microseconds (kernel
    /// launch / barrier).
    pub per_level_overhead_us: f64,
}

impl HardwareModel {
    /// The paper's GPU (GTX 1080 Ti-class).
    pub fn paper_gpu() -> Self {
        HardwareModel {
            name: "GTX-1080Ti-class",
            bandwidth_gbps: 480.0,
            efficiency: 0.25,
            per_level_overhead_us: 20.0,
        }
    }

    /// The paper's CPU memory system (DDR4 Xeon).
    pub fn paper_cpu() -> Self {
        HardwareModel {
            name: "Xeon-DDR4-class",
            bandwidth_gbps: 56.0,
            efficiency: 0.35,
            per_level_overhead_us: 2.0,
        }
    }

    /// Projected time in milliseconds for the bottom-up phases of a
    /// measured search.
    pub fn project_ms(&self, work: &WorkMeasure, q: usize) -> f64 {
        let bytes = work.expansion_bytes() + work.enqueue_bytes() + work.identify_bytes(q);
        let effective = self.bandwidth_gbps * 1e9 * self.efficiency;
        let transfer_ms = bytes as f64 / effective * 1e3;
        let overhead_ms = work.levels as f64 * self.per_level_overhead_us / 1e3;
        transfer_ms + overhead_ms
    }
}

/// Run [`SeqEngine`]'s search of `query` — pre-flight, the shared driver
/// over its kernel, fill and top-down stage — with tracing on, which arms
/// the budget tracker in counting mode, and tally the traffic it moved.
///
/// # Panics
/// Where the engines do: on parameters that fail
/// [`SearchParams::validate`], or an explicit activation table shorter
/// than the graph.
pub fn count_work(
    graph: &KnowledgeGraph,
    query: &ParsedQuery,
    params: &SearchParams,
) -> WorkMeasure {
    let params = params.clone().with_trace(true);
    let name = SeqEngine.name();
    let unlimited = QueryBudget::unlimited();
    let tracker = match pre_flight(query, &params, &unlimited, name, graph.num_nodes()) {
        PreFlight::Run(tracker) => tracker,
        // Nothing matched: no search ran.
        PreFlight::Done(_) => return WorkMeasure::default(),
    };
    let mut session = SearchSession::new();
    let out = matrix_search(name, None, false, &mut session, graph, query, &params, &tracker)
        .expect("an unlimited budget cannot trip");
    let hits = &session.top_down.hits;
    let last_level = u64::from(out.stats.last_level);
    let frontier_entries: u64 = out.stats.trace.iter().map(|l| l.frontier as u64).sum();
    let adjacency_scans = tracker.tallied(Tally::AdjacencyScans);
    WorkMeasure {
        levels: out.stats.last_level.into(),
        frontier_entries,
        // One `FIdentifier` scan per enqueue, one enqueue per level.
        flag_scans: graph.num_nodes() as u64 * (last_level + 1),
        work_items: tracker.tallied(Tally::WorkItems),
        adjacency_scans,
        // Identification reads each frontier's row; expansion its gate
        // cells and one cell per adjacency entry scanned.
        matrix_reads: frontier_entries * hits.num_keywords() as u64
            + tracker.tallied(Tally::HitReads)
            + adjacency_scans,
        // Sequentially, every `∞` cell is written at most once: the
        // finite cells that are no source.
        matrix_writes: (0..graph.num_nodes() as u32)
            .flat_map(|v| hits.row(v))
            .filter(|&&h| h != 0 && h != INFINITE_LEVEL)
            .count() as u64,
        central_nodes: out.stats.central_candidates as u64,
        memo_rows: tracker.tallied(Tally::MemoRows),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgraph::GraphBuilder;
    use textindex::InvertedIndex;

    fn fixture() -> (KnowledgeGraph, ParsedQuery) {
        let mut b = GraphBuilder::new();
        let x = b.add_node("x", "alpha");
        let m = b.add_node("m", "middle");
        let y = b.add_node("y", "beta");
        let z = b.add_node("z", "gamma side");
        b.add_edge(x, m, "e");
        b.add_edge(y, m, "e");
        b.add_edge(z, m, "e");
        let g = b.build();
        let idx = InvertedIndex::build(&g);
        let q = ParsedQuery::parse(&idx, "alpha beta");
        (g, q)
    }

    #[test]
    fn counter_agrees_with_the_real_engine() {
        let (g, q) = fixture();
        let params = SearchParams::default().with_average_distance(1.0);
        let work = count_work(&g, &q, &params);
        let out = SeqEngine::new().search(&g, &q, &params);
        assert_eq!(
            work,
            WorkMeasure {
                levels: 3,
                frontier_entries: 5,
                flag_scans: 16,
                work_items: 4,
                adjacency_scans: 4,
                matrix_reads: 22,
                matrix_writes: 2,
                central_nodes: 1,
                // m is asked about; x and y are sources of its keywords.
                memo_rows: 1,
            }
        );
        assert_eq!(work.central_nodes as usize, out.stats.central_candidates);
        assert!(work.work_items > 0);
        assert!(work.adjacency_scans >= work.work_items);
        assert!(work.matrix_writes >= 2, "m hit by both instances");
    }

    #[test]
    fn the_level_cap_stops_the_counter_where_it_stops_the_engine() {
        let (g, q) = fixture();
        let uncapped = SearchParams::default().with_average_distance(1.0);
        let capped = SearchParams { max_level: 1, ..uncapped.clone() };
        let work = count_work(&g, &q, &capped);
        let out = SeqEngine::new().search(&g, &q, &capped);
        assert_eq!(
            work,
            WorkMeasure {
                levels: 1,
                frontier_entries: 4,
                flag_scans: 8,
                work_items: 2,
                adjacency_scans: 2,
                matrix_reads: 14,
                matrix_writes: 0,
                central_nodes: 0,
                memo_rows: 0,
            }
        );
        assert_eq!(work.levels, u32::from(out.stats.last_level));
        assert_eq!(work.central_nodes as usize, out.stats.central_candidates);
        assert_eq!(work.levels, 1);
        assert!(count_work(&g, &q, &uncapped).levels > 1, "only the cap ended it at level 1");
    }

    #[test]
    #[should_panic(expected = "invalid search parameters")]
    fn parameters_the_engines_refuse_are_refused() {
        let (g, q) = fixture();
        count_work(&g, &q, &SearchParams::default().with_top_k(0));
    }

    #[test]
    fn byte_accounting_is_consistent() {
        let (g, q) = fixture();
        let params = SearchParams::default().with_average_distance(1.0);
        let work = count_work(&g, &q, &params);
        assert_eq!(
            work.expansion_bytes(),
            work.adjacency_scans * 8 + work.matrix_reads + work.matrix_writes * 2
        );
        assert!(work.enqueue_bytes() > 0);
        assert!(work.identify_bytes(2) > 0);
    }

    #[test]
    fn higher_bandwidth_projects_faster() {
        let (g, q) = fixture();
        let params = SearchParams::default().with_average_distance(1.0);
        let work = count_work(&g, &q, &params);
        let gpu = HardwareModel::paper_gpu();
        let cpu = HardwareModel::paper_cpu();
        // On tiny inputs the GPU's per-level overhead dominates; compare
        // the pure transfer term by zeroing overheads.
        let gpu0 = HardwareModel { per_level_overhead_us: 0.0, ..gpu };
        let cpu0 = HardwareModel { per_level_overhead_us: 0.0, ..cpu };
        assert!(gpu0.project_ms(&work, 2) < cpu0.project_ms(&work, 2));
    }

    #[test]
    fn empty_query_counts_nothing() {
        let (g, _) = fixture();
        let idx = InvertedIndex::build(&g);
        let q = ParsedQuery::parse(&idx, "zzz");
        let work = count_work(&g, &q, &SearchParams::default());
        assert_eq!(work, WorkMeasure::default());
    }
}
