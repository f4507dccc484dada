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
//! [`count_work`] replays the bottom-up stage — the shared level driver
//! over a counting adapter with instrumented sequential expansion
//! (property-tested to identify the same central nodes as the real
//! engines) — and tallies traffic per phase; [`HardwareModel`] converts
//! the tallies into projected times.

use crate::activation::{ActivationMap, ActivationTable};
use crate::bottom_up::{drive, enqueue_sequential, identify_sequential, LevelOps, LevelRun};
use crate::budget::QueryBudget;
use crate::error::SearchError;
use crate::model::INFINITE_LEVEL;
use crate::state::SearchState;
use crate::SearchParams;
use kgraph::{KnowledgeGraph, NodeId};
use serde::{Deserialize, Serialize};
use textindex::ParsedQuery;

/// Byte/operation tallies of one bottom-up search.
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

/// The counting [`LevelOps`]: the sequential phases over one
/// [`SearchState`], tallying every byte they touch into `work`.
struct CountingOps<'a> {
    graph: &'a KnowledgeGraph,
    act: ActivationMap<'a>,
    state: SearchState,
    frontiers: Vec<u32>,
    work: WorkMeasure,
}

impl LevelOps for CountingOps<'_> {
    type Error = SearchError;

    fn enqueue(&mut self) -> Result<usize, SearchError> {
        enqueue_sequential(&self.state, &mut self.frontiers);
        self.work.flag_scans += self.state.num_nodes() as u64;
        self.work.frontier_entries += self.frontiers.len() as u64;
        Ok(self.frontiers.len())
    }

    fn identify(
        &mut self,
        level: u8,
        _traced: bool,
        newly: &mut Vec<u32>,
    ) -> Result<(usize, usize), SearchError> {
        identify_sequential(&self.state, &self.frontiers, level, newly);
        self.work.matrix_reads += (self.frontiers.len() * self.state.num_keywords()) as u64;
        self.work.central_nodes += newly.len() as u64;
        Ok((0, 0))
    }

    /// Instrumented expansion (mirrors `bottom_up::expand_frontier`).
    fn expand(&mut self, level: u8) -> Result<(), SearchError> {
        let CountingOps { graph, act, state, frontiers, work } = self;
        for &f in frontiers.iter() {
            if state.is_central(f) {
                continue;
            }
            let vf = NodeId(f);
            if act.level(vf) > level {
                state.mark_frontier(f);
                continue;
            }
            for i in 0..state.num_keywords() {
                work.matrix_reads += 1;
                let hf = state.hit(f, i);
                if hf > level {
                    continue;
                }
                work.work_items += 1;
                for adj in graph.neighbors(vf) {
                    work.adjacency_scans += 1;
                    let n = adj.target().0;
                    work.matrix_reads += 1;
                    if state.hit(n, i) != INFINITE_LEVEL {
                        continue;
                    }
                    if !state.is_keyword_node(n) && act.level(adj.target()) > level + 1 {
                        state.mark_frontier(f);
                        continue;
                    }
                    state.set_hit(n, i, level + 1);
                    work.matrix_writes += 1;
                    state.mark_frontier(n);
                }
            }
        }
        work.levels = u32::from(level) + 1;
        Ok(())
    }
}

/// Replay the bottom-up stage sequentially under [`drive`], counting all
/// traffic. The identified central nodes must (and, by test, do) match
/// the real engines'.
pub fn count_work(
    graph: &KnowledgeGraph,
    query: &ParsedQuery,
    params: &SearchParams,
) -> WorkMeasure {
    if query.is_empty() {
        return WorkMeasure::default();
    }
    let mut table = ActivationTable::default();
    let mut ops = CountingOps {
        graph,
        act: table.for_params(graph, params),
        state: SearchState::new(graph.num_nodes(), query),
        frontiers: Vec::new(),
        work: WorkMeasure::default(),
    };
    let tracker = QueryBudget::unlimited().start();
    drive(&mut ops, &mut LevelRun::new(params, &tracker)).expect("an unlimited budget cannot trip");
    ops.work
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{KeywordSearchEngine, SeqEngine};
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
        assert_eq!(work.levels, u32::from(out.stats.last_level));
        assert_eq!(work.central_nodes as usize, out.stats.central_candidates);
        assert_eq!(work.levels, 1);
        assert!(count_work(&g, &q, &uncapped).levels > 1, "only the cap ended it at level 1");
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
