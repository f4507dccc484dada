//! CPU-Par-d: the paper's lock-based, dynamic-memory baseline engine.
//!
//! This is the design the lock-free matrix engines are validated against
//! (Exp-1/Exp-4): no node–keyword matrix, per-node state allocated on
//! demand behind a `parking_lot` mutex, a locked shared frontier queue,
//! and hitting-path predecessors recorded *during* search — so the
//! top-down stage needs no extraction (Theorem V.4 unused), only
//! level-cover pruning and ranking. The paper's finding, which this
//! reproduction confirms, is that the lock traffic during expansion
//! overwhelms the saved extraction time.

use crate::activation::ActivationMap;
use crate::bottom_up::{self, LevelOps, LevelRun, PreFlight};
use crate::budget::{BudgetTracker, QueryBudget};
use crate::engine::{build_pool, KeywordSearchEngine, SearchOutcome};
use crate::error::SearchError;
use crate::model::INFINITE_LEVEL;
use crate::session::SearchSession;
use crate::state::HitBlock;
use crate::top_down::PredSink;
use crate::SearchParams;
use kgraph::{KnowledgeGraph, NodeId};
use parking_lot::Mutex;
use rayon::prelude::*;
use std::time::Instant;
use textindex::ParsedQuery;

/// Per-node dynamically allocated search record.
#[derive(Default)]
struct DynNode {
    /// Query epoch this record belongs to; a mismatching stamp means the
    /// record is leftover from an earlier session query and reads as empty
    /// (it is cleared — capacity kept — the first time the node is locked
    /// in the new epoch).
    stamp: u32,
    /// Sparse hitting levels: `(keyword, level)`.
    hits: Vec<(u16, u8)>,
    /// Recorded hitting-path predecessors: `(keyword, predecessor)`.
    preds: Vec<(u16, u32)>,
    /// Already queued for the next level (avoids duplicate enqueue).
    queued: bool,
    /// Identification depth + 1 if central (0 = not central).
    central: u8,
}

impl DynNode {
    fn hit_level(&self, i: usize) -> u8 {
        self.hits
            .iter()
            .find(|&&(k, _)| k as usize == i)
            .map_or(INFINITE_LEVEL, |&(_, l)| l)
    }
}

/// Shared locked state of CPU-Par-d searches, reusable across a session's
/// queries the same way the matrix engines' [`crate::state::SearchState`]
/// is: a query-epoch counter plus per-node stamps. Every node access goes
/// through [`DynState::node`], which freshens a stale record under its
/// lock before returning it.
pub(crate) struct DynState {
    epoch: u32,
    nodes: Vec<Mutex<DynNode>>,
    next_frontier: Mutex<Vec<u32>>,
    /// Epoch stamp per node: current ⇔ keyword node. Written only under
    /// `&mut` in [`DynState::begin_query`].
    is_keyword: Vec<u32>,
    q: usize,
}

impl DynState {
    /// An empty state; arm it with [`DynState::begin_query`].
    pub(crate) fn empty() -> Self {
        DynState {
            epoch: 0,
            nodes: Vec::new(),
            next_frontier: Mutex::new(Vec::new()),
            is_keyword: Vec::new(),
            q: 0,
        }
    }

    /// Re-arm for a new query: bump the epoch (logically clearing every
    /// node record), grow the node table if needed, and seed the sources
    /// under locks (the paper: CPU-Par-d "has to add a lock to each node
    /// to record which keyword it has").
    fn begin_query(&mut self, n: usize, query: &ParsedQuery) {
        self.epoch = self.epoch.checked_add(1).unwrap_or_else(|| {
            // Epoch wrap after 2^32 queries: clear every stamp once.
            for node in &mut self.nodes {
                *node.get_mut() = DynNode::default();
            }
            self.is_keyword.fill(0);
            1
        });
        self.q = query.num_keywords();
        if self.nodes.len() < n {
            self.nodes.resize_with(n, || Mutex::new(DynNode::default()));
            self.is_keyword.resize(n, 0);
        }
        self.next_frontier.get_mut().clear();
        for (i, group) in query.groups.iter().enumerate() {
            for &v in &group.nodes {
                self.is_keyword[v.index()] = self.epoch;
                let mut node = self.node(v.0);
                node.hits.push((i as u16, 0));
                if !node.queued {
                    node.queued = true;
                    drop(node);
                    self.next_frontier.lock().push(v.0);
                }
            }
        }
    }

    /// Lock node `v`, freshening a stale record (clear, keep capacity) so
    /// callers always see current-epoch state.
    fn node(&self, v: u32) -> parking_lot::MutexGuard<'_, DynNode> {
        let mut node = self.nodes[v as usize].lock();
        if node.stamp != self.epoch {
            node.stamp = self.epoch;
            node.hits.clear();
            node.preds.clear();
            node.queued = false;
            node.central = 0;
        }
        node
    }

    /// Re-queue a frontier to retry at the next level.
    fn requeue(&self, f: u32) {
        let mut node = self.node(f);
        if !node.queued {
            node.queued = true;
            drop(node);
            self.next_frontier.lock().push(f);
        }
    }

    /// `true` if `v` contains at least one query keyword.
    fn is_keyword_node(&self, v: u32) -> bool {
        self.is_keyword[v as usize] == self.epoch
    }

    /// Scatter this query's sparse hit lists into `block`, one pass over
    /// the `n` records. Taken once the bottom-up stage has finished — the
    /// exclusive borrow says so, and needs no lock.
    fn fill(&mut self, n: usize, block: &mut HitBlock) {
        block.unhit(n, self.q);
        for (v, node) in self.nodes[..n].iter_mut().enumerate() {
            let node = node.get_mut();
            if node.stamp == self.epoch {
                let row = block.row_mut(v as u32);
                for &(keyword, level) in &node.hits {
                    row[keyword as usize] = level;
                }
            }
        }
    }
}

/// Lock-based dynamic-memory engine (the paper's **CPU-Par-d**).
pub struct DynParEngine {
    pool: rayon::ThreadPool,
    threads: usize,
}

impl DynParEngine {
    /// Engine with `threads` workers.
    pub fn new(threads: usize) -> Self {
        DynParEngine { pool: build_pool(threads), threads: threads.max(1) }
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl KeywordSearchEngine for DynParEngine {
    fn name(&self) -> &'static str {
        "CPU-Par-d"
    }

    fn try_search_session(
        &self,
        session: &mut SearchSession,
        graph: &KnowledgeGraph,
        query: &ParsedQuery,
        params: &SearchParams,
        budget: &QueryBudget,
    ) -> Result<SearchOutcome, SearchError> {
        let tracker =
            match bottom_up::pre_flight(query, params, budget, self.name(), graph.num_nodes()) {
                PreFlight::Run(tracker) => tracker,
                PreFlight::Done(verdict) => return verdict,
            };
        let mut run = LevelRun::new(params, &tracker);

        // Arm (or lazily materialize) the session's lock-based state.
        let t = Instant::now();
        let state = session.dyn_state.get_or_insert_with(DynState::empty);
        state.begin_query(graph.num_nodes(), query);
        session.queries_run += 1;
        let act = session.activation.for_params(graph, params);
        run.profile.init = t.elapsed();

        let mut ops = DynOps {
            graph,
            state: &*state,
            act: &act,
            tracker: &tracker,
            pool: &self.pool,
            frontiers: Vec::new(),
        };
        bottom_up::drive(&mut ops, &mut run)?;
        // Top-down: no Theorem V.4 — the per-keyword DAGs are walks over
        // the recorded predecessors, then the shared pruning/ranking.
        let stage2 = &mut session.top_down;
        run.timed_fill(|| state.fill(graph.num_nodes(), &mut stage2.hits));
        let state = &*state;
        run.finish(self.name(), graph, Some(&self.pool), stage2, |_, j, sink| {
            recorded_preds(state, j, sink)
        })
    }
}

/// CPU-Par-d's [`LevelOps`]: the locked frontier queue and per-node
/// records of a [`DynState`], no exchange.
struct DynOps<'a> {
    graph: &'a KnowledgeGraph,
    state: &'a DynState,
    act: &'a ActivationMap<'a>,
    tracker: &'a BudgetTracker,
    pool: &'a rayon::ThreadPool,
    frontiers: Vec<u32>,
}

impl LevelOps for DynOps<'_> {
    type Error = SearchError;

    /// Swap out the locked queue, clear queued flags.
    fn enqueue(&mut self) -> Result<usize, SearchError> {
        self.frontiers = std::mem::take(&mut *self.state.next_frontier.lock());
        self.frontiers.sort_unstable();
        for &f in &self.frontiers {
            self.state.node(f).queued = false;
        }
        Ok(self.frontiers.len())
    }

    /// Locked reads of the sparse hit lists (and, traced, locked scans
    /// for the level observation).
    fn identify(
        &mut self,
        level: u8,
        traced: bool,
        newly: &mut Vec<u32>,
    ) -> Result<(usize, usize), SearchError> {
        for &f in &self.frontiers {
            let mut node = self.state.node(f);
            if node.central == 0 && node.hits.len() == self.state.q {
                node.central = level + 1;
                newly.push(f);
            }
        }
        let hit = |f, i| self.state.node(f).hit_level(i);
        Ok(bottom_up::observe_level(
            traced,
            hit,
            self.state.q,
            self.act,
            &self.frontiers,
            level,
        ))
    }

    /// Expansion with per-node locks, parallel over frontiers.
    fn expand(&mut self, level: u8) -> Result<(), SearchError> {
        let DynOps { graph, state, act, tracker, .. } = *self;
        self.pool.install(|| {
            self.frontiers
                .par_iter()
                .for_each(|&f| expand_locked(graph, state, act, f, level, tracker));
        });
        Ok(())
    }
}

/// Expansion of one frontier with per-node locking (the paper's Alg. 2
/// semantics, lock-based variant).
fn expand_locked(
    graph: &KnowledgeGraph,
    state: &DynState,
    act: &ActivationMap<'_>,
    f: u32,
    level: u8,
    tracker: &BudgetTracker,
) {
    if tracker.cancelled() {
        return;
    }
    tracker.charge(state.q as u64);
    // Copy the frontier's state out under its lock, then release before
    // touching neighbors (no nested locks ⇒ no deadlock).
    let hits: Vec<(u16, u8)> = {
        let node = state.node(f);
        if node.central != 0 {
            return;
        }
        node.hits.clone()
    };
    let vf = NodeId(f);
    if act.level(vf) > level {
        state.requeue(f);
        return;
    }
    for &(kw, hf) in &hits {
        if hf > level {
            continue;
        }
        let i = kw as usize;
        for adj in graph.neighbors(vf) {
            let n = adj.target().0;
            let n_is_kw = state.is_keyword_node(n);
            if !n_is_kw && act.level(adj.target()) > level + 1 {
                // Only an unvisited neighbor keeps the frontier alive.
                let unhit = state.node(n).hit_level(i) == INFINITE_LEVEL;
                if unhit {
                    state.requeue(f);
                }
                continue;
            }
            let mut node = state.node(n);
            match node.hit_level(i) {
                INFINITE_LEVEL => {
                    node.hits.push((kw, level + 1));
                    node.preds.push((kw, f));
                    if !node.queued {
                        node.queued = true;
                        drop(node);
                        state.next_frontier.lock().push(n);
                    }
                }
                l if l == level + 1
                    // Another shortest hitting path discovered in the same
                    // level — record the extra predecessor (multi-paths).
                    && !node.preds.contains(&(kw, f)) =>
                {
                    node.preds.push((kw, f));
                }
                _ => {}
            }
        }
    }
}

/// CPU-Par-d's predecessor oracle: the hitting-path predecessors of `j`
/// exactly as recorded during search.
fn recorded_preds(state: &DynState, j: u32, sink: &mut PredSink) {
    for &(keyword, pred) in &state.node(j).preds {
        sink.push(keyword as usize, pred);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SeqEngine;
    use kgraph::GraphBuilder;
    use textindex::InvertedIndex;

    #[test]
    fn recorded_paths_match_theorem_v4_extraction() {
        // The key cross-validation: CPU-Par-d records hitting paths during
        // search; the matrix engines recover them from M via Theorem V.4.
        // Both must yield identical answers.
        let mut b = GraphBuilder::new();
        let a = b.add_node("a", "alpha");
        let m1 = b.add_node("m1", "one");
        let m2 = b.add_node("m2", "two");
        let z = b.add_node("z", "omega");
        let w = b.add_node("w", "omega side");
        b.add_edge(a, m1, "e");
        b.add_edge(a, m2, "e");
        b.add_edge(m1, z, "e");
        b.add_edge(m2, z, "e");
        b.add_edge(w, m1, "e");
        let g = b.build();
        let idx = InvertedIndex::build(&g);
        let q = ParsedQuery::parse(&idx, "alpha omega");
        let params = SearchParams::default().with_average_distance(2.0);
        let seq = SeqEngine::new().search(&g, &q, &params);
        let dyn_ = DynParEngine::new(2).search(&g, &q, &params);
        assert_eq!(seq.answers.len(), dyn_.answers.len());
        for (x, y) in seq.answers.iter().zip(&dyn_.answers) {
            assert_eq!(x.central, y.central);
            assert_eq!(x.nodes, y.nodes, "node sets must match at {}", x.central);
            assert_eq!(x.edges, y.edges, "hitting paths must match at {}", x.central);
            assert!((x.score - y.score).abs() < 1e-9);
        }
    }

    #[test]
    fn activation_gating_matches_matrix_engine() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("a", "alpha");
        let h = b.add_node("h", "hub");
        let z = b.add_node("z", "omega");
        b.add_edge(a, h, "e");
        b.add_edge(h, z, "e");
        let g = b.build();
        let idx = InvertedIndex::build(&g);
        let q = ParsedQuery::parse(&idx, "alpha omega");
        // Delay the hub: both engines must produce the same depths.
        let params = SearchParams::default().with_explicit_activation(vec![0, 3, 0]);
        let seq = SeqEngine::new().search(&g, &q, &params);
        let dyn_ = DynParEngine::new(2).search(&g, &q, &params);
        assert_eq!(seq.answers.len(), dyn_.answers.len());
        for (x, y) in seq.answers.iter().zip(&dyn_.answers) {
            assert_eq!(x.depth, y.depth);
            assert_eq!(x.nodes, y.nodes);
        }
    }

    #[test]
    fn empty_query_short_circuits() {
        let mut b = GraphBuilder::new();
        b.add_node("a", "alpha");
        let g = b.build();
        let idx = InvertedIndex::build(&g);
        let q = ParsedQuery::parse(&idx, "missing");
        let out = DynParEngine::new(2).search(&g, &q, &SearchParams::default());
        assert!(out.answers.is_empty());
    }
}
