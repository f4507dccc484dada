//! Stage 2: top-down processing (paper Algorithm 3) — recovery of each
//! Central Graph from the node–keyword matrix, level-cover pruning, Eq. 6
//! scoring, and final top-k selection — at the cost of the answers it
//! returns, not of the candidates it looks at.
//!
//! Recovery needs no recorded paths: Theorem V.4 lets the hitting paths
//! be read off `M` and the activation levels alone. For each keyword
//! `t_i`, `v_n` is a predecessor of `v_j` on a hitting path iff
//!
//! ```text
//! h_j = 1 + max{a_n, h_n}            (v_j contains keywords)
//! h_j = 1 + max{a_n, h_n, a_j − 1}   (v_j contains none)
//! ```
//!
//! because `max{a_n, h_n}` is the first level the neighbor could expand,
//! and a non-keyword `v_j` additionally could not be hit before level
//! `a_j`. Walking these conditions backward from the central node yields,
//! per keyword, exactly the DAG of all hitting paths (Def. 2).
//!
//! Three things keep the stage proportional to its output (DESIGN.md,
//! *Top-down scratch, predecessor memo and two-phase finish*):
//!
//! * **[`TopDownScratch`]** — every set and list the stage needs is a
//!   stamp array or a flat arena that lives in the session and is reused
//!   across candidates and queries: no hashing, no per-candidate
//!   allocation. Every shape hands the stage `M` as the same plain bytes
//!   ([`HitBlock`], held here), the activation levels as a table.
//! * **Predecessor memo, one per query** — the test above depends on
//!   `(j, i)` only, never on which central node the walk started from, so
//!   a node's adjacency is scanned at most once per query, for all
//!   keywords at once ([`hitting_path_preds`]), whatever the thread count:
//!   one backward sweep from the whole cohort builds the memo before any
//!   candidate is walked, asking only about nodes some walk needs the
//!   predecessors of (a source's list for its own keyword is empty); a
//!   candidate's DAGs are walks over the memoised lists, and level-cover
//!   classifies and covers from the rows the memo kept.
//! * **Score first, materialise last** — phase A leaves one compact record
//!   per candidate (central, depth, sorted node ids, score); ranking and
//!   containment dedup run on those records; phase B builds a full
//!   [`CentralGraph`] for the ≤ `top_k` survivors only.

use crate::activation::ActivationMap;
use crate::budget::{BudgetTracker, Tally};
use crate::engine::{claim_runs, ASK_CLAIM, CANDIDATE_CLAIM};
use crate::model::{rank_order, CentralGraph, INFINITE_LEVEL};
use crate::state::HitBlock;
use crate::SearchParams;
use kgraph::{KnowledgeGraph, NodeId};
use std::cmp::Ordering as CmpOrdering;
use std::ops::Range;

/// Where a predecessor oracle reports one node's hitting-path
/// predecessors: `(keyword, predecessor)` pairs in any order, duplicates
/// allowed (multi-edges). Also holds the Theorem V.4 oracle's buffer for
/// the scanned node's row.
#[derive(Default)]
pub struct PredSink {
    /// `keyword << 32 | predecessor`: one word sorts faster than a tuple.
    pairs: Vec<u64>,
    row_j: Vec<u8>,
}

impl PredSink {
    /// `pred` precedes the scanned node on a hitting path of `keyword`.
    #[inline]
    pub fn push(&mut self, keyword: usize, pred: u32) {
        self.pairs.push((keyword as u64) << 32 | u64::from(pred));
    }
}

/// The Theorem V.4 predecessor oracle: every hitting-path predecessor of
/// `j`, for all keywords at once — one scan of `j`'s adjacency, one `M`
/// row read per neighbor.
pub fn hitting_path_preds(
    graph: &KnowledgeGraph,
    act: &ActivationMap<'_>,
    hits: &HitBlock,
    j: u32,
    sink: &mut PredSink,
) {
    let PredSink { pairs, row_j } = sink;
    // A source of B_i (h = 0) starts hitting paths and an instance that
    // never hit `j` has none through it: both read as 0 here, which no
    // `1 + max{..}` equals.
    row_j.clear();
    row_j.extend(hits.row(j).iter().map(|&h| if h == INFINITE_LEVEL { 0 } else { h }));
    if row_j.iter().all(|&h| h == 0) {
        return;
    }
    // The `a_j − 1` term applies only to non-keyword nodes.
    let aj_term = if hits.is_keyword_node(j) {
        0
    } else {
        act.level(NodeId(j)).saturating_sub(1)
    };
    for adj in graph.neighbors(NodeId(j)) {
        let n = adj.target().0;
        let floor = act.level(adj.target()).max(aj_term);
        for (i, (&hj, &hn)) in row_j.iter().zip(hits.row(n)).enumerate() {
            // Levels stop at 254, so the saturated `1 + ∞` equals no `h_j`.
            // A Central Node freezes at its identification depth and
            // never expands afterwards, so it cannot be the predecessor
            // of a hit beyond that depth — looked up only for the few
            // neighbors the equation holds for.
            if hj == hn.max(floor).saturating_add(1)
                && hits.central_depth(n).is_none_or(|d| hj <= d)
            {
                pairs.push((i as u64) << 32 | u64::from(n));
            }
        }
    }
}

/// What one top-down stage reads besides the [`HitBlock`] in its scratch:
/// the data graph, the query's parameters and budget, and the predecessor
/// oracle — `preds(hits, j, sink)` reports every hitting-path predecessor
/// of `j` (Theorem V.4 over `hits`, or CPU-Par-d's recorded paths). The
/// oracle's answer must depend on `j` alone; it is asked once per touched
/// node per query.
pub struct Stage<'a, P> {
    /// The data graph (global, for sharded searches).
    pub graph: &'a KnowledgeGraph,
    /// `level_cover`, `dedup_contained`, `top_k`, `lambda`.
    pub params: &'a SearchParams,
    /// Polled once per candidate, per memoised adjacency scan and per
    /// materialised answer; a counting one tallies the memo's asks as
    /// [`Tally::MemoRows`].
    pub tracker: &'a BudgetTracker,
    /// The predecessor oracle.
    pub preds: P,
}

/// Phase A's compact record of one candidate.
struct Scored {
    central: u32,
    depth: u8,
    score: f64,
    /// 64-bit node-set signature: a subset's bits are a subset.
    signature: u64,
    /// The answer's sorted node ids, in the worker's `scored_nodes`.
    nodes: Range<usize>,
}

/// Reusable working memory of the top-down stage: its input block, the
/// query's predecessor memo and one `Worker` per thread that runs the
/// stage. Lives in the [`crate::session::SearchSession`] (or the
/// coordinator that owns the stage) and grows on first use to the block's
/// `n · (q + 1)` bytes and one `u32` per graph node (the memo's index)
/// plus marks and arenas proportional to the nodes and edges the query's
/// walks touch; afterwards a query allocates only its ≤ `top_k` answers.
#[derive(Default)]
pub struct TopDownScratch {
    /// The finished `M` — the stage's whole view of the bottom-up search.
    /// The shape that ran the search fills the rows before it calls
    /// [`crate::bottom_up::LevelRun::finish`], which marks the cohort.
    pub hits: HitBlock,
    memo: Memo,
    workers: Vec<Worker>,
}

/// One thread's share of the stage: the oracle's sink and this round's
/// answers while the memo is built, then the candidate walks and their
/// phase A records.
#[derive(Default)]
struct Worker {
    sink: PredSink,
    /// The slots this worker asked about in the current round and their
    /// lists in the memo's layout (`q + 1` offsets into `preds` each).
    asked: Vec<u32>,
    pred_ranges: Vec<u32>,
    preds: Vec<u32>,
    walk: Walk,
    /// Phase A output: one record per candidate this thread scored, their
    /// sorted node ids back to back in `scored_nodes`.
    scored: Vec<Scored>,
    scored_nodes: Vec<u32>,
}

/// `Memo::list_of` of a node no walk needs the lists of (yet).
const UNASKED: u32 = u32::MAX;

/// The per-query predecessor memo: what the stage knows about every node
/// a candidate's walk can touch, each fact established once per query
/// whatever the thread count. It is built before any walk runs, by one
/// backward sweep from the whole cohort ([`Memo::build`]); the walks then
/// only read it.
///
/// Touching a node copies its `M` row and counts its keywords; its
/// adjacency is scanned (the oracle asked) only if some walk needs its
/// predecessors for a keyword it is *not* a source of — a source's list
/// for its own keyword is empty by Theorem V.4 (`h = 0` opens no hitting
/// path), so skipping it is exact.
///
/// Rows are kept as `q` bytes per node, not as a source bit set: no width
/// cap, so no limit on the number of keyword groups. (They repeat the
/// block's, packed by slot: on `deep_miss` the walks read them ~2 % faster
/// than through the node id.)
#[derive(Default)]
struct Memo {
    /// The query's keyword count: the width of every per-slot table here.
    q: usize,
    /// Node → memo slot, the sparse half of a sparse set: `slot_of[j]` is
    /// only believed if `slot_node[slot_of[j]] == j`, so it is never
    /// cleared — forgetting a query's memo is `slot_node.clear()`. The one
    /// array here sized by the graph.
    slot_of: Vec<u32>,
    /// Memo slot → node, in first-touch order.
    slot_node: Vec<u32>,
    /// Per slot: the node's `q` hitting levels.
    rows: Vec<u8>,
    /// Per slot and keyword: whether some candidate's walk for that
    /// keyword reaches the node.
    reached: Vec<bool>,
    /// Per slot: how many query keywords the node contains — its
    /// level-cover class.
    count: Vec<u32>,
    /// Per slot: which block of `pred_ranges` holds its lists, [`UNASKED`]
    /// if no walk needs them.
    list_of: Vec<u32>,
    /// Per asked node `q + 1` offsets into `preds`: keyword `i`'s
    /// predecessors are `preds[ranges[i]..ranges[i + 1]]`, unique.
    pred_ranges: Vec<u32>,
    preds: Vec<u32>,
    /// The sweep's worklists: `(slot, keyword)` pairs reached in the last
    /// round and in this one, and the slots to ask about this round.
    fresh: Vec<(u32, u32)>,
    next: Vec<(u32, u32)>,
    to_ask: Vec<u32>,
}

impl Memo {
    /// The memo slot of a touched node.
    fn slot(&self, v: u32) -> usize {
        self.slot_of[v as usize] as usize
    }

    /// The memo slot of `j`, reading its row on first touch this query.
    fn touch(&mut self, hits: &HitBlock, j: u32) -> usize {
        let slot = self.slot(j);
        if self.slot_node.get(slot) == Some(&j) {
            return slot;
        }
        let slot = self.slot_node.len();
        self.slot_node.push(j);
        self.slot_of[j as usize] = slot as u32;
        let row = hits.row(j);
        self.count.push(row.iter().filter(|&&h| h == 0).count() as u32);
        self.rows.extend_from_slice(row);
        self.reached.resize(self.rows.len(), false);
        self.list_of.push(UNASKED);
        slot
    }

    /// The hitting levels of `slot`'s node.
    fn row(&self, slot: usize) -> &[u8] {
        &self.rows[slot * self.q..][..self.q]
    }

    /// Keyword `i`'s predecessors of the asked node in `slot`.
    fn preds(&self, slot: usize, i: usize) -> &[u32] {
        let at = self.list_of[slot] as usize * (self.q + 1) + i;
        &self.preds[self.pred_ranges[at] as usize..self.pred_ranges[at + 1] as usize]
    }

    /// Mark `(slot, i)` reached; `true` the first time.
    fn reach(&mut self, slot: usize, i: usize) -> bool {
        !std::mem::replace(&mut self.reached[slot * self.q + i], true)
    }

    /// Build the memo of one query: a backward sweep over the hitting
    /// paths of every keyword from the whole `cohort`, in rounds. A round
    /// asks the oracle about the nodes the last one reached for a keyword
    /// they are not a source of — pool threads claiming short runs of
    /// them, each into its own sink —, files the answers, and follows
    /// them to the next round's `(node, keyword)` pairs. The pairs reached
    /// are exactly the union of the candidates' walks, so every node is
    /// asked about at most once per query, and the lists are a function of
    /// the oracle alone: which thread asked cannot show. `None`: the
    /// budget tripped.
    fn build<P>(
        &mut self,
        cx: &Stage<'_, P>,
        hits: &HitBlock,
        cohort: &[(NodeId, u8)],
        pool: Option<&rayon::ThreadPool>,
        workers: &mut [Worker],
    ) -> Option<()>
    where
        P: Fn(&HitBlock, u32, &mut PredSink) + Sync,
    {
        let q = hits.num_keywords();
        self.q = q;
        if self.slot_of.len() < cx.graph.num_nodes() {
            self.slot_of.resize(cx.graph.num_nodes(), 0);
        }
        self.slot_node.clear();
        self.rows.clear();
        self.reached.clear();
        self.count.clear();
        self.list_of.clear();
        self.pred_ranges.clear();
        self.preds.clear();
        self.fresh.clear();
        // A round a tripped budget cut short leaves its answers behind.
        for worker in workers.iter_mut() {
            worker.asked.clear();
            worker.pred_ranges.clear();
            worker.preds.clear();
        }
        for &(central, _) in cohort {
            let slot = self.touch(hits, central.0);
            for i in 0..q {
                if self.reach(slot, i) {
                    self.fresh.push((slot as u32, i as u32));
                }
            }
        }
        while !self.fresh.is_empty() {
            // A source of `B_i` starts its hitting paths: nothing to ask.
            self.to_ask.clear();
            for &(slot, i) in &self.fresh {
                let slot = slot as usize;
                if self.list_of[slot] == UNASKED && self.rows[slot * q + i as usize] != 0 {
                    self.list_of[slot] = 0; // claimed; filed below
                    self.to_ask.push(slot as u32);
                }
            }
            let (to_ask, slot_node) = (&self.to_ask, &self.slot_node);
            let sinks: Vec<_> = workers.iter_mut().map(parking_lot::Mutex::new).collect();
            claim_runs(pool, to_ask.len(), ASK_CLAIM, |worker, run| {
                let worker = &mut **sinks[worker].lock();
                to_ask[run].iter().all(|&slot| {
                    // A hub's whole neighbor list is one loop: poll before it.
                    let go = !cx.tracker.should_stop();
                    if go {
                        worker.sink.pairs.clear();
                        (cx.preds)(hits, slot_node[slot as usize], &mut worker.sink);
                        worker.file(slot, q);
                    }
                    go
                })
            });
            drop(sinks);
            cx.tracker.tally(Tally::MemoRows, to_ask.len() as u64);
            if cx.tracker.cancelled() {
                return None;
            }
            for worker in workers.iter_mut() {
                let (block, base) = (self.pred_ranges.len() / (q + 1), self.preds.len() as u32);
                for (b, slot) in worker.asked.drain(..).enumerate() {
                    self.list_of[slot as usize] = (block + b) as u32;
                }
                self.pred_ranges.extend(worker.pred_ranges.drain(..).map(|at| base + at));
                self.preds.append(&mut worker.preds);
            }
            self.next.clear();
            for f in 0..self.fresh.len() {
                let (slot, i) = (self.fresh[f].0 as usize, self.fresh[f].1 as usize);
                if self.rows[slot * q + i] == 0 {
                    continue;
                }
                let at = self.list_of[slot] as usize * (q + 1) + i;
                for k in self.pred_ranges[at]..self.pred_ranges[at + 1] {
                    let pred = self.touch(hits, self.preds[k as usize]);
                    if self.reach(pred, i) {
                        self.next.push((pred as u32, i as u32));
                    }
                }
            }
            std::mem::swap(&mut self.fresh, &mut self.next);
        }
        Some(())
    }
}

impl Worker {
    /// File the oracle's answer for `slot` — the `(keyword, predecessor)`
    /// pairs in the sink, in any order, duplicates (multi-edges) allowed —
    /// as `q` sorted, unique lists.
    fn file(&mut self, slot: u32, q: usize) {
        let pairs = &mut self.sink.pairs;
        pairs.sort_unstable();
        pairs.dedup();
        self.asked.push(slot);
        let mut rest = pairs.as_slice();
        for i in 0..q as u64 {
            self.pred_ranges.push(self.preds.len() as u32);
            let len = rest.iter().take_while(|&&p| p >> 32 == i).count();
            self.preds.extend(rest[..len].iter().map(|&p| p as u32));
            rest = &rest[len..];
        }
        self.pred_ranges.push(self.preds.len() as u32);
    }
}

/// The extraction of one candidate over the memo.
#[derive(Default)]
struct Walk {
    /// Last walk stamp handed out; stamps only grow, so "stamped at or
    /// after `base`" means "by the current candidate" — also across
    /// queries, so the marks are never cleared. 64 bits never wrap.
    stamp: u64,
    /// Per slot: backward-walk marks (one stamp per keyword), then the
    /// preserved set of the level-cover sweep.
    visit: Vec<u64>,
    /// Per slot: forward-prune marks (one stamp per keyword).
    keep: Vec<u64>,
    /// Work stack: slots in the backward walks, nodes in the forward prune.
    stack: Vec<u32>,
    /// All nodes of the extraction, sorted once the walks are done.
    nodes: Vec<u32>,
    /// `(pred, succ)` hitting-path edges, keyword `i`'s DAG at
    /// `edges[edge_ranges[i]..edge_ranges[i + 1]]`, unique per keyword.
    edges: Vec<(u32, u32)>,
    edge_ranges: Vec<usize>,
    /// Keyword nodes other than the central one as `(count, node)`.
    by_count: Vec<(u32, u32)>,
    covered: Vec<bool>,
    /// Whether level-cover pruned the last extraction: the answer is then
    /// `kept_nodes` / `kept_edges`, else the full `nodes` / `edges`.
    pruned: bool,
    kept_nodes: Vec<u32>,
    kept_edges: Vec<(u32, u32)>,
    kept_ranges: Vec<usize>,
}

impl Walk {
    /// Reserve `count` consecutive walk stamps and return the first.
    fn stamps(&mut self, count: usize) -> u64 {
        let base = self.stamp + 1;
        self.stamp += count as u64;
        base
    }

    /// Recover the Central Graph at `central`, a member of the cohort
    /// `memo` was built for: one backward walk per keyword over the
    /// memoised predecessor lists (`nodes`, `edges`), then — if asked —
    /// the level-cover strategy (`pruned`, `kept_*`).
    fn extract(&mut self, memo: &Memo, level_cover: bool, central: u32) {
        let q = memo.q;
        if self.visit.len() < memo.slot_node.len() {
            self.visit.resize(memo.slot_node.len(), 0);
            self.keep.resize(memo.slot_node.len(), 0);
        }
        let base = self.stamps(q);
        self.nodes.clear();
        self.nodes.push(central);
        self.edges.clear();
        self.edge_ranges.clear();
        let root = memo.slot(central);
        for i in 0..q {
            let stamp = base + i as u64;
            self.edge_ranges.push(self.edges.len());
            self.visit[root] = stamp;
            self.stack.clear();
            self.stack.push(root as u32);
            while let Some(slot) = self.stack.pop() {
                let slot = slot as usize;
                // A source of `B_i` starts its hitting paths: no list.
                if memo.row(slot)[i] == 0 {
                    continue;
                }
                let j = memo.slot_node[slot];
                for &n in memo.preds(slot, i) {
                    self.edges.push((n, j));
                    let slot = memo.slot(n);
                    let seen = &mut self.visit[slot];
                    if *seen != stamp {
                        if *seen < base {
                            self.nodes.push(n);
                        }
                        *seen = stamp;
                        self.stack.push(slot as u32);
                    }
                }
            }
        }
        self.edge_ranges.push(self.edges.len());
        self.nodes.sort_unstable();
        self.pruned = level_cover && self.level_cover(memo, central);
    }

    /// The **level-cover strategy** (paper Sec. V-C, Fig. 5) on the
    /// extraction in the scratch, over `q` keywords.
    ///
    /// Keyword nodes are classified by how many query keywords they
    /// contain; the central node always forms the top level. Sweeping
    /// levels top-down, once the levels processed so far cover every
    /// keyword, all keyword nodes below are pruned together with the
    /// hitting paths that exist only to support them: the surviving graph
    /// is the union of per-keyword DAG edges forward-reachable from
    /// *preserved* nodes. `false`: every keyword node was needed and the
    /// full extraction stands.
    ///
    /// Pruning cannot uncover a keyword: the sweep stops only once the
    /// preserved nodes cover the query, and every preserved node survives —
    /// a walk reached it as some node's predecessor, so it heads an edge of
    /// that DAG and seeds its forward walk.
    ///
    /// Classes and source sets come from the memo: no `M` row is read here.
    fn level_cover(&mut self, memo: &Memo, central: u32) -> bool {
        let q = memo.q;
        self.by_count.clear();
        for &v in self.nodes.iter().filter(|&&v| v != central) {
            let count = memo.count[memo.slot(v)];
            if count > 0 {
                self.by_count.push((count, v));
            }
        }
        self.by_count.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

        // Greedy cover sweep: central node first, then whole levels (nodes
        // are not pruned by same-level peers) until all keywords are
        // covered.
        self.covered.clear();
        self.covered.resize(q, false);
        let cover_node = |v: u32, covered: &mut [bool]| {
            let mut newly = 0;
            for (c, &h) in covered.iter_mut().zip(memo.row(memo.slot(v))) {
                if !*c && h == 0 {
                    *c = true;
                    newly += 1;
                }
            }
            newly
        };
        let mut missing = q - cover_node(central, &mut self.covered);
        let mut preserved = 0;
        while missing > 0 && preserved < self.by_count.len() {
            let level = self.by_count[preserved].0;
            while preserved < self.by_count.len() && self.by_count[preserved].0 == level {
                missing -= cover_node(self.by_count[preserved].1, &mut self.covered);
                preserved += 1;
            }
        }
        if preserved == self.by_count.len() {
            return false;
        }

        // Rebuild: per keyword, keep DAG edges forward-reachable from
        // preserved nodes; upstream-only support of pruned keyword nodes
        // disappears.
        let base = self.stamps(1 + q);
        let root = memo.slot(central);
        self.visit[root] = base;
        for &(_, v) in &self.by_count[..preserved] {
            self.visit[memo.slot(v)] = base;
        }
        self.kept_nodes.clear();
        self.kept_nodes.push(central);
        self.keep[root] = base;
        self.kept_edges.clear();
        self.kept_ranges.clear();
        let mut reach = |v: u32, stamp: u64, keep: &mut [u64], stack: &mut Vec<u32>| {
            let seen = &mut keep[memo.slot(v)];
            if *seen != stamp {
                if *seen < base {
                    self.kept_nodes.push(v);
                }
                *seen = stamp;
                stack.push(v);
            }
        };
        for i in 0..q {
            let stamp = base + 1 + i as u64;
            self.kept_ranges.push(self.kept_edges.len());
            // Sorted by predecessor, the DAG is its own successor index.
            let dag = &mut self.edges[self.edge_ranges[i]..self.edge_ranges[i + 1]];
            dag.sort_unstable();
            self.stack.clear();
            for &(p, _) in dag.iter() {
                if self.visit[memo.slot(p)] == base {
                    reach(p, stamp, &mut self.keep, &mut self.stack);
                }
            }
            while let Some(v) = self.stack.pop() {
                let from = dag.partition_point(|e| e.0 < v);
                for &(_, succ) in dag[from..].iter().take_while(|e| e.0 == v) {
                    self.kept_edges.push((v, succ));
                    reach(succ, stamp, &mut self.keep, &mut self.stack);
                }
            }
        }
        self.kept_ranges.push(self.kept_edges.len());

        debug_assert!(
            (0..q).all(|i| self.kept_nodes.iter().any(|&v| memo.row(memo.slot(v))[i] == 0)),
            "level-cover pruning uncovered a keyword"
        );
        self.kept_nodes.sort_unstable();
        true
    }

    /// The answer the last extraction left: sorted nodes, the per-keyword
    /// `(pred, succ)` edge arena and its ranges.
    fn answer(&self) -> (&[u32], &[(u32, u32)], &[usize]) {
        if self.pruned {
            (&self.kept_nodes, &self.kept_edges, &self.kept_ranges)
        } else {
            (&self.nodes, &self.edges, &self.edge_ranges)
        }
    }
}

impl<P> Stage<'_, P> {
    /// Eq. 6: `S(C) = d(C)^λ · Σ_{v ∈ C} w_v` (smaller = better). The
    /// weights are summed in ascending node-id order — the one order every
    /// path to a score uses, so `score.to_bits()` is reproducible.
    fn score(&self, nodes: &[u32], depth: u8) -> f64 {
        let weight_sum: f64 = nodes.iter().map(|&v| self.graph.weight(NodeId(v)) as f64).sum();
        (depth as f64).powf(self.params.lambda) * weight_sum
    }

    /// Phase A: extract, prune and score one candidate, leaving only its
    /// compact record in `worker`.
    fn score_candidate(&self, memo: &Memo, worker: &mut Worker, central: u32, depth: u8) {
        worker.walk.extract(memo, self.params.level_cover, central);
        let (nodes, ..) = worker.walk.answer();
        let start = worker.scored_nodes.len();
        worker.scored_nodes.extend_from_slice(nodes);
        worker.scored.push(Scored {
            central,
            depth,
            score: self.score(nodes, depth),
            signature: signature(nodes),
            nodes: start..worker.scored_nodes.len(),
        });
    }

    /// Phase B: extract and prune one surviving candidate again and build
    /// the full answer.
    fn materialise(&self, memo: &Memo, walk: &mut Walk, central: u32, depth: u8) -> CentralGraph {
        walk.extract(memo, self.params.level_cover, central);
        let (nodes, arena, ranges) = walk.answer();
        let score = self.score(nodes, depth);
        let nodes: Vec<NodeId> = nodes.iter().map(|&v| NodeId(v)).collect();
        let keyword_edges: Vec<Vec<(NodeId, NodeId)>> = ranges
            .windows(2)
            .map(|r| {
                let mut es: Vec<(NodeId, NodeId)> = arena[r[0]..r[1]]
                    .iter()
                    .map(|&(a, b)| (NodeId(a.min(b)), NodeId(a.max(b))))
                    .collect();
                es.sort_unstable();
                es
            })
            .collect();
        let mut edges: Vec<(NodeId, NodeId)> = keyword_edges.iter().flatten().copied().collect();
        edges.sort_unstable();
        edges.dedup();
        let is_source = |v: &NodeId, i| memo.row(memo.slot(v.0))[i] == 0;
        let keyword_nodes = (0..memo.q)
            .map(|i| nodes.iter().copied().filter(|v| is_source(v, i)).collect())
            .collect();
        CentralGraph {
            central: NodeId(central),
            depth,
            nodes,
            edges,
            keyword_nodes,
            keyword_edges,
            score,
        }
    }
}

/// 64-bit signature of a node set, one bit per node (multiplicative hash,
/// top six bits): a subset's signature is a subset of its superset's.
fn signature(nodes: &[u32]) -> u64 {
    nodes.iter().fold(0, |s, &v| s | 1 << (v.wrapping_mul(0x9E37_79B1) >> 26))
}

/// One phase A record with its node ids resolved.
struct Ranked<'a> {
    central: u32,
    depth: u8,
    score: f64,
    signature: u64,
    nodes: &'a [u32],
}

impl Ranked<'_> {
    /// The final ranking: ascending score, then shallower, then smaller,
    /// then by central-node id — a strict total order, central nodes
    /// being unique.
    fn order(&self, other: &Ranked<'_>) -> CmpOrdering {
        rank_order(
            (self.score, self.depth, self.nodes.len(), self.central),
            (other.score, other.depth, other.nodes.len(), other.central),
        )
    }

    /// `true` if this answer's node set strictly contains `other`'s — the
    /// repetition-removal condition of Sec. VI-B (the container is the one
    /// to drop). The signature rejects most non-subsets before the linear
    /// merge of the two sorted lists.
    fn strictly_contains(&self, other: &Ranked<'_>) -> bool {
        if self.nodes.len() <= other.nodes.len() || other.signature & !self.signature != 0 {
            return false;
        }
        let mut mine = self.nodes.iter();
        other.nodes.iter().all(|n| mine.any(|m| m == n))
    }
}

/// Final selection on phase A records: sort by Eq. 6 score, drop answers
/// that strictly contain another candidate (repetition removal,
/// Sec. VI-B), keep the first `top_k` as `(central, depth)`.
fn select_top_k(mut ranked: Vec<Ranked<'_>>, params: &SearchParams) -> Vec<(u32, u8)> {
    ranked.sort_unstable_by(Ranked::order);
    let dedup = params.dedup_contained && ranked.len() > 1;
    if dedup {
        // Containment is checked against the whole candidate set, which
        // Def. 4 already bounds to the smallest-depth cohort; cap it on
        // pathological inputs. Only answers that would make the cut are
        // ever tested, so the work is O(top_k · c), not O(c²).
        const DEDUP_CAP: usize = 1024;
        ranked.truncate(DEDUP_CAP.max(params.top_k * 4));
    }
    ranked
        .iter()
        .filter(|a| !(dedup && ranked.iter().any(|b| a.strictly_contains(b))))
        .take(params.top_k)
        .map(|a| (a.central, a.depth))
        .collect()
}

/// The top-down stage over `cohort` (`(central, depth)`, shallowest
/// first): the query's memo is built once (`Memo::build`), phase A
/// scores every candidate over it — pool threads claiming small batches
/// from one atomic cursor, each with its own marks —, the records are
/// ranked and deduplicated, phase B materialises the ≤ `top_k` survivors,
/// best first. The stage reads the bottom-up search through `scratch.hits`
/// alone, which its caller filled; `scratch` grows to one worker per pool
/// thread. `None`: the budget tripped, and no partial answer set escapes.
pub fn top_down<P>(
    cx: &Stage<'_, P>,
    cohort: &[(NodeId, u8)],
    pool: Option<&rayon::ThreadPool>,
    scratch: &mut TopDownScratch,
) -> Option<Vec<CentralGraph>>
where
    P: Fn(&HitBlock, u32, &mut PredSink) + Sync,
{
    if cohort.is_empty() {
        return Some(Vec::new());
    }
    let TopDownScratch { hits, memo, workers } = scratch;
    let threads = pool.map_or(1, |p| p.current_num_threads());
    if workers.len() < threads {
        workers.resize_with(threads, Worker::default);
    }
    let workers = &mut workers[..threads];
    memo.build(cx, hits, cohort, pool, workers)?;
    let memo = &*memo;

    // Each worker scores into its own records; the locks are uncontended.
    for worker in workers.iter_mut() {
        worker.scored.clear();
        worker.scored_nodes.clear();
    }
    let slots: Vec<_> = workers.iter_mut().map(parking_lot::Mutex::new).collect();
    claim_runs(pool, cohort.len(), CANDIDATE_CLAIM, |worker, run| {
        let worker = &mut **slots[worker].lock();
        cohort[run].iter().all(|&(central, depth)| {
            let go = !cx.tracker.should_stop();
            if go {
                cx.score_candidate(memo, worker, central.0, depth);
            }
            go
        })
    });
    drop(slots);
    // Workers stop early only on a tripped budget, which is sticky.
    if cx.tracker.cancelled() {
        return None;
    }

    // The ranking is a strict total order, so which worker delivered a
    // record, and when, cannot show in the selection.
    let ranked = workers
        .iter()
        .flat_map(|w| {
            w.scored.iter().map(|r| Ranked {
                central: r.central,
                depth: r.depth,
                score: r.score,
                signature: r.signature,
                nodes: &w.scored_nodes[r.nodes.clone()],
            })
        })
        .collect();
    let survivors = select_top_k(ranked, cx.params);

    let walk = &mut workers[0].walk;
    survivors
        .into_iter()
        .map(|(central, depth)| {
            (!cx.tracker.should_stop()).then(|| cx.materialise(memo, walk, central, depth))
        })
        .collect()
}

/// The hash-based stage this module replaced, kept verbatim as the oracle
/// of [`tests::scratch_stage_equals_the_reference`]: an owned
/// `Extraction` per candidate, `HashSet`/`HashMap` pruning, a full
/// `CentralGraph` per candidate, O(c²) containment dedup. It reads the
/// bottom-up [`SearchState`] itself — the stage reads the bytes filled
/// from it, so a wrong fill shows as a difference.
#[cfg(test)]
mod reference {
    use crate::activation::ActivationMap;
    use crate::model::{answer_order, CentralGraph, INFINITE_LEVEL};
    use crate::state::SearchState;
    use crate::SearchParams;
    use kgraph::{KnowledgeGraph, NodeId};
    use std::collections::{HashMap, HashSet};

    /// The raw (unpruned) extraction of one Central Graph: per-keyword
    /// predecessor DAGs over data-graph nodes.
    #[derive(Clone, Debug)]
    pub struct Extraction {
        /// The central node.
        pub central: u32,
        /// Depth at identification.
        pub depth: u8,
        /// Per keyword: hitting-path edges as `(pred, succ)` pairs, deduped.
        /// Every edge lies on a hitting path ending at `central`.
        pub dag_edges: Vec<Vec<(u32, u32)>>,
        /// All nodes appearing in any DAG, plus the central node. Sorted.
        pub nodes: Vec<u32>,
    }

    /// Recover all hitting paths of the Central Graph centered at `central`
    /// (Theorem V.4). One backward BFS per keyword.
    pub fn extract(
        graph: &KnowledgeGraph,
        act: &ActivationMap<'_>,
        state: &SearchState,
        central: u32,
        depth: u8,
    ) -> Extraction {
        let q = state.num_keywords();
        let mut dag_edges: Vec<Vec<(u32, u32)>> = Vec::with_capacity(q);
        let mut all_nodes: HashSet<u32> = HashSet::new();
        all_nodes.insert(central);
        for i in 0..q {
            let mut edges: Vec<(u32, u32)> = Vec::new();
            let mut visited: HashSet<u32> = HashSet::new();
            let mut stack: Vec<u32> = vec![central];
            visited.insert(central);
            while let Some(j) = stack.pop() {
                let hj = state.hit(j, i);
                debug_assert_ne!(hj, INFINITE_LEVEL, "extraction reached an unhit node");
                if hj == 0 {
                    continue; // a source of B_i: hitting paths start here
                }
                let hj = hj as u16;
                // The `a_j − 1` term applies only to non-keyword nodes.
                let aj_term = if state.is_keyword_node(j) {
                    0u16
                } else {
                    (act.level(NodeId(j)) as u16).saturating_sub(1)
                };
                for adj in graph.neighbors(NodeId(j)) {
                    let n = adj.target().0;
                    let hn = state.hit(n, i);
                    if hn == INFINITE_LEVEL {
                        continue;
                    }
                    // A Central Node freezes at its identification depth and
                    // never expands afterwards, so it cannot be the
                    // predecessor of a hit beyond that depth.
                    if let Some(d) = state.central_depth(n) {
                        if hj > d as u16 {
                            continue;
                        }
                    }
                    let an = act.level(adj.target()) as u16;
                    let required = 1 + (hn as u16).max(an).max(aj_term);
                    if hj == required {
                        edges.push((n, j));
                        if visited.insert(n) {
                            stack.push(n);
                        }
                    }
                }
            }
            edges.sort_unstable();
            edges.dedup();
            for &(a, b) in &edges {
                all_nodes.insert(a);
                all_nodes.insert(b);
            }
            dag_edges.push(edges);
        }
        let mut nodes: Vec<u32> = all_nodes.into_iter().collect();
        nodes.sort_unstable();
        Extraction { central, depth, dag_edges, nodes }
    }

    /// Apply the **level-cover strategy** (paper Sec. V-C, Fig. 5) and build
    /// the final scored answer.
    ///
    /// Keyword nodes of the extracted graph are classified by how many query
    /// keywords they contain; the central node always forms the top level.
    /// Sweeping levels top-down, once the levels processed so far cover every
    /// keyword, all keyword nodes below are pruned together with the hitting
    /// paths that exist only to support them. The surviving graph is the union
    /// of per-keyword DAG edges forward-reachable from *preserved* sources.
    ///
    /// If pruning would disconnect a keyword (possible when a keyword's only
    /// coverage sat on another keyword's pruned path), the unpruned graph is
    /// kept — an answer must always cover the query.
    pub fn prune_and_score(
        graph: &KnowledgeGraph,
        state: &SearchState,
        extraction: &Extraction,
        params: &SearchParams,
    ) -> CentralGraph {
        let q = state.num_keywords();
        let central = extraction.central;

        // Classify keyword nodes by contained-keyword count, descending; the
        // central node is its own top level.
        let mut by_count: Vec<(usize, u32)> = extraction
            .nodes
            .iter()
            .filter(|&&v| v != central)
            .map(|&v| ((0..q).filter(|&i| is_source(state, v, i)).count(), v))
            .filter(|&(c, _)| c > 0)
            .collect();
        by_count.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

        // Greedy cover sweep: central node first, then whole levels until all
        // keywords are covered.
        let mut covered = vec![false; q];
        let mut covered_count = 0usize;
        let cover_node = |v: u32, covered: &mut Vec<bool>, covered_count: &mut usize| {
            for (i, c) in covered.iter_mut().enumerate() {
                if !*c && is_source(state, v, i) {
                    *c = true;
                    *covered_count += 1;
                }
            }
        };
        cover_node(central, &mut covered, &mut covered_count);
        let mut preserved: HashSet<u32> = HashSet::new();
        preserved.insert(central);
        let mut idx = 0;
        while covered_count < q && idx < by_count.len() {
            let level_count = by_count[idx].0;
            // Take the whole level: nodes are not pruned by same-level peers.
            while idx < by_count.len() && by_count[idx].0 == level_count {
                let v = by_count[idx].1;
                preserved.insert(v);
                cover_node(v, &mut covered, &mut covered_count);
                idx += 1;
            }
        }
        let pruned_any = params.level_cover && idx < by_count.len();

        // Rebuild: per keyword, keep DAG edges forward-reachable from
        // preserved sources.
        let pruned = if pruned_any {
            let mut nodes: HashSet<u32> = HashSet::new();
            nodes.insert(central);
            let mut edges: HashSet<(u32, u32)> = HashSet::new();
            let mut per_keyword: Vec<Vec<(u32, u32)>> = Vec::with_capacity(q);
            for dag in &extraction.dag_edges {
                let mut succ: HashMap<u32, Vec<u32>> = HashMap::new();
                for &(p, s) in dag {
                    succ.entry(p).or_default().push(s);
                }
                let mut kept: Vec<(u32, u32)> = Vec::new();
                // Sources of this DAG: predecessors with hitting level 0.
                let mut stack: Vec<u32> = Vec::new();
                let mut seen: HashSet<u32> = HashSet::new();
                for &(p, _) in dag {
                    if preserved.contains(&p) && seen.insert(p) {
                        stack.push(p);
                    }
                }
                // Forward walk keeps everything downstream of a preserved node;
                // upstream-only support of pruned sources disappears.
                while let Some(v) = stack.pop() {
                    nodes.insert(v);
                    if let Some(nexts) = succ.get(&v) {
                        for &s in nexts {
                            edges.insert((v.min(s), v.max(s)));
                            kept.push((v.min(s), v.max(s)));
                            nodes.insert(s);
                            if seen.insert(s) {
                                stack.push(s);
                            }
                        }
                    }
                }
                kept.sort_unstable();
                kept.dedup();
                per_keyword.push(kept);
            }
            // Soundness check: every keyword must still be covered.
            let all_covered = (0..q).all(|i| nodes.iter().any(|&v| is_source(state, v, i)));
            all_covered.then_some((nodes, edges, per_keyword))
        } else {
            None
        };
        let (final_nodes, final_edges, per_keyword_edges) = match pruned {
            Some(parts) => parts,
            None => (
                full_nodes(extraction),
                full_edges(extraction),
                extraction
                    .dag_edges
                    .iter()
                    .map(|dag| {
                        let mut es: Vec<(u32, u32)> =
                            dag.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
                        es.sort_unstable();
                        es.dedup();
                        es
                    })
                    .collect(),
            ),
        };

        let mut nodes: Vec<NodeId> = final_nodes.iter().map(|&v| NodeId(v)).collect();
        nodes.sort_unstable();
        let mut edges: Vec<(NodeId, NodeId)> =
            final_edges.iter().map(|&(a, b)| (NodeId(a), NodeId(b))).collect();
        edges.sort_unstable();

        let keyword_nodes: Vec<Vec<NodeId>> = (0..q)
            .map(|i| nodes.iter().copied().filter(|v| is_source(state, v.0, i)).collect())
            .collect();
        let keyword_edges: Vec<Vec<(NodeId, NodeId)>> = per_keyword_edges
            .into_iter()
            .map(|es| es.into_iter().map(|(a, b)| (NodeId(a), NodeId(b))).collect())
            .collect();

        // Eq. 6: S(C) = d(C)^λ · Σ_{v ∈ C} w_v (smaller = better).
        let weight_sum: f64 = nodes.iter().map(|v| graph.weight(*v) as f64).sum();
        let score = (extraction.depth as f64).powf(params.lambda) * weight_sum;

        CentralGraph {
            central: NodeId(central),
            depth: extraction.depth,
            nodes,
            edges,
            keyword_nodes,
            keyword_edges,
            score,
        }
    }

    /// `true` if `v ∈ T_i` (`⇔ M[v][i] = 0`).
    fn is_source(state: &SearchState, v: u32, i: usize) -> bool {
        state.hit(v, i) == 0
    }

    fn full_nodes(e: &Extraction) -> HashSet<u32> {
        e.nodes.iter().copied().collect()
    }

    fn full_edges(e: &Extraction) -> HashSet<(u32, u32)> {
        e.dag_edges.iter().flatten().map(|&(a, b)| (a.min(b), a.max(b))).collect()
    }

    /// Final selection: sort by Eq. 6 score, remove answers that strictly
    /// contain another candidate (repetition removal, Sec. VI-B), truncate to
    /// `top_k`.
    pub fn select_top_k(
        mut candidates: Vec<CentralGraph>,
        params: &SearchParams,
    ) -> Vec<CentralGraph> {
        if params.dedup_contained && candidates.len() > 1 {
            // Compare each answer against smaller ones; O(c²) on the candidate
            // set, which Def. 4 already bounds to the smallest-depth cohort.
            // Cap the quadratic work on pathological inputs.
            const DEDUP_CAP: usize = 1024;
            candidates.sort_by(answer_order);
            candidates.truncate(DEDUP_CAP.max(params.top_k * 4));
            let mut by_size: Vec<usize> = (0..candidates.len()).collect();
            by_size.sort_by_key(|&i| candidates[i].nodes.len());
            let mut dropped = vec![false; candidates.len()];
            for pos in (0..by_size.len()).rev() {
                let i = by_size[pos];
                for &j in &by_size[..pos] {
                    if !dropped[j] && candidates[i].strictly_contains(&candidates[j]) {
                        dropped[i] = true;
                        break;
                    }
                }
            }
            candidates = candidates
                .into_iter()
                .zip(dropped)
                .filter_map(|(c, d)| (!d).then_some(c))
                .collect();
        }
        candidates.sort_by(answer_order);
        candidates.truncate(params.top_k);
        candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bottom_up::{drive, ExpandCtx, LevelRun};
    use crate::engine::{digest_answer, MatrixOps};
    use crate::state::SearchState;
    use kgraph::GraphBuilder;
    use textindex::{InvertedIndex, ParsedQuery};

    /// End-to-end helper: the sequential two-stage search on a graph with
    /// zero activation levels.
    fn search_all(
        g: &KnowledgeGraph,
        raw: &str,
        params: &SearchParams,
    ) -> (Vec<CentralGraph>, SearchState) {
        let idx = InvertedIndex::build(g);
        let q = ParsedQuery::parse(&idx, raw);
        let mut state = SearchState::new(g.num_nodes(), &q);
        let activation = vec![0u8; g.num_nodes()];
        let act = ActivationMap(&activation);
        let tracker = crate::budget::QueryBudget::unlimited().start();
        let mut frontiers = Vec::new();
        let mut ops = MatrixOps {
            pool: None,
            work_items: false,
            ctx: ExpandCtx { graph: g, act: &act, state: &state, budget: &tracker },
            frontiers: &mut frontiers,
        };
        let mut run = LevelRun::new(params, &tracker);
        drive(&mut ops, &mut run).expect("unlimited budget");
        let mut scratch = TopDownScratch::default();
        state.fill(&mut scratch.hits);
        let out = run
            .finish("Seq", g, None, &mut scratch, |hits, j, sink| {
                hitting_path_preds(g, &act, hits, j, sink)
            })
            .expect("unlimited budget");
        (out.answers, state)
    }

    /// Diamond: two disjoint length-2 paths between the keyword endpoints.
    /// Both middles become central; both hitting paths are recovered.
    #[test]
    fn extraction_recovers_multi_paths() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("a", "alpha");
        let m1 = b.add_node("m1", "mid one");
        let m2 = b.add_node("m2", "mid two");
        let z = b.add_node("z", "omega");
        b.add_edge(a, m1, "e");
        b.add_edge(a, m2, "e");
        b.add_edge(m1, z, "e");
        b.add_edge(m2, z, "e");
        let g = b.build();
        let params = SearchParams::default();
        let (answers, _) = search_all(&g, "alpha omega", &params);
        // m1 and m2 are both central at depth 1.
        assert_eq!(answers.len(), 2);
        for ans in &answers {
            ans.check_invariants().unwrap();
            assert_eq!(ans.depth, 1);
            assert_eq!(ans.num_nodes(), 3); // keyword, middle, keyword
            assert_eq!(ans.num_edges(), 2);
        }
    }

    /// The paper's Fig. 5 scenario: keywords {stanford, jeffrey, ullman}.
    /// "Jeffrey Ullman" covers two keywords, "Stanford University" is the
    /// central node; extra nodes containing only "Jeffrey" hang off the
    /// central node and must be pruned by the level-cover strategy.
    #[test]
    fn level_cover_prunes_single_keyword_satellites() {
        let mut b = GraphBuilder::new();
        let stanford = b.add_node("su", "Stanford University");
        let ullman = b.add_node("ju", "Jeffrey Ullman");
        b.add_edge(ullman, stanford, "employer");
        let mut jeffreys = Vec::new();
        for i in 0..3 {
            let j = b.add_node(&format!("j{i}"), &format!("Jeffrey Satellite{i}"));
            b.add_edge(j, stanford, "affiliation");
            jeffreys.push(j);
        }
        let g = b.build();
        let params = SearchParams::default();
        let (answers, _) = search_all(&g, "stanford jeffrey ullman", &params);
        let best = answers
            .iter()
            .find(|a| a.central == stanford)
            .expect("stanford-centered answer");
        best.check_invariants().unwrap();
        // The three "Jeffrey"-only satellites are pruned: Jeffrey Ullman
        // (2 keywords) already completes coverage.
        assert!(best.contains_node(ullman));
        for j in &jeffreys {
            assert!(!best.contains_node(*j), "satellite {j} should be pruned");
        }
        assert_eq!(best.num_nodes(), 2);
        assert_eq!(best.num_edges(), 1);
    }

    /// Without pruning need (all keyword nodes required), the graph is
    /// untouched.
    #[test]
    fn level_cover_keeps_everything_when_all_needed() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("x", "apple");
        let y = b.add_node("y", "banana");
        let c = b.add_node("c", "hub");
        b.add_edge(x, c, "e");
        b.add_edge(y, c, "e");
        let g = b.build();
        let params = SearchParams::default();
        let (answers, _) = search_all(&g, "apple banana", &params);
        let hub_answer = answers.iter().find(|a| a.central == c).unwrap();
        assert_eq!(hub_answer.num_nodes(), 3);
        assert_eq!(hub_answer.num_edges(), 2);
    }

    /// Ablation: disabling level-cover keeps the redundant satellites.
    #[test]
    fn level_cover_ablation_keeps_satellites() {
        let mut b = GraphBuilder::new();
        let stanford = b.add_node("su", "Stanford University");
        let ullman = b.add_node("ju", "Jeffrey Ullman");
        b.add_edge(ullman, stanford, "employer");
        for i in 0..3 {
            let j = b.add_node(&format!("j{i}"), &format!("Jeffrey Satellite{i}"));
            b.add_edge(j, stanford, "affiliation");
        }
        let g = b.build();
        let pruned_params = SearchParams::default();
        // Disable containment dedup too: the unpruned Stanford answer
        // strictly contains the Ullman-centered one and would be dropped.
        let raw_params =
            SearchParams { level_cover: false, dedup_contained: false, ..SearchParams::default() };
        let (pruned, _) = search_all(&g, "stanford jeffrey ullman", &pruned_params);
        let (raw, _) = search_all(&g, "stanford jeffrey ullman", &raw_params);
        let pruned_su = pruned.iter().find(|a| a.central == stanford).unwrap();
        let raw_su = raw.iter().find(|a| a.central == stanford).unwrap();
        assert_eq!(pruned_su.num_nodes(), 2);
        assert_eq!(raw_su.num_nodes(), 5, "satellites kept without level-cover");
        assert!(raw_su.strictly_contains(pruned_su));
    }

    #[test]
    fn scores_prefer_shallow_low_weight_answers() {
        // Two candidate central structures: a co-occurrence node at depth 0
        // and a depth-1 join — depth 0 scores 0 and ranks first.
        let mut b = GraphBuilder::new();
        let both = b.add_node("b", "apple banana");
        let x = b.add_node("x", "apple");
        let y = b.add_node("y", "banana");
        let c = b.add_node("c", "hub");
        b.add_edge(x, c, "e");
        b.add_edge(y, c, "e");
        b.add_edge(both, c, "e");
        let g = b.build();
        let params = SearchParams::default();
        let (answers, _) = search_all(&g, "apple banana", &params);
        assert!(!answers.is_empty());
        assert_eq!(answers[0].central, both);
        assert_eq!(answers[0].depth, 0);
        assert_eq!(answers[0].score, 0.0);
        for w in answers.windows(2) {
            assert!(w[0].score <= w[1].score, "answers must be score-sorted");
        }
    }

    /// A phase A record from bare parts.
    fn ranked(central: u32, depth: u8, nodes: &[u32], score: f64) -> Ranked<'_> {
        Ranked { central, depth, score, signature: signature(nodes), nodes }
    }

    #[test]
    fn containment_dedup_drops_the_container() {
        let small = || ranked(1, 1, &[0, 1], 1.0);
        // Better score, but it strictly contains `small`.
        let big = ranked(2, 2, &[0, 1, 2], 0.5);
        let params = SearchParams::default();
        assert_eq!(select_top_k(vec![small(), big], &params), [(1, 1)]);

        let no_dedup = SearchParams { dedup_contained: false, ..SearchParams::default() };
        let kept = select_top_k(vec![small(), ranked(3, 1, &[0, 1], 0.5)], &no_dedup);
        assert_eq!(kept, [(3, 1), (1, 1)]);
    }

    #[test]
    fn the_signature_never_hides_a_subset() {
        // A saturated signature passes every filter: the merge decides.
        let full =
            |central, nodes| Ranked { signature: u64::MAX, ..ranked(central, 1, nodes, 1.0) };
        let a = full(1, &[0, 64, 128]);
        assert!(a.strictly_contains(&full(2, &[64, 128])));
        assert!(!a.strictly_contains(&full(3, &[0, 192])));
        assert!(!a.strictly_contains(&full(4, &[0, 64, 128])), "equal is not strict");
        // And a real signature never rejects a true subset.
        let nodes: Vec<u32> = (0..500).map(|i| i * 7919).collect();
        assert!(ranked(5, 1, &nodes, 1.0).strictly_contains(&ranked(6, 1, &nodes[100..400], 1.0)));
    }

    #[test]
    fn select_truncates_to_top_k() {
        let nodes: Vec<[u32; 1]> = (0..10).map(|i| [i]).collect();
        let cands = nodes.iter().map(|n| ranked(n[0], 1, n, n[0] as f64)).collect();
        let params = SearchParams::default().with_top_k(3);
        assert_eq!(select_top_k(cands, &params), [(0, 1), (1, 1), (2, 1)]);
    }

    // --- The scratch stage against the verbatim reference -----------------

    use crate::budget::QueryBudget;
    use proptest::TestRng;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// The sequential bottom-up stage of `q` over `g`: its finished state
    /// and candidate cohort.
    fn bottom_up(
        g: &KnowledgeGraph,
        q: &ParsedQuery,
        act: &ActivationMap<'_>,
        params: &SearchParams,
    ) -> (SearchState, Vec<(NodeId, u8)>) {
        let state = SearchState::new(g.num_nodes(), q);
        let tracker = QueryBudget::unlimited().start();
        let mut frontiers = Vec::new();
        let mut ops = MatrixOps {
            pool: None,
            work_items: false,
            ctx: ExpandCtx { graph: g, act, state: &state, budget: &tracker },
            frontiers: &mut frontiers,
        };
        let mut run = LevelRun::new(params, &tracker);
        drive(&mut ops, &mut run).expect("unlimited budget");
        let cohort = run.cohort().to_vec();
        (state, cohort)
    }

    /// What [`LevelRun::finish`] hands the stage of a matrix search: the
    /// state's bytes, the cohort marked central.
    fn fill(state: &mut SearchState, cohort: &[(NodeId, u8)], hits: &mut HitBlock) {
        state.fill(hits);
        for &(central, depth) in cohort {
            hits.mark_central(central.0, depth);
        }
    }

    /// One random stage-2 input.
    struct Case {
        graph: KnowledgeGraph,
        activation: Vec<u8>,
        query: String,
        params: SearchParams,
    }

    /// A random graph whose node texts draw up to `node_words` of `words`,
    /// and a query of up to `query_words` of them.
    fn random_case(
        rng: &mut TestRng,
        words: &[String],
        node_words: usize,
        query_words: usize,
    ) -> Case {
        // Skewed toward the first words, so popular keywords co-occur on
        // nodes (level-cover classes above 1) and queries ask for them.
        let word = |rng: &mut TestRng| {
            words[rng.range_usize(0, words.len()).min(rng.range_usize(0, words.len()))].as_str()
        };
        let nodes = rng.range_usize(2, 32);
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..nodes)
            .map(|i| {
                let text: Vec<&str> =
                    (0..rng.range_usize(0, node_words + 1)).map(|_| word(rng)).collect();
                b.add_node(&format!("n{i}"), &format!("x{i} {}", text.join(" ")))
            })
            .collect();
        // Sparse to dense, multi-edges and both directions included.
        for _ in 0..rng.range_usize(nodes, 4 * nodes) {
            let (s, d) = (rng.range_usize(0, nodes), rng.range_usize(0, nodes));
            if s != d {
                b.add_edge(ids[s], ids[d], "e");
            }
        }
        let mut query: Vec<&str> = Vec::new();
        for _ in 0..rng.range_usize(1, query_words + 1) {
            let w = word(rng);
            if !query.contains(&w) {
                query.push(w);
            }
        }
        Case {
            graph: b.build(),
            activation: (0..nodes).map(|_| rng.range_usize(0, 4) as u8).collect(),
            query: query.join(" "),
            params: SearchParams {
                level_cover: rng.below(4) != 0,
                dedup_contained: rng.below(2) == 0,
                ..SearchParams::default().with_top_k(rng.range_usize(1, 9))
            },
        }
    }

    /// The vocabularies of the random cases: ten words (node texts draw 0–5
    /// of them, queries 1–8), and ninety words no stemmer touches (node
    /// texts draw 0–40, queries 1–400 with repeats: Knum beyond 64).
    fn word_pools() -> (Vec<String>, Vec<String>) {
        let few = [
            "alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa", "lambda", "zeta", "theta",
        ]
        .map(String::from)
        .into();
        let many = (0..90)
            .map(|k| format!("q{}{}x", (b'a' + k / 10) as char, (b'a' + k % 10) as char))
            .collect();
        (few, many)
    }

    /// Random graphs × random activation levels × `level_cover` /
    /// `dedup_contained` on and off × Knum 1–8, then Knum beyond 64 (the
    /// block keeps rows, not bit sets: no keyword-count limit): every cohort
    /// member materialised by the scratch — over the bytes the matrix
    /// engines fill — equals the reference's `extract` +
    /// `prune_and_score` over the state itself field for field, and the
    /// selected top-k equals the reference's, on the caller's thread and on
    /// pools of 1, 2 and 3 threads, through scratches reused across all
    /// cases. Every engine goes through the one `finish`, so the
    /// `*_equivalence` suites cannot see a uniform stage-2 bug; this can.
    #[test]
    fn scratch_stage_equals_the_reference() {
        let mut rng = TestRng::from_name("central::top_down::scratch_stage_equals_the_reference");
        let pools: Vec<_> = (1..=3).map(crate::engine::build_pool).collect();
        let mut scratches: Vec<TopDownScratch> = (0..=3).map(|_| Default::default()).collect();
        let (few, many) = word_pools();
        let (mut cases, mut pruning_cases, mut candidates, mut pruned) = (0, 0, 0, 0);
        let (mut wide_cases, mut wide_candidates) = (0, 0);
        while cases < 600 || wide_cases < 12 {
            let wide = cases >= 600;
            let case = if wide {
                random_case(&mut rng, &many, 40, 400)
            } else {
                random_case(&mut rng, &few, 5, 8)
            };
            let (g, params) = (&case.graph, &case.params);
            let idx = InvertedIndex::build(g);
            let q = ParsedQuery::parse(&idx, &case.query);
            if q.is_empty() || (wide && q.num_keywords() <= 64) {
                continue;
            }
            cases += 1;
            let act = ActivationMap(&case.activation);
            let (mut state, cohort) = bottom_up(g, &q, &act, params);
            if wide {
                wide_cases += 1;
                wide_candidates += cohort.len();
            }

            let expected: Vec<CentralGraph> = cohort
                .iter()
                .map(|&(c, d)| {
                    let extraction = reference::extract(g, &act, &state, c.0, d);
                    reference::prune_and_score(g, &state, &extraction, params)
                })
                .collect();
            let tracker = QueryBudget::unlimited().start();
            let stage = Stage {
                graph: g,
                params,
                tracker: &tracker,
                preds: |hits: &HitBlock, j: u32, sink: &mut PredSink| {
                    hitting_path_preds(g, &act, hits, j, sink)
                },
            };
            let TopDownScratch { hits, memo, workers } = &mut scratches[0];
            fill(&mut state, &cohort, hits);
            let hits = hits.clone();
            workers.resize_with(1, Worker::default);
            memo.build(&stage, &hits, &cohort, None, workers).expect("unlimited budget");
            let walk = &mut workers[0].walk;
            let mut case_pruned = false;
            for (&(c, d), want) in cohort.iter().zip(&expected) {
                let got = stage.materialise(memo, walk, c.0, d);
                assert_eq!(
                    digest_answer(&got),
                    digest_answer(want),
                    "case {cases}: {:?}",
                    case.query
                );
                candidates += 1;
                if walk.pruned {
                    pruned += 1;
                    case_pruned = true;
                }
            }
            pruning_cases += usize::from(case_pruned);

            let want: Vec<String> =
                reference::select_top_k(expected, params).iter().map(digest_answer).collect();
            let pools = std::iter::once(None).chain(pools.iter().map(Some));
            for (pool, scratch) in pools.zip(&mut scratches) {
                scratch.hits.clone_from(&hits);
                let got = top_down(&stage, &cohort, pool, scratch).expect("unlimited budget");
                assert_eq!(got.iter().map(digest_answer).collect::<Vec<_>>(), want, "case {cases}");
            }
        }
        // The generator must actually reach the prune branch. (The
        // reference's "pruning would uncover a keyword → keep unpruned"
        // fallback is unreachable — see `Walk::level_cover` — so equality
        // above is also the evidence that dropping it changed nothing.)
        assert!(pruning_cases * 5 >= cases, "{pruning_cases} of {cases} cases pruned");
        assert!(pruned * 10 >= candidates, "{pruned} of {candidates} candidates pruned");
        assert!(wide_candidates > 0, "no wide case had a candidate");
    }

    /// What the routing views used to carry implicitly: whichever shape runs
    /// the bottom-up stage, the top-down stage is handed the same bytes. On
    /// random graphs and queries (Knum 1–8, then beyond 64; activation
    /// gating on) the three fills that exist — the matrix engines' (solo
    /// `seq`), CPU-Par-d's, and the coordinator's `scatter_rows` over 2 and
    /// 3 in-process shards and a 2-worker loopback fleet — leave
    /// byte-identical blocks — rows and central marks — behind their
    /// searches, and they are the sequential state's own cells.
    #[test]
    fn every_shape_fills_the_same_block() {
        use crate::engine::{DynParEngine, KeywordSearchEngine, SeqEngine};
        use crate::remote::{RemoteOptions, ShardCoordinator, ShardWorker, StaticAddrs};
        use crate::session::SearchSession;
        use crate::shard::{ShardBackend, DEFAULT_PARTITION_SEED};

        let mut rng = TestRng::from_name("central::top_down::every_shape_fills_the_same_block");
        let (few, many) = word_pools();
        let (seq, dynamic) = (SeqEngine::new(), DynParEngine::new(2));
        let (mut solo, mut locked) = (SearchSession::new(), SearchSession::new());
        let budget = QueryBudget::unlimited();
        let (mut cases, mut wide_cases, mut marked, mut gated) = (0, 0, 0, 0);
        while cases < 40 || wide_cases < 2 {
            let wide = cases >= 40;
            let case = if wide {
                random_case(&mut rng, &many, 40, 400)
            } else {
                random_case(&mut rng, &few, 5, 8)
            };
            let g = &case.graph;
            let q = ParsedQuery::parse(&InvertedIndex::build(g), &case.query);
            if q.is_empty() || (wide && q.num_keywords() <= 64) {
                continue;
            }
            cases += 1;
            wide_cases += usize::from(wide);
            gated += usize::from(case.activation.iter().any(|&a| a > 1));
            let params = case.params.clone().with_explicit_activation(case.activation.clone());

            seq.search_session(&mut solo, g, &q, &params);
            let want = &solo.top_down.hits;
            let mut row = vec![0; q.num_keywords()];
            for v in g.nodes() {
                solo.state.row_into(v.0, &mut row);
                assert_eq!(want.row(v.0), row, "case {cases}, node {v}");
                assert_eq!(want.central_depth(v.0), solo.state.central_depth(v.0), "case {cases}");
                assert_eq!(want.is_keyword_node(v.0), solo.state.is_keyword_node(v.0));
                marked += usize::from(want.central_depth(v.0).is_some());
            }

            dynamic.search_session(&mut locked, g, &q, &params);
            assert_eq!(&locked.top_down.hits, want, "case {cases}: CPU-Par-d");
            let addrs = (0..2)
                .map(|s| ShardWorker::spawn_local(g, 2, s, DEFAULT_PARTITION_SEED))
                .collect();
            let opts = RemoteOptions::default();
            let addrs = std::sync::Arc::new(StaticAddrs(addrs));
            let fleets = [
                ("2 shards", ShardCoordinator::in_process(g, ShardBackend::Seq, 2)),
                ("3 shards", ShardCoordinator::in_process(g, ShardBackend::Seq, 3)),
                ("2 workers", ShardCoordinator::remote(g, ShardBackend::Seq, 2, addrs, opts)),
            ];
            for (shape, fleet) in &fleets {
                let out = fleet.try_search(g, &q, &params, &budget, None).expect("unlimited");
                assert!(!out.degraded);
                let stage = fleet.stage.checkout();
                assert_eq!(&stage.top_down.hits, want, "case {cases}: {shape}");
            }
        }
        assert!(marked > 0, "no case identified a central node");
        assert!(gated * 2 >= cases, "{gated} of {cases} cases gated by activation");
    }

    /// Each question is asked once: on a hub every candidate's walk passes
    /// through, with 1, 2 and 3 threads, the oracle hears about no node
    /// twice in a query, never about a node reached only as a source of the
    /// keyword that reached it, and again about the same nodes in the next
    /// query on the same scratch (the memo is per query).
    #[test]
    fn every_node_is_asked_about_at_most_once_per_query() {
        // alpha source — hub — 30 mids, each with its own omega source:
        // the hub and every mid are central at depth 2, and every mid's
        // alpha walk passes through the hub.
        let mut b = GraphBuilder::new();
        let source = b.add_node("s", "alpha");
        let hub = b.add_node("h", "hub");
        b.add_edge(source, hub, "e");
        for i in 0..30 {
            let mid = b.add_node(&format!("m{i}"), "mid");
            let leaf = b.add_node(&format!("z{i}"), "omega");
            b.add_edge(hub, mid, "e");
            b.add_edge(mid, leaf, "e");
        }
        let g = b.build();
        let idx = InvertedIndex::build(&g);
        let q = ParsedQuery::parse(&idx, "alpha omega");
        let activation = vec![0u8; g.num_nodes()];
        let act = ActivationMap(&activation);
        // (The hub's answer contains every mid's: keep it in the top-k.)
        let params =
            SearchParams { dedup_contained: false, ..SearchParams::default().with_top_k(40) };
        let (mut state, cohort) = bottom_up(&g, &q, &act, &params);
        assert_eq!(cohort.len(), 31, "the hub and every mid");

        let tracker = QueryBudget::unlimited().start();
        for threads in 1..=3 {
            let pool = crate::engine::build_pool(threads);
            let asked: Vec<AtomicU32> = (0..g.num_nodes()).map(|_| AtomicU32::new(0)).collect();
            let stage = Stage {
                graph: &g,
                params: &params,
                tracker: &tracker,
                preds: |hits: &HitBlock, j: u32, sink: &mut PredSink| {
                    asked[j as usize].fetch_add(1, Ordering::Relaxed);
                    hitting_path_preds(&g, &act, hits, j, sink)
                },
            };
            let mut scratch = TopDownScratch::default();
            fill(&mut state, &cohort, &mut scratch.hits);
            for query in 1..=2 {
                let answers = top_down(&stage, &cohort, Some(&pool), &mut scratch).unwrap();
                assert_eq!(answers.len(), 31);
                for v in g.nodes() {
                    let central = cohort.iter().any(|&(c, _)| c == v);
                    assert_eq!(
                        asked[v.index()].load(Ordering::Relaxed),
                        if central { query } else { 0 },
                        "{threads} threads, query {query}, node {}",
                        g.node_key(v)
                    );
                }
            }
        }
    }

    /// A tripped budget surfaces as `None` from either phase, never as a
    /// truncated answer set.
    #[test]
    fn a_tripped_budget_stops_the_stage() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("a", "alpha");
        let z = b.add_node("z", "omega");
        for i in 0..10 {
            let m = b.add_node(&format!("m{i}"), "mid");
            b.add_edge(a, m, "e");
            b.add_edge(z, m, "e");
        }
        let g = b.build();
        let idx = InvertedIndex::build(&g);
        let q = ParsedQuery::parse(&idx, "alpha omega");
        let act = ActivationMap(&[0; 12]);
        let params = SearchParams::default();
        let (mut state, cohort) = bottom_up(&g, &q, &act, &params);
        assert_eq!(cohort.len(), 10);

        // One scratch throughout: a stage cut short — before its first
        // question, or (the oracle billing a unit per question) halfway
        // through the memo's first round — leaves nothing the next one sees.
        let live = QueryBudget::unlimited().start();
        let expired = QueryBudget::unlimited().with_timeout(std::time::Duration::ZERO).start();
        let mid_round = QueryBudget::unlimited().with_max_expansions(5).start();
        let mut scratch = TopDownScratch::default();
        fill(&mut state, &cohort, &mut scratch.hits);
        let mut complete = Vec::new();
        let runs = [(&live, 10), (&expired, 10), (&mid_round, 10), (&live, 1), (&live, 10)];
        for (tracker, candidates) in runs {
            let stage = Stage {
                graph: &g,
                params: &params,
                tracker,
                preds: |hits: &HitBlock, j: u32, sink: &mut PredSink| {
                    tracker.charge(1);
                    hitting_path_preds(&g, &act, hits, j, sink)
                },
            };
            let out = top_down(&stage, &cohort[..candidates], None, &mut scratch);
            assert_eq!(out.is_some(), tracker.error().is_none());
            complete.extend(out.map(|answers| answers.iter().map(digest_answer).collect()));
        }
        let complete: Vec<Vec<String>> = complete;
        assert_eq!(complete.iter().map(Vec::len).collect::<Vec<_>>(), [10, 1, 10]);
        assert_eq!(complete[1][0], complete[0][0]);
        assert_eq!(complete[2], complete[0]);
    }
}
