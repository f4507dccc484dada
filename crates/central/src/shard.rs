//! Sharded scatter-gather search: an edge-cut graph partitioner with
//! boundary-node replication, per-shard local search over one lane of
//! state per shard, and the level-synchronous round protocol that
//! exchanges frontier/hitting-level state across shard boundaries between
//! BFS rounds.
//!
//! This is the distributed design sketched by DKWS (arXiv:2309.01199):
//! every shard runs the paper's two-stage algorithm *locally* on its
//! sub-graph, and the only cross-shard traffic is the per-round exchange
//! of newly hit boundary cells. This module holds what a shard is — the
//! partitioner ([`ShardPlan`]) and the per-shard half of every phase
//! (`ShardLane`); the one coordinator that drives the lanes, in this
//! process or in worker processes over TCP, is
//! [`crate::remote::ShardCoordinator`].
//!
//! ## Partitioning ([`ShardPlan`])
//!
//! Node ownership is a deterministic seeded hash: `owner(v) =
//! splitmix64(seed ^ v) mod N`. Each [`ShardPart`] materializes
//!
//! * its **owned** nodes, assigned local ids `0..owned` in ascending
//!   global-id order (this makes per-shard frontier scans produce
//!   globally ordered cohorts, which the answer-identity proof relies
//!   on);
//! * **halo** replicas of every remote-owned node adjacent to an owned
//!   node, with local ids after the owned block;
//! * a local CSR sub-graph holding every global directed edge incident
//!   to an owned node (owned nodes have *complete* adjacency; halos have
//!   partial adjacency and are never expanded);
//! * per-node weights copied from the global graph
//!   ([`kgraph::KnowledgeGraph::override_weights`]) so activation levels
//!   and Eq. 6 scores are identical to the monolithic engine's — the
//!   builder would otherwise re-normalize over the shard-local maximum;
//! * the **boundary** (frontier-exchange) table: local ids of every node
//!   replicated in more than one shard.
//!
//! ## The round protocol
//!
//! The level loop itself is [`crate::bottom_up::drive`]; the coordinator
//! only implements its [`crate::bottom_up::LevelOps`] seam with two
//! requests per level, each swept over the shard lanes at once: a `Step`
//! and an `Expand` (see [`crate::remote::wire`]). Those are the two
//! barriers the algorithm has — Def. 4's termination test needs the whole
//! level identified before anything expands, and the next level's enqueue
//! needs every expansion done. The per-shard half of every step is a
//! `ShardLane` method, which a lane's handler runs behind the request
//! whichever link delivered it:
//!
//! 1. **apply** (`Step`, `ShardLane::step`): each lane applies the
//!    previous round's notification set (empty at level 0) — the pairs
//!    whose replica it holds and that still read `∞` become hit at the
//!    step's level.
//! 2. **enqueue** (`Step`, same call): each shard drains the frontier
//!    flags of its *owned* nodes — every global frontier node is counted
//!    exactly once, by its owner.
//! 3. **identify** (`Step`, same call):
//!    [`crate::bottom_up::identify_sequential`] over each shard's owned
//!    frontiers; the owner's replica always holds the complete `M` row
//!    (see the sync invariant below).
//! 4. **merge** (coordinator, no request): per-shard cohorts
//!    (`ShardLane::newly`, shipped in the `Step` reply) arrive as global
//!    ids and merge in ascending order — the same within-level order the
//!    monolithic frontier scan produces — and the termination test runs.
//! 5. **expand** (`Expand`, `ShardLane::expand`): the frontier-grained
//!    kernel runs over each shard's owned frontiers against its
//!    local sub-graph, charging the lane's own counting
//!    [`crate::budget::BudgetTracker`] (the coordinator charges the sum
//!    against the query's at the level's sequence point); then the shard
//!    scans its boundary table for cells that became `level + 1` this
//!    round into its outbox.
//! 6. **exchange** (coordinator, `ExchangeCounters::exchange`): the
//!    coordinator dedups the union of the outboxes; the surviving
//!    `(node, instance)` pairs ride the next level's `Step`, which every
//!    lane receives in full (step 1).
//!
//! The dedup in step 6 is the synchronous degenerate form of DKWS's
//! monotone upper-bound pruning: in a level-synchronous search every
//! notification generated during round `l` carries the same level
//! `l + 1`, so a notification is useful iff the receiving replica has no
//! finite level yet — anything else cannot lower the bound and is
//! dropped ([`ShardedStats::notifications_suppressed`] counts these).
//!
//! **Sync invariant:** at every round boundary — once a `Step` has applied
//! its notifications, before it reads a row — all replicas of a node
//! carry identical `M` rows. Seeding establishes it (each shard's
//! localized query seeds keyword sources on owned *and* halo replicas),
//! and step 1 restores it after each round (every newly finite boundary
//! cell is broadcast to every holder). Within a round, writes race only
//! with equal-valued writes (Theorem V.2 of the paper, unchanged).
//! Identification therefore sees exactly the monolithic `M`, and the
//! byte-identity of answers, stats and traces follows — which is what the
//! `shard_equivalence` and `remote_equivalence` suites pin, one per link,
//! and the `lattice` oracle through the facade.
//!
//! ## Top-down
//!
//! Extraction and pruning run over the *global* graph and the one
//! [`crate::state::HitBlock`] every shape hands the stage: the coordinator
//! collects each shard's *owned* rows (authoritative by the sync
//! invariant) into it, so the top-down stage is byte-for-byte the
//! monolithic one.
//!
//! ## Serving semantics
//!
//! One query holds one lane per shard for its whole run; a panic
//! unwinding through the coordinator drops all of them instead of
//! returning them to the freelists, so the facade's panic-isolation
//! contract survives sharding. Budgets and deadlines are judged on the
//! query's tracker at the level boundaries the monolithic driver polls it
//! at. A shard runs the frontier-grained matrix kernel, sequentially or
//! (`cpu`, in a worker process's pool) dynamically scheduled —
//! [`ShardBackend`] has no other member: `GPU-Par` and `CPU-Par-d` exist
//! as solo engines only.

use crate::activation::ActivationMap;
use crate::bottom_up::{self, BottomUpScratch, ExpandCtx};
use crate::budget::BudgetTracker;
use crate::model::INFINITE_LEVEL;
use crate::state::SearchState;
use kgraph::{GraphBuilder, KnowledgeGraph, NodeId};
use std::sync::atomic::{AtomicU64, Ordering};
use textindex::{KeywordGroup, ParsedQuery};

/// Default ownership-hash seed. Any fixed seed yields a valid (and
/// deterministic) partition; this one is the splitmix64 increment.
pub const DEFAULT_PARTITION_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 finalizer — a cheap, well-mixed hash for node→shard
/// assignment. Deterministic across runs and platforms. Shared with the
/// coordinator, which replays the ownership hash when merging collected
/// rows.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One shard of an edge-cut partition: the local sub-graph plus the id
/// maps and boundary table the coordinator routes through.
pub struct ShardPart {
    /// Local CSR sub-graph: owned nodes first (complete adjacency), then
    /// halo replicas (partial adjacency, never expanded). Node weights
    /// are copied from the global graph.
    pub graph: KnowledgeGraph,
    /// Local id → global id. The first [`ShardPart::owned`] entries
    /// are the owned nodes in ascending global order; the rest are halos,
    /// also ascending.
    pub locals: Vec<u32>,
    /// Global id → local id — the inverse of [`ShardPart::locals`], dense
    /// over the global ids: [`NO_REPLICA`] where this shard holds none.
    local_index: Vec<u32>,
    /// Number of owned nodes; local ids `0..owned` are owned.
    pub owned: u32,
    /// Frontier-exchange table: local ids (ascending) of every node
    /// replicated in more than one shard — owned boundary nodes and all
    /// halos.
    pub boundary: Vec<u32>,
}

/// [`ShardPart::local_index`] of a node this shard holds no replica of.
const NO_REPLICA: u32 = u32::MAX;

impl ShardPart {
    /// The local id of global node `v`'s replica here, if this shard holds
    /// one (`v` may be any id, in the graph or not).
    #[inline]
    pub fn local(&self, v: u32) -> Option<u32> {
        self.local_index.get(v as usize).copied().filter(|&l| l != NO_REPLICA)
    }

    /// Remap a global query onto this shard: same groups in the same
    /// order (the BFS instance identity must agree across shards), node
    /// sets restricted to the replicas — owned *and* halo — present
    /// here. Halo sources must be seeded too, or a shard expanding into
    /// an unseeded source replica would treat it as unhit.
    pub(crate) fn localize_query(&self, query: &ParsedQuery) -> ParsedQuery {
        ParsedQuery {
            groups: query
                .groups
                .iter()
                .map(|g| KeywordGroup {
                    term: g.term.clone(),
                    nodes: g.nodes.iter().filter_map(|v| self.local(v.0).map(NodeId)).collect(),
                })
                .collect(),
            unmatched: query.unmatched.clone(),
        }
    }

    /// An explicit (global) activation table remapped onto this shard's
    /// local ids.
    pub(crate) fn localize_activation(&self, levels: Option<&[u8]>) -> Option<Vec<u8>> {
        levels.map(|levels| self.locals.iter().map(|&v| levels[v as usize]).collect())
    }
}

/// A deterministic edge-cut partition of a [`KnowledgeGraph`] into `N`
/// sub-graphs with boundary-node replication.
pub struct ShardPlan {
    /// Number of shards `N ≥ 1`.
    pub shards: usize,
    /// Seed of the ownership hash.
    pub seed: u64,
    /// Global node id → owning shard.
    pub owner: Vec<u32>,
    /// The `N` shard parts.
    pub parts: Vec<ShardPart>,
}

/// The assignment phase of partitioning, shared by [`ShardPlan::build`]
/// (which materializes every part) and [`ShardPlan::build_part`] (which
/// materializes exactly one — what a remote shard worker does, so a
/// worker never pays for the other `N − 1` sub-graphs). Deterministic in
/// `(graph, shards, seed)`.
struct Assignment {
    owner: Vec<u32>,
    halos: Vec<std::collections::BTreeSet<u32>>,
    /// Per node: whether more than one shard holds a replica of it.
    replicated: Vec<bool>,
}

fn assign(graph: &KnowledgeGraph, shards: usize, seed: u64) -> Assignment {
    assert!(shards >= 1, "a plan needs at least one shard");
    let n = graph.num_nodes();
    let owner: Vec<u32> =
        (0..n as u64).map(|v| (splitmix64(seed ^ v) % shards as u64) as u32).collect();

    // Halo sets: v is a halo of shard s iff owner[v] != s and v is
    // adjacent to a node owned by s. The bi-directed CSR lists every
    // incident edge from both endpoints, so one pass over all
    // adjacency covers both directions.
    let mut halos: Vec<std::collections::BTreeSet<u32>> =
        (0..shards).map(|_| Default::default()).collect();
    let mut replicated = vec![false; n];
    for v in 0..n as u32 {
        let ov = owner[v as usize];
        for adj in graph.neighbors(NodeId(v)) {
            let ou = owner[adj.target().index()];
            if ou != ov {
                halos[ou as usize].insert(v);
                replicated[v as usize] = true;
            }
        }
    }
    Assignment { owner, halos, replicated }
}

impl Assignment {
    /// Materialize shard `s`'s part: local id maps, sub-graph, weights
    /// and boundary table.
    fn materialize(&self, graph: &KnowledgeGraph, s: usize) -> ShardPart {
        let n = graph.num_nodes();
        let mut locals: Vec<u32> =
            (0..n as u32).filter(|&v| self.owner[v as usize] == s as u32).collect();
        let owned = locals.len() as u32;
        locals.extend(self.halos[s].iter().copied());
        let mut local_index = vec![NO_REPLICA; n];
        for (l, &v) in locals.iter().enumerate() {
            local_index[v as usize] = l as u32;
        }

        // Local sub-graph: every node in local order, every global
        // directed edge incident to an owned node. A non-owned
        // endpoint of such an edge is by definition a halo, so both
        // endpoints are always present. Halo↔halo edges are omitted —
        // halos are never expanded, so their adjacency is never read.
        let mut b = GraphBuilder::with_capacity(locals.len(), locals.len() * 4);
        let ids: Vec<NodeId> = locals
            .iter()
            .map(|&v| b.add_node(graph.node_key(NodeId(v)), graph.node_text(NodeId(v))))
            .collect();
        for (l, &v) in locals.iter().enumerate().take(owned as usize) {
            for adj in graph.neighbors(NodeId(v)) {
                let t = local_index[adj.target().index()];
                let label = graph.label_name(adj.label());
                if adj.is_outgoing() {
                    b.add_edge(ids[l], ids[t as usize], label);
                } else if self.owner[adj.target().index()] != s as u32 {
                    // Incoming edge from a halo source; owned→owned
                    // edges are already covered by the source's
                    // outgoing pass (the builder would dedup them
                    // anyway, but skipping keeps the pass linear).
                    b.add_edge(ids[t as usize], ids[l], label);
                }
            }
        }
        let mut local_graph = b.build();
        // Global weights, not re-normalized over the shard-local max.
        local_graph.override_weights(locals.iter().map(|&v| graph.weight(NodeId(v))).collect());

        let boundary: Vec<u32> = locals
            .iter()
            .enumerate()
            .filter(|&(_, &v)| self.replicated[v as usize])
            .map(|(l, _)| l as u32)
            .collect();
        ShardPart { graph: local_graph, locals, local_index, owned, boundary }
    }
}

impl ShardPlan {
    /// Partition `graph` into `shards` parts under `seed`. Handles
    /// `shards` exceeding the node count (some parts are simply empty)
    /// and the empty graph.
    pub fn build(graph: &KnowledgeGraph, shards: usize, seed: u64) -> ShardPlan {
        let a = assign(graph, shards, seed);
        let parts = (0..shards).map(|s| a.materialize(graph, s)).collect();
        ShardPlan { shards, seed, owner: a.owner, parts }
    }

    /// Materialize only shard `index`'s part of the partition — the same
    /// [`ShardPart`] that [`ShardPlan::build`] would put at
    /// `parts[index]`, without building the other `N − 1` sub-graphs. A
    /// remote shard worker calls this at startup: every worker derives
    /// its partition independently from the shared `(shards, seed)`
    /// contract, so the coordinator never ships sub-graphs over the
    /// wire.
    ///
    /// # Panics
    /// Panics when `index >= shards`.
    pub fn build_part(graph: &KnowledgeGraph, shards: usize, seed: u64, index: usize) -> ShardPart {
        assert!(index < shards, "shard index {index} out of range for {shards} shards");
        assign(graph, shards, seed).materialize(graph, index)
    }
}

/// How a sharded search schedules its kernels: the two schedulings of the
/// frontier-grained matrix kernel, under the solo engines' names. An
/// in-process lane expands on the thread that steps it either way (the
/// threads size the coordinator's pool, which also runs the top-down
/// stage); a worker process expands `ParCpu` in a pool of its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardBackend {
    /// Sequential expansion per shard (shards still run concurrently).
    Seq,
    /// Coarse-grained expansion: frontiers claimed in short runs.
    ParCpu(usize),
}

impl ShardBackend {
    /// The monolithic engine name this backend corresponds to — also how
    /// it crosses the wire to a remote worker.
    pub fn base_name(&self) -> &'static str {
        match self {
            ShardBackend::Seq => "Seq",
            ShardBackend::ParCpu(_) => "CPU-Par",
        }
    }

    /// Worker threads the backend was configured with (1 for `Seq`).
    pub fn threads(&self) -> usize {
        match *self {
            ShardBackend::Seq => 1,
            ShardBackend::ParCpu(t) => t.max(1),
        }
    }
}

/// Cross-query counters of the boundary exchange.
#[derive(Default)]
pub(crate) struct ExchangeCounters {
    /// BFS rounds that ran an expansion + exchange step.
    pub(crate) rounds: AtomicU64,
    /// Unique `(node, instance)` boundary updates broadcast to replicas.
    pub(crate) notifications: AtomicU64,
    /// Outbox entries dropped by the monotone-bound dedup before
    /// broadcast.
    pub(crate) suppressed: AtomicU64,
}

impl ExchangeCounters {
    /// One round's exchange over the union of the shards' outboxes: dedup
    /// it in place (the synchronous monotone-bound prune — see the module
    /// docs) and count the round. What is left of `pairs` is the
    /// notification set to broadcast.
    pub(crate) fn exchange(&self, pairs: &mut Vec<(u32, u32)>) {
        let sent = pairs.len();
        pairs.sort_unstable();
        pairs.dedup();
        self.rounds.fetch_add(1, Ordering::Relaxed);
        self.notifications.fetch_add(pairs.len() as u64, Ordering::Relaxed);
        self.suppressed.fetch_add((sent - pairs.len()) as u64, Ordering::Relaxed);
    }
}

/// Shard count and boundary-exchange counters of a
/// [`crate::remote::ShardCoordinator`] (the `STATS` `remote` block).
#[derive(Clone, Copy, Debug, Default, PartialEq, serde::Serialize)]
pub struct ShardedStats {
    /// Number of shards.
    pub shards: usize,
    /// Expansion/exchange rounds executed across all queries.
    pub rounds: u64,
    /// Unique boundary notifications broadcast across all queries.
    pub notifications: u64,
    /// Boundary notifications suppressed by the monotone-bound dedup.
    pub notifications_suppressed: u64,
}

/// One shard's slice of an in-flight query — the per-shard bodies of the
/// round protocol's phases, run by a lane's request handlers.
pub(crate) struct ShardLane<'a> {
    pub(crate) part: &'a ShardPart,
    pub(crate) state: &'a SearchState,
    pub(crate) act: ActivationMap<'a>,
    /// The tracker expansion charges: the lane's own metering one.
    pub(crate) budget: &'a BudgetTracker,
    /// Warm per-level buffers (the lane's).
    pub(crate) scratch: &'a mut BottomUpScratch,
}

impl ShardLane<'_> {
    /// Step to `level`, the per-shard body of a `Step` request. First the
    /// previous round's notification set: a pair reaches exactly the
    /// shards holding a replica, and only a replica still reading `∞`
    /// accepts it, at `level` (anything else cannot lower the bound);
    /// frontier flags rise only on owned replicas — the only ones whose
    /// flags are ever scanned. Then enqueue: drain the frontier flags of
    /// the *owned* nodes only, so every global frontier node is counted
    /// exactly once, by its owner. Then identify over the owned frontiers
    /// (the owner's replica holds the complete `M` row, by the sync
    /// invariant), leaving the cohort in [`ShardLane::newly`]. Returns this
    /// shard's frontier size and the traced observation pair.
    pub(crate) fn step(
        &mut self,
        level: u8,
        traced: bool,
        pairs: &[(u32, u32)],
    ) -> (usize, (usize, usize)) {
        let (part, state) = (self.part, self.state);
        for &(v, i) in pairs {
            if let Some(l) = part.local(v) {
                if state.hit(l, i as usize) == INFINITE_LEVEL {
                    state.set_hit(l, i as usize, level);
                    if l < part.owned {
                        state.mark_frontier(l);
                    }
                }
            }
        }
        let BottomUpScratch { frontiers, newly, .. } = &mut *self.scratch;
        frontiers.clear();
        frontiers.extend((0..part.owned).filter(|&v| state.take_frontier_flag(v)));
        bottom_up::identify_sequential(state, frontiers, level, newly);
        let (hit, q) = (|f, i| state.hit(f, i), state.num_keywords());
        let observed = bottom_up::observe_level(traced, hit, q, &self.act, frontiers, level);
        (frontiers.len(), observed)
    }

    /// The cohort of the last [`ShardLane::step`], as global ids
    /// (ascending, since owned local ids ascend with global ids).
    pub(crate) fn newly(&self) -> impl Iterator<Item = u32> + '_ {
        self.scratch.newly.iter().map(|&l| self.part.locals[l as usize])
    }

    /// Expand the owned frontiers against the local sub-graph (in `pool`,
    /// a worker process's, or on the caller's thread), then scan
    /// the boundary table for cells that became `level + 1` this round —
    /// whether written into an owned node or into a halo replica — and
    /// return them as this shard's outbox of `(global node, instance)`.
    pub(crate) fn expand(&mut self, level: u8, pool: Option<&rayon::ThreadPool>) -> &[(u32, u32)] {
        let ShardLane { part, state, .. } = *self;
        let ctx = ExpandCtx { graph: &part.graph, act: &self.act, state, budget: self.budget };
        bottom_up::expand_level(pool, &ctx, &self.scratch.frontiers, level);
        let q = state.num_keywords();
        let outbox = &mut self.scratch.outbox;
        outbox.clear();
        for &bl in &part.boundary {
            for i in (0..q).filter(|&i| state.hit(bl, i) == level + 1) {
                outbox.push((part.locals[bl as usize], i as u32));
            }
        }
        outbox
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{digest, KeywordSearchEngine, SeqEngine};
    use crate::remote::ShardCoordinator;
    use crate::{QueryBudget, SearchParams};
    use kgraph::GraphBuilder;
    use std::collections::{HashMap, HashSet};
    use textindex::InvertedIndex;

    /// For every node replicated in more than one shard: the shards holding
    /// a replica, owner first, then halo shards ascending.
    fn holders(plan: &ShardPlan) -> HashMap<u32, Vec<u32>> {
        let mut holders: HashMap<u32, Vec<u32>> = HashMap::new();
        for (s, part) in plan.parts.iter().enumerate() {
            for &v in &part.locals[part.owned as usize..] {
                holders.entry(v).or_insert_with(|| vec![plan.owner[v as usize]]).push(s as u32);
            }
        }
        holders
    }

    /// A 12-node graph with two keyword clusters bridged by a hub.
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
        let lone = b.add_node("lone", "isolated");
        let _ = lone;
        b.build()
    }

    #[test]
    fn every_node_is_owned_exactly_once() {
        let g = fixture();
        for shards in [1, 2, 3, 4, 8] {
            let plan = ShardPlan::build(&g, shards, DEFAULT_PARTITION_SEED);
            let mut seen = vec![0usize; g.num_nodes()];
            for part in &plan.parts {
                for &v in &part.locals[..part.owned as usize] {
                    seen[v as usize] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "{shards} shards: ownership not a partition");
            // The owner table agrees with the parts.
            for (s, part) in plan.parts.iter().enumerate() {
                for &v in &part.locals[..part.owned as usize] {
                    assert_eq!(plan.owner[v as usize] as usize, s);
                }
            }
        }
    }

    #[test]
    fn id_maps_are_inverse_bijections() {
        let g = fixture();
        let plan = ShardPlan::build(&g, 3, DEFAULT_PARTITION_SEED);
        for part in &plan.parts {
            let replicas = g.nodes().filter(|v| part.local(v.0).is_some()).count();
            assert_eq!(replicas, part.locals.len(), "local ids collide");
            assert_eq!(part.local(g.num_nodes() as u32), None, "an id outside the graph");
            for (l, &v) in part.locals.iter().enumerate() {
                assert_eq!(part.local(v), Some(l as u32), "maps disagree on node {v}");
                assert_eq!(
                    part.graph.node_key(NodeId(l as u32)),
                    g.node_key(NodeId(v)),
                    "local graph node order must follow `locals`"
                );
            }
            // Owned block first, each block in ascending global order.
            let (owned, halo) = part.locals.split_at(part.owned as usize);
            assert!(owned.windows(2).all(|w| w[0] < w[1]), "owned ids must ascend");
            assert!(halo.windows(2).all(|w| w[0] < w[1]), "halo ids must ascend");
        }
    }

    #[test]
    fn boundary_replicas_cover_the_edge_cut() {
        let g = fixture();
        let plan = ShardPlan::build(&g, 4, DEFAULT_PARTITION_SEED);
        let holders = holders(&plan);
        for (s, l, d) in g.directed_edges() {
            let (os, od) = (plan.owner[s.index()], plan.owner[d.index()]);
            let _ = l;
            if os == od {
                continue;
            }
            // Each endpoint must be replicated into the other's shard and
            // listed in both boundary tables.
            for (node, shard) in [(s.0, od), (d.0, os)] {
                let part = &plan.parts[shard as usize];
                let local = part
                    .local(node)
                    .unwrap_or_else(|| panic!("cut node {node} missing from shard {shard}"));
                assert!(local >= part.owned, "replica of {node} must be a halo");
                assert!(part.boundary.contains(&local), "halo {node} missing from boundary");
                let holders = &holders[&node];
                assert!(holders.contains(&shard) && holders[0] == plan.owner[node as usize]);
            }
        }
        // Boundary tables contain exactly the replicated nodes.
        for part in &plan.parts {
            let from_boundary: HashSet<u32> =
                part.boundary.iter().map(|&l| part.locals[l as usize]).collect();
            let replicated: HashSet<u32> =
                part.locals.iter().copied().filter(|v| holders.contains_key(v)).collect();
            assert_eq!(from_boundary, replicated);
        }
    }

    #[test]
    fn build_part_matches_the_full_plan() {
        let g = fixture();
        for shards in [1, 2, 3, 4, 8] {
            let plan = ShardPlan::build(&g, shards, DEFAULT_PARTITION_SEED);
            for s in 0..shards {
                let part = ShardPlan::build_part(&g, shards, DEFAULT_PARTITION_SEED, s);
                let full = &plan.parts[s];
                assert_eq!(part.locals, full.locals, "{shards} shards, part {s}");
                assert_eq!(part.owned, full.owned);
                assert_eq!(part.boundary, full.boundary);
                assert_eq!(part.local_index, full.local_index);
                assert_eq!(
                    part.graph.num_directed_edges(),
                    full.graph.num_directed_edges(),
                    "{shards} shards, part {s}: sub-graph differs"
                );
                for (l, &v) in part.locals.iter().enumerate() {
                    assert_eq!(
                        part.graph.weight(NodeId(l as u32)).to_bits(),
                        g.weight(NodeId(v)).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn partitioning_is_deterministic_for_a_fixed_seed() {
        let g = fixture();
        let a = ShardPlan::build(&g, 3, 42);
        let b = ShardPlan::build(&g, 3, 42);
        assert_eq!(a.owner, b.owner);
        for (pa, pb) in a.parts.iter().zip(&b.parts) {
            assert_eq!(pa.locals, pb.locals);
            assert_eq!(pa.boundary, pb.boundary);
            assert_eq!(pa.graph.num_directed_edges(), pb.graph.num_directed_edges());
        }
        // A different seed is allowed to (and here does) move nodes.
        let c = ShardPlan::build(&g, 3, 43);
        assert_eq!(c.owner.len(), a.owner.len());
    }

    #[test]
    fn local_graphs_keep_global_weights() {
        let g = fixture();
        let plan = ShardPlan::build(&g, 3, DEFAULT_PARTITION_SEED);
        for part in &plan.parts {
            for (l, &v) in part.locals.iter().enumerate() {
                assert_eq!(
                    part.graph.weight(NodeId(l as u32)).to_bits(),
                    g.weight(NodeId(v)).to_bits(),
                    "node {v}: local weight re-normalized"
                );
            }
        }
    }

    #[test]
    fn owned_nodes_have_complete_adjacency() {
        let g = fixture();
        let plan = ShardPlan::build(&g, 4, DEFAULT_PARTITION_SEED);
        for part in &plan.parts {
            for l in 0..part.owned {
                let v = part.locals[l as usize];
                let mut global: Vec<(u32, bool)> = g
                    .neighbors(NodeId(v))
                    .iter()
                    .map(|a| (a.target().0, a.is_outgoing()))
                    .collect();
                let mut local: Vec<(u32, bool)> = part
                    .graph
                    .neighbors(NodeId(l))
                    .iter()
                    .map(|a| (part.locals[a.target().index()], a.is_outgoing()))
                    .collect();
                global.sort_unstable();
                local.sort_unstable();
                assert_eq!(local, global, "owned node {v} lost adjacency");
            }
        }
    }

    #[test]
    fn more_shards_than_nodes_leaves_empty_parts() {
        let mut b = GraphBuilder::new();
        b.add_node("only", "alpha");
        let g = b.build();
        let plan = ShardPlan::build(&g, 8, DEFAULT_PARTITION_SEED);
        let owned_total: usize = plan.parts.iter().map(|p| p.owned as usize).sum();
        assert_eq!(owned_total, 1);
        assert!(plan.parts.iter().any(|p| p.owned == 0), "some parts must be empty");
        assert!(holders(&plan).is_empty(), "an isolated node is never replicated");
    }

    #[test]
    fn empty_graph_partitions() {
        let g = GraphBuilder::new().build();
        let plan = ShardPlan::build(&g, 4, DEFAULT_PARTITION_SEED);
        assert!(plan.parts.iter().all(|p| p.locals.is_empty() && p.boundary.is_empty()));
    }

    #[test]
    fn sharded_search_matches_the_monolithic_engine() {
        let g = fixture();
        let idx = InvertedIndex::build(&g);
        let params = SearchParams::default().with_average_distance(1.0);
        for raw in ["alpha omega", "alpha junction", "omega", "alpha omega junction"] {
            let query = ParsedQuery::parse(&idx, raw);
            let mono = SeqEngine::new().search(&g, &query, &params);
            for shards in [1, 2, 3, 4, 8] {
                let sharded = ShardCoordinator::in_process(&g, ShardBackend::Seq, shards);
                let out = sharded
                    .try_search(&g, &query, &params, &QueryBudget::unlimited(), None)
                    .expect("unlimited budget");
                assert!(!out.degraded);
                assert_eq!(digest(&out.outcome), digest(&mono), "query {raw:?}, {shards} shards");
            }
        }
    }

    #[test]
    fn traced_sharded_search_matches_including_levels() {
        let g = fixture();
        let idx = InvertedIndex::build(&g);
        let params = SearchParams::default().with_average_distance(1.0).with_trace(true);
        let query = ParsedQuery::parse(&idx, "alpha omega");
        let mono = SeqEngine::new().search(&g, &query, &params);
        let sharded = ShardCoordinator::in_process(&g, ShardBackend::ParCpu(2), 3);
        let out = sharded
            .try_search(&g, &query, &params, &QueryBudget::unlimited(), None)
            .expect("unlimited budget");
        let (mt, st) = (mono.trace.unwrap(), out.outcome.trace.unwrap());
        assert_eq!(st.levels, mt.levels, "per-level records must match");
        assert_eq!(st.total_expansions, mt.total_expansions);
        assert_eq!(st.terminated, mt.terminated);
        assert_eq!(st.keywords, mt.keywords);
        assert_eq!(st.engine, "CPU-Par[shards=3]");
        assert_eq!(st.shard_timelines, None, "timelines are the TCP link's");
    }

    #[test]
    fn expired_deadline_fails_without_partial_answers() {
        let g = fixture();
        let idx = InvertedIndex::build(&g);
        let sharded = ShardCoordinator::in_process(&g, ShardBackend::Seq, 2);
        let query = ParsedQuery::parse(&idx, "alpha omega");
        let err = sharded
            .try_search(
                &g,
                &query,
                &SearchParams::default(),
                &QueryBudget::unlimited().with_timeout(std::time::Duration::ZERO),
                None,
            )
            .unwrap_err();
        assert_eq!(err.kind(), "deadline_exceeded");
        assert_eq!(sharded.stats().exchange.rounds, 0, "failed before any round");
    }
}
