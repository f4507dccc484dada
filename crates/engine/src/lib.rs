//! # wikisearch-engine — the end-to-end WikiSearch facade
//!
//! The paper ships its algorithm as an online service ("WikiSearch") over
//! the Wikidata KB. This crate is that service's engine layer: it owns the
//! graph, the inverted keyword index, the dataset's sampled average
//! distance, and a pluggable search backend, and turns a raw keyword
//! string into ranked, renderable answer graphs.
//!
//! ```
//! use kgraph::GraphBuilder;
//! use wikisearch_engine::WikiSearch;
//!
//! let mut b = GraphBuilder::new();
//! let x = b.add_node("Q1", "XML");
//! let q = b.add_node("Q2", "query language");
//! let s = b.add_node("Q3", "SQL");
//! b.add_edge(x, q, "related to");
//! b.add_edge(s, q, "instance of");
//!
//! let ws = WikiSearch::build(b.build());
//! let result = ws.search("xml sql");
//! assert_eq!(result.answers.len(), 1);
//! println!("{}", ws.render_answer(&result.answers[0]));
//!
//! // `search` is shorthand for the one general entry point: a request
//! // carries its own parameters (the trace switch among them), budget
//! // and query ID.
//! use central::QueryBudget;
//! use wikisearch_engine::QueryRequest;
//! let budget = QueryBudget::unlimited().with_max_expansions(10_000);
//! let traced = ws.params().clone().with_trace(true);
//! let request = QueryRequest { budget, ..QueryRequest::new("xml sql", &traced) };
//! let explained = ws.execute(&request).expect("within budget");
//! assert_eq!(explained.answers.len(), 1);
//! assert!(!explained.trace.unwrap().levels.is_empty());
//! ```

#![warn(missing_docs)]

pub mod render;
pub mod snapshot;

pub use snapshot::{compile_snapshot, SnapshotInfo, SEC_AVG_DISTANCE};

use central::engine::{
    DynParEngine, GpuStyleEngine, KeywordSearchEngine, ParCpuEngine, SearchOutcome, SearchStats,
    SeqEngine,
};
use central::{
    CacheStats, CentralGraph, InFlight, MetricsRegistry, MetricsSnapshot, PhaseProfile,
    QueryBudget, QueryIdGen, QueryKey, QueryTrace, RemoteOptions, RemoteStats, SearchError,
    SearchParams, SessionPool, ShardAddrs, ShardBackend, ShardCoordinator, ShardedStats,
};
use kgraph::KnowledgeGraph;
use std::sync::Arc;
use std::time::Instant;
use textindex::{InvertedIndex, ParsedQuery};

/// Which backend executes searches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Single-threaded reference engine.
    Sequential,
    /// Lock-free coarse-grained CPU engine with this many threads.
    ParCpu(usize),
    /// GPU-kernel-structured engine with this many threads.
    GpuStyle(usize),
    /// Lock-based dynamic-memory baseline with this many threads.
    DynPar(usize),
}

impl Backend {
    /// Thread count used when a backend spec names no explicit count
    /// (matches the CLI's `--threads` default).
    pub const DEFAULT_THREADS: usize = 4;

    /// Parse a backend name (`seq` | `cpu` | `gpu` | `dyn`) with an
    /// explicit thread count for the parallel engines. This is the one
    /// place backend strings are interpreted — the CLI's `search` and
    /// `serve` both route through it. The thread count is 1 to
    /// [`central::remote::MAX_THREADS`], the count a shard worker accepts.
    pub fn parse(name: &str, threads: usize) -> Result<Backend, String> {
        if threads == 0 {
            return Err(format!("backend {name:?}: thread count must be >= 1"));
        }
        if threads > central::remote::MAX_THREADS {
            let max = central::remote::MAX_THREADS;
            return Err(format!("backend {name:?}: thread count must be <= {max}"));
        }
        match name {
            "seq" => Ok(Backend::Sequential),
            "cpu" => Ok(Backend::ParCpu(threads)),
            "gpu" => Ok(Backend::GpuStyle(threads)),
            "dyn" => Ok(Backend::DynPar(threads)),
            other => Err(format!("unknown backend {other:?} (expected seq|cpu|gpu|dyn)")),
        }
    }

    /// The kernels a sharded search runs this backend's shards on — and
    /// the backends `serve` accepts. Only `seq` and `cpu` have them: `gpu`
    /// and `dyn` are the paper's comparison engines (Exp-4), kept solo
    /// for `search` and the experiments and never faster than `cpu` on
    /// the perf ledger's probe (DESIGN.md), and the error says so.
    pub fn sharded(self) -> Result<ShardBackend, String> {
        match self {
            Backend::Sequential => Ok(ShardBackend::Seq),
            Backend::ParCpu(t) => Ok(ShardBackend::ParCpu(t)),
            Backend::GpuStyle(_) | Backend::DynPar(_) => {
                Err("serving and sharding run --backend seq or cpu (gpu and dyn are solo comparison engines)".into())
            }
        }
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    /// Parse a `name[:threads]` spec: `"seq"`, `"cpu"`, `"gpu:8"`,
    /// `"dyn:2"`, … Without an explicit count, parallel backends get
    /// [`Backend::DEFAULT_THREADS`].
    fn from_str(spec: &str) -> Result<Backend, String> {
        match spec.split_once(':') {
            Some((name, t)) => {
                let threads = t
                    .parse::<usize>()
                    .map_err(|_| format!("backend {spec:?}: cannot parse thread count {t:?}"))?;
                Backend::parse(name, threads)
            }
            None => Backend::parse(spec, Backend::DEFAULT_THREADS),
        }
    }
}

/// One query as the engine executes it — the single request type behind
/// every entry point ([`WikiSearch::execute`]). It borrows everything, so
/// building one per request costs no allocation.
#[derive(Clone, Copy, Debug)]
pub struct QueryRequest<'a> {
    /// The raw keyword string.
    pub query: &'a str,
    /// Search parameters for this request (α, top-k, λ, …). With
    /// `params.trace` set the request is a live, traced search: the result
    /// cache neither answers nor stores it, so
    /// [`WikiSearchResult::trace`] describes the search that produced the
    /// answers — the substrate of the server's `EXPLAIN`.
    pub params: &'a SearchParams,
    /// Deadline and expansion cap; [`QueryBudget::unlimited`] by default.
    pub budget: QueryBudget,
    /// Fleet-wide query ID assigned by the caller at admission
    /// ([`WikiSearch::issue_query_id`]); `None` lets the engine allocate.
    pub qid: Option<u64>,
}

impl<'a> QueryRequest<'a> {
    /// An unbudgeted, untagged request.
    pub fn new(query: &'a str, params: &'a SearchParams) -> Self {
        QueryRequest { query, params, budget: QueryBudget::unlimited(), qid: None }
    }
}

/// One search's result: the parsed query, the ranked answers, and timing.
#[derive(Clone, Debug)]
pub struct WikiSearchResult {
    /// Fleet-wide query ID of this search. Assigned at admission (or
    /// passed in by the serving layer as [`QueryRequest::qid`]) and
    /// carried on the trace, the slow-query log, and every wire response,
    /// so one query can be followed across layers and processes.
    pub qid: u64,
    /// The analyzed query (matched groups + unmatched terms).
    pub query: ParsedQuery,
    /// Ranked Central Graph answers, best first.
    pub answers: Vec<CentralGraph>,
    /// Per-phase timings of the search.
    pub profile: PhaseProfile,
    /// Average keyword frequency of the query (Table V's `kwf`).
    pub kwf: f64,
    /// Search statistics, including the per-level progression trace.
    pub stats: SearchStats,
    /// Rich per-query execution trace of the live search that produced
    /// these answers, present only when the request asked for tracing
    /// (`params.trace`).
    pub trace: Option<Box<QueryTrace>>,
    /// `true` iff this answer was computed with at least one remote shard
    /// unavailable ([`WikiSearch::set_remote_shards`] with
    /// [`RemoteOptions::degraded_answers`]): it is best-effort, never
    /// silently wrong — always `false` outside remote serving.
    pub degraded: bool,
}

/// The WikiSearch engine: graph + index + backend + defaults.
///
/// The engine is `Send + Sync` and every search path takes `&self`, so
/// one `Arc<WikiSearch>` serves any number of threads concurrently (the
/// CLI's `serve --workers N` does exactly that). Warm per-query state
/// lives in a [`SessionPool`]: each search checks a [`central::SearchSession`]
/// out of the pool, so concurrent queries run on distinct sessions
/// without contending on a process-wide lock, while a sequential caller
/// keeps hitting the same warm session — the first query pays the
/// `n × q` state allocation, every later query re-arms it with a single
/// epoch bump (see `central::session` and `central::pool`). Sessions are
/// engine-agnostic, so swapping backends keeps the warm state.
///
/// An optional **result cache** ([`WikiSearch::set_cache_capacity`])
/// sits in front of the pool: repeated queries — same analyzed keyword
/// set under the same parameters, regardless of word order, case,
/// stopwords or duplicates — are answered from a sharded LRU cache
/// without running the two-stage search at all (see `central::cache`).
/// Cached answers are observably identical to freshly computed ones;
/// the `lattice` suite's cache-on points (`tests/tests/lattice.rs`)
/// enforce this across all four backends.
pub struct WikiSearch {
    graph: KnowledgeGraph,
    index: InvertedIndex,
    params: SearchParams,
    backend: Box<dyn KeywordSearchEngine + Send + Sync>,
    /// Which [`Backend`] `backend` was built from, kept so a shard
    /// coordinator can be built with the same kernels on
    /// [`WikiSearch::set_remote_shards`].
    backend_kind: Backend,
    sessions: SessionPool,
    /// When `Some`, searches scatter-gather over this coordinator's shards
    /// — worker processes ([`WikiSearch::set_remote_shards`]) or, for the
    /// probe, lanes in this one ([`WikiSearch::open_sharded`]) — instead
    /// of the monolithic `backend`; answers are byte-identical either way
    /// while no shard is lost.
    fleet: Option<ShardCoordinator>,
    cache: Option<ResultCache>,
    metrics: MetricsRegistry,
    /// Fleet-wide query-ID allocator: every search through this engine
    /// gets a qid, whether the serving layer tagged it or not.
    qids: QueryIdGen,
    /// Searches executing right now, entered around every search path.
    in_flight: InFlight,
}

/// The engine's result cache: normalized-query + params key, `Arc`-shared
/// payloads so a hit clones a pointer.
type ResultCache = central::ShardedLruCache<QueryKey, Arc<CachedSearch>>;

/// What a cache entry stores: everything a [`WikiSearchResult`] needs
/// except the [`ParsedQuery`], which is re-derived per request so the
/// response always reflects the *request's* raw string (its word order,
/// its unmatched-term order), never the string that happened to populate
/// the cache.
///
/// Answers are stored in the orientation of the populating query;
/// `group_terms` records that orientation so a hit from a reordered
/// near-duplicate can permute the per-keyword fields back into the
/// request's keyword order (see [`reorient_answers`]).
struct CachedSearch {
    /// Matched keyword terms in the populating query's group order.
    group_terms: Vec<String>,
    answers: Vec<CentralGraph>,
    stats: SearchStats,
    /// Per-phase timings of the search that populated the entry. A hit
    /// returns this profile unchanged: it documents what the answer
    /// *cost to compute*, while the serving layer's own wall-clock
    /// captures what the hit cost to serve.
    profile: PhaseProfile,
}

impl WikiSearch {
    /// Build over `graph` with the default (sequential) backend, Table III
    /// default parameters, and an average distance sampled from the graph
    /// itself (200 pairs — callers with a known `A` can override via
    /// [`WikiSearch::set_params`]).
    pub fn build(graph: KnowledgeGraph) -> Self {
        Self::build_with(graph, Backend::Sequential)
    }

    /// Build with an explicit backend.
    pub fn build_with(graph: KnowledgeGraph, backend: Backend) -> Self {
        let index = InvertedIndex::build(&graph);
        let params = SearchParams::default()
            .with_average_distance(snapshot::sampled_average_distance(&graph));
        Self::assemble(graph, index, params, backend)
    }

    /// The one true constructor: every build path (heap build, snapshot
    /// open) funnels through here once its graph, index and parameters
    /// exist, so the session pool, cache, metrics and shard wiring can
    /// never diverge between backings.
    fn assemble(
        graph: KnowledgeGraph,
        index: InvertedIndex,
        params: SearchParams,
        backend: Backend,
    ) -> Self {
        WikiSearch {
            graph,
            index,
            params,
            backend: make_backend(backend),
            backend_kind: backend,
            sessions: SessionPool::new(),
            fleet: None,
            cache: None,
            metrics: MetricsRegistry::new(),
            qids: QueryIdGen::new(),
            in_flight: InFlight::new(),
        }
    }

    /// Open a compiled `.wsnap` snapshot ([`compile_snapshot`]) with
    /// zero-copy columns: the file is memory-mapped read-only, the header
    /// page is validated, and the graph, inverted index and stored
    /// average distance are assembled straight over the mapping — no
    /// deserialization, no index rebuild, no distance re-sampling.
    /// Answers are byte-identical to a heap-built engine over the same
    /// graph.
    pub fn open_snapshot(path: &std::path::Path, backend: Backend) -> Result<Self, String> {
        let (graph, index, params) = snapshot::open_parts(path)?;
        Ok(Self::assemble(graph, index, params, backend))
    }

    /// `true` when the engine's graph columns point into a memory-mapped
    /// snapshot rather than the heap.
    pub fn is_memory_mapped(&self) -> bool {
        self.graph.is_memory_mapped()
    }

    /// Build with an explicit backend over an in-process shard set:
    /// the graph is edge-cut into `shards` sub-graphs and every search
    /// scatter-gathers across them through
    /// [`ShardCoordinator::in_process`]. `shards <= 1` is the monolithic
    /// engine — there is nothing to exchange. Answers, stats and traces
    /// are byte-identical to [`WikiSearch::build_with`].
    ///
    /// No serving path builds this: one process serves one graph, and
    /// sharding is across processes ([`WikiSearch::set_remote_shards`]).
    /// It stays, with [`WikiSearch::shard_stats`], because the perf
    /// ledger's library probe (`benchmark/layers`) links both to time the
    /// coordinator without a socket (`central.shard.*`); retiring that
    /// probe (ROADMAP item 6c) retires them.
    ///
    /// # Panics
    /// Panics if `shards > 1` and the backend is `gpu` or `dyn`
    /// ([`Backend::sharded`]).
    pub fn open_sharded(graph: KnowledgeGraph, backend: Backend, shards: usize) -> Self {
        let mut ws = Self::build_with(graph, backend);
        ws.fleet = (shards > 1)
            .then(|| ShardCoordinator::in_process(&ws.graph, shard_backend(backend), shards));
        ws
    }

    /// Swap the search backend. The result cache (if any) survives the
    /// swap: all backends return identical answers for identical
    /// `(query, params)` — the workspace's central property — so entries
    /// computed by one engine are valid answers for every other. On a
    /// sharded engine the coordinator is rebuilt over the same shards —
    /// the same worker fleet, or the same in-process parts — with the new
    /// backend's kernels.
    ///
    /// # Panics
    /// Panics if the engine is sharded or remote and `backend` is `gpu` or
    /// `dyn` ([`Backend::sharded`]).
    pub fn set_backend(&mut self, backend: Backend) {
        if let Some(fleet) = &self.fleet {
            self.fleet = Some(fleet.with_backend(shard_backend(backend)));
        }
        self.backend = make_backend(backend);
        self.backend_kind = backend;
    }

    /// Drive every search across a fleet of out-of-process shard workers
    /// ([`central::remote`]), replacing whatever shard set the engine had:
    /// each worker owns one partition of the same deterministic edge-cut
    /// plan, and answers stay byte-identical to the solo engines while
    /// every worker is healthy (the `lattice` and `remote_equivalence`
    /// suites pin this).
    /// `addrs` names the workers — a
    /// [`central::StaticAddrs`] list for an externally managed fleet, or a
    /// supervisor's live address table — and `opts` sets the RPC timeout,
    /// the retry budget and the degraded-answer policy.
    ///
    /// # Panics
    /// Panics if the backend is `gpu` or `dyn` ([`Backend::sharded`]).
    pub fn set_remote_shards(
        &mut self,
        shards: usize,
        addrs: Arc<dyn ShardAddrs>,
        opts: RemoteOptions,
    ) {
        let backend = shard_backend(self.backend_kind);
        self.fleet = Some(ShardCoordinator::remote(&self.graph, backend, shards, addrs, opts));
    }

    /// The shard coordinator, if its shards are worker processes
    /// (`remote`) or lanes in this one (`!remote`).
    fn fleet_where(&self, remote: bool) -> Option<&ShardCoordinator> {
        self.fleet.as_ref().filter(|fleet| fleet.is_remote() == remote)
    }

    /// Number of remote shard workers searches are driven across, `None`
    /// outside remote serving.
    pub fn num_remote_shards(&self) -> Option<usize> {
        self.fleet_where(true).map(ShardCoordinator::num_shards)
    }

    /// Counters of the remote coordinator (RPCs, retries, breaker flips
    /// and states, degraded answers, RPC latency), `None` outside remote
    /// serving.
    pub fn remote_stats(&self) -> Option<RemoteStats> {
        self.fleet_where(true).map(ShardCoordinator::stats)
    }

    /// Shard count and boundary-exchange counters (rounds, notifications)
    /// of an [`WikiSearch::open_sharded`] engine's in-process coordinator;
    /// `None` on the monolithic path and in remote serving
    /// ([`WikiSearch::remote_stats`] has them there). Kept for the perf
    /// ledger's library probe only, like [`WikiSearch::open_sharded`].
    pub fn shard_stats(&self) -> Option<ShardedStats> {
        self.fleet_where(false).map(|fleet| fleet.stats().exchange)
    }

    /// Enable (or, with `0`, disable) the sharded result cache with a
    /// byte budget of `bytes` over the default shard count. Repeated
    /// queries — equal after tokenization, stopword filtering, stemming
    /// and reordering, under the same [`SearchParams`] — are then
    /// answered from memory without touching the session pool. See
    /// [`central::cache`] for the key scheme and eviction policy.
    pub fn set_cache_capacity(&mut self, bytes: usize) {
        self.cache = (bytes > 0).then(|| central::ShardedLruCache::new(bytes));
    }

    /// A snapshot of the result-cache counters, `None` while the cache
    /// is disabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Override the default search parameters (α, top-k, λ, `A`, …).
    pub fn set_params(&mut self, params: SearchParams) {
        self.params = params;
    }

    /// Current default parameters.
    pub fn params(&self) -> &SearchParams {
        &self.params
    }

    /// The underlying graph.
    pub fn graph(&self) -> &KnowledgeGraph {
        &self.graph
    }

    /// The keyword index.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// Search with the engine's default parameters and no budget — a
    /// convenience over [`WikiSearch::execute`].
    pub fn search(&self, raw_query: &str) -> WikiSearchResult {
        self.search_with_params(raw_query, &self.params)
    }

    /// Search with explicit per-request parameters (e.g. a different α or
    /// top-k) and no budget, without touching the engine's defaults — a
    /// convenience over [`WikiSearch::execute`].
    pub fn search_with_params(&self, raw_query: &str, params: &SearchParams) -> WikiSearchResult {
        self.execute(&QueryRequest::new(raw_query, params))
            .expect("an unlimited budget cannot be exceeded")
    }

    /// Run one query — the single entry point every search routes
    /// through; callers holding only `&self` (a shared `Arc<WikiSearch>`,
    /// a server worker) choose params, budget, qid and tracing per
    /// request.
    ///
    /// With the result cache enabled ([`WikiSearch::set_cache_capacity`])
    /// the cache is consulted *before* a session is checked out: a hit
    /// returns the stored answers (re-oriented to this request's keyword
    /// order when the raw strings differ only in word order) with a
    /// freshly parsed [`ParsedQuery`], and is observably identical to an
    /// uncached search except for timing. A miss — and every query while
    /// the cache is disabled — runs through the session pool: the warm
    /// path for a sequential caller, a distinct session per query for
    /// concurrent ones. Queries that normalize to no keywords, and traced
    /// requests (`params.trace`), bypass the cache entirely: the former
    /// keep the engine's empty-query behaviour, the latter run live so
    /// their trace describes the search behind their answers.
    ///
    /// A tripped budget returns `Err` with *no* partial answers, and a
    /// failed search **never populates the result cache** — a later retry
    /// of the same query (with a laxer budget or none) computes the full
    /// answer and caches that. Cache *hits* are served before the budget
    /// is even armed: an answer that is already in memory costs no search
    /// work, so it is never charged as if it did. The pooled session a
    /// failed search used checks in normally and is reused — epoch
    /// stamping re-arms its state on the next query (only a *panic*
    /// quarantines a session; see [`central::pool`]).
    ///
    /// Everything happens here, in order: cache consultation (unless
    /// bypassed), session checkout, backend dispatch, cache population,
    /// and metrics accounting around all of it.
    pub fn execute(&self, req: &QueryRequest<'_>) -> Result<WikiSearchResult, SearchError> {
        let (raw_query, params, budget) = (req.query, req.params, &req.budget);
        let started = Instant::now();
        let qid = req.qid.unwrap_or_else(|| self.qids.next());
        let _flight = self.in_flight.enter();
        self.metrics.queries.inc();
        let query = ParsedQuery::parse(&self.index, raw_query);
        let kwf = query.avg_keyword_frequency();
        let key = match &self.cache {
            Some(cache) if !params.trace && !query.is_empty() => {
                let key = QueryKey::new(textindex::normalize_query(raw_query), params);
                if let Some(entry) = cache.get(&key) {
                    if let Some(answers) = reorient_answers(&entry, &query) {
                        self.metrics.cache_hits.inc();
                        self.metrics.latency_us.record(elapsed_us(started));
                        return Ok(WikiSearchResult {
                            qid,
                            query,
                            answers,
                            profile: entry.profile,
                            kwf,
                            stats: entry.stats.clone(),
                            trace: None,
                            degraded: false,
                        });
                    }
                }
                self.metrics.cache_misses.inc();
                Some(key)
            }
            _ => None,
        };
        let mut degraded = false;
        let result = if let Some(fleet) = &self.fleet {
            // Sharded path: the coordinator scatter-gathers over its own
            // lanes — the facade pool is not consulted (its counters stay
            // zero), and traces carry no session identity — and reports
            // whether any shard had to be skipped; a degraded answer is
            // surfaced with its marker and never enters the result cache
            // below.
            fleet.try_search(&self.graph, &query, params, budget, Some(qid)).map(|r| {
                degraded = r.degraded;
                r.outcome
            })
        } else {
            let mut session = self.sessions.checkout();
            self.backend
                .try_search_session(&mut session, &self.graph, &query, params, budget)
                .map(|mut outcome| {
                    if let Some(trace) = outcome.trace.as_deref_mut() {
                        trace.session_id = Some(session.session_id());
                        // queries_run was already bumped for this query;
                        // report the session's warmth *entering* it.
                        trace.session_queries = Some(session.queries_run().saturating_sub(1));
                    }
                    outcome
                })
        };
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(e) => {
                match e.kind() {
                    "deadline_exceeded" => self.metrics.deadline_exceeded.inc(),
                    "budget_exhausted" => self.metrics.budget_exhausted.inc(),
                    "shard_unavailable" => self.metrics.shard_unavailable.inc(),
                    _ => {}
                }
                return Err(e);
            }
        };
        let SearchOutcome { answers, profile, stats, mut trace } = outcome;
        // Stamp the qid on every trace uniformly, whichever path computed
        // it (the sharded path already carries it; the value is identical).
        if let Some(t) = trace.as_deref_mut() {
            t.qid = Some(qid);
        }
        // A degraded answer is best-effort: caching it would let a later
        // healthy-fleet query serve it as authoritative.
        if let (Some(cache), Some(key), false) = (&self.cache, key, degraded) {
            let entry = CachedSearch {
                group_terms: query.groups.iter().map(|g| g.term.clone()).collect(),
                answers: answers.clone(),
                stats: stats.clone(),
                profile,
            };
            let bytes = key.approx_bytes() + approx_entry_bytes(&entry);
            cache.insert(key, Arc::new(entry), bytes);
        }
        // Expansion-work estimate from the always-collected level trace
        // (Σ frontier × q — the units Algorithm 2 charges), so the
        // histogram costs no hot-path atomics on untraced queries.
        let q = query.num_keywords() as u64;
        let frontier_sum: u64 = stats.trace.iter().map(|t| t.frontier as u64).sum();
        self.metrics.expansions.record(frontier_sum * q);
        self.metrics.latency_us.record(elapsed_us(started));
        Ok(WikiSearchResult { qid, query, answers, profile, kwf, stats, trace, degraded })
    }

    /// Number of queries answered through the engine's session pool
    /// (checked-in sessions; a query in flight counts once it completes).
    pub fn session_queries_run(&self) -> u64 {
        self.sessions.queries_run()
    }

    /// The engine's session pool (diagnostics: idle/created/in-flight
    /// session counts).
    pub fn session_pool(&self) -> &SessionPool {
        &self.sessions
    }

    /// A plain-data snapshot of the engine's serving-metrics registry (see
    /// [`central::metrics`]) — what the server's `STATS` and `METRICS`
    /// verbs are rendered from. Counters and histograms accumulate across
    /// every search path — cache hits, computed searches, and failures.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Allocate the next fleet-wide query ID. The serving layer calls
    /// this at request admission so even a request that fails before
    /// reaching the engine (oversized line, bad verb payload) has a qid
    /// to report; the ID is then passed down as [`QueryRequest::qid`].
    /// Searches that arrive untagged allocate their own.
    pub fn issue_query_id(&self) -> u64 {
        self.qids.next()
    }

    /// Total query IDs issued so far (0 before the first).
    pub fn query_ids_issued(&self) -> u64 {
        self.qids.last()
    }

    /// Searches executing right now (cache hits and failures included
    /// while they run).
    pub fn queries_in_flight(&self) -> u64 {
        self.in_flight.current()
    }

    /// Parse a query without searching (used by harnesses for kwf stats).
    pub fn parse(&self, raw_query: &str) -> ParsedQuery {
        ParsedQuery::parse(&self.index, raw_query)
    }

    /// Human-readable rendering of one answer graph.
    pub fn render_answer(&self, answer: &CentralGraph) -> String {
        render::render_answer(&self.graph, answer)
    }
}

/// Produce `entry`'s answers in `query`'s keyword order.
///
/// `CentralGraph::keyword_nodes`/`keyword_edges` are indexed by query
/// keyword *in query order*, so an entry populated by `"xml sql"` stores
/// them xml-first. A hit from `"sql xml"` (same normalized key) must
/// return sql-first vectors to be byte-identical to an uncached search —
/// everything else in an answer (nodes, edges, central, depth, score) is
/// a set-shaped or order-free quantity and needs no adjustment. Returns
/// `None` if the stored orientation cannot be mapped onto the request's
/// groups (which would mean the key collided across different keyword
/// sets — impossible while the index is immutable, but a silent wrong
/// answer if it ever happened, so the caller falls back to a full
/// search).
fn reorient_answers(entry: &CachedSearch, query: &ParsedQuery) -> Option<Vec<CentralGraph>> {
    if entry.group_terms.len() != query.groups.len() {
        return None;
    }
    if entry.group_terms.iter().zip(&query.groups).all(|(t, g)| *t == g.term) {
        return Some(entry.answers.clone());
    }
    let perm: Vec<usize> = query
        .groups
        .iter()
        .map(|g| entry.group_terms.iter().position(|t| *t == g.term))
        .collect::<Option<_>>()?;
    entry
        .answers
        .iter()
        .map(|a| {
            if a.keyword_nodes.len() != perm.len() || a.keyword_edges.len() != perm.len() {
                return None;
            }
            Some(CentralGraph {
                central: a.central,
                depth: a.depth,
                nodes: a.nodes.clone(),
                edges: a.edges.clone(),
                keyword_nodes: perm.iter().map(|&j| a.keyword_nodes[j].clone()).collect(),
                keyword_edges: perm.iter().map(|&j| a.keyword_edges[j].clone()).collect(),
                score: a.score,
            })
        })
        .collect()
}

/// Rough heap footprint of one cache entry, for the cache's byte budget.
/// Counts the dominant vectors (node ids, edge pairs, per-keyword sets,
/// the level trace) plus per-allocation overheads; exactness doesn't
/// matter, monotonicity with answer size does.
fn approx_entry_bytes(entry: &CachedSearch) -> usize {
    let node = std::mem::size_of::<kgraph::NodeId>();
    let edge = 2 * node;
    let mut bytes = 128 + entry.group_terms.iter().map(|t| 24 + t.len()).sum::<usize>();
    for a in &entry.answers {
        bytes += 96 + a.nodes.len() * node + a.edges.len() * edge;
        bytes += a.keyword_nodes.iter().map(|v| 24 + v.len() * node).sum::<usize>();
        bytes += a.keyword_edges.iter().map(|v| 24 + v.len() * edge).sum::<usize>();
    }
    bytes + entry.stats.trace.len() * 24
}

/// Microseconds elapsed since `started`, saturated into a `u64`.
fn elapsed_us(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn make_backend(backend: Backend) -> Box<dyn KeywordSearchEngine + Send + Sync> {
    match backend {
        Backend::Sequential => Box::new(SeqEngine::new()),
        Backend::ParCpu(t) => Box::new(ParCpuEngine::new(t)),
        Backend::GpuStyle(t) => Box::new(GpuStyleEngine::new(t)),
        Backend::DynPar(t) => Box::new(DynParEngine::new(t)),
    }
}

/// [`Backend::sharded`] for a facade that has already been asked to shard.
///
/// # Panics
/// Panics on `gpu` and `dyn`, which have no sharded form.
fn shard_backend(backend: Backend) -> ShardBackend {
    backend.sharded().unwrap_or_else(|reason| panic!("{reason}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgraph::GraphBuilder;

    fn small_engine(backend: Backend) -> WikiSearch {
        let mut b = GraphBuilder::new();
        let x = b.add_node("Q1", "XML");
        let q = b.add_node("Q2", "query language");
        let s = b.add_node("Q3", "SQL");
        let r = b.add_node("Q4", "RDF");
        b.add_edge(x, q, "related to");
        b.add_edge(s, q, "instance of");
        b.add_edge(r, q, "instance of");
        WikiSearch::build_with(b.build(), backend)
    }

    #[test]
    fn end_to_end_search_finds_the_hub() {
        let ws = small_engine(Backend::Sequential);
        let result = ws.search("xml sql rdf");
        assert_eq!(result.query.num_keywords(), 3);
        assert!(!result.answers.is_empty());
        let best = &result.answers[0];
        assert_eq!(ws.graph().node_text(best.central), "query language");
        assert!(result.kwf > 0.0);
    }

    #[test]
    fn backends_are_interchangeable() {
        let reference = small_engine(Backend::Sequential).search("xml sql");
        for backend in [Backend::ParCpu(2), Backend::GpuStyle(2), Backend::DynPar(2)] {
            let result = small_engine(backend).search("xml sql");
            assert_eq!(result.answers.len(), reference.answers.len(), "{backend:?}");
            assert_eq!(result.answers[0].nodes, reference.answers[0].nodes, "{backend:?}");
        }
    }

    #[test]
    fn unmatched_terms_are_surfaced() {
        let ws = small_engine(Backend::Sequential);
        let result = ws.search("xml warpdrive");
        assert_eq!(result.query.unmatched, vec!["warpdriv"]); // stemmed form
        assert_eq!(result.query.num_keywords(), 1);
    }

    #[test]
    fn stats_trace_records_level_progression() {
        let ws = small_engine(Backend::Sequential);
        let result = ws.search("xml sql rdf");
        let trace = &result.stats.trace;
        assert!(!trace.is_empty());
        // Levels are consecutive from 0 and the identified counts sum to
        // the candidate count.
        for (i, t) in trace.iter().enumerate() {
            assert_eq!(t.level as usize, i);
            assert!(t.frontier > 0);
        }
        let identified: usize = trace.iter().map(|t| t.identified).sum();
        assert_eq!(identified, result.stats.central_candidates);
    }

    #[test]
    fn repeated_searches_reuse_one_session() {
        let ws = small_engine(Backend::Sequential);
        assert_eq!(ws.session_queries_run(), 0);
        let first = ws.search("xml sql rdf");
        let second = ws.search("xml sql");
        let third = ws.search("xml sql rdf");
        assert_eq!(ws.session_queries_run(), 3);
        // A sequential caller keeps hitting one pooled session.
        assert_eq!(ws.session_pool().sessions_created(), 1);
        assert_eq!(ws.session_pool().idle_sessions(), 1);
        // Warm-path answers match the corresponding fresh ones.
        assert_eq!(first.answers[0].nodes, third.answers[0].nodes);
        assert_eq!(first.answers[0].edges, third.answers[0].edges);
        assert!(!second.answers.is_empty());
    }

    #[test]
    fn wikisearch_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<WikiSearch>();
    }

    #[test]
    fn concurrent_searches_agree_with_sequential() {
        use std::sync::Arc;
        let ws = Arc::new(small_engine(Backend::Sequential));
        let reference = ws.search("xml sql rdf");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let ws = Arc::clone(&ws);
                let reference = &reference;
                scope.spawn(move || {
                    for _ in 0..8 {
                        let out = ws.search("xml sql rdf");
                        assert_eq!(out.answers.len(), reference.answers.len());
                        assert_eq!(out.answers[0].nodes, reference.answers[0].nodes);
                        assert_eq!(out.answers[0].edges, reference.answers[0].edges);
                    }
                });
            }
        });
        // 4 workers × 8 queries + the reference, all accounted pool-wide.
        assert_eq!(ws.session_queries_run(), 33);
        let pool = ws.session_pool();
        assert!(pool.sessions_created() <= 5, "pool capped by concurrency peak");
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn per_request_params_need_only_a_shared_reference() {
        let ws = small_engine(Backend::Sequential);
        let deep = ws.search("xml sql rdf");
        let narrow = ws.search_with_params("xml sql rdf", &ws.params().clone().with_top_k(1));
        assert!(narrow.answers.len() <= 1);
        assert!(deep.answers.len() >= narrow.answers.len());
        // The engine's defaults are untouched by the per-request override.
        let again = ws.search("xml sql rdf");
        assert_eq!(again.answers.len(), deep.answers.len());
    }

    #[test]
    fn backend_parse_accepts_the_cli_names() {
        assert_eq!(Backend::parse("seq", 3).unwrap(), Backend::Sequential);
        assert_eq!(Backend::parse("cpu", 3).unwrap(), Backend::ParCpu(3));
        assert_eq!(Backend::parse("gpu", 8).unwrap(), Backend::GpuStyle(8));
        assert_eq!(Backend::parse("dyn", 2).unwrap(), Backend::DynPar(2));
        assert!(Backend::parse("cuda", 2).unwrap_err().contains("unknown backend"));
        assert!(Backend::parse("cpu", 0).unwrap_err().contains(">= 1"));
        assert!(Backend::parse("cpu", 1025).unwrap_err().contains("<= 1024"));
    }

    #[test]
    fn backend_from_str_parses_specs() {
        assert_eq!("seq".parse::<Backend>().unwrap(), Backend::Sequential);
        assert_eq!("cpu".parse::<Backend>().unwrap(), Backend::ParCpu(Backend::DEFAULT_THREADS));
        assert_eq!("gpu:8".parse::<Backend>().unwrap(), Backend::GpuStyle(8));
        assert_eq!("dyn:2".parse::<Backend>().unwrap(), Backend::DynPar(2));
        assert!("cpu:many".parse::<Backend>().is_err());
        assert!("warp:4".parse::<Backend>().is_err());
    }

    #[test]
    fn backend_swap_keeps_the_warm_session() {
        let mut ws = small_engine(Backend::Sequential);
        let seq = ws.search("xml sql rdf");
        ws.set_backend(Backend::GpuStyle(2));
        let gpu = ws.search("xml sql rdf");
        assert_eq!(ws.session_queries_run(), 2);
        assert_eq!(seq.answers[0].nodes, gpu.answers[0].nodes);
        ws.set_backend(Backend::DynPar(2));
        let dy = ws.search("xml sql rdf");
        assert_eq!(seq.answers[0].nodes, dy.answers[0].nodes);
        assert_eq!(ws.session_queries_run(), 3);
    }

    /// Everything observable about a result except timings, as one
    /// comparable string.
    fn digest(ws: &WikiSearch, r: &WikiSearchResult) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        write!(
            s,
            "groups:{:?} unmatched:{:?} kwf:{} ",
            r.query.groups, r.query.unmatched, r.kwf
        )
        .unwrap();
        write!(
            s,
            "stats:{}/{}/{}/{:?} ",
            r.stats.last_level, r.stats.central_candidates, r.stats.peak_frontier, r.stats.trace
        )
        .unwrap();
        for a in &r.answers {
            write!(
                s,
                "[c:{} d:{} n:{:?} e:{:?} kn:{:?} ke:{:?} s:{}]",
                ws.graph().node_key(a.central),
                a.depth,
                a.nodes,
                a.edges,
                a.keyword_nodes,
                a.keyword_edges,
                a.score.to_bits()
            )
            .unwrap();
        }
        s
    }

    #[test]
    fn cache_hits_are_observably_identical_to_uncached_searches() {
        let uncached = small_engine(Backend::Sequential);
        let mut cached = small_engine(Backend::Sequential);
        cached.set_cache_capacity(1 << 20);
        // Near-duplicates: word order, case, stopwords, duplicate words.
        let variants =
            ["xml sql rdf", "RDF sql XML", "the xml of sql and rdf", "sql sql rdf xml rdf"];
        for (i, raw) in variants.iter().enumerate() {
            let warm = cached.search(raw);
            let cold = uncached.search(raw);
            assert_eq!(digest(&cached, &warm), digest(&uncached, &cold), "variant {i}: {raw}");
        }
        let stats = cached.cache_stats().unwrap();
        assert_eq!(stats.lookups, 4);
        assert_eq!(stats.misses, 1, "only the first variant computes");
        assert_eq!(stats.hits, 3, "every normalized duplicate hits");
        assert_eq!(stats.entries, 1);
        // The session pool saw exactly one query — hits never touch it.
        assert_eq!(cached.session_queries_run(), 1);
    }

    #[test]
    fn cache_never_aliases_across_params() {
        let mut ws = small_engine(Backend::Sequential);
        ws.set_cache_capacity(1 << 20);
        let deep = ws.search("xml sql rdf");
        let narrow = ws.search_with_params("xml sql rdf", &ws.params().clone().with_top_k(1));
        assert!(narrow.answers.len() <= 1);
        let stats = ws.cache_stats().unwrap();
        assert_eq!(stats.misses, 2, "different top-k keys a different slot");
        assert_eq!(stats.entries, 2);
        // Ask both again: both hit, both unchanged.
        let deep2 = ws.search("xml sql rdf");
        let narrow2 = ws.search_with_params("xml sql rdf", &ws.params().clone().with_top_k(1));
        assert_eq!(ws.cache_stats().unwrap().hits, 2);
        assert_eq!(deep2.answers.len(), deep.answers.len());
        assert_eq!(narrow2.answers.len(), narrow.answers.len());
    }

    #[test]
    fn empty_after_stopword_queries_bypass_the_cache() {
        let uncached = small_engine(Backend::Sequential);
        let mut ws = small_engine(Backend::Sequential);
        ws.set_cache_capacity(1 << 20);
        for raw in ["the of and", "", "   "] {
            let got = ws.search(raw);
            let want = uncached.search(raw);
            assert!(got.answers.is_empty());
            assert_eq!(digest(&ws, &got), digest(&uncached, &want), "{raw:?}");
        }
        let stats = ws.cache_stats().unwrap();
        assert_eq!(stats.lookups, 0, "bypass means the cache is never consulted");
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn cache_survives_a_backend_swap() {
        let mut ws = small_engine(Backend::Sequential);
        ws.set_cache_capacity(1 << 20);
        let seq = ws.search("xml sql rdf");
        ws.set_backend(Backend::ParCpu(2));
        let par = ws.search("xml sql rdf");
        assert_eq!(ws.cache_stats().unwrap().hits, 1, "entry valid across backends");
        assert_eq!(seq.answers[0].nodes, par.answers[0].nodes);
        assert_eq!(ws.session_queries_run(), 1);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let mut ws = small_engine(Backend::Sequential);
        ws.set_cache_capacity(1 << 20);
        assert!(ws.cache_stats().is_some());
        ws.set_cache_capacity(0);
        assert!(ws.cache_stats().is_none());
        ws.search("xml sql");
        ws.search("xml sql");
        assert_eq!(ws.session_queries_run(), 2, "every query computes");
    }

    #[test]
    fn failed_searches_never_populate_the_cache() {
        use std::time::Duration;
        let mut ws = small_engine(Backend::Sequential);
        ws.set_cache_capacity(1 << 20);
        // An already-expired deadline fails deterministically before any
        // search work.
        let expired = QueryBudget::unlimited().with_timeout(Duration::ZERO);
        let err = ws
            .execute(&QueryRequest {
                budget: expired,
                ..QueryRequest::new("xml sql rdf", ws.params())
            })
            .unwrap_err();
        assert_eq!(err.kind(), "deadline_exceeded");
        let stats = ws.cache_stats().unwrap();
        assert_eq!(stats.entries, 0, "a failed search must not cache anything");
        assert_eq!(stats.lookups, 1, "the miss was recorded before the search failed");
        // A retry without the deadline computes the full answer and caches
        // it — the timeout left no poisoned or partial entry behind.
        let full = ws.execute(&QueryRequest::new("xml sql rdf", ws.params())).unwrap();
        assert!(!full.answers.is_empty());
        assert_eq!(ws.cache_stats().unwrap().entries, 1);
        let hit = ws.search("xml sql rdf");
        assert_eq!(ws.cache_stats().unwrap().hits, 1, "the retry's answer is servable from cache");
        assert_eq!(digest(&ws, &hit), digest(&ws, &full));
    }

    #[test]
    fn failed_searches_keep_the_session_reusable() {
        use std::time::Duration;
        let ws = small_engine(Backend::Sequential);
        let expired = QueryBudget::unlimited().with_timeout(Duration::ZERO);
        assert!(ws
            .execute(&QueryRequest {
                budget: expired,
                ..QueryRequest::new("xml sql rdf", ws.params())
            })
            .is_err());
        let pool = ws.session_pool();
        assert_eq!(pool.quarantined(), 0, "a budget failure is not a panic");
        assert_eq!(pool.idle_sessions(), 1, "the session checked back in");
        let ok = ws.execute(&QueryRequest::new("xml sql rdf", ws.params())).unwrap();
        assert!(!ok.answers.is_empty());
        assert_eq!(pool.sessions_created(), 1, "the same session served the retry");
    }

    #[test]
    fn budget_exhaustion_surfaces_from_every_backend() {
        for backend in [
            Backend::Sequential,
            Backend::ParCpu(2),
            Backend::GpuStyle(2),
            Backend::DynPar(2),
        ] {
            let ws = small_engine(backend);
            let starved = QueryBudget::unlimited().with_max_expansions(1);
            let err = ws
                .execute(&QueryRequest {
                    budget: starved,
                    ..QueryRequest::new("xml sql rdf", ws.params())
                })
                .unwrap_err();
            assert_eq!(err.kind(), "budget_exhausted", "{backend:?}");
            let ok = ws.execute(&QueryRequest::new("xml sql rdf", ws.params())).unwrap();
            assert!(!ok.answers.is_empty(), "{backend:?}");
        }
    }

    #[test]
    fn tracing_is_opt_in_and_does_not_change_results() {
        let ws = small_engine(Backend::Sequential);
        let plain = ws.search("xml sql rdf");
        assert!(plain.trace.is_none(), "tracing must be opt-in");
        let traced = ws.search_with_params("xml sql rdf", &ws.params().clone().with_trace(true));
        assert!(traced.trace.is_some());
        assert_eq!(digest(&ws, &plain), digest(&ws, &traced), "tracing changed the answers");
    }

    #[test]
    fn explain_returns_a_live_trace_and_bypasses_the_cache() {
        let mut ws = small_engine(Backend::Sequential);
        ws.set_cache_capacity(1 << 20);
        ws.search("xml sql rdf"); // populate the cache
        let traced = ws.params().clone().with_trace(true);
        let explained = ws.search_with_params("xml sql rdf", &traced);
        let trace = explained.trace.as_deref().unwrap();
        assert_eq!(trace.engine, "Seq");
        assert_eq!(trace.keywords, 3);
        assert!(trace.session_id.is_some(), "a pooled session ran it live");
        assert!(!trace.levels.is_empty());
        for (i, l) in trace.levels.iter().enumerate() {
            assert_eq!(l.level as usize, i);
            assert!(l.frontier > 0);
        }
        assert_eq!(
            trace.levels.iter().map(|l| l.identified).sum::<usize>(),
            explained.stats.central_candidates
        );
        let total: u64 = trace.levels.iter().map(|l| l.expansions).sum();
        assert_eq!(total, trace.total_expansions);
        assert!(total > 0, "counting mode must account expansion work");
        // The cache was untouched: still exactly one entry, one lookup.
        let stats = ws.cache_stats().unwrap();
        assert_eq!((stats.entries, stats.lookups, stats.hits), (1, 1, 0));
    }

    /// The one switch, `params.trace`, means both things `EXPLAIN` needs:
    /// the answers come with their trace, and they come from a live
    /// search — never from the cache, whatever it holds.
    #[test]
    fn execute_keeps_both_meanings_of_its_explain_switch() {
        let mut ws = small_engine(Backend::Sequential);
        ws.set_cache_capacity(1 << 20);
        let cached = ws.search("xml sql rdf");
        assert!(cached.trace.is_none(), "untraced by default");
        let before = ws.cache_stats().unwrap();
        let traced = ws.params().clone().with_trace(true);
        let live = ws.execute(&QueryRequest::new("sql rdf xml", &traced)).unwrap();
        let trace = live.trace.as_deref().expect("a traced request is traced");
        assert!(!trace.levels.is_empty(), "a live search ran");
        assert_eq!(trace.levels.len(), live.stats.trace.len(), "the trace is this search's");
        assert_eq!(ws.cache_stats().unwrap().lookups, before.lookups, "the cache was not read");
        let reference = ws.search("sql rdf xml");
        assert!(reference.trace.is_none(), "an untraced repeat is a plain hit");
        assert_eq!(ws.cache_stats().unwrap().hits, before.hits + 1);
        assert_eq!(digest(&ws, &live), digest(&ws, &reference), "same answers either way");
    }

    #[test]
    fn traced_requests_never_read_or_fill_the_cache() {
        let mut ws = small_engine(Backend::Sequential);
        ws.set_cache_capacity(1 << 20);
        let traced = ws.params().clone().with_trace(true);
        for _ in 0..2 {
            let out = ws.search_with_params("xml sql", &traced);
            assert_eq!(out.trace.as_deref().unwrap().engine, "Seq", "every trace is a search");
        }
        let stats = ws.cache_stats().unwrap();
        assert_eq!((stats.lookups, stats.entries), (0, 0), "traced requests pass the cache by");
        let snap = ws.metrics_snapshot();
        assert_eq!((snap.queries, snap.cache_hits, snap.cache_misses), (2, 0, 0));
        assert_eq!(ws.session_queries_run(), 2, "both ran on a pooled session");
    }

    #[test]
    fn query_ids_thread_into_traces() {
        let mut ws = small_engine(Backend::Sequential);
        ws.set_cache_capacity(1 << 20);
        let traced = ws.params().clone().with_trace(true);
        let first = ws.search_with_params("xml sql", &traced);
        assert!(first.qid >= 1, "every search gets a qid");
        assert_eq!(first.trace.as_deref().unwrap().qid, Some(first.qid));
        // A cache hit gets a qid of its own, and carries no trace.
        ws.search("xml sql");
        let hit = ws.search("sql xml");
        assert!(hit.qid > first.qid, "qids are strictly increasing");
        assert_eq!(ws.cache_stats().unwrap().hits, 1);
        // The serving layer's pre-assigned ID is honored verbatim.
        let tagged = ws
            .execute(&QueryRequest { qid: Some(999), ..QueryRequest::new("rdf", &traced) })
            .unwrap();
        assert_eq!(tagged.qid, 999);
        assert_eq!(tagged.trace.as_deref().unwrap().qid, Some(999));
        // Every untagged search drew its qid here; nothing is in flight.
        assert_eq!(ws.query_ids_issued(), hit.qid);
        assert_eq!(ws.queries_in_flight(), 0);
    }

    #[test]
    fn failed_searches_still_reach_the_recent_query_ring() {
        let ws = small_engine(Backend::Sequential);
        let starved = QueryBudget::unlimited().with_max_expansions(1);
        let err = ws
            .execute(&QueryRequest {
                budget: starved,
                ..QueryRequest::new("xml sql rdf", ws.params())
            })
            .unwrap_err();
        assert_eq!(err.kind(), "budget_exhausted");
        assert_eq!(ws.query_ids_issued(), 1, "the failed query drew a qid");
        assert_eq!(ws.metrics_snapshot().budget_exhausted, 1, "and was counted");
        assert_eq!(ws.queries_in_flight(), 0, "the flight guard survived the error");
    }

    #[test]
    fn metrics_account_every_search_path() {
        let mut ws = small_engine(Backend::Sequential);
        ws.set_cache_capacity(1 << 20);
        ws.search("xml sql rdf");
        ws.search("xml sql rdf"); // hit
        let starved = QueryBudget::unlimited().with_max_expansions(1);
        assert!(ws
            .execute(&QueryRequest { budget: starved, ..QueryRequest::new("xml rdf", ws.params()) })
            .is_err());
        let snap = ws.metrics_snapshot();
        assert_eq!(snap.queries, 3);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 2);
        assert_eq!(snap.budget_exhausted, 1);
        assert_eq!(snap.deadline_exceeded, 0);
        // Latency is recorded for the two successful queries only, and
        // expansion work for the one computed success.
        assert_eq!(snap.latency_us.count, 2);
        assert_eq!(snap.expansions.count, 1);
        assert!(snap.expansions.sum > 0);
        assert!(snap.latency_us.percentile(0.99) >= snap.latency_us.percentile(0.5));
    }

    #[test]
    fn all_backends_produce_per_level_explain_traces() {
        for backend in [
            Backend::Sequential,
            Backend::ParCpu(2),
            Backend::GpuStyle(2),
            Backend::DynPar(2),
        ] {
            let ws = small_engine(backend);
            let out = ws.search_with_params("xml sql rdf", &ws.params().clone().with_trace(true));
            let trace = out.trace.as_deref().unwrap_or_else(|| panic!("{backend:?}: no trace"));
            assert!(!trace.levels.is_empty(), "{backend:?}");
            assert!(trace.total_expansions > 0, "{backend:?}");
            // The rich records agree with the always-on level trace.
            assert_eq!(trace.levels.len(), out.stats.trace.len(), "{backend:?}");
            for (rich, plain) in trace.levels.iter().zip(&out.stats.trace) {
                assert_eq!(rich.level, u32::from(plain.level), "{backend:?}");
                assert_eq!(rich.frontier, plain.frontier, "{backend:?}");
                assert_eq!(rich.identified, plain.identified, "{backend:?}");
            }
        }
    }

    #[test]
    fn params_override_applies() {
        let mut ws = small_engine(Backend::Sequential);
        let p = ws.params().clone().with_top_k(1);
        ws.set_params(p);
        let result = ws.search("xml sql rdf");
        assert!(result.answers.len() <= 1);
    }

    fn small_sharded(backend: Backend, shards: usize) -> WikiSearch {
        let mut b = GraphBuilder::new();
        let x = b.add_node("Q1", "XML");
        let q = b.add_node("Q2", "query language");
        let s = b.add_node("Q3", "SQL");
        let r = b.add_node("Q4", "RDF");
        b.add_edge(x, q, "related to");
        b.add_edge(s, q, "instance of");
        b.add_edge(r, q, "instance of");
        WikiSearch::open_sharded(b.build(), backend, shards)
    }

    #[test]
    fn sharded_searches_are_byte_identical_to_monolithic() {
        for backend in [Backend::Sequential, Backend::ParCpu(2)] {
            let mono = small_engine(backend);
            for shards in [2, 3, 8] {
                let ws = small_sharded(backend, shards);
                assert_eq!(ws.shard_stats().map(|s| s.shards), Some(shards));
                for raw in ["xml sql rdf", "xml sql", "rdf", "xml warpdrive", ""] {
                    let a = ws.search(raw);
                    let b = mono.search(raw);
                    assert_eq!(
                        digest(&ws, &a),
                        digest(&mono, &b),
                        "{backend:?} × {shards} shards, query {raw:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn one_shard_is_the_monolithic_path() {
        let ws = small_sharded(Backend::Sequential, 1);
        assert!(ws.shard_stats().is_none());
        ws.search("xml sql");
        assert_eq!(ws.session_queries_run(), 1, "the facade pool serves shards <= 1");
    }

    #[test]
    fn shard_stats_account_pools_and_rounds() {
        let ws = small_sharded(Backend::Sequential, 3);
        ws.search("xml sql rdf");
        ws.search("xml sql");
        let stats = ws.shard_stats().unwrap();
        assert_eq!(stats.shards, 3);
        assert!(stats.rounds > 0);
        assert!(ws.remote_stats().is_none(), "the shards are lanes in this process");
        // The facade pool is bypassed entirely on the sharded path.
        assert_eq!(ws.session_queries_run(), 0);
        assert_eq!(ws.session_pool().stats().sessions_created, 0);
    }

    #[test]
    fn sharded_cache_hits_match_sharded_and_monolithic_answers() {
        let mono = small_engine(Backend::Sequential);
        let mut ws = small_sharded(Backend::Sequential, 4);
        ws.set_cache_capacity(1 << 20);
        let miss = ws.search("xml sql rdf");
        let rounds = ws.shard_stats().unwrap().rounds;
        let hit = ws.search("RDF sql XML"); // normalized duplicate
        assert_eq!(digest(&ws, &miss), digest(&mono, &mono.search("xml sql rdf")));
        assert_eq!(digest(&ws, &hit), digest(&mono, &mono.search("RDF sql XML")));
        let stats = ws.cache_stats().unwrap();
        assert_eq!(stats.hits, 1);
        assert!(rounds > 0);
        assert_eq!(ws.shard_stats().unwrap().rounds, rounds, "hits skip the shards");
    }

    #[test]
    fn sharded_explain_names_the_sharded_engine() {
        let ws = small_sharded(Backend::ParCpu(2), 3);
        let out = ws.search_with_params("xml sql rdf", &ws.params().clone().with_trace(true));
        let trace = out.trace.as_deref().unwrap();
        assert_eq!(trace.engine, "CPU-Par[shards=3]");
        assert!(trace.session_id.is_none(), "no single session to name");
        assert!(!trace.levels.is_empty());
        assert!(trace.total_expansions > 0);
        // Per-level records match the monolithic engine's exactly.
        let mono = small_engine(Backend::ParCpu(2));
        let reference =
            mono.search_with_params("xml sql rdf", &mono.params().clone().with_trace(true));
        assert_eq!(trace.levels, reference.trace.as_deref().unwrap().levels);
    }

    #[test]
    fn sharded_budget_failures_surface_and_leave_pools_clean() {
        use std::time::Duration;
        let ws = small_sharded(Backend::Sequential, 2);
        let expired = QueryBudget::unlimited().with_timeout(Duration::ZERO);
        let err = ws
            .execute(&QueryRequest {
                budget: expired,
                ..QueryRequest::new("xml sql rdf", ws.params())
            })
            .unwrap_err();
        assert_eq!(err.kind(), "deadline_exceeded");
        assert_eq!(ws.metrics_snapshot().deadline_exceeded, 1);
        assert_eq!(ws.shard_stats().unwrap().rounds, 0, "failed before any round");
        assert_eq!(ws.session_pool().stats().quarantined, 0, "a budget failure is not a panic");
        let ok = ws.execute(&QueryRequest::new("xml sql rdf", ws.params())).unwrap();
        assert!(!ok.answers.is_empty());
    }

    #[test]
    fn sharded_backend_swap_rebuilds_the_shard_set() {
        let mut ws = small_sharded(Backend::Sequential, 3);
        let seq = ws.search("xml sql rdf");
        ws.set_backend(Backend::ParCpu(2));
        assert_eq!(ws.shard_stats().unwrap().shards, 3, "shard count survives the swap");
        let par = ws.search("xml sql rdf");
        assert_eq!(digest(&ws, &seq), digest(&ws, &par));
    }

    use central::shard::DEFAULT_PARTITION_SEED;
    use central::{ShardWorker, StaticAddrs};

    /// One attempt per shard, so tests exercising dead shards never
    /// sleep a retry backoff.
    fn test_remote_opts() -> RemoteOptions {
        RemoteOptions { attempts: 1, ..RemoteOptions::default() }
    }

    /// `small_engine` driven over an in-process-spawned remote worker
    /// fleet of `shards` workers.
    fn small_remote(backend: Backend, shards: usize) -> WikiSearch {
        let mut ws = small_engine(backend);
        let addrs: Vec<_> = (0..shards)
            .map(|s| ShardWorker::spawn_local(ws.graph(), shards, s, DEFAULT_PARTITION_SEED))
            .collect();
        ws.set_remote_shards(shards, Arc::new(StaticAddrs(addrs)), test_remote_opts());
        ws
    }

    /// An address nothing listens on (bound then released).
    fn dead_addr() -> std::net::SocketAddr {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        addr
    }

    #[test]
    fn remote_searches_are_byte_identical_to_monolithic() {
        for backend in [Backend::Sequential, Backend::ParCpu(2)] {
            let mono = small_engine(backend);
            for shards in [1, 2, 3] {
                let ws = small_remote(backend, shards);
                assert_eq!(ws.num_remote_shards(), Some(shards));
                for raw in ["xml sql rdf", "xml sql", "xml warpdrive", ""] {
                    let a = ws.search(raw);
                    let b = mono.search(raw);
                    assert!(!a.degraded, "healthy fleet must not degrade");
                    assert_eq!(
                        digest(&ws, &a),
                        digest(&mono, &b),
                        "{backend:?} × {shards} workers, query {raw:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn remote_backend_swap_rebuilds_the_coordinator_on_the_same_fleet() {
        let mut ws = small_remote(Backend::Sequential, 2);
        let seq = ws.search("xml sql rdf");
        ws.set_backend(Backend::ParCpu(2));
        assert_eq!(ws.num_remote_shards(), Some(2), "fleet survives the swap");
        assert_eq!(ws.shard_stats(), None);
        let par = ws.search("xml sql rdf");
        assert_eq!(digest(&ws, &seq), digest(&ws, &par));
    }

    /// `gpu` and `dyn` are solo engines: every way of combining them with
    /// a shard set — in process or remote, at set-up or by a later backend
    /// swap — is refused with the reason, and `shards <= 1` is not one.
    #[test]
    fn sharding_refuses_the_solo_only_backends() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let reason = Backend::GpuStyle(2).sharded().unwrap_err();
        assert_eq!(Backend::DynPar(2).sharded(), Err(reason.clone()));
        assert_eq!(Backend::ParCpu(3).sharded(), Ok(ShardBackend::ParCpu(3)));
        let refused = |attempt: &mut dyn FnMut()| {
            let payload = catch_unwind(AssertUnwindSafe(attempt)).expect_err("must be refused");
            assert_eq!(payload.downcast_ref::<String>(), Some(&reason));
        };
        for backend in [Backend::GpuStyle(2), Backend::DynPar(2)] {
            assert_eq!(small_sharded(backend, 1).shard_stats(), None);
            refused(&mut || drop(small_sharded(backend, 2)));
            refused(&mut || small_sharded(Backend::Sequential, 2).set_backend(backend));
            let mut solo = small_engine(backend);
            refused(&mut || {
                solo.set_remote_shards(2, Arc::new(StaticAddrs(vec![])), test_remote_opts())
            });
            assert_eq!(solo.num_remote_shards(), None);
        }
    }

    #[test]
    fn unreachable_fleet_surfaces_shard_unavailable_and_counts_it() {
        let mut ws = small_engine(Backend::Sequential);
        ws.set_remote_shards(2, Arc::new(StaticAddrs(vec![dead_addr(), dead_addr()])), {
            let mut o = test_remote_opts();
            o.degraded_answers = false;
            o
        });
        let err = ws.execute(&QueryRequest::new("xml sql rdf", ws.params())).unwrap_err();
        assert_eq!(err.kind(), "shard_unavailable");
        assert_eq!(ws.metrics_snapshot().shard_unavailable, 1);
    }

    #[test]
    fn degraded_answers_are_marked_and_never_cached() {
        // Shard 0 lives, shard 1 is dead; degraded answers are allowed.
        let mut ws = small_engine(Backend::Sequential);
        ws.set_cache_capacity(1 << 20);
        let live = ShardWorker::spawn_local(ws.graph(), 2, 0, DEFAULT_PARTITION_SEED);
        ws.set_remote_shards(2, Arc::new(StaticAddrs(vec![live, dead_addr()])), {
            let mut o = test_remote_opts();
            o.degraded_answers = true;
            o
        });
        let out = ws.execute(&QueryRequest::new("xml sql rdf", ws.params())).unwrap();
        assert!(out.degraded, "a missing shard must mark the answer");
        let stats = ws.cache_stats().unwrap();
        assert_eq!(stats.entries, 0, "degraded answers must never populate the cache");
        assert_eq!(ws.remote_stats().unwrap().degraded_queries, 1);
        // Healthy-fleet results stay unmarked and cache normally.
        let healthy = small_remote(Backend::Sequential, 2);
        assert!(!healthy.search("xml sql rdf").degraded);
    }
}
