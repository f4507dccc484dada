//! # central — the Central Graph parallel keyword-search algorithm
//!
//! This crate is the primary contribution of the reproduced paper,
//! *"An Efficient Parallel Keyword Search Engine on Knowledge Graphs"*
//! (ICDE 2019): the **Central Graph** answer model and the **two-stage
//! lock-free parallel algorithm** that computes top-k Central Graph
//! answers for a keyword query.
//!
//! ## The model (paper Sec. III)
//!
//! Each query keyword `t_i` starts a BFS instance `B_i` from its node set
//! `T_i`; all instances advance in lock step at a single global expansion
//! level. The *hitting level* `h_j^i` of node `v_j` is the first level at
//! which `B_i` makes it a frontier. A node hit by **every** instance is a
//! **Central Node**; the union of all its hitting paths is its **Central
//! Graph** — a graph-shaped answer that connects every keyword, admits
//! multiple paths per keyword, and is depth-bounded by the central node's
//! maximum hitting level.
//!
//! ## The two stages (paper Sec. V)
//!
//! 1. **Bottom-up** ([`bottom_up`]): level-synchronous lock-free expansion
//!    over a node–keyword hitting-level matrix `M`, gated by per-node
//!    *minimum activation levels* ([`activation`], Sec. IV) so that
//!    summary hubs activate late. Solves the top-(k,d) Central Graph
//!    problem (Def. 4).
//! 2. **Top-down** ([`top_down`]): recovers each Central Graph from `M`
//!    alone via the Theorem V.4 level arithmetic, prunes it with the
//!    keyword-co-occurrence **level-cover strategy**, scores it with
//!    `S(C) = d(C)^λ · Σ w_v` (Eq. 6), and selects the final top-k.
//!
//! ## Engines
//!
//! Four interchangeable engines implement [`engine::KeywordSearchEngine`]:
//!
//! | engine | paper name | character |
//! |---|---|---|
//! | [`engine::SeqEngine`] | (Tnum = 1) | single-threaded reference |
//! | [`engine::ParCpuEngine`] | CPU-Par | coarse-grained rayon, lock-free |
//! | [`engine::GpuStyleEngine`] | GPU-Par (structure) | fine-grained work items + parallel frontier compaction |
//! | [`engine::DynParEngine`] | CPU-Par-d | per-node locks, dynamic memory, no extraction phase |
//!
//! All four return identical answer sets (property-tested); they differ in
//! how the work is scheduled, which is exactly what the paper's Exp-1/Exp-4
//! measure.
//!
//! ```
//! use kgraph::GraphBuilder;
//! use textindex::{InvertedIndex, ParsedQuery};
//! use central::{engine::{KeywordSearchEngine, SeqEngine}, SearchParams};
//!
//! let mut b = GraphBuilder::new();
//! let x = b.add_node("x", "XML");
//! let q = b.add_node("q", "query language");
//! let s = b.add_node("s", "SQL");
//! b.add_edge(x, q, "related");
//! b.add_edge(s, q, "instance of");
//! let g = b.build();
//!
//! let idx = InvertedIndex::build(&g);
//! let query = ParsedQuery::parse(&idx, "XML SQL");
//! let out = SeqEngine::new().search(&g, &query, &central::SearchParams::default());
//! assert!(!out.answers.is_empty());
//! let best = &out.answers[0];
//! assert_eq!(best.central, q); // "query language" bridges XML and SQL
//! ```

#![warn(missing_docs)]

pub mod activation;
pub mod bottom_up;
pub mod budget;
pub mod cache;
pub mod config;
pub mod costmodel;
pub mod engine;
pub mod error;
#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod metrics;
pub mod model;
pub mod pool;
pub mod profile;
pub mod remote;
pub mod session;
pub mod shard;
pub mod state;
pub mod telemetry;
pub mod top_down;
pub mod trace;

pub use activation::{ActivationConfig, ActivationMap};
pub use budget::{BudgetTracker, QueryBudget};
pub use cache::{CacheStats, QueryKey, ShardedLruCache};
pub use config::{ParamsFingerprint, SearchParams};
pub use engine::{
    DynParEngine, GpuStyleEngine, KeywordSearchEngine, ParCpuEngine, SearchOutcome, SeqEngine,
};
pub use error::SearchError;
pub use metrics::{HistogramSnapshot, LogHistogram, MetricsRegistry, MetricsSnapshot};
pub use model::{CentralGraph, INFINITE_LEVEL};
pub use pool::{PoolStats, PooledSession, SessionPool};
pub use profile::PhaseProfile;
pub use remote::{
    RemoteOptions, RemoteStats, ShardAddrs, ShardCoordinator, ShardWorker, ShardedOutcome,
    StaticAddrs,
};
pub use session::SearchSession;
pub use shard::{ShardBackend, ShardPlan, ShardedStats};
pub use telemetry::{InFlight, QueryIdGen};
pub use trace::{QueryTrace, ShardSpan, ShardTimeline, TraceLevelRecord};
