//! # kgraph — knowledge-graph substrate for WikiSearch
//!
//! This crate implements the graph layer that the ICDE'19 paper
//! *"An Efficient Parallel Keyword Search Engine on Knowledge Graphs"*
//! builds on (its Sec. III and Sec. V-A):
//!
//! * a **bi-directed, node-weighted, edge-labeled graph** stored in
//!   Compressed Sparse Row (CSR) form — every original directed edge is
//!   traversable in both directions, while the original direction is kept
//!   so that in-degree statistics (needed for node weighting) remain exact;
//! * **degree-of-summary node weights** (Eq. 2 of the paper) computed from
//!   per-node in-edge label histograms, min–max normalized;
//! * **average-shortest-distance estimation** by sampling node pairs
//!   (the `A` column of the paper's Table II);
//! * **memory accounting** used to reproduce the paper's Table IV; and
//! * simple text (TSV) and JSON round-trip I/O.
//!
//! The crate is deliberately free of any search logic: the Central Graph
//! algorithm lives in the `central` crate, baselines in `banks`.
//!
//! ## Quick example
//!
//! ```
//! use kgraph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new();
//! let sql = b.add_node("Q1", "SQL");
//! let ql  = b.add_node("Q2", "Query language");
//! b.add_edge(sql, ql, "instance of");
//! let g = b.build();
//! assert_eq!(g.num_nodes(), 2);
//! assert_eq!(g.num_directed_edges(), 1);
//! // bi-directed traversal: both endpoints see the edge
//! assert_eq!(g.neighbors(sql).len(), 1);
//! assert_eq!(g.neighbors(ql).len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod binio;
pub mod builder;
pub mod column;
pub mod error;
pub mod graph;
pub mod ids;
pub mod io;
pub mod mmap;
pub mod sampling;
pub mod snapshot;
pub mod stats;
pub mod storage;
pub mod store;
pub mod weights;

pub use builder::GraphBuilder;
pub use column::{Column, Pod, StrTable};
pub use error::KgraphError;
pub use graph::{Adjacency, KnowledgeGraph};
pub use ids::{LabelId, NodeId};
pub use sampling::{estimate_average_distance, DistanceEstimate};
pub use snapshot::{Snapshot, SnapshotWriter};
pub use stats::GraphStats;
pub use storage::MemoryFootprint;
pub use store::{load_graph, GraphFormat, GraphStore};
