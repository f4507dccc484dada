//! # wikisearch-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §4):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table2_datasets` | Table II (dataset stats + sampled `A`) |
//! | `fig3_activation_dist` | Fig. 3 (activation-level distribution per α) |
//! | `exp1_vary_knum` | Figs. 6–7 (per-phase time vs `Knum`, + BANKS-II) |
//! | `exp2_vary_topk` | Fig. 8 row 1 (time vs `Topk`) |
//! | `exp3_vary_alpha` | Fig. 8 row 2 (time vs α) |
//! | `exp4_vary_threads` | Figs. 9–10 (per-phase time vs `Tnum`) |
//! | `table4_storage` | Table IV (pre/running storage) |
//! | `effectiveness` | Figs. 11–12 + Table V (top-k precision, kwf) |
//! | `run_all` | everything above in sequence |
//! | `blinks_index_cost` | appendix: the BLINKS feasibility argument, measured |
//! | `rclique_sensitivity` | appendix: the r-clique `R`/`r` parameter trap, measured |
//! | `gpu_projection` | appendix: bandwidth projection onto the paper's hardware |
//!
//! Every binary above prints paper-style tables and writes a JSON record
//! under `target/experiments/`. Serving is measured by the wire ledger
//! (`benchmark/`), not here; the one exception is `telemetry_guard`, the
//! CI check that the always-on telemetry surface keeps >= 98 % of the
//! bare engine's qps. Environment knobs:
//!
//! * `WIKISEARCH_SCALE` — dataset size multiplier (default 1.0);
//! * `WIKISEARCH_QUERIES` — queries per datapoint (default 10; the paper
//!   averages 50);
//! * `WIKISEARCH_THREADS` — comma-separated `Tnum` sweep for Exp-4
//!   (default `1,2,4,8`);
//! * `WIKISEARCH_BANKS_BUDGET` — BANKS pop budget standing in for the
//!   paper's 500 s timeout (default 500000).

#![warn(missing_docs)]

pub mod experiments;

use central::SearchParams;
use datagen::synthetic::{SyntheticConfig, SyntheticDataset};
use kgraph::sampling::estimate_average_distance_sources;
use kgraph::{DistanceEstimate, KnowledgeGraph};
use textindex::InvertedIndex;

/// A dataset prepared for searching: graph + index + sampled `A`.
pub struct PreparedDataset {
    /// Dataset display name (`wiki2017-sim` / `wiki2018-sim`).
    pub name: String,
    /// The graph.
    pub graph: KnowledgeGraph,
    /// Keyword index.
    pub index: InvertedIndex,
    /// Sampled average-distance estimate (Table II's `A`).
    pub distance: DistanceEstimate,
}

impl PreparedDataset {
    /// Generate and index a dataset, sampling `A` with shared-sweep BFS.
    pub fn prepare(config: &SyntheticConfig) -> Self {
        let SyntheticDataset { graph, config } = config.generate();
        let index = InvertedIndex::build(&graph);
        let distance = estimate_average_distance_sources(&graph, 24, 64, 32, config.seed);
        PreparedDataset { name: config.name.clone(), graph, index, distance }
    }

    /// Both paper datasets, smaller first.
    pub fn both() -> Vec<PreparedDataset> {
        vec![
            Self::prepare(&SyntheticConfig::wiki2017_sim()),
            Self::prepare(&SyntheticConfig::wiki2018_sim()),
        ]
    }

    /// Default search parameters for this dataset (Table III defaults with
    /// the dataset's sampled `A`).
    pub fn params(&self) -> SearchParams {
        SearchParams::default().with_average_distance(self.distance.mean)
    }
}

/// Queries per datapoint (`WIKISEARCH_QUERIES`, default 10).
pub fn queries_per_point() -> usize {
    env_usize("WIKISEARCH_QUERIES", 10)
}

/// BANKS pop budget (`WIKISEARCH_BANKS_BUDGET`, default 500000) — the
/// stand-in for the paper's 500 s timeout. When BANKS-II hits it, the
/// harness reports the truncation so budget-capped times are not read as
/// genuine wins.
pub fn banks_budget() -> usize {
    env_usize("WIKISEARCH_BANKS_BUDGET", 500_000)
}

/// The Exp-4 thread sweep (`WIKISEARCH_THREADS`, default `1,2,4,8`).
pub fn thread_sweep() -> Vec<usize> {
    std::env::var("WIKISEARCH_THREADS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|x| x.trim().parse::<usize>().ok())
                .filter(|&t| t > 0)
                .collect::<Vec<_>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4, 8])
}

/// Default worker count for the "GPU-Par" and "CPU-Par" headline engines.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |p| p.get().max(2))
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_sweep_default() {
        std::env::remove_var("WIKISEARCH_THREADS");
        assert_eq!(thread_sweep(), vec![1, 2, 4, 8]);
    }

    #[test]
    fn prepare_tiny_dataset() {
        let ds = PreparedDataset::prepare(&SyntheticConfig::tiny(1));
        assert!(ds.distance.mean > 0.0);
        assert!(ds.index.num_terms() > 0);
        assert!(ds.params().average_distance > 0.0);
    }
}
