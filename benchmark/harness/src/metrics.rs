//! The ledger's metric tables: every name the benchmark reports, with
//! its unit and which way is better. `BENCHMARK.json` at the repository
//! root repeats these tables for the driver; a unit test keeps the two
//! in step.

/// Where a per-layer metric is measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// On the wire: client spans, `STATS` deltas, `EXPLAIN` traces, `/proc`.
    Wire,
    /// By the library probe (`benchmark/layers`) calling the layer's
    /// public functions.
    Library,
    /// About the run itself, not the program.
    Harness,
}

/// One metric: name, unit, `true` when lower is better.
pub struct MetricDef {
    /// Reported name (letters, digits, `_`, `.`, `-`).
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction. Not needed to report a value; the `BENCHMARK.json`
    /// consistency test reads it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub lower_is_better: bool,
    /// Measurement source (end-to-end metrics are all [`Source::Wire`]).
    pub source: Source,
}

const fn m(name: &'static str, unit: &'static str, lower: bool, source: Source) -> MetricDef {
    MetricDef { name, unit, lower_is_better: lower, source }
}

use Source::{Harness as H, Library as L, Wire as W};

/// End-to-end metrics, reported by an untraced run. `failed_share` is
/// reported beside them (and as `attempted`/`failed` on the result
/// line) but is not in this table: it is 0 on a healthy run and the
/// driver's bounds are relative. `cpu_ms_per_query` heads the per-layer
/// table instead: on a shared host the same commit's CPU per query
/// drifts by more than any bound the driver accepts (see the README).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", true, W),
    m("p50_ms", "ms", true, W),
    m("p95_ms", "ms", true, W),
    m("qps", "1/s", false, W),
    m("peak_rss_mb", "MiB", true, W),
];

/// Per-layer metrics, reported by a traced run. Layer = module name.
pub const PER_LAYER: &[MetricDef] = &[
    m("cpu_ms_per_query", "ms", true, W),
    m("cli.serve.ready_ms", "ms", true, W),
    m("cli.serve.ping_rtt_us", "us", true, W),
    m("cli.serve.wire_gap_ms", "ms", true, W),
    m("cli.serve.ttfb_ms", "ms", true, W),
    m("cli.serve.body_read_ms", "ms", true, W),
    m("cli.serve.resp_bytes", "bytes", true, W),
    m("cli.serve.cpu_user_ms_per_query", "ms", true, W),
    m("cli.serve.cpu_sys_ms_per_query", "ms", true, W),
    m("cli.serve.shed", "count", true, W),
    m("cli.serve.timeouts", "count", true, W),
    m("cli.serve.panics", "count", true, W),
    m("engine.search_us", "us", true, L),
    m("engine.self_us", "us", true, L),
    m("engine.cache_hit_ratio", "ratio", false, W),
    m("engine.build_ms", "ms", true, L),
    m("engine.open_snapshot_ms", "ms", true, L),
    m("textindex.build_ms", "ms", true, L),
    m("textindex.parse_us", "us", true, L),
    m("textindex.normalize_us", "us", true, L),
    m("textindex.postings_per_query", "count", true, L),
    m("kgraph.load_ms", "ms", true, L),
    m("kgraph.snapshot_open_ms", "ms", true, L),
    m("kgraph.snapshot_compile_ms", "ms", true, W),
    m("kgraph.snapshot_bytes", "bytes", true, W),
    m("datagen.generate_ms", "ms", true, W),
    m("central.cache.get_hit_us", "us", true, L),
    m("central.cache.get_miss_us", "us", true, L),
    m("central.cache.insert_us", "us", true, L),
    m("central.cache.hits", "count", false, W),
    m("central.cache.misses", "count", true, W),
    m("central.cache.evictions", "count", true, W),
    m("central.pool.checkout_us", "us", true, L),
    m("central.pool.sessions_created", "count", true, W),
    m("central.pool.quarantined", "count", true, W),
    m("central.search_ms", "ms", true, L),
    m("central.phase.init_ms", "ms", true, L),
    m("central.phase.enqueue_ms", "ms", true, L),
    m("central.phase.identify_ms", "ms", true, L),
    m("central.phase.expansion_ms", "ms", true, L),
    m("central.phase.topdown_ms", "ms", true, L),
    m("central.levels_per_query", "count", true, W),
    m("central.expansions_per_query", "count", true, W),
    m("central.answers_per_query", "count", false, W),
    m("central.shard.search_ms", "ms", true, L),
    m("central.shard.rounds_per_query", "count", true, L),
    m("central.shard.notifications_per_query", "count", true, L),
    m("central.remote.rpcs_per_query", "count", true, W),
    m("central.remote.rpc_mean_us", "us", true, W),
    m("central.remote.dials", "count", true, W),
    m("central.remote.retries", "count", true, W),
    m("central.remote.rounds_per_query", "count", true, W),
    m("central.remote.notifications_per_query", "count", true, W),
    m("central.remote.wire_us_per_query", "us", true, W),
    m("central.remote.worker_us_per_query", "us", true, W),
    m("central.remote.coordinator_cpu_ms_per_query", "ms", true, W),
    m("central.remote.worker_cpu_ms_per_query", "ms", true, W),
    m("central.remote.vs_inprocess_ratio", "ratio", true, W),
    m("harness.sched_lag_p95_ms", "ms", true, H),
    m("harness.trace_overhead_pct", "%", true, H),
    m("harness.oracle_s", "s", true, H),
    m("harness.client_cpu_share", "ratio", true, H),
];

/// The unit of a metric of either table.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .map_or("", |d| d.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn check(table: &[MetricDef], listed: &Value) {
        let listed = listed.as_array().expect("a list of metrics");
        assert_eq!(listed.len(), table.len());
        for (def, entry) in table.iter().zip(listed) {
            assert_eq!(entry["name"], def.name);
            assert_eq!(entry["unit"], def.unit, "{}", def.name);
            let better = if def.lower_is_better {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(entry["better"], better, "{}", def.name);
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let doc = manifest();
        check(END_TO_END, &doc["end_to_end"]);
        check(PER_LAYER, &doc["per_layer"]);
        for entry in doc["end_to_end"].as_array().unwrap() {
            let bound = entry["bound"].as_f64().expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{entry}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads() {
        let doc = manifest();
        let listed: Vec<&str> = doc["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        let specs: Vec<&str> = crate::workload::SPECS.iter().map(|s| s.name).collect();
        assert_eq!(listed, specs);
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_alphabet() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.as_bytes()[0].is_ascii_alphanumeric()
                && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(d.name), "{}", d.name);
            assert!(ok_unit(d.unit), "{} {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} listed twice", d.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
    }
}
