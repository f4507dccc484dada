//! The CLI commands: dataset generation, stats, search and conversion.

use crate::args::ParsedArgs;
use central::QueryBudget;
use datagen::synthetic::SyntheticConfig;
use kgraph::{GraphStats, KnowledgeGraph};
use std::io::Write;
use std::path::Path;
use wikisearch_engine::{Backend, QueryRequest, WikiSearch};

/// The `wikisearch help` text.
pub const HELP: &str = "\
wikisearch — Central Graph keyword search over knowledge graphs

commands:
  generate --dataset tiny|wiki2017-sim|wiki2018-sim --out FILE
           [--entities N] [--seed S]      synthesize a Wikidata-shaped KB
  stats    --graph FILE [--pairs N]       dataset statistics (Table II row)
  search   --graph FILE|--mmap SNAP --query WORDS
           [--top-k K] [--alpha A] [--backend seq|cpu|gpu|dyn]
           [--threads T] [--json true] [--trace true] [--dot true]
           [--explain true] [--cache-capacity BYTES]
           [--timeout-ms MS] [--max-expansions N] [--shards N]
                                           run a top-k keyword search
                                           (a query past its deadline or
                                           expansion cap aborts with a
                                           structured error, 0 = off;
                                           --explain runs the query traced
                                           and prints the per-level
                                           execution trace as JSON;
                                           --shards N > 1 partitions the
                                           graph and answers through the
                                           scatter-gather coordinator
                                           (--backend seq|cpu only))
  convert  --in FILE --out FILE           convert between graph formats
  build-snapshot --in FILE --out FILE.wsnap
                                          compile a dataset into one
                                          memory-mappable snapshot
                                          (graph columns + inverted index
                                          + engine metadata); serve it
                                          zero-copy with --mmap
  serve    --graph FILE|--mmap SNAP [--port P] [--backend B] [--top-k K]
           [--workers W] [--max-requests N] [--cache-capacity BYTES]
           [--timeout-ms MS] [--max-expansions N] [--max-queue Q]
           [--slow-query-ms MS] [--slow-query-log PATH]
           [--slow-query-trace off|on] [--telemetry-interval-ms MS]
           [--shards N]
                                           TCP line-protocol query service
                                           (W concurrent connection workers;
                                           result cache sized by BYTES with
                                           k/m/g suffixes, default 64m,
                                           0 disables; per-query deadline
                                           MS ms / expansion cap N, 0 = off;
                                           at most Q connections queued,
                                           beyond that new connections get
                                           an `overloaded` error; verbs:
                                           QUERY, EXPLAIN (query + trace),
                                           PING, STATS (JSON counters +
                                           latency percentiles),
                                           STATS WINDOW S (rates and
                                           percentile deltas over the last
                                           S seconds), TOP (one-line live
                                           summary: qps, in-flight, cache
                                           hit rate, slowest recent qid),
                                           METRICS (Prometheus text, ends
                                           with `# EOF`), QUIT; every
                                           QUERY/EXPLAIN response carries a
                                           fleet-wide \"qid\";
                                           --slow-query-ms appends a JSON
                                           line per over-threshold query
                                           (qid + phase timings) to PATH,
                                           default slow_queries.jsonl, and
                                           --slow-query-trace on adds the
                                           full per-level trace;
                                           --telemetry-interval-ms sets the
                                           windowed-snapshot cadence,
                                           default 1000, 0 disables;
                                           --shards N > 1 serves through
                                           the sharded scatter-gather
                                           coordinator (it and the remote
                                           flags: seq|cpu only); --mmap SNAP
                                           memory-maps a compiled .wsnap
                                           snapshot and is ready without
                                           rebuilding the index)
           [--shard-workers N | --shard-addr HOST:PORT,…]
           [--degraded-answers true] [--rpc-timeout-ms MS]
           [--rpc-retries N] [--heartbeat-ms MS]
                                           remote shard serving:
                                           --shard-workers N forks and
                                           supervises N shard-worker
                                           processes (respawned if they
                                           die); --shard-addr attaches to
                                           externally managed workers;
                                           a query with an unreachable
                                           shard is refused with
                                           `shard_unavailable` unless
                                           --degraded-answers true, which
                                           serves best-effort answers
                                           marked `degraded`
  shard-worker --graph FILE|--mmap SNAP --shards N --shard-index I
           [--port P] [--watch-stdin true]
                                           serve one shard of the
                                           deterministic N-way partition
                                           to a remote coordinator;
                                           prints `READY <addr> …` once
                                           listening (--port 0 picks an
                                           ephemeral port); with
                                           --watch-stdin true the worker
                                           exits at stdin EOF so a dead
                                           supervisor never leaks it
  help                                    this text

graph files by extension: .tsv (line format), .bin (compact binary),
.json (serde), .nt (RDF N-Triples, read-only), .wsnap (memory-mapped
zero-copy snapshot; answers are byte-identical to every other format).";

/// `wikisearch generate`.
pub fn generate(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    args.allow_only(&["dataset", "out", "entities", "seed"])?;
    let which = args.required("dataset")?;
    let path = args.required("out")?.to_string();
    let mut config = match which {
        "tiny" => SyntheticConfig::tiny(args.get_or("seed", 7u64)?),
        "wiki2017-sim" => SyntheticConfig::wiki2017_sim(),
        "wiki2018-sim" => SyntheticConfig::wiki2018_sim(),
        other => return Err(format!("unknown dataset {other:?}")),
    };
    if let Some(e) = args.optional("entities") {
        config.num_entities = e.parse().map_err(|_| format!("--entities: cannot parse {e:?}"))?;
    }
    if let Some(s) = args.optional("seed") {
        config.seed = s.parse().map_err(|_| format!("--seed: cannot parse {s:?}"))?;
    }
    let ds = config.generate();
    write_graph(&ds.graph, &path)?;
    writeln!(
        out,
        "wrote {} ({} nodes, {} edges) to {path}",
        ds.config.name,
        ds.graph.num_nodes(),
        ds.graph.num_directed_edges()
    )
    .map_err(|e| e.to_string())
}

/// `wikisearch stats`.
pub fn stats(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    args.allow_only(&["graph", "pairs"])?;
    let graph = read_graph(args.required("graph")?)?;
    let pairs = args.get_or("pairs", 500usize)?;
    let s = GraphStats::compute("graph", &graph, pairs, 7);
    writeln!(out, "{}", GraphStats::table_header()).map_err(|e| e.to_string())?;
    writeln!(out, "{}", s.table_row()).map_err(|e| e.to_string())?;
    writeln!(
        out,
        "labels: {}, max degree: {}, avg degree: {:.2}",
        s.labels, s.max_degree, s.avg_degree
    )
    .map_err(|e| e.to_string())
}

/// `wikisearch search`.
pub fn search(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    args.allow_only(&[
        "graph",
        "mmap",
        "query",
        "top-k",
        "alpha",
        "backend",
        "threads",
        "json",
        "trace",
        "dot",
        "explain",
        "cache-capacity",
        "timeout-ms",
        "max-expansions",
        "shards",
    ])?;
    let query = args.required("query")?.to_string();
    let threads: usize = args.get_or("threads", 4)?;
    let shards: usize = args.get_or("shards", 1)?;
    if shards == 0 {
        return Err("--shards must be >= 1".into());
    }
    let backend = Backend::parse(args.optional("backend").unwrap_or("cpu"), threads)?;
    if shards > 1 {
        backend.sharded()?;
    }
    let as_json: bool = args.get_or("json", false)?;
    let as_dot: bool = args.get_or("dot", false)?;
    let as_explain: bool = args.get_or("explain", false)?;
    let budget = budget_from_args(args)?;

    let mut ws = open_engine(args, backend, shards)?;
    let mut params = ws.params().clone();
    params.top_k = args.get_or("top-k", params.top_k)?;
    params.alpha = args.get_or("alpha", params.alpha)?;
    params.validate()?;
    ws.set_params(params);
    // One-shot searches cannot repeat a query, so the cache is off
    // unless asked for (useful for scripted multi-search shells).
    ws.set_cache_capacity(args.get_bytes("cache-capacity", 0)?);

    let request =
        QueryRequest { budget, explain: as_explain, ..QueryRequest::new(&query, ws.params()) };
    let result = ws.execute(&request).map_err(|e| format!("query aborted ({}): {e}", e.kind()))?;
    if as_dot {
        return match result.answers.first() {
            Some(best) => {
                write!(out, "{}", wikisearch_engine::render::render_dot(ws.graph(), best))
                    .map_err(|e| e.to_string())
            }
            None => Err("no answers to render".into()),
        };
    }
    if as_json {
        let answers: Vec<serde_json::Value> = result
            .answers
            .iter()
            .map(|a| {
                serde_json::json!({
                    "central": ws.graph().node_key(a.central),
                    "central_text": ws.graph().node_text(a.central),
                    "depth": a.depth,
                    "score": a.score,
                    "nodes": a.nodes.iter().map(|&v| ws.graph().node_key(v)).collect::<Vec<_>>(),
                    "edges": a.edges.iter().map(|&(x, y)| {
                        (ws.graph().node_key(x), ws.graph().node_key(y))
                    }).collect::<Vec<_>>(),
                })
            })
            .collect();
        let doc = serde_json::json!({
            "query": query,
            "matched_keywords": result.query.num_keywords(),
            "unmatched": result.query.unmatched,
            "kwf": result.kwf,
            "total_ms": result.profile.total().as_secs_f64() * 1e3,
            "answers": answers,
            "trace": result.trace.as_deref().map(serde_json::to_value),
        });
        writeln!(out, "{}", serde_json::to_string_pretty(&doc).unwrap()).map_err(|e| e.to_string())
    } else {
        if !result.query.unmatched.is_empty() {
            writeln!(out, "(no matches for: {})", result.query.unmatched.join(", "))
                .map_err(|e| e.to_string())?;
        }
        writeln!(
            out,
            "{} answers in {:.2} ms",
            result.answers.len(),
            result.profile.total().as_secs_f64() * 1e3
        )
        .map_err(|e| e.to_string())?;
        for (rank, a) in result.answers.iter().enumerate() {
            writeln!(out, "#{rank}:").map_err(|e| e.to_string())?;
            write!(out, "{}", ws.render_answer(a)).map_err(|e| e.to_string())?;
        }
        if args.get_or("trace", false)? {
            writeln!(out, "level  frontier  identified").map_err(|e| e.to_string())?;
            for t in &result.stats.trace {
                writeln!(out, "{:>5}  {:>8}  {:>10}", t.level, t.frontier, t.identified)
                    .map_err(|e| e.to_string())?;
            }
        }
        if let Some(trace) = result.trace.as_deref() {
            writeln!(out, "{}", serde_json::to_string_pretty(trace).unwrap())
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

/// `wikisearch convert`.
pub fn convert(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    args.allow_only(&["in", "out"])?;
    let src = args.required("in")?;
    let dst = args.required("out")?.to_string();
    let graph = read_graph(src)?;
    write_graph(&graph, &dst)?;
    writeln!(
        out,
        "converted {src} -> {dst} ({} nodes, {} edges)",
        graph.num_nodes(),
        graph.num_directed_edges()
    )
    .map_err(|e| e.to_string())
}

/// The per-query budget `--timeout-ms MS` / `--max-expansions N` ask for
/// (0, the default, leaves that bound off) — shared by `search` and
/// `serve`.
pub(crate) fn budget_from_args(args: &ParsedArgs) -> Result<QueryBudget, String> {
    let timeout_ms: u64 = args.get_or("timeout-ms", 0)?;
    let max_expansions: u64 = args.get_or("max-expansions", 0)?;
    let mut budget = QueryBudget::unlimited();
    if timeout_ms > 0 {
        budget = budget.with_timeout(std::time::Duration::from_millis(timeout_ms));
    }
    if max_expansions > 0 {
        budget = budget.with_max_expansions(max_expansions);
    }
    Ok(budget)
}

/// Build the engine the way the flags ask: `--mmap SNAP` maps a
/// compiled `.wsnap` read-only and serves zero-copy, `--graph FILE`
/// parses into the heap. Exactly one of the two must be given; answers
/// are byte-identical either way.
pub fn open_engine(
    args: &ParsedArgs,
    backend: Backend,
    shards: usize,
) -> Result<WikiSearch, String> {
    match (args.optional("mmap"), args.optional("graph")) {
        (Some(_), Some(_)) => Err("--graph and --mmap are mutually exclusive".into()),
        (Some(snap), None) => WikiSearch::open_snapshot_sharded(Path::new(snap), backend, shards),
        (None, _) => {
            Ok(WikiSearch::open_sharded(read_graph(args.required("graph")?)?, backend, shards))
        }
    }
}

/// `wikisearch build-snapshot`: compile a dataset (any loadable format)
/// into one memory-mappable `.wsnap` file embedding the graph columns,
/// the inverted index and the sampled average distance, ready for
/// `search --mmap` / `serve --mmap`.
pub fn build_snapshot(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    args.allow_only(&["in", "out"])?;
    let src = args.required("in")?;
    let dst = args.required("out")?.to_string();
    if !dst.ends_with(".wsnap") {
        return Err(format!("{dst}: snapshot output must use the .wsnap extension"));
    }
    let graph = read_graph(src)?;
    let info = wikisearch_engine::compile_snapshot(&graph, Path::new(&dst))?;
    writeln!(
        out,
        "compiled {src} -> {dst} ({} nodes, {} edges, {} terms, A={:.4}, {} bytes)",
        info.nodes, info.edges, info.terms, info.average_distance, info.file_bytes
    )
    .map_err(|e| e.to_string())
}

/// Read a graph, dispatching on extension. Thin shim over the unified
/// loader ([`kgraph::store::load_graph`]) — the CLI used to carry its
/// own format dispatch, now there is exactly one.
pub fn read_graph(path: &str) -> Result<KnowledgeGraph, String> {
    kgraph::store::load_graph(Path::new(path))
        .map(kgraph::GraphStore::into_graph)
        .map_err(|e| format!("{path}: {e}"))
}

/// Write a graph, dispatching on extension (see
/// [`kgraph::store::save_graph`]).
pub fn write_graph(graph: &KnowledgeGraph, path: &str) -> Result<(), String> {
    kgraph::store::save_graph(graph, Path::new(path)).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {

    use crate::run;

    fn run_cli(line: &str) -> (i32, String) {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        let mut out = Vec::new();
        let code = run(&argv, &mut out);
        (code, String::from_utf8(out).unwrap())
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("ws-cli-{}-{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn generate_stats_search_convert_round_trip() {
        let tsv = tmp("kb.tsv");
        let bin = tmp("kb.bin");
        let (code, out) =
            run_cli(&format!("generate --dataset tiny --entities 300 --seed 5 --out {tsv}"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("312 nodes"), "300 entities + 12 classes: {out}");

        let (code, out) = run_cli(&format!("stats --graph {tsv} --pairs 50"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("# nodes"));

        let (code, out) =
            run_cli(&format!("search --graph {tsv} --query learning --backend seq --top-k 3"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("answers in"));

        let (code, out) = run_cli(&format!("convert --in {tsv} --out {bin}"));
        assert_eq!(code, 0, "{out}");
        let (code, out) =
            run_cli(&format!("search --graph {bin} --query learning --backend seq --top-k 3"));
        assert_eq!(code, 0, "{out}");
        let _ = std::fs::remove_file(tsv);
        let _ = std::fs::remove_file(bin);
    }

    #[test]
    fn json_output_is_valid_json() {
        let tsv = tmp("kb2.tsv");
        run_cli(&format!("generate --dataset tiny --entities 200 --out {tsv}"));
        let (code, out) =
            run_cli(&format!("search --graph {tsv} --query learning --backend seq --json true"));
        assert_eq!(code, 0, "{out}");
        let doc: serde_json::Value = serde_json::from_str(&out).expect("valid json");
        assert!(doc["answers"].is_array());
        let _ = std::fs::remove_file(tsv);
    }

    #[test]
    fn errors_are_reported_with_nonzero_exit() {
        let (code, out) = run_cli("generate --dataset nope --out x.tsv");
        assert_eq!(code, 1);
        assert!(out.contains("unknown dataset"));

        let (code, out) = run_cli("search --graph /does/not/exist.tsv --query x");
        assert_eq!(code, 1);
        assert!(out.contains("exist"));

        let (code, _) = run_cli("frobnicate");
        assert_eq!(code, 1);

        let (code, out) = run_cli("stats");
        assert_eq!(code, 1);
        assert!(out.contains("--graph"));

        let (code, out) = run_cli("stats --grph x.tsv");
        assert_eq!(code, 1);
        assert!(out.contains("unknown flag"));
    }

    #[test]
    fn trace_flag_prints_level_table() {
        let tsv = tmp("kb4.tsv");
        run_cli(&format!("generate --dataset tiny --entities 200 --out {tsv}"));
        let (code, out) =
            run_cli(&format!("search --graph {tsv} --query learning --backend seq --trace true"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("level  frontier  identified"), "{out}");
        let _ = std::fs::remove_file(tsv);
    }

    #[test]
    fn explain_flag_prints_the_execution_trace() {
        let tsv = tmp("kb8.tsv");
        run_cli(&format!("generate --dataset tiny --entities 200 --out {tsv}"));
        let (code, out) =
            run_cli(&format!("search --graph {tsv} --query learning --backend seq --explain true"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("\"levels\""), "trace JSON follows the answers: {out}");

        // With --json, the trace is embedded in the one JSON document.
        let (code, out) = run_cli(&format!(
            "search --graph {tsv} --query learning --backend seq --explain true --json true"
        ));
        assert_eq!(code, 0, "{out}");
        let doc: serde_json::Value = serde_json::from_str(&out).expect("valid json");
        assert!(doc["trace"]["levels"].is_array(), "{out}");

        // Without --explain, the JSON document's trace is null.
        let (code, out) =
            run_cli(&format!("search --graph {tsv} --query learning --backend seq --json true"));
        assert_eq!(code, 0, "{out}");
        let doc: serde_json::Value = serde_json::from_str(&out).expect("valid json");
        assert!(doc["trace"].is_null(), "{out}");
        let _ = std::fs::remove_file(tsv);
    }

    #[test]
    fn ntriples_files_are_readable() {
        let nt = tmp("kb6.nt");
        std::fs::write(
            &nt,
            "<http://kb/XML> <http://kb/related_to> <http://kb/Query_language> .\n",
        )
        .unwrap();
        let (code, out) = run_cli(&format!("stats --graph {nt} --pairs 10"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("# nodes"));
        let _ = std::fs::remove_file(nt);
    }

    #[test]
    fn dot_flag_emits_graphviz() {
        let tsv = tmp("kb5.tsv");
        run_cli(&format!("generate --dataset tiny --entities 200 --out {tsv}"));
        let (code, out) =
            run_cli(&format!("search --graph {tsv} --query learning --backend seq --dot true"));
        assert_eq!(code, 0, "{out}");
        assert!(out.starts_with("graph answer {"), "{out}");
        let _ = std::fs::remove_file(tsv);
    }

    #[test]
    fn budget_flags_abort_with_structured_errors() {
        let tsv = tmp("kb7.tsv");
        let mut b = kgraph::GraphBuilder::new();
        let x = b.add_node("x", "xml");
        let q = b.add_node("q", "query language");
        let s = b.add_node("s", "sql");
        let r = b.add_node("r", "rdf");
        b.add_edge(x, q, "rel");
        b.add_edge(s, q, "rel");
        b.add_edge(r, q, "rel");
        std::fs::write(&tsv, kgraph::io::to_tsv(&b.build())).unwrap();

        let run_argv = |argv: &[&str]| {
            let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            let mut out = Vec::new();
            let code = crate::run(&argv, &mut out);
            (code, String::from_utf8(out).unwrap())
        };

        // A starved expansion cap aborts with a structured error and a
        // nonzero exit instead of a truncated answer.
        let (code, out) = run_argv(&[
            "search",
            "--graph",
            &tsv,
            "--query",
            "xml sql rdf",
            "--backend",
            "seq",
            "--max-expansions",
            "1",
        ]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("budget_exhausted"), "{out}");

        // The same query under generous limits completes normally.
        let (code, out) = run_argv(&[
            "search",
            "--graph",
            &tsv,
            "--query",
            "xml sql rdf",
            "--backend",
            "seq",
            "--timeout-ms",
            "60000",
            "--max-expansions",
            "1000000",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("answers in"), "{out}");
        let _ = std::fs::remove_file(tsv);
    }

    #[test]
    fn help_prints_usage() {
        let (code, out) = run_cli("help");
        assert_eq!(code, 0);
        assert!(out.contains("generate"));
        assert!(out.contains("convert"));
    }

    #[test]
    fn unsupported_extension_is_rejected() {
        let (code, out) = run_cli("generate --dataset tiny --out /tmp/x.parquet");
        assert_eq!(code, 1);
        assert!(out.contains("unsupported extension"));
    }

    #[test]
    fn alpha_validation_flows_through() {
        let tsv = tmp("kb3.tsv");
        run_cli(&format!("generate --dataset tiny --entities 100 --out {tsv}"));
        let (code, out) = run_cli(&format!("search --graph {tsv} --query learning --alpha 7.0"));
        assert_eq!(code, 1);
        assert!(out.contains("alpha"));
        let _ = std::fs::remove_file(tsv);
    }
}
