//! `ledger-layers` — the library probe of the perf ledger.
//!
//! The wire harness measures the program from outside. This probe is
//! the one place the benchmark calls *into* the program: it times the
//! public function behind each layer over the same dataset and request
//! list the server just served, so a per-layer number can be set beside
//! the end-to-end one. Every call into the program is in this file, and
//! these are all of them — a refactor that renames one breaks this file
//! only, the harness then reports the library metrics as `null` and
//! carries on measuring end to end.
//!
//! Pinned functions (crate :: item → metrics):
//!
//!  1. `kgraph::store::load_graph`            → `kgraph.load_ms` (`.bin`), `kgraph.snapshot_open_ms` (`.wsnap`)
//!  2. `textindex::InvertedIndex::build`      → `textindex.build_ms`
//!  3. `wikisearch_engine::WikiSearch::build_with`     → `engine.build_ms`
//!  4. `wikisearch_engine::WikiSearch::open_snapshot`  → `engine.open_snapshot_ms`
//!  5. `wikisearch_engine::WikiSearch::search_with_params` (cache sized by
//!     `set_cache_capacity`, hit detection by `cache_stats`) → `engine.search_us`, `engine.self_us`
//!  6. `textindex::ParsedQuery::parse`        → `textindex.parse_us`, `textindex.postings_per_query`
//!  7. `textindex::normalize_query`           → `textindex.normalize_us`
//!  8. `central::ShardedLruCache::{get, insert}` keyed by `central::QueryKey::new`
//!     → `central.cache.get_hit_us`, `.get_miss_us`, `.insert_us`
//!  9. `central::SessionPool::checkout`       → `central.pool.checkout_us`
//! 10. `central::KeywordSearchEngine::search_session` on `SeqEngine` / `ParCpuEngine`
//!     / `GpuStyleEngine` / `DynParEngine`, reading the `PhaseProfile` it returns
//!     → `central.search_ms`, `central.phase.*_ms`
//! 11. `wikisearch_engine::WikiSearch::open_sharded` + `shard_stats`
//!     → `central.shard.search_ms`, `.rounds_per_query`, `.notifications_per_query`
//!
//! Accessors used along the way: `WikiSearch::{graph, index, params}`,
//! `GraphStore::into_graph`, `Backend::from_str`.
//!
//! Input: `--graph KB.bin [--snapshot KB.wsnap] --requests FILE
//! --backend NAME:THREADS --cache-capacity BYTES --entry-bytes N
//! --shards N --budget-ms MS`. The requests file has one `W<TAB>text`
//! (warm-up, untimed) or `T<TAB>text` (timed) line per request. Output:
//! one JSON object `{metric: number}` on the last line of stdout.

use central::{
    DynParEngine, GpuStyleEngine, KeywordSearchEngine, ParCpuEngine, QueryKey, SeqEngine,
    SessionPool, ShardedLruCache,
};
use kgraph::store::load_graph;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use textindex::{normalize_query, InvertedIndex, ParsedQuery};
use wikisearch_engine::{Backend, WikiSearch};

struct Args {
    graph: PathBuf,
    snapshot: Option<PathBuf>,
    requests: PathBuf,
    backend: Backend,
    cache_capacity: usize,
    entry_bytes: usize,
    shards: usize,
    budget: Duration,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                flags.insert(flag[2..].to_string(), value.clone());
            }
            _ => return Err(format!("expected `--flag value` pairs, got {pair:?}")),
        }
    }
    let need = |name: &str| flags.get(name).cloned().ok_or_else(|| format!("missing --{name}"));
    let number = |name: &str, default: usize| match flags.get(name) {
        Some(v) => v.parse::<usize>().map_err(|_| format!("--{name}: bad number {v:?}")),
        None => Ok(default),
    };
    Ok(Args {
        graph: need("graph")?.into(),
        snapshot: flags.get("snapshot").map(PathBuf::from),
        requests: need("requests")?.into(),
        backend: need("backend")?.parse::<Backend>()?,
        cache_capacity: number("cache-capacity", 0)?,
        entry_bytes: number("entry-bytes", 0)?,
        shards: number("shards", 0)?,
        budget: Duration::from_millis(number("budget-ms", 2500)? as u64),
    })
}

/// The request list: warm-up lines and timed lines.
fn read_requests(path: &Path) -> Result<(Vec<String>, Vec<String>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let (mut warm, mut timed) = (Vec::new(), Vec::new());
    for line in text.lines() {
        match line.split_once('\t') {
            Some(("W", q)) => warm.push(q.to_string()),
            Some(("T", q)) => timed.push(q.to_string()),
            _ => return Err(format!("{}: bad request line {line:?}", path.display())),
        }
    }
    if timed.is_empty() {
        return Err(format!("{}: no timed requests", path.display()));
    }
    Ok((warm, timed))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

fn engine_for(backend: Backend) -> Box<dyn KeywordSearchEngine> {
    match backend {
        Backend::Sequential => Box::new(SeqEngine::new()),
        Backend::ParCpu(t) => Box::new(ParCpuEngine::new(t)),
        Backend::GpuStyle(t) => Box::new(GpuStyleEngine::new(t)),
        Backend::DynPar(t) => Box::new(DynParEngine::new(t)),
    }
}

/// Standalone replay of the workload's key stream through a cache of
/// the workload's capacity: what a hit, a miss and an insert cost with
/// nothing else around them. Entries are charged the mean entry size
/// the live server reported.
fn replay_cache(
    out: &mut BTreeMap<&'static str, f64>,
    args: &Args,
    ws: &WikiSearch,
    warm: &[String],
    timed_list: &[String],
) {
    let (mut hit, mut miss, mut insert) = (Vec::new(), Vec::new(), Vec::new());
    if args.cache_capacity > 0 {
        let cache: ShardedLruCache<QueryKey, Arc<Vec<u8>>> =
            ShardedLruCache::new(args.cache_capacity);
        let payload = Arc::new(vec![0u8; 64]);
        for (i, raw) in warm.iter().chain(timed_list).enumerate() {
            let key = QueryKey::new(normalize_query(raw), ws.params());
            let (found, t_get) = timed(|| cache.get(black_box(&key)));
            let measured = i >= warm.len();
            match found {
                Some(v) => {
                    black_box(v);
                    if measured {
                        hit.push(us(t_get));
                    }
                }
                None => {
                    let bytes = key.approx_bytes() + args.entry_bytes.max(256);
                    let (_, t_ins) = timed(|| cache.insert(key, Arc::clone(&payload), bytes));
                    if measured {
                        miss.push(us(t_get));
                        insert.push(us(t_ins));
                    }
                }
            }
        }
    }
    out.insert("central.cache.get_hit_us", mean(&hit));
    out.insert("central.cache.get_miss_us", mean(&miss));
    out.insert("central.cache.insert_us", mean(&insert));
}

fn run() -> Result<BTreeMap<&'static str, f64>, String> {
    let args = parse_args()?;
    let (warm, timed_list) = read_requests(&args.requests)?;
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();

    // --- storage and build layers -------------------------------------
    let (store, t_load) = timed(|| load_graph(&args.graph));
    let graph = store.map_err(|e| format!("{}: {e}", args.graph.display()))?.into_graph();
    out.insert("kgraph.load_ms", ms(t_load));
    let (index, t_index) = timed(|| InvertedIndex::build(&graph));
    black_box(&index);
    drop(index);
    out.insert("textindex.build_ms", ms(t_index));
    let sharded_twin_graph = (args.shards > 1).then(|| graph.clone());
    let (mut ws, t_build) = timed(|| WikiSearch::build_with(graph, args.backend));
    out.insert("engine.build_ms", ms(t_build));
    let (mut open_ms, mut snap_open_ms) = (0.0, 0.0);
    if let Some(snap) = &args.snapshot {
        let (store, t) = timed(|| load_graph(snap));
        drop(store.map_err(|e| format!("{}: {e}", snap.display()))?);
        snap_open_ms = ms(t);
        let (mapped, t) = timed(|| WikiSearch::open_snapshot(snap, args.backend));
        // The server serves the mapped engine, so the probe does too.
        ws = mapped?;
        open_ms = ms(t);
    }
    out.insert("kgraph.snapshot_open_ms", snap_open_ms);
    out.insert("engine.open_snapshot_ms", open_ms);
    ws.set_cache_capacity(args.cache_capacity);
    let params = ws.params().clone();

    // --- the request list through the facade and its children ---------
    for raw in &warm {
        black_box(ws.search_with_params(raw, &params));
    }
    let engine = engine_for(args.backend);
    let pool = SessionPool::new();
    let hits_now = |ws: &WikiSearch| ws.cache_stats().map_or(0, |c| c.hits);
    let (mut search, mut parse, mut normalize, mut postings) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut central_ms, mut was_hit) = (Vec::new(), Vec::new());
    let mut phases = [0.0f64; 5];
    let started = Instant::now();
    for raw in &timed_list {
        if started.elapsed() >= args.budget && !search.is_empty() {
            break;
        }
        let before = hits_now(&ws);
        let (result, t) = timed(|| ws.search_with_params(black_box(raw), &params));
        black_box(&result);
        search.push(us(t));
        let hit = hits_now(&ws) > before;
        was_hit.push(hit);

        let (parsed, t) = timed(|| ParsedQuery::parse(ws.index(), black_box(raw)));
        parse.push(us(t));
        postings.push(parsed.groups.iter().map(|g| g.nodes.len()).sum::<usize>() as f64);
        let (terms, t) = timed(|| normalize_query(black_box(raw)));
        black_box(terms);
        normalize.push(us(t));

        // What the facade ran below its cache on a miss, on its own.
        if !hit {
            let mut session = pool.checkout();
            let (outcome, t) =
                timed(|| engine.search_session(&mut session, ws.graph(), &parsed, &params));
            central_ms.push(ms(t));
            let p = outcome.profile;
            for (slot, d) in
                phases.iter_mut().zip([p.init, p.enqueue, p.identify, p.expansion, p.top_down])
            {
                *slot += ms(d);
            }
        }
    }
    let misses = central_ms.len().max(1) as f64;
    out.insert("engine.search_us", mean(&search));
    out.insert("textindex.parse_us", mean(&parse));
    out.insert("textindex.normalize_us", mean(&normalize));
    out.insert("textindex.postings_per_query", mean(&postings));
    out.insert("central.search_ms", mean(&central_ms));
    for (name, total) in [
        "central.phase.init_ms",
        "central.phase.enqueue_ms",
        "central.phase.identify_ms",
        "central.phase.expansion_ms",
        "central.phase.topdown_ms",
    ]
    .into_iter()
    .zip(phases)
    {
        out.insert(
            name,
            if central_ms.is_empty() {
                0.0
            } else {
                total / misses
            },
        );
    }

    // --- pool and cache on their own -----------------------------------
    let rounds = 20_000;
    let (_, t) = timed(|| {
        for _ in 0..rounds {
            black_box(pool.checkout());
        }
    });
    let checkout_us = us(t) / rounds as f64;
    out.insert("central.pool.checkout_us", checkout_us);
    replay_cache(&mut out, &args, &ws, &warm, &timed_list);

    // engine.self_us: the facade's own time, i.e. its mean call minus
    // the mean of what it calls (per request: parse + normalize + cache
    // probe, plus on a miss the checkout, the search and the insert).
    let n = search.len() as f64;
    let hit_share = was_hit.iter().filter(|&&h| h).count() as f64 / n;
    let cache_on = args.cache_capacity > 0;
    let per_hit = out["central.cache.get_hit_us"];
    let per_miss = if cache_on {
        out["central.cache.get_miss_us"] + out["central.cache.insert_us"]
    } else {
        0.0
    } + checkout_us
        + out["central.search_ms"] * 1e3;
    let children = out["textindex.parse_us"]
        + out["textindex.normalize_us"] * cache_on as u8 as f64
        + hit_share * per_hit
        + (1.0 - hit_share) * per_miss;
    out.insert("engine.self_us", out["engine.search_us"] - children);

    // --- the in-process sharded twin (remote workloads only) -----------
    let (mut shard_ms, mut rounds_pq, mut notes_pq) = (0.0, 0.0, 0.0);
    if let Some(graph) = sharded_twin_graph {
        let twin = WikiSearch::open_sharded(graph, args.backend, args.shards);
        for raw in &warm {
            black_box(twin.search_with_params(raw, &params));
        }
        let base = twin.shard_stats().ok_or("open_sharded produced no shard coordinator")?;
        let mut times = Vec::new();
        let started = Instant::now();
        for raw in &timed_list {
            if started.elapsed() >= args.budget / 2 && !times.is_empty() {
                break;
            }
            let (r, t) = timed(|| twin.search_with_params(black_box(raw), &params));
            black_box(r);
            times.push(ms(t));
        }
        let now = twin.shard_stats().ok_or("shard coordinator vanished")?;
        let q = times.len() as f64;
        shard_ms = mean(&times);
        rounds_pq = (now.rounds - base.rounds) as f64 / q;
        notes_pq = (now.notifications - base.notifications) as f64 / q;
    }
    out.insert("central.shard.search_ms", shard_ms);
    out.insert("central.shard.rounds_per_query", rounds_pq);
    out.insert("central.shard.notifications_per_query", notes_pq);
    Ok(out)
}

fn main() {
    match run() {
        Ok(metrics) => {
            let fields: Vec<String> =
                metrics.iter().map(|(k, v)| format!("\"{k}\": {v:?}")).collect();
            println!("{{{}}}", fields.join(", "));
        }
        Err(e) => {
            eprintln!("ledger-layers: {e}");
            std::process::exit(1);
        }
    }
}
