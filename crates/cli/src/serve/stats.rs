//! The metric table and its four renderers.
//!
//! Every counter, gauge and histogram the server exposes is declared
//! once, as a [`Row`]: its Prometheus family and help text, its kind,
//! its key in the `STATS` document, and how to read it out of the
//! [`Snapshot`] gathered for the request. The rows are grouped in blocks
//! — one per `STATS` object, each over the plain-data stats struct of
//! the layer it reports — and the engine's own counters come straight
//! from `central::metrics::ENGINE_COUNTERS`, where they are declared.
//! Four verbs render the table:
//!
//! * `STATS` → one JSON line: the serving counters (queries served, the
//!   fault/overload counters `shed`, `timeouts`, `budget_exhausted`,
//!   `panics`, `oversized`, `slow_queries`, `shard_unavailable`), the
//!   `engine` counters, `latency` and `expansions` percentiles, then one
//!   object per layer — `pool`, `cache`, `shards`, `remote`,
//!   `telemetry`. A layer that is switched off is JSON `null` here and
//!   absent from `METRICS`: `cache` under `--cache-capacity 0`, `shards`
//!   under `--shards 1`, `remote` without remote workers;
//! * `METRICS` → the same rows in Prometheus text exposition format —
//!   multiple lines, terminated by a literal `# EOF` line so a
//!   line-protocol client knows where the response ends;
//! * `STATS WINDOW <seconds>` → one JSON line with *windowed* rates and
//!   percentiles over (up to) the last N seconds, computed by
//!   subtracting two periodic telemetry samples — qps, cache hit rate
//!   and last-N-seconds latency/expansion quantiles instead of the
//!   since-boot tail. Needs two live samples; answers a structured
//!   error until then;
//! * `TOP` → one JSON line with the operator's at-a-glance view:
//!   queries in flight right now, qps and cache hit rate over the last
//!   ten seconds (when the sampler has two samples), query IDs issued,
//!   the slowest recently answered query (`{"qid", "wall_ms"}`), and
//!   per-shard breaker gauges under remote serving.
//!
//! All four are diagnostic: they never count toward `--max-requests`.
//!
//! ## Windowed telemetry
//!
//! A background sampler publishes one snapshot of the metrics registry
//! every `--telemetry-interval-ms` (default 1000, `0` disables) into a
//! bounded deque of the last ~5 minutes of samples. `STATS WINDOW N`
//! subtracts the two samples spanning the last N seconds — rates and
//! percentiles *of the window*, not since boot — and `TOP` reads the
//! same samples for its ten-second pulse. Sampling is off the query hot
//! path entirely: queries never record a sample (only the sampler
//! thread does), and a differential proptest pins that telemetry on vs
//! off leaves answers, scores, stats and error classes byte-identical.

use super::protocol::Doc;
use super::Shared;
use central::metrics::{
    prometheus_counter, prometheus_gauge, prometheus_histogram, prometheus_labeled_gauge,
    ENGINE_COUNTERS,
};
use central::{
    CacheStats, HistogramSnapshot, MetricsSnapshot, PoolStats, RemoteStats, ShardedStats,
};
use serde_json::{json, Value};
use std::sync::atomic::Ordering;

/// Everything the renderers read, gathered once per request: the plain
/// snapshots the engine's layers hand out (`None` for a layer that is
/// off) plus the server's own counters and identity.
#[derive(Default)]
pub(super) struct Snapshot {
    engine: MetricsSnapshot,
    pool: PoolStats,
    cache: Option<CacheStats>,
    shards: Option<ShardedStats>,
    remote: Option<Remote>,
    memory_mapped: bool,
    served: u64,
    shed: u64,
    panics: u64,
    oversized: u64,
    slow_queries: u64,
    interval_ms: u64,
    samples: u64,
    capacity: u64,
    in_flight: u64,
    qids_issued: u64,
    /// `(qid, wall_us)` of the slowest recently answered query.
    slowest_recent: Option<(u64, u64)>,
    /// The label body of `ws_build_info`.
    build_info: String,
    uptime_s: f64,
}

/// The remote coordinator's counters plus what only the server knows
/// about the fleet.
#[derive(Default)]
struct Remote {
    stats: RemoteStats,
    /// Per-shard breaker gauges (0 closed, 1 half-open, 2 open).
    breakers: Vec<f64>,
    /// Live PIDs and respawn count of a supervised (`--shard-workers`)
    /// fleet.
    workers: Option<(Vec<u32>, u64)>,
}

impl Snapshot {
    pub(super) fn gather(shared: &Shared<'_>) -> Snapshot {
        let (ws, counters) = (shared.ws, shared.counters);
        let telemetry = ws.telemetry();
        Snapshot {
            engine: ws.metrics_snapshot(),
            pool: ws.session_pool().stats(),
            cache: ws.cache_stats(),
            shards: ws.shard_stats(),
            remote: ws.remote_stats().map(|stats| Remote {
                stats,
                breakers: ws
                    .remote_breaker_states()
                    .map(|states| states.iter().map(|s| s.gauge()).collect())
                    .unwrap_or_default(),
                workers: shared.supervisor.map(|sup| (sup.pids(), sup.respawns())),
            }),
            memory_mapped: ws.is_memory_mapped(),
            served: counters.served.load(Ordering::SeqCst) as u64,
            shed: counters.shed.load(Ordering::SeqCst),
            panics: counters.panics.load(Ordering::SeqCst),
            oversized: counters.oversized.load(Ordering::SeqCst),
            slow_queries: counters.slow_queries.load(Ordering::SeqCst),
            interval_ms: telemetry.interval_ms,
            samples: telemetry.samples(),
            capacity: telemetry.capacity() as u64,
            in_flight: telemetry.in_flight().current(),
            qids_issued: ws.query_ids_issued(),
            slowest_recent: telemetry.slowest_recent(),
            build_info: shared.build_info.clone(),
            uptime_s: shared.started.elapsed().as_secs_f64(),
        }
    }
}

/// What a row reads out of its block's source.
enum V<'a> {
    /// A number — or, for a `STATS`-only row, any JSON document. Integers
    /// and floats stay apart: `STATS` prints `3` and `3.0` differently.
    Json(Value),
    Histogram(&'a HistogramSnapshot),
    /// `(label body, value)` samples of a labeled gauge family.
    Labeled(Vec<(String, f64)>),
}

impl<T: Into<Value>> From<T> for V<'_> {
    fn from(scalar: T) -> Self {
        V::Json(scalar.into())
    }
}

/// How `METRICS` types a row (and, for histograms, how both documents
/// scale it).
#[derive(Clone, Copy)]
enum Kind {
    Counter,
    Gauge,
    /// Observations times `scale` are in the Prometheus base unit; with
    /// `ms` the `STATS` quantile block reports microsecond observations
    /// in milliseconds (`mean_ms`, `p50_ms`, …).
    Histogram {
        scale: f64,
        ms: bool,
    },
}

/// What one exposed metric is called and how it is typed.
struct Spec {
    /// Prometheus family name; `""` keeps the row out of `METRICS`.
    family: &'static str,
    /// Key inside the block's `STATS` object; `""` keeps it out of `STATS`.
    key: &'static str,
    /// Prometheus `# HELP` text.
    help: &'static str,
    kind: Kind,
}

/// One exposed metric: its [`Spec`] and how to read it from a block
/// source `T`.
struct Row<T: 'static> {
    spec: Spec,
    read: for<'a> fn(&'a T) -> V<'a>,
}

const fn counter(family: &'static str, key: &'static str) -> Spec {
    Spec { family, key, help: "", kind: Kind::Counter }
}

/// A gauge — also the constructor of labeled gauge families, whose
/// `read` returns [`V::Labeled`].
const fn gauge(family: &'static str, key: &'static str) -> Spec {
    Spec { family, key, help: "", kind: Kind::Gauge }
}

const fn histogram(family: &'static str, key: &'static str, scale: f64) -> Spec {
    Spec { family, key, help: "", kind: Kind::Histogram { scale, ms: false } }
}

/// A histogram of microseconds whose `STATS` quantile block is reported
/// in milliseconds.
const fn histogram_ms(family: &'static str, key: &'static str) -> Spec {
    Spec { family, key, help: "", kind: Kind::Histogram { scale: 1e-6, ms: true } }
}

/// A `STATS`-only field.
const fn field(key: &'static str) -> Spec {
    gauge("", key)
}

impl Spec {
    const fn help(mut self, help: &'static str) -> Self {
        self.help = help;
        self
    }

    const fn read<T>(self, read: for<'a> fn(&'a T) -> V<'a>) -> Row<T> {
        Row { spec: self, read }
    }
}

/// The server's own counters — flat at the top of `STATS`, last in
/// `METRICS`. Budget trips and shard refusals are counted once, by the
/// engine registry (every `Err` it returns bumps it).
static SERVER: &[Row<Snapshot>] = &[
    field("memory_mapped").read(|s| s.memory_mapped.into()),
    counter("ws_server_served_total", "served")
        .help("Successful query responses.")
        .read(|s| s.served.into()),
    counter("ws_server_shed_total", "shed")
        .help("Connections refused because the worker queue was full.")
        .read(|s| s.shed.into()),
    field("timeouts").read(|s| s.engine.deadline_exceeded.into()),
    field("budget_exhausted").read(|s| s.engine.budget_exhausted.into()),
    counter("ws_server_panics_total", "panics")
        .help("Queries that panicked (sessions quarantined).")
        .read(|s| s.panics.into()),
    counter("ws_server_oversized_total", "oversized")
        .help("Request lines rejected for exceeding the size cap.")
        .read(|s| s.oversized.into()),
    counter("ws_server_slow_queries_total", "slow_queries")
        .help("Queries at or over the slow-query threshold.")
        .read(|s| s.slow_queries.into()),
    counter("ws_server_shard_unavailable_total", "shard_unavailable")
        .help("Queries refused at the server because a remote shard was down.")
        .read(|s| s.engine.shard_unavailable.into()),
];

/// The engine registry's histograms — `latency` / `expansions` at the
/// top of `STATS` and of `STATS WINDOW`.
static ENGINE_HISTOGRAMS: &[Row<MetricsSnapshot>] = &[
    histogram_ms("ws_latency_seconds", "latency")
        .help("End-to-end query latency (successful queries).")
        .read(|m| V::Histogram(&m.latency_us)),
    histogram("ws_expansions", "expansions", 1.0)
        .help("Expansion units per computed search.")
        .read(|m| V::Histogram(&m.expansions)),
];

/// `pool`: the facade's session pool.
static POOL: &[Row<PoolStats>] = &[
    counter("ws_pool_queries_total", "queries_run")
        .help("Queries completed through pooled sessions.")
        .read(|p| p.queries_run.into()),
    gauge("ws_pool_sessions_created", "sessions_created")
        .help("Sessions ever created (concurrency peak).")
        .read(|p| p.sessions_created.into()),
    gauge("ws_pool_idle_sessions", "idle_sessions")
        .help("Sessions idle in the freelist.")
        .read(|p| p.idle_sessions.into()),
    gauge("ws_pool_in_flight", "in_flight")
        .help("Sessions currently checked out.")
        .read(|p| p.in_flight.into()),
    counter("ws_pool_quarantined_total", "quarantined")
        .help("Sessions destroyed after a panic.")
        .read(|p| p.quarantined.into()),
];

/// `cache`: the result cache.
static CACHE: &[Row<CacheStats>] = &[
    counter("ws_cache_lookups_total", "lookups")
        .help("Result-cache gets.")
        .read(|c| c.lookups.into()),
    field("hits").read(|c| c.hits.into()),
    field("misses").read(|c| c.misses.into()),
    field("inserts").read(|c| c.inserts.into()),
    counter("ws_cache_evictions_total", "evictions")
        .help("Result-cache evictions.")
        .read(|c| c.evictions.into()),
    field("bypasses").read(|c| c.bypasses.into()),
    gauge("ws_cache_entries", "entries")
        .help("Result-cache entries resident.")
        .read(|c| c.entries.into()),
    gauge("ws_cache_bytes", "bytes")
        .help("Result-cache bytes resident (estimate).")
        .read(|c| c.bytes.into()),
    field("capacity_bytes").read(|c| c.capacity_bytes.into()),
    field("shards").read(|c| c.shards.into()),
];

/// `shards`: the shard coordinator's boundary exchange, over in-process
/// lanes (`remote` carries it for a worker fleet).
static SHARDS: &[Row<ShardedStats>] = &[
    gauge("ws_shard_count", "shards")
        .help("Graph shards in the scatter-gather plan.")
        .read(|s| s.shards.into()),
    counter("ws_shard_rounds_total", "rounds")
        .help("Cross-shard frontier-exchange rounds.")
        .read(|s| s.rounds.into()),
    counter("ws_shard_notifications_total", "notifications")
        .help("Boundary hit notifications broadcast to replica holders.")
        .read(|s| s.notifications.into()),
    counter("ws_shard_notifications_suppressed_total", "notifications_suppressed")
        .help("Duplicate boundary notifications pruned before broadcast.")
        .read(|s| s.notifications_suppressed.into()),
];

/// `remote`: the remote-shard coordinator and its fleet.
static REMOTE: &[Row<Remote>] = &[
    gauge("ws_remote_shards", "shards")
        .help("Remote shard workers behind the coordinator.")
        .read(|r| r.stats.exchange.shards.into()),
    counter("ws_remote_rpcs_total", "rpcs")
        .help("RPCs issued to remote shard workers (queries, handshakes, probes).")
        .read(|r| r.stats.rpcs.into()),
    counter("ws_remote_dials_total", "dials")
        .help("Fresh worker connections dialed (including respawn re-dials).")
        .read(|r| r.stats.dials.into()),
    counter("ws_remote_retries_total", "retries")
        .help("Whole-query retries after a shard RPC failure.")
        .read(|r| r.stats.retries.into()),
    counter("ws_remote_probes_total", "probes")
        .help("Out-of-band health probes sent to workers.")
        .read(|r| r.stats.probes.into()),
    counter("ws_remote_probe_failures_total", "probe_failures")
        .help("Health probes that confirmed a worker failure.")
        .read(|r| r.stats.probe_failures.into()),
    counter("ws_remote_breaker_opens_total", "breaker_opens")
        .help("Per-shard circuit-breaker open transitions.")
        .read(|r| r.stats.breaker_opens.into()),
    counter("ws_remote_degraded_queries_total", "degraded_queries")
        .help("Queries answered best-effort with at least one shard skipped.")
        .read(|r| r.stats.degraded_queries.into()),
    counter("ws_remote_rounds_total", "rounds")
        .help("Cross-shard frontier-exchange rounds over the wire.")
        .read(|r| r.stats.exchange.rounds.into()),
    field("notifications").read(|r| r.stats.exchange.notifications.into()),
    field("notifications_suppressed").read(|r| r.stats.exchange.notifications_suppressed.into()),
    field("breaker").read(|r| V::Json(json!(r.stats.breaker))),
    histogram("ws_remote_rpc_seconds", "rpc_latency_us", 1e-6)
        .help("Per-RPC round-trip latency to remote shard workers.")
        .read(|r| V::Histogram(&r.stats.rpc_latency_us)),
    gauge("ws_remote_breaker_state", "")
        .help("Per-shard breaker state (0 closed, 1 half-open, 2 open).")
        .read(|r| {
            V::Labeled(
                r.breakers
                    .iter()
                    .enumerate()
                    .map(|(i, &g)| (format!("shard=\"{i}\""), g))
                    .collect(),
            )
        }),
    field("workers").read(|r| {
        V::Json(match &r.workers {
            Some((pids, respawns)) => json!({ "pids": pids, "respawns": respawns }),
            None => Value::Null,
        })
    }),
];

/// `telemetry`: the sampler, the in-flight gauge and the qid allocator.
static TELEMETRY: &[Row<Snapshot>] = &[
    gauge("ws_telemetry_interval_ms", "interval_ms")
        .help("Background sampler period (0 = disabled).")
        .read(|s| s.interval_ms.into()),
    counter("ws_telemetry_samples_total", "samples")
        .help("Periodic telemetry samples published.")
        .read(|s| s.samples.into()),
    gauge("ws_telemetry_ring_capacity", "capacity")
        .help("Telemetry sample-ring capacity (slots).")
        .read(|s| s.capacity.into()),
    gauge("ws_telemetry_in_flight", "in_flight")
        .help("Queries executing right now.")
        .read(|s| s.in_flight.into()),
    counter("ws_telemetry_query_ids_total", "qids_issued")
        .help("Fleet-wide query IDs issued.")
        .read(|s| s.qids_issued.into()),
    field("slowest_recent").read(|s| V::Json(slowest_recent(s))),
];

/// Process identity — `METRICS` only.
static IDENTITY: &[Row<Snapshot>] = &[
    gauge("ws_build_info", "")
        .help("Build/runtime identity (the value is always 1; the labels carry the facts).")
        .read(|s| V::Labeled(vec![(s.build_info.clone(), 1.0)])),
    gauge("ws_uptime_seconds", "")
        .help("Seconds since the server started.")
        .read(|s| s.uptime_s.into()),
];

/// `{"qid", "wall_ms"}` of the slowest recently answered query, `null`
/// before the first.
fn slowest_recent(s: &Snapshot) -> Value {
    match s.slowest_recent {
        Some((qid, wall_us)) => json!({ "qid": qid, "wall_ms": wall_us as f64 / 1e3 }),
        None => Value::Null,
    }
}

/// The `{count, mean, p50, p95, p99}` block of one histogram; with `ms`,
/// microsecond observations are reported in (fractional) milliseconds
/// under `mean_ms` / `p50_ms` / ….
fn quantiles(h: &HistogramSnapshot, ms: bool) -> Value {
    let suffix = if ms { "_ms" } else { "" };
    let scaled = |v: u64| if ms { json!(v as f64 / 1e3) } else { json!(v) };
    let mut doc = Doc::default();
    doc.put("count", json!(h.count));
    doc.put(&format!("mean{suffix}"), json!(if ms { h.mean() / 1e3 } else { h.mean() }));
    doc.put(&format!("p50{suffix}"), scaled(h.percentile(0.50)));
    doc.put(&format!("p95{suffix}"), scaled(h.percentile(0.95)));
    doc.put(&format!("p99{suffix}"), scaled(h.percentile(0.99)));
    doc.into()
}

/// Append one family to the exposition.
fn expose_one(out: &mut String, family: &str, help: &str, kind: Kind, value: V<'_>) {
    match (kind, value) {
        (Kind::Histogram { scale, .. }, V::Histogram(h)) => {
            prometheus_histogram(out, family, help, h, scale)
        }
        (_, V::Labeled(samples)) => prometheus_labeled_gauge(out, family, help, &samples),
        (Kind::Counter, V::Json(Value::U64(n))) => prometheus_counter(out, family, help, n),
        (_, V::Json(n)) => {
            if let Some(x) = n.as_f64() {
                prometheus_gauge(out, family, help, x)
            }
        }
        (_, V::Histogram(_)) => {}
    }
}

/// Append every `METRICS` row of one block; nothing for a layer that is
/// off.
fn expose<T>(out: &mut String, rows: &[Row<T>], source: Option<&T>) {
    let Some(source) = source else { return };
    for row in rows.iter().filter(|row| !row.spec.family.is_empty()) {
        expose_one(out, row.spec.family, row.spec.help, row.spec.kind, (row.read)(source));
    }
}

/// Append every `STATS` row of one block to `doc`.
fn put_rows<T>(doc: &mut Doc, rows: &[Row<T>], source: &T) {
    for row in rows.iter().filter(|row| !row.spec.key.is_empty()) {
        let value = match ((row.read)(source), row.spec.kind) {
            (V::Json(value), _) => value,
            (V::Histogram(h), Kind::Histogram { ms, .. }) => quantiles(h, ms),
            (V::Histogram(_) | V::Labeled(_), _) => continue,
        };
        doc.put(row.spec.key, value);
    }
}

/// One block as a `STATS` object; `null` for a layer that is off.
fn block<T>(rows: &[Row<T>], source: Option<&T>) -> Value {
    let Some(source) = source else {
        return Value::Null;
    };
    let mut doc = Doc::default();
    put_rows(&mut doc, rows, source);
    doc.into()
}

/// The `STATS` response.
pub(super) fn stats(s: &Snapshot) -> Value {
    let mut doc = Doc::default();
    put_rows(&mut doc, SERVER, s);
    let mut engine = Doc::default();
    for (counter, value) in ENGINE_COUNTERS.iter().zip(s.engine.counters()) {
        engine.put(counter.name, json!(value));
    }
    doc.put("engine", engine.into());
    put_rows(&mut doc, ENGINE_HISTOGRAMS, &s.engine);
    doc.put("pool", block(POOL, Some(&s.pool)));
    doc.put("cache", block(CACHE, s.cache.as_ref()));
    doc.put("shards", block(SHARDS, s.shards.as_ref()));
    doc.put("remote", block(REMOTE, s.remote.as_ref()));
    doc.put("telemetry", block(TELEMETRY, Some(s)));
    doc.into()
}

/// The `METRICS` response: Prometheus text exposition, terminated by a
/// literal `# EOF` line (the line-protocol framing for this one
/// multi-line response).
pub(super) fn metrics(s: &Snapshot) -> String {
    let mut out = String::new();
    expose(&mut out, IDENTITY, Some(s));
    for (counter, value) in ENGINE_COUNTERS.iter().zip(s.engine.counters()) {
        expose_one(&mut out, counter.family, counter.help, Kind::Counter, value.into());
    }
    expose(&mut out, ENGINE_HISTOGRAMS, Some(&s.engine));
    expose(&mut out, POOL, Some(&s.pool));
    expose(&mut out, CACHE, s.cache.as_ref());
    expose(&mut out, SHARDS, s.shards.as_ref());
    expose(&mut out, REMOTE, s.remote.as_ref());
    expose(&mut out, TELEMETRY, Some(s));
    expose(&mut out, SERVER, Some(s));
    out.push_str("# EOF\n");
    out
}

/// The `STATS WINDOW <seconds>` response: the engine counters and
/// histograms *of the window* — the newest telemetry sample minus the
/// newest sample at least that much older — with the derived rates
/// beside the counters they derive from. A structured error until the
/// sampler has published two samples.
pub(super) fn stats_window(telemetry: &central::Telemetry, secs: u64) -> Value {
    let Some(w) = telemetry.window(secs.saturating_mul(1_000_000)) else {
        return json!({
            "error": "window unavailable",
            "detail": "the windowed view needs two telemetry samples; \
                       is --telemetry-interval-ms > 0?",
        });
    };
    let mut doc = Doc::default();
    doc.put("window_s", json!(secs));
    doc.put("span_ms", json!(w.span_us as f64 / 1e3));
    doc.put("samples", json!(w.samples as u64));
    for (counter, value) in ENGINE_COUNTERS.iter().zip(w.delta.counters()) {
        doc.put(counter.name, json!(value));
        match counter.name {
            "queries" => {
                doc.put("served", json!(w.served));
                doc.put("qps", json!(w.qps()));
            }
            "cache_misses" => doc.put("cache_hit_rate", json!(w.cache_hit_rate())),
            _ => {}
        }
    }
    put_rows(&mut doc, ENGINE_HISTOGRAMS, &w.delta);
    doc.into()
}

/// The `TOP` response: a hand-picked handful of the snapshot plus the
/// ten-second pulse. `qps` and `cache_hit_rate` are `null` until the
/// sampler has two samples; `slowest_recent` is `null` until a query has
/// been answered; `breakers` is `null` without remote serving.
pub(super) fn top(s: &Snapshot, telemetry: &central::Telemetry) -> Value {
    let window = telemetry.window(10_000_000);
    let mut doc = Doc::default();
    doc.put("in_flight", json!(s.in_flight));
    doc.put("served", json!(s.served));
    doc.put("qids_issued", json!(s.qids_issued));
    doc.put("samples", json!(s.samples));
    doc.put("qps", json!(window.as_ref().map(|w| w.qps())));
    doc.put("cache_hit_rate", json!(window.as_ref().map(|w| w.cache_hit_rate())));
    doc.put("slowest_recent", slowest_recent(s));
    doc.put("breakers", json!(s.remote.as_ref().map(|r| &r.breakers)));
    doc.into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::query::answer_query;
    use crate::serve::tests::tiny_engine;
    use crate::serve::ServeCounters;
    use central::TelemetrySample;
    use std::collections::BTreeSet;
    use wikisearch_engine::{QueryRequest, WikiSearch};

    /// A snapshot with every layer switched on, so every row renders.
    fn every_layer() -> Snapshot {
        Snapshot {
            cache: Some(CacheStats::default()),
            shards: Some(ShardedStats::default()),
            remote: Some(Remote { breakers: vec![0.0], ..Remote::default() }),
            build_info: "version=\"0\"".into(),
            ..Snapshot::default()
        }
    }

    /// Dotted `STATS` paths of `v`; a quantile block counts as one leaf.
    fn paths(prefix: &str, v: &Value, out: &mut Vec<String>) {
        match v.as_object() {
            Some(entries) if v.get("count").is_none() => {
                for (key, child) in entries {
                    let path = if prefix.is_empty() {
                        key.clone()
                    } else {
                        format!("{prefix}.{key}")
                    };
                    paths(&path, child, out);
                }
            }
            _ => out.push(prefix.to_owned()),
        }
    }

    /// `(family, kind)` of every `# TYPE` line of an exposition.
    fn families(exposition: &str) -> Vec<(String, String)> {
        exposition
            .lines()
            .filter_map(|line| line.strip_prefix("# TYPE "))
            .map(|rest| {
                let (family, kind) = rest.split_once(' ').expect("TYPE lines name a kind");
                (family.to_owned(), kind.to_owned())
            })
            .collect()
    }

    #[test]
    fn every_row_has_a_unique_valid_name_and_a_unique_stats_path() {
        let s = every_layer();
        let exposition = metrics(&s);
        let families = families(&exposition);
        assert!(families.len() >= 45, "every block rendered: {exposition}");
        let mut seen = BTreeSet::new();
        for (family, _) in &families {
            let mut chars = family.chars();
            let head = chars.next().expect("family names are not empty");
            assert!(head.is_ascii_alphabetic() || head == '_' || head == ':', "{family}");
            assert!(chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'), "{family}");
            assert!(seen.insert(family.as_str()), "family {family} is declared twice");
            let help = format!("# HELP {family} ");
            let text = exposition.lines().find_map(|l| l.strip_prefix(help.as_str()));
            assert!(text.is_some_and(|t| t.ends_with('.')), "{family} has no help sentence");
        }
        let mut listed = Vec::new();
        paths("", &stats(&s), &mut listed);
        let unique: BTreeSet<&String> = listed.iter().collect();
        assert_eq!(unique.len(), listed.len(), "a STATS path is rendered twice: {listed:?}");
        assert!(listed.iter().any(|p| p == "shards.notifications_suppressed"), "{listed:?}");
    }

    #[test]
    fn layers_that_are_off_are_null_in_stats_and_absent_from_metrics() {
        let off = Snapshot::default();
        let doc = stats(&off);
        let exposition = metrics(&off);
        for (layer, prefix) in [
            ("cache", "ws_cache_lookups"),
            ("shards", "ws_shard_count"),
            ("remote", "ws_remote_"),
        ] {
            assert!(doc[layer].is_null(), "{layer}: {doc}");
            assert!(!exposition.contains(prefix), "{prefix}* leaked:\n{exposition}");
        }
        assert!(doc["pool"].is_object() && doc["telemetry"].is_object(), "{doc}");
        assert!(exposition.ends_with("# EOF\n"));
    }

    #[test]
    fn readme_documents_every_stats_field_and_every_metrics_family() {
        let readme = include_str!("../../../../README.md");
        let s = every_layer();
        let mut listed = Vec::new();
        paths("", &stats(&s), &mut listed);
        for path in listed {
            assert!(readme.contains(&format!("`{path}`")), "README's STATS table lacks `{path}`");
        }
        for (family, kind) in families(&metrics(&s)) {
            let row = format!("| `{family}` | {kind} |");
            assert!(readme.contains(&row), "README's METRICS table lacks {row:?}");
        }
    }

    #[test]
    fn top_reports_in_flight_and_the_slowest_recent_query() {
        let ws = tiny_engine();
        let counters = ServeCounters::default();
        let top_of = |ws: &WikiSearch| {
            let s = Snapshot {
                in_flight: ws.telemetry().in_flight().current(),
                qids_issued: ws.query_ids_issued(),
                slowest_recent: ws.telemetry().slowest_recent(),
                ..Snapshot::default()
            };
            top(&s, ws.telemetry())
        };
        // Before any query: gauges at zero, the optional views null.
        let doc = top_of(&ws);
        assert_eq!(doc["in_flight"], 0u64, "{doc}");
        assert_eq!(doc["qids_issued"], 0u64, "{doc}");
        assert!(doc["slowest_recent"].is_null(), "{doc}");
        assert!(doc["qps"].is_null(), "no samples yet: {doc}");
        assert!(doc["breakers"].is_null(), "not serving remotely: {doc}");
        // After a served query the recent ring and the qid counter move.
        let qid = ws.issue_query_id();
        let req = QueryRequest { qid: Some(qid), ..QueryRequest::new("xml sql", ws.params()) };
        assert!(answer_query(&ws, &req, &counters).error.is_none());
        let doc = top_of(&ws);
        assert_eq!(doc["qids_issued"], 1u64, "{doc}");
        assert_eq!(doc["slowest_recent"]["qid"], qid, "{doc}");
        assert!(doc["slowest_recent"]["wall_ms"].is_number(), "{doc}");
    }

    #[test]
    fn stats_window_needs_two_samples_then_subtracts_them() {
        let ws = tiny_engine();
        let doc = stats_window(ws.telemetry(), 5);
        assert_eq!(doc["error"], "window unavailable", "{doc}");
        // Feed the ring by hand the way the sampler does: a boot sample,
        // some queries, a second sample one "second" later.
        let snap = |t_us: u64, served: u64| TelemetrySample {
            t_us,
            served,
            snapshot: ws.metrics_snapshot(),
        };
        ws.telemetry().record_sample(&snap(0, 0));
        let counters = ServeCounters::default();
        for _ in 0..3 {
            let req = QueryRequest {
                qid: Some(ws.issue_query_id()),
                ..QueryRequest::new("xml sql", ws.params())
            };
            assert!(answer_query(&ws, &req, &counters).error.is_none());
        }
        ws.telemetry().record_sample(&snap(1_000_000, 3));
        let doc = stats_window(ws.telemetry(), 5);
        assert_eq!(doc["queries"], 3u64, "{doc}");
        assert_eq!(doc["served"], 3u64, "{doc}");
        assert_eq!(doc["window_s"], 5u64, "{doc}");
        assert!(doc["qps"].is_number(), "{doc}");
        assert_eq!(doc["latency"]["count"], 3u64, "{doc}");
    }
}
