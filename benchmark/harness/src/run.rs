//! One run of one workload: inputs, oracle, set-up, the timed window,
//! verification and the metrics.
//!
//! A closed-loop window replays the request list in whole passes, so
//! every run of a seed times the same requests equally often.
//!
//! An *untraced* run reports the end-to-end metrics. A *traced* run
//! reports the per-layer metrics: it splits the window in two halves —
//! the first driven exactly like an untraced run (this is where the
//! `STATS` deltas and `/proc` readings come from, so no `EXPLAIN` or
//! span bookkeeping pollutes them), the second with client spans kept
//! and an `EXPLAIN` after every 8th request — and the p50 difference
//! between the halves is the tracing overhead. After the server is
//! stopped the library probe replays the same request list in-process.

use crate::digest::{classify, Outcome};
use crate::gen::{self, Request, Vocab};
use crate::metrics::{Source, PER_LAYER};
use crate::proc::{self, ProcUsage, Server};
use crate::stat::{self, counter_delta, CountMean};
use crate::wire::{run_window, Conn, Drive, Meter, Sample};
use crate::workload::{Spec, Warmup};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Every n-th request of the traced half is followed by an `EXPLAIN`.
const EXPLAIN_EVERY: usize = 8;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Idle `PING`s behind `cli.serve.ping_rtt_us`.
const PING_SAMPLES: usize = 50;

/// Where the pieces live and what the caller asked for.
pub struct RunConfig {
    /// The `wikisearch` binary under test.
    pub bin: PathBuf,
    /// The library probe binary; `None` when it did not build.
    pub layers: Option<PathBuf>,
    /// Why the probe is missing (the compiler's message), for the report.
    pub layers_error: Option<String>,
    /// Scratch and output directory (`benchmark/out`).
    pub out: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Timed window in seconds.
    pub seconds: f64,
    /// Tiny datasets (self-test).
    pub smoke: bool,
}

/// A metric value; `None` prints as `null` (library metrics when the
/// probe is unavailable).
pub type Metrics = BTreeMap<&'static str, Option<f64>>;

/// What one run reports.
pub struct RunReport {
    /// Requests timed.
    pub attempted: usize,
    /// Error documents + refusals + timeouts + oracle mismatches.
    pub failed: usize,
    /// Timed samples behind the percentiles.
    pub n: usize,
    /// Whether `p95_ms` has the ten samples beyond it that it needs.
    pub p95_supported: bool,
    /// The metrics of the mode that ran.
    pub metrics: Metrics,
    /// Reconciliation lines for the human report (traced runs).
    pub notes: Vec<String>,
}

impl RunReport {
    /// Failed ÷ attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The dataset files of one run plus what producing them cost.
struct Dataset {
    graph: PathBuf,
    snapshot: Option<PathBuf>,
    generate: Duration,
    compile: Duration,
    snapshot_bytes: u64,
}

/// The generated inputs of one run.
struct Inputs {
    distinct: Vec<Vec<String>>,
    list: Vec<Request>,
}

fn cli(bin: &Path, args: &[&str]) -> Result<Duration, String> {
    let started = Instant::now();
    let out = Command::new(bin)
        .args(args)
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!(
            "`wikisearch {}` failed: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stdout).trim()
        ));
    }
    Ok(started.elapsed())
}

/// Generate the dataset (and compile its snapshot for mmap workloads)
/// through the CLI, exactly as an operator would.
fn build_dataset(cfg: &RunConfig, spec: &Spec, dir: &Path) -> Result<Dataset, String> {
    let graph = dir.join("kb.bin");
    let graph_s = graph.to_string_lossy().into_owned();
    // The dataset seed is the run seed: another seed, another graph.
    let seed = cfg.seed.to_string();
    let mut args = vec!["generate", "--dataset", spec.preset, "--seed", &seed, "--out", &graph_s];
    let entities = spec.entities.map(|n| n.to_string());
    if let Some(n) = &entities {
        args.extend(["--entities", n]);
    }
    let generate = cli(&cfg.bin, &args)?;
    let mut ds =
        Dataset { graph, snapshot: None, generate, compile: Duration::ZERO, snapshot_bytes: 0 };
    if spec.mmap {
        let snap = dir.join("kb.wsnap");
        let snap_s = snap.to_string_lossy().into_owned();
        ds.compile = cli(&cfg.bin, &["build-snapshot", "--in", &graph_s, "--out", &snap_s])?;
        ds.snapshot_bytes = std::fs::metadata(&snap).map_or(0, |m| m.len());
        ds.snapshot = Some(snap);
    }
    Ok(ds)
}

fn dataset_flags(ds: &Dataset) -> Vec<String> {
    match &ds.snapshot {
        Some(snap) => vec!["--mmap".into(), snap.to_string_lossy().into_owned()],
        None => vec!["--graph".into(), ds.graph.to_string_lossy().into_owned()],
    }
}

/// Learn the vocabulary from the dataset's TSV export and derive the
/// query population and request list from the seed.
fn build_inputs(cfg: &RunConfig, spec: &Spec, ds: &Dataset, dir: &Path) -> Result<Inputs, String> {
    let tsv = dir.join("kb.tsv");
    cli(
        &cfg.bin,
        &["convert", "--in", &ds.graph.to_string_lossy(), "--out", &tsv.to_string_lossy()],
    )?;
    let text = std::fs::read_to_string(&tsv).map_err(|e| format!("{}: {e}", tsv.display()))?;
    let _ = std::fs::remove_file(&tsv);
    let vocab = Vocab::from_tsv(&text);
    let distinct = gen::distinct_queries(
        &vocab,
        spec.pick,
        spec.knum.0,
        spec.knum.1,
        spec.distinct,
        &mut gen::rng_for(cfg.seed, spec.name, "queries"),
    );
    if distinct.is_empty() {
        return Err(format!("{}: the dataset yields no queries", spec.name));
    }
    let list = gen::request_list(
        &distinct,
        spec.zipf_s,
        spec.variants,
        spec.list_len,
        &mut gen::rng_for(cfg.seed, spec.name, "list"),
    );
    Ok(Inputs { distinct, list })
}

/// The reference answers: a cache-less sequential single-shard server
/// over the same dataset digests the base form of each sampled query.
fn oracle_pass(
    cfg: &RunConfig,
    spec: &Spec,
    ds: &Dataset,
    inputs: &Inputs,
) -> Result<(BTreeMap<usize, u64>, Duration), String> {
    let started = Instant::now();
    let mut flags = dataset_flags(ds);
    flags.extend(
        ["--backend", "seq", "--shards", "1", "--cache-capacity", "0", "--workers", "2"]
            .map(String::from),
    );
    let server = Server::spawn(&cfg.bin, &flags)?;
    // A seeded sample of the population (all of it when it is small).
    let mut ids: Vec<usize> = (0..inputs.distinct.len()).collect();
    if ids.len() > spec.oracle_sample {
        let mut rng = gen::rng_for(cfg.seed, spec.name, "oracle");
        for i in 0..spec.oracle_sample {
            let j = rand::Rng::random_range(&mut rng, i..ids.len());
            ids.swap(i, j);
        }
        ids.truncate(spec.oracle_sample);
    }
    let list: Vec<Request> = ids
        .iter()
        .map(|&id| Request { query_id: id, text: inputs.distinct[id].join(" ") })
        .collect();
    let conns = vec![Conn::open(server.port)?, Conn::open(server.port)?];
    let due: Vec<u64> = vec![0; list.len()];
    let (window, conns) = run_window(conns, &list, &Drive::Open { due_ns: &due }, None, 0, None);
    conns.into_iter().for_each(Conn::quit);
    server.stop();
    let mut digests = BTreeMap::new();
    for s in &window.samples {
        let line = s.line.as_deref().map(String::from_utf8_lossy).unwrap_or_default();
        match classify(&line) {
            Outcome::Answer(d) => {
                digests.insert(s.query_id, d);
            }
            other => {
                return Err(format!(
                    "oracle: query {:?} answered {other:?}",
                    inputs.distinct[s.query_id].join(" ")
                ))
            }
        }
    }
    Ok((digests, started.elapsed()))
}

/// A measured server with its open connections.
struct Live {
    server: Server,
    conns: Vec<Conn>,
    setup: Duration,
    dataset: Dataset,
}

/// One full set-up as `setup_s` defines it: dataset generate (+ snapshot
/// compile) + `serve` spawn → first `PONG` + warm-up.
fn set_up(cfg: &RunConfig, spec: &Spec, inputs: &Inputs, dir: &Path) -> Result<Live, String> {
    let started = Instant::now();
    let dataset = build_dataset(cfg, spec, dir)?;
    let mut flags = dataset_flags(&dataset);
    flags.extend(spec.server_flags());
    let server = Server::spawn(&cfg.bin, &flags)?;
    // Closed loops keep their connections; the open loop's independent
    // users each arrive on a connection of their own.
    let conns: Vec<Conn> = (0..spec.conns)
        .map(|_| {
            let conn = Conn::open(server.port)?;
            Ok(if spec.open_rate.is_some() {
                conn.per_request()
            } else {
                conn
            })
        })
        .collect::<Result<_, String>>()?;
    let warm: Vec<Request> = match spec.warmup {
        Warmup::EachDistinct => inputs
            .distinct
            .iter()
            .enumerate()
            .map(|(id, words)| Request { query_id: id, text: words.join(" ") })
            .collect(),
        Warmup::ListPrefix(n) => inputs.list.iter().take(n).cloned().collect(),
    };
    let due: Vec<u64> = vec![0; warm.len()];
    let (window, conns) = run_window(conns, &warm, &Drive::Open { due_ns: &due }, None, 0, None);
    if let Some(bad) = window.samples.iter().find(|s| s.line.is_none()) {
        return Err(format!("warm-up request {} got no answer", bad.index));
    }
    Ok(Live { server, conns, setup: started.elapsed(), dataset })
}

/// Cumulative readings off one `STATS` line.
#[derive(Clone, Debug, Default)]
struct StatsReading {
    latency: CountMean,
    shed: u64,
    timeouts: u64,
    panics: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    cache_bytes: u64,
    cache_entries: u64,
    sessions_created: u64,
    quarantined: u64,
    rpcs: u64,
    dials: u64,
    retries: u64,
    rounds: u64,
    notifications: u64,
    rpc_latency: CountMean,
}

impl StatsReading {
    fn parse(line: &str) -> Result<StatsReading, String> {
        let doc: Value = serde_json::from_str(line).map_err(|e| format!("STATS: {e}"))?;
        let u = |v: &Value| v.as_u64().unwrap_or(0);
        let cm = |v: &Value, mean_key: &str| CountMean {
            count: u(&v["count"]),
            mean: v[mean_key].as_f64().unwrap_or(0.0),
        };
        if doc["latency"].is_null() {
            return Err(format!("STATS: no latency block in {line:?}"));
        }
        Ok(StatsReading {
            latency: cm(&doc["latency"], "mean_ms"),
            shed: u(&doc["shed"]),
            timeouts: u(&doc["timeouts"]),
            panics: u(&doc["panics"]),
            cache_hits: u(&doc["engine"]["cache_hits"]),
            cache_misses: u(&doc["engine"]["cache_misses"]),
            cache_evictions: u(&doc["cache"]["evictions"]),
            cache_bytes: u(&doc["cache"]["bytes"]),
            cache_entries: u(&doc["cache"]["entries"]),
            sessions_created: u(&doc["pool"]["sessions_created"])
                + u(&doc["shards"]["pools"]["sessions_created"]),
            quarantined: u(&doc["pool"]["quarantined"]),
            rpcs: u(&doc["remote"]["rpcs"]),
            dials: u(&doc["remote"]["dials"]),
            retries: u(&doc["remote"]["retries"]),
            rounds: u(&doc["remote"]["rounds"]),
            notifications: u(&doc["remote"]["notifications"]),
            rpc_latency: cm(&doc["remote"]["rpc_latency_us"], "mean"),
        })
    }
}

/// `/proc` readings of the server family at one instant.
struct FamilyUsage {
    server: ProcUsage,
    workers: ProcUsage,
    peak_hwm_kib: u64,
}

fn family_usage(server: &Server) -> FamilyUsage {
    let pids = server.family();
    let own = proc::usage(pids[0]);
    let mut workers = ProcUsage::default();
    let mut peak = own.hwm_kib;
    for &pid in &pids[1..] {
        let u = proc::usage(pid);
        workers.user_ns += u.user_ns;
        workers.sys_ns += u.sys_ns;
        peak = peak.max(u.hwm_kib);
    }
    FamilyUsage { server: own, workers, peak_hwm_kib: peak }
}

/// Verification of a window against the oracle and against itself.
struct Verdict {
    failed: usize,
    first_failure: Option<String>,
}

fn verify(
    samples: &[Sample],
    oracle: &BTreeMap<usize, u64>,
    seen: &mut BTreeMap<usize, u64>,
) -> Verdict {
    let mut v = Verdict { failed: 0, first_failure: None };
    for s in samples {
        let problem = match &s.line {
            None => Some("timed out or connection lost".to_string()),
            Some(bytes) => match classify(&String::from_utf8_lossy(bytes)) {
                Outcome::Answer(d) => {
                    // The oracle pins sampled queries; every query must
                    // also agree with its own earlier answers.
                    let expected = oracle.get(&s.query_id).or_else(|| seen.get(&s.query_id));
                    match expected {
                        Some(&want) if want != d => Some("answer differs".to_string()),
                        _ => {
                            seen.entry(s.query_id).or_insert(d);
                            None
                        }
                    }
                }
                Outcome::Error(kind) => Some(format!("error document: {kind}")),
                Outcome::Malformed => Some("malformed response".to_string()),
            },
        };
        if let Some(p) = problem {
            v.failed += 1;
            v.first_failure
                .get_or_insert(format!("request {} (query {}): {p}", s.index, s.query_id));
        }
    }
    v
}

fn latencies(samples: &[Sample]) -> Vec<f64> {
    stat::sorted(samples.iter().map(Sample::latency_ms).collect())
}

fn drive_for<'a>(spec: &Spec, seconds: f64, schedule: &'a [u64]) -> Drive<'a> {
    match spec.open_rate {
        Some(_) => Drive::Open { due_ns: schedule },
        None => Drive::Closed { seconds },
    }
}

fn schedule_for(cfg: &RunConfig, spec: &Spec, seconds: f64) -> Vec<u64> {
    match spec.open_rate {
        Some(rate) => {
            gen::poisson_schedule(rate, seconds, &mut gen::rng_for(cfg.seed, spec.name, "schedule"))
        }
        None => Vec::new(),
    }
}

fn run_dir(cfg: &RunConfig, spec: &Spec) -> Result<PathBuf, String> {
    let dir = cfg.out.join("data").join(spec.name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn p95_or_rank(sorted: &[f64]) -> (f64, bool) {
    match stat::percentile(sorted, 0.95) {
        Some(v) => (v, true),
        // Too few samples for ten beyond: report the plain rank and say so.
        None => {
            let rank = ((0.95 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            (sorted[rank - 1], false)
        }
    }
}

/// An untraced run: the end-to-end metrics.
pub fn run_untraced(cfg: &RunConfig, spec: &Spec) -> Result<RunReport, String> {
    let dir = run_dir(cfg, spec)?;
    let ds = build_dataset(cfg, spec, &dir)?;
    let inputs = build_inputs(cfg, spec, &ds, &dir)?;
    let (oracle, _oracle_time) = oracle_pass(cfg, spec, &ds, &inputs)?;

    // Set up several times; the last one is measured. `setup_s` is the
    // median so one slow fork or page-cache miss does not decide it.
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPEATS {
        drop(live.take());
        let l = set_up(cfg, spec, &inputs, &dir)?;
        setups.push(l.setup.as_secs_f64());
        live = Some(l);
    }
    let Live { server, conns, .. } = live.expect("at least one set-up");

    let schedule = schedule_for(cfg, spec, cfg.seconds);
    let (window, conns) =
        run_window(conns, &inputs.list, &drive_for(spec, cfg.seconds, &schedule), None, 0, None);
    let after = family_usage(&server);
    conns.into_iter().for_each(Conn::quit);
    server.stop();

    let verdict = verify(&window.samples, &oracle, &mut BTreeMap::new());
    if let Some(why) = &verdict.first_failure {
        eprintln!(
            "{}: {} of {} failed; first: {why}",
            spec.name,
            verdict.failed,
            window.samples.len()
        );
    }
    let attempted = window.samples.len();
    if attempted == 0 {
        return Err(format!("{}: the window timed no request", spec.name));
    }
    let lat = latencies(&window.samples);
    let (p95, p95_supported) = p95_or_rank(&lat);
    let mut metrics = Metrics::new();
    metrics.insert("setup_s", stat::median(&stat::sorted(setups)));
    metrics.insert("p50_ms", stat::median(&lat));
    metrics.insert("p95_ms", Some(p95));
    metrics.insert(
        "qps",
        Some((attempted - verdict.failed) as f64 / window.wall.as_secs_f64().max(1e-9)),
    );
    metrics.insert("peak_rss_mb", Some(after.peak_hwm_kib as f64 / 1024.0));
    Ok(RunReport {
        attempted,
        failed: verdict.failed,
        n: lat.len(),
        p95_supported,
        metrics,
        notes: Vec::new(),
    })
}

/// One client span of the traced half, as written to the trace file.
struct Span {
    name: &'static str,
    req: usize,
    parent: Option<&'static str>,
    start_ns: u64,
    end_ns: u64,
}

fn spans_of(samples: &[Sample]) -> Vec<Span> {
    let mut spans = Vec::with_capacity(samples.len() * 4);
    for s in samples {
        let req = s.index;
        spans.push(Span {
            name: "request",
            req,
            parent: None,
            start_ns: s.start_ns,
            end_ns: s.end_ns,
        });
        if s.sent_ns > s.start_ns {
            spans.push(Span {
                name: "harness.sched_lag",
                req,
                parent: Some("request"),
                start_ns: s.start_ns,
                end_ns: s.sent_ns,
            });
        }
        spans.push(Span {
            name: "cli.serve.ttfb",
            req,
            parent: Some("request"),
            start_ns: s.sent_ns,
            end_ns: s.first_byte_ns,
        });
        spans.push(Span {
            name: "cli.serve.body_read",
            req,
            parent: Some("request"),
            start_ns: s.first_byte_ns,
            end_ns: s.end_ns,
        });
    }
    spans
}

fn write_trace(path: &Path, spans: &[Span]) -> Result<(), String> {
    let mut text = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
        text.push_str(&format!(
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}\n",
            s.name, s.start_ns, s.end_ns, s.req
        ));
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn mean_span_ms(spans: &[Span], name: &str) -> f64 {
    let of: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    stat::mean(&of)
}

/// What the `EXPLAIN` responses of the traced half add up to.
#[derive(Default)]
struct ExplainTotals {
    explained: usize,
    levels: f64,
    expansions: f64,
    answers: f64,
    wire_us: f64,
    worker_us: f64,
}

fn explain_totals(samples: &[Sample]) -> ExplainTotals {
    let mut t = ExplainTotals::default();
    for line in samples.iter().filter_map(|s| s.explain.as_deref()) {
        let Ok(doc) = serde_json::from_str::<Value>(&String::from_utf8_lossy(line)) else {
            continue;
        };
        let trace = &doc["trace"];
        if trace.is_null() {
            continue;
        }
        t.explained += 1;
        t.levels += trace["levels"].as_array().map_or(0, <[Value]>::len) as f64;
        t.expansions += trace["total_expansions"].as_f64().unwrap_or(0.0);
        t.answers += doc["answers"].as_array().map_or(0, <[Value]>::len) as f64;
        for shard in trace["shard_timelines"].as_array().unwrap_or(&[]) {
            t.wire_us += shard["wire_us"].as_f64().unwrap_or(0.0);
            t.worker_us += shard["worker_us"].as_f64().unwrap_or(0.0);
        }
    }
    t
}

/// Run the library probe over the run's dataset and request list.
/// `Err` carries the reason its metrics are unavailable.
fn run_probe(
    cfg: &RunConfig,
    spec: &Spec,
    ds: &Dataset,
    inputs: &Inputs,
    dir: &Path,
    entry_bytes: u64,
) -> Result<Value, String> {
    let Some(probe) = &cfg.layers else {
        return Err(cfg.layers_error.clone().unwrap_or_else(|| "probe binary not built".into()));
    };
    // W lines are replayed untimed (the same warm-up the server got),
    // T lines are timed.
    let mut text = String::new();
    match spec.warmup {
        Warmup::EachDistinct => {
            for words in &inputs.distinct {
                text.push_str(&format!("W\t{}\n", words.join(" ")));
            }
        }
        Warmup::ListPrefix(n) => {
            for r in inputs.list.iter().take(n) {
                text.push_str(&format!("W\t{}\n", r.text));
            }
        }
    }
    for r in &inputs.list {
        text.push_str(&format!("T\t{}\n", r.text));
    }
    let requests = dir.join("requests.tsv");
    std::fs::write(&requests, text).map_err(|e| format!("{}: {e}", requests.display()))?;
    let mut cmd = Command::new(probe);
    cmd.arg("--graph").arg(&ds.graph).arg("--requests").arg(&requests);
    if let Some(snap) = &ds.snapshot {
        cmd.arg("--snapshot").arg(snap);
    }
    cmd.args(["--backend", &spec.backend_spec()])
        .args(["--cache-capacity", &spec.cache_bytes.to_string()])
        .args(["--entry-bytes", &entry_bytes.to_string()])
        .args(["--shards", &spec.shard_workers.to_string()])
        .args(["--budget-ms", if cfg.smoke { "300" } else { "2500" }]);
    let out = cmd.output().map_err(|e| format!("{}: {e}", probe.display()))?;
    if !out.status.success() {
        return Err(format!(
            "probe exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(last).map_err(|e| format!("probe output: {e}"))
}

/// A traced run: the per-layer metrics.
pub fn run_traced(cfg: &RunConfig, spec: &Spec) -> Result<RunReport, String> {
    let dir = run_dir(cfg, spec)?;
    let ds = build_dataset(cfg, spec, &dir)?;
    let inputs = build_inputs(cfg, spec, &ds, &dir)?;
    let (oracle, oracle_time) = oracle_pass(cfg, spec, &ds, &inputs)?;
    let Live { server, mut conns, dataset, .. } = set_up(cfg, spec, &inputs, &dir)?;

    // Idle round trips: the floor under every latency.
    let mut pings = Vec::with_capacity(PING_SAMPLES);
    for _ in 0..PING_SAMPLES {
        let rt = conns[0].round_trip("PING", "");
        if rt.line.as_deref() != Some(b"PONG") {
            return Err("idle PING was not answered with PONG".into());
        }
        pings.push((rt.done - rt.sent).as_secs_f64() * 1e6);
    }
    let half = cfg.seconds / 2.0;
    let me = std::process::id();

    // First half: driven exactly like an untraced run.
    let stats_a = StatsReading::parse(&conns[0].ask("STATS")?)?;
    let usage_a = family_usage(&server);
    let self_a = proc::usage(me);
    let schedule = schedule_for(cfg, spec, half);
    // The family's CPU clock is also read at every segment boundary
    // (closed loop: after each whole pass of the list).
    let family = server.family();
    let read_cpu = || proc::cpu_clock_sum_ns(&family);
    let meter = Meter { every: spec.segment(), read: &read_cpu };
    let (plain, mut conns) =
        run_window(conns, &inputs.list, &drive_for(spec, half, &schedule), None, 0, Some(&meter));
    let self_b = proc::usage(me);
    let usage_b = family_usage(&server);
    let stats_b = StatsReading::parse(&conns[0].ask("STATS")?)?;

    // Second half: spans kept, EXPLAIN after every 8th request. The open
    // loop replays the first half's arrival pattern (further down the
    // request list), so the halves differ by the tracing alone.
    let (traced, mut conns) = run_window(
        conns,
        &inputs.list,
        &drive_for(spec, half, &schedule),
        Some(EXPLAIN_EVERY),
        plain.samples.len(),
        None,
    );
    let stats_c = StatsReading::parse(&conns[0].ask("STATS")?)?;
    let ready_ms = server.ready.as_secs_f64() * 1e3;
    conns.into_iter().for_each(Conn::quit);
    server.stop();

    let mut seen = BTreeMap::new();
    let mut failed = verify(&plain.samples, &oracle, &mut seen).failed;
    let v = verify(&traced.samples, &oracle, &mut seen);
    failed += v.failed;
    if let Some(why) = &v.first_failure {
        eprintln!("{}: traced half: {why}", spec.name);
    }
    let attempted = plain.samples.len() + traced.samples.len();
    if plain.samples.is_empty() || traced.samples.is_empty() {
        return Err(format!("{}: a half-window timed no request", spec.name));
    }

    let spans = spans_of(&traced.samples);
    write_trace(&cfg.out.join(format!("trace_{}.jsonl", spec.name)), &spans)?;
    let explain = explain_totals(&traced.samples);

    let plain_lat = latencies(&plain.samples);
    let traced_lat = latencies(&traced.samples);
    let plain_n = plain.samples.len() as f64;
    let engine = stats_b.latency.since(stats_a.latency);
    // Write → newline, not due → newline: on the open loop the wait for
    // a free connection is queueing, not wire.
    let client_mean = stat::mean(
        &plain
            .samples
            .iter()
            .map(|s| (s.end_ns - s.sent_ns) as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    let lookups = counter_delta(stats_b.cache_hits, stats_a.cache_hits)
        + counter_delta(stats_b.cache_misses, stats_a.cache_misses);
    let rpc = stats_b.rpc_latency.since(stats_a.rpc_latency);
    let per_explained = |total: f64| {
        if explain.explained == 0 {
            0.0
        } else {
            total / explain.explained as f64
        }
    };
    let ms = |ns: u64| ns as f64 / 1e6;
    let p50_plain = stat::median(&plain_lat).unwrap_or(0.0);
    let p50_traced = stat::median(&traced_lat).unwrap_or(0.0);
    let lag =
        stat::sorted(plain.samples.iter().map(|s| (s.sent_ns - s.start_ns) as f64 / 1e6).collect());

    let mut w: BTreeMap<&'static str, f64> = BTreeMap::new();
    w.insert("cli.serve.ready_ms", ready_ms);
    w.insert("cli.serve.ping_rtt_us", stat::median(&stat::sorted(pings)).unwrap_or(0.0));
    w.insert("cli.serve.wire_gap_ms", client_mean - engine.mean);
    w.insert("cli.serve.ttfb_ms", mean_span_ms(&spans, "cli.serve.ttfb"));
    w.insert("cli.serve.body_read_ms", mean_span_ms(&spans, "cli.serve.body_read"));
    w.insert(
        "cli.serve.resp_bytes",
        stat::mean(
            &traced
                .samples
                .iter()
                .filter_map(|s| s.line.as_ref().map(|l| l.len() as f64 + 1.0))
                .collect::<Vec<_>>(),
        ),
    );
    let family_delta = |f: fn(&ProcUsage) -> u64| {
        counter_delta(f(&usage_b.server), f(&usage_a.server))
            + counter_delta(f(&usage_b.workers), f(&usage_a.workers))
    };
    // Segments do equal work, so their median sets aside the stretches
    // during which the host ran slow. (A window shorter than a segment,
    // as in the smoke test, falls back on the whole window.)
    let cpu_per_query = stat::sorted(stat::segment_rates(&plain.marks));
    w.insert(
        "cpu_ms_per_query",
        stat::median(&cpu_per_query)
            .map_or_else(|| ms(family_delta(ProcUsage::cpu_ns)) / plain_n, |ns| ns / 1e6),
    );
    w.insert("cli.serve.cpu_user_ms_per_query", ms(family_delta(|u| u.user_ns)) / plain_n);
    w.insert("cli.serve.cpu_sys_ms_per_query", ms(family_delta(|u| u.sys_ns)) / plain_n);
    w.insert("cli.serve.shed", counter_delta(stats_c.shed, stats_a.shed) as f64);
    w.insert("cli.serve.timeouts", counter_delta(stats_c.timeouts, stats_a.timeouts) as f64);
    w.insert("cli.serve.panics", counter_delta(stats_c.panics, stats_a.panics) as f64);
    w.insert(
        "engine.cache_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            counter_delta(stats_b.cache_hits, stats_a.cache_hits) as f64 / lookups as f64
        },
    );
    w.insert("kgraph.snapshot_compile_ms", dataset.compile.as_secs_f64() * 1e3);
    w.insert("kgraph.snapshot_bytes", dataset.snapshot_bytes as f64);
    w.insert("datagen.generate_ms", dataset.generate.as_secs_f64() * 1e3);
    w.insert(
        "central.cache.hits",
        counter_delta(stats_b.cache_hits, stats_a.cache_hits) as f64,
    );
    w.insert(
        "central.cache.misses",
        counter_delta(stats_b.cache_misses, stats_a.cache_misses) as f64,
    );
    w.insert(
        "central.cache.evictions",
        counter_delta(stats_b.cache_evictions, stats_a.cache_evictions) as f64,
    );
    w.insert("central.pool.sessions_created", stats_c.sessions_created as f64);
    w.insert("central.pool.quarantined", stats_c.quarantined as f64);
    w.insert("central.levels_per_query", per_explained(explain.levels));
    w.insert("central.expansions_per_query", per_explained(explain.expansions));
    w.insert("central.answers_per_query", per_explained(explain.answers));
    w.insert(
        "central.remote.rpcs_per_query",
        counter_delta(stats_b.rpcs, stats_a.rpcs) as f64 / plain_n,
    );
    w.insert("central.remote.rpc_mean_us", rpc.mean);
    w.insert("central.remote.dials", counter_delta(stats_c.dials, stats_a.dials) as f64);
    w.insert("central.remote.retries", counter_delta(stats_c.retries, stats_a.retries) as f64);
    w.insert(
        "central.remote.rounds_per_query",
        counter_delta(stats_b.rounds, stats_a.rounds) as f64 / plain_n,
    );
    w.insert(
        "central.remote.notifications_per_query",
        counter_delta(stats_b.notifications, stats_a.notifications) as f64 / plain_n,
    );
    w.insert("central.remote.wire_us_per_query", per_explained(explain.wire_us));
    w.insert("central.remote.worker_us_per_query", per_explained(explain.worker_us));
    let remote = spec.shard_workers > 0;
    w.insert(
        "central.remote.coordinator_cpu_ms_per_query",
        if remote {
            ms(counter_delta(usage_b.server.cpu_ns(), usage_a.server.cpu_ns())) / plain_n
        } else {
            0.0
        },
    );
    w.insert(
        "central.remote.worker_cpu_ms_per_query",
        ms(counter_delta(usage_b.workers.cpu_ns(), usage_a.workers.cpu_ns())) / plain_n,
    );
    w.insert("harness.sched_lag_p95_ms", p95_or_rank(&lag).0);
    w.insert(
        "harness.trace_overhead_pct",
        if p50_plain > 0.0 {
            (p50_traced - p50_plain) / p50_plain * 100.0
        } else {
            0.0
        },
    );
    w.insert("harness.oracle_s", oracle_time.as_secs_f64());
    w.insert(
        "harness.client_cpu_share",
        ms(counter_delta(self_b.cpu_ns(), self_a.cpu_ns()))
            / 1e3
            / plain.wall.as_secs_f64().max(1e-9),
    );

    // The library probe runs with the server gone, so the two never
    // compete for the host's two cores.
    let entry_bytes = stats_c.cache_bytes.checked_div(stats_c.cache_entries).unwrap_or(0);
    let probe = run_probe(cfg, spec, &ds, &inputs, &dir, entry_bytes);
    if let Err(why) = &probe {
        eprintln!("{}: library metrics unavailable (reported as null): {why}", spec.name);
    }
    let mut metrics = Metrics::new();
    for def in PER_LAYER {
        let value = match def.source {
            Source::Library => probe.as_ref().ok().and_then(|doc| doc[def.name].as_f64()),
            _ => Some(w.get(def.name).copied().unwrap_or(0.0)),
        };
        metrics.insert(def.name, value);
    }
    // The one metric that joins a wire reading with a library one.
    let shard_ms = metrics["central.shard.search_ms"];
    metrics.insert(
        "central.remote.vs_inprocess_ratio",
        match shard_ms {
            _ if !remote => Some(0.0),
            Some(inproc) if inproc > 0.0 => Some(engine.mean / inproc),
            Some(_) => Some(0.0),
            None => None,
        },
    );
    // How the layers add up: the library's view of the engine set beside
    // the wire's, and the five phases beside the search that ran them.
    let mut notes = Vec::new();
    // (Not on a remote fleet: the probe's `engine.search_us` is the
    // in-process engine, which is not what the server ran.)
    if let Some(search_us) = metrics["engine.search_us"].filter(|_| !remote) {
        let rebuilt = (client_mean - engine.mean) + search_us / 1e3;
        notes.push(format!(
            "reconcile: mean client latency {client_mean:.3} ms; cli.serve.wire_gap_ms {:.3} + engine.search_us {:.3} ms = {rebuilt:.3} ms ({:+.2} %)",
            client_mean - engine.mean,
            search_us / 1e3,
            (rebuilt - client_mean) / client_mean * 100.0
        ));
    }
    if let Some(search_ms) = metrics["central.search_ms"].filter(|&v| v > 0.0) {
        let phases: f64 = ["init", "enqueue", "identify", "expansion", "topdown"]
            .iter()
            .filter_map(|p| {
                metrics.get(format!("central.phase.{p}_ms").as_str()).copied().flatten()
            })
            .sum();
        notes.push(format!(
            "reconcile: central.phase.*_ms sum {phases:.3} ms vs central.search_ms {search_ms:.3} ms ({:+.2} %)",
            (phases - search_ms) / search_ms * 100.0
        ));
    }
    Ok(RunReport {
        attempted,
        failed,
        n: plain_lat.len(),
        p95_supported: stat::percentile(&plain_lat, 0.95).is_some(),
        metrics,
        notes,
    })
}
