//! `ledger-harness` — the wire-level perf ledger's driver.
//!
//! ```text
//! ledger-harness --bin WIKISEARCH --out DIR [--layers PROBE | --layers-error FILE]
//!                [--workload NAME] [--trace 0|1] [--seed N] [--seconds S] [--smoke]
//! ledger-harness summarize BENCHMARK.json RESULT.json...
//! ```
//!
//! With both `--workload` and `--trace` it makes exactly one run and
//! ends its standard output with the one-line JSON result the driver
//! parses. Otherwise it makes a *set*: every selected workload untraced
//! and traced, every metric printed by name and unit, and the whole set
//! written to `DIR/result.json`. `benchmark/run.sh` builds the binaries
//! and calls this; see `benchmark/README.md`.

mod digest;
mod gen;
mod metrics;
mod proc;
mod run;
mod stat;
mod summarize;
mod wire;
mod workload;

use run::{RunConfig, RunReport};
use serde_json::Value;
use std::path::PathBuf;
use std::process::ExitCode;

/// Default timed window; `BENCHMARK.json`'s `run_seconds` repeats it.
const DEFAULT_SECONDS: f64 = 22.0;

struct Args {
    bin: PathBuf,
    layers: Option<PathBuf>,
    layers_error: Option<String>,
    out: PathBuf,
    workload: Option<String>,
    trace: Option<bool>,
    seed: u64,
    seconds: Option<f64>,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        bin: PathBuf::new(),
        layers: None,
        layers_error: None,
        out: PathBuf::new(),
        workload: None,
        trace: None,
        seed: 1,
        seconds: None,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} is missing its value"))?;
        match flag.as_str() {
            "--bin" => a.bin = value.into(),
            "--layers" => a.layers = Some(value.into()),
            "--layers-error" => {
                let text = std::fs::read_to_string(value).unwrap_or_default();
                let tail: Vec<&str> = text.lines().rev().take(12).collect();
                a.layers_error = Some(format!(
                    "the probe did not build:\n{}",
                    tail.into_iter().rev().collect::<Vec<_>>().join("\n")
                ));
            }
            "--out" => a.out = value.into(),
            "--workload" => a.workload = Some(value.clone()),
            "--trace" => {
                a.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                })
            }
            "--seed" => {
                a.seed = value.parse().map_err(|_| format!("--seed: bad number {value:?}"))?
            }
            "--seconds" => {
                let s: f64 =
                    value.parse().map_err(|_| format!("--seconds: bad number {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                a.seconds = Some(s);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if a.bin.as_os_str().is_empty() || a.out.as_os_str().is_empty() {
        return Err("--bin and --out are required".into());
    }
    Ok(a)
}

/// A JSON object from `(key, value)` pairs, in the order given.
fn object<const N: usize>(entries: [(&str, Value); N]) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A number with all its digits, or `null`.
fn num(v: Option<f64>) -> Value {
    v.filter(|x| x.is_finite()).map_or(Value::Null, Value::F64)
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
fn metrics_json(report: &RunReport) -> Value {
    Value::Object(
        report
            .metrics
            .iter()
            .map(|(name, v)| {
                let unit = Value::from(metrics::unit_of(name));
                (name.to_string(), object([("value", num(*v)), ("unit", unit)]))
            })
            .collect(),
    )
}

/// The one-line result the driver reads.
fn result_line(report: &RunReport) -> String {
    object([
        ("correct", Value::from(report.failed == 0)),
        ("attempted", Value::from(report.attempted as u64)),
        ("failed", Value::from(report.failed as u64)),
        ("metrics", metrics_json(report)),
    ])
    .to_string()
}

fn print_report(title: &str, report: &RunReport) {
    println!(
        "-- {title}: attempted {} failed {} failed_share {} ratio, n={}{}",
        report.attempted,
        report.failed,
        report.failed_share(),
        report.n,
        if report.p95_supported {
            ""
        } else {
            " (n < 200: p95 has fewer than 10 samples beyond it)"
        }
    );
    for (name, v) in &report.metrics {
        let n = if name.starts_with("p50") || name.starts_with("p95") {
            format!("  (n={})", report.n)
        } else {
            String::new()
        };
        println!("   {name:<44} {:>16} {}{n}", num(*v).to_string(), metrics::unit_of(name));
    }
    for note in &report.notes {
        println!("   {note}");
    }
}

/// One run as it appears in a set's `result.json`.
fn report_json(report: &RunReport) -> Value {
    object([
        ("attempted", Value::from(report.attempted as u64)),
        ("failed", Value::from(report.failed as u64)),
        ("failed_share", num(Some(report.failed_share()))),
        ("n", Value::from(report.n as u64)),
        ("p95_supported", Value::from(report.p95_supported)),
        ("metrics", metrics_json(report)),
    ])
}

fn real_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("summarize") {
        return summarize::summarize(&argv[1..]).map(|()| ExitCode::SUCCESS);
    }
    let args = parse_args(&argv)?;
    let stale = proc::stale_servers(&args.bin);
    if !stale.is_empty() {
        return Err(format!(
            "refusing to start: `wikisearch serve`/`shard-worker` from an earlier run still alive (pids {stale:?})"
        ));
    }
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let cfg = RunConfig {
        bin: args.bin.clone(),
        layers: args.layers.clone().filter(|p| p.is_file()),
        layers_error: args.layers_error.clone(),
        out: args.out.clone(),
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke { 1.0 } else { DEFAULT_SECONDS }),
        smoke: args.smoke,
    };
    let selected: Vec<workload::Spec> = match &args.workload {
        Some(name) => vec![*workload::spec(name).ok_or_else(|| {
            let known: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
            format!("unknown workload {name:?} (known: {})", known.join(", "))
        })?],
        None => workload::SPECS.to_vec(),
    };
    let selected: Vec<workload::Spec> =
        selected.iter().map(|s| if args.smoke { s.smoke() } else { *s }).collect();

    let run_one = |spec: &workload::Spec, traced: bool| {
        if traced {
            run::run_traced(&cfg, spec)
        } else {
            run::run_untraced(&cfg, spec)
        }
    };

    // One run, for the driver.
    if let (Some(_), Some(traced)) = (&args.workload, args.trace) {
        let spec = &selected[0];
        let report = run_one(spec, traced)?;
        print_report(&format!("{} seed {} trace {}", spec.name, cfg.seed, traced as u8), &report);
        println!("{}", result_line(&report));
        return Ok(ExitCode::SUCCESS);
    }

    // A set, for people (and for repeat.sh).
    let mut workloads = Vec::new();
    let mut failures = 0;
    for spec in &selected {
        println!("== {} (seed {}, window {} s)", spec.name, cfg.seed, cfg.seconds);
        let mut parts = Vec::new();
        for traced in [false, true] {
            if args.trace.is_some_and(|t| t != traced) {
                continue;
            }
            let report = run_one(spec, traced)?;
            failures += report.failed;
            let key = if traced { "per_layer" } else { "end_to_end" };
            print_report(key, &report);
            parts.push((key.to_string(), report_json(&report)));
        }
        workloads.push((spec.name.to_string(), Value::Object(parts)));
    }
    let host = proc::host_descriptor()
        .into_iter()
        .map(|(k, v)| (k, Value::from(v)))
        .collect::<Vec<_>>();
    let doc = object([
        ("host", Value::Object(host)),
        ("seed", Value::from(cfg.seed)),
        ("seconds", Value::F64(cfg.seconds)),
        ("smoke", Value::from(cfg.smoke)),
        ("workloads", Value::Object(workloads)),
    ]);
    let path = args.out.join("result.json");
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ledger-harness: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_full_digits() {
        let mut metrics: run::Metrics = BTreeMap::new();
        metrics.insert("p50_ms", Some(43.91234567891));
        metrics.insert("engine.search_us", None);
        let report = RunReport {
            attempted: 10,
            failed: 0,
            n: 10,
            p95_supported: false,
            metrics,
            notes: Vec::new(),
        };
        let line = result_line(&report);
        let doc: serde_json::Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc["correct"], true);
        assert_eq!(doc["metrics"]["p50_ms"]["value"].as_f64(), Some(43.91234567891));
        assert_eq!(doc["metrics"]["p50_ms"]["unit"], "ms");
        assert!(doc["metrics"]["engine.search_us"]["value"].is_null());
        assert!(!line.contains('\n'));
    }

    #[test]
    fn default_window_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(doc["run_seconds"].as_f64(), Some(DEFAULT_SECONDS));
    }

    #[test]
    fn flags_are_validated() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&argv(
            "--bin b --out o --workload hot_cache --trace 1 --seed 9 --seconds 2.5 --smoke",
        ))
        .unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace, ok.smoke), (9, Some(2.5), Some(true), true));
        assert!(parse_args(&argv("--out o")).is_err(), "--bin is required");
        assert!(parse_args(&argv("--bin b --out o --trace 2")).is_err());
        assert!(parse_args(&argv("--bin b --out o --seconds 0")).is_err());
        assert!(parse_args(&argv("--bin b --out o --bogus 1")).is_err());
        assert!(parse_args(&argv("--bin b --out o --seed")).is_err());
    }
}
