//! `ledger-harness summarize`: repeatability of a series of sets.
//!
//! Reads the bounds from `BENCHMARK.json` and any number of
//! `result.json` sets, and prints per (metric, workload) the median,
//! the quartiles and the relative spread (inter-quartile distance over
//! the median — the driver's own steadiness measure), flagging every
//! end-to-end pair whose spread exceeds its bound. The same table is
//! written next to the first set as `repeat.json`, host descriptor
//! included, which is what `benchmark/results/seed.json` is a copy of.

use crate::stat;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// One (section, workload, metric) series across the sets.
struct Series {
    unit: String,
    values: Vec<f64>,
}

fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Entry point: `args` = `[BENCHMARK.json, set1.json, set2.json, ...]`.
pub fn summarize(args: &[String]) -> Result<(), String> {
    let [manifest, sets @ ..] = args else {
        return Err("usage: summarize BENCHMARK.json RESULT.json...".into());
    };
    if sets.len() < 2 {
        return Err("summarize needs at least two sets".into());
    }
    let manifest = load(manifest)?;
    let bounds: BTreeMap<String, f64> = manifest["end_to_end"]
        .as_array()
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| Some((m["name"].as_str()?.to_string(), m["bound"].as_f64()?)))
        .collect();
    let docs: Vec<Value> = sets.iter().map(|p| load(p)).collect::<Result<_, _>>()?;

    // (section, workload, metric) → series, in first-seen order per map key
    let mut series: BTreeMap<(String, String, String), Series> = BTreeMap::new();
    for doc in &docs {
        for (workload, body) in doc["workloads"].as_object().unwrap_or(&[]) {
            for section in ["end_to_end", "per_layer"] {
                for (metric, entry) in body[section]["metrics"].as_object().unwrap_or(&[]) {
                    let Some(v) = entry["value"].as_f64() else {
                        continue;
                    };
                    series
                        .entry((section.to_string(), workload.clone(), metric.clone()))
                        .or_insert_with(|| Series {
                            unit: entry["unit"].as_str().unwrap_or("").to_string(),
                            values: Vec::new(),
                        })
                        .values
                        .push(v);
                }
            }
        }
    }

    println!(
        "{:<11} {:<14} {:<44} {:>3} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "section", "workload", "metric", "n", "q1", "median", "q3", "spread", "bound"
    );
    let mut rows = Vec::new();
    let mut flagged = 0;
    for ((section, workload, metric), s) in &series {
        let sorted = stat::sorted(s.values.clone());
        let Some([q1, q2, q3]) = stat::quartiles(&sorted) else {
            continue;
        };
        let spread = stat::relative_spread(&sorted);
        let bound = if section == "end_to_end" {
            bounds.get(metric).copied()
        } else {
            None
        };
        let over = matches!((spread, bound), (Some(s), Some(b)) if s > b);
        flagged += over as usize;
        println!(
            "{:<11} {:<14} {:<44} {:>3} {:>12} {:>12} {:>12} {:>8} {:>6}{}",
            section,
            workload,
            format!("{metric} [{}]", s.unit),
            sorted.len(),
            fmt(q1),
            fmt(q2),
            fmt(q3),
            spread.map_or("-".into(), |v| format!("{v:.4}")),
            bound.map_or("-".into(), |b| format!("{b}")),
            if over { "  <-- spread above bound" } else { "" }
        );
        rows.push(format!(
            "{{\"section\": \"{section}\", \"workload\": \"{workload}\", \"metric\": \"{metric}\", \"unit\": \"{}\", \"n\": {}, \"q1\": {q1:?}, \"median\": {q2:?}, \"q3\": {q3:?}, \"spread\": {}, \"bound\": {}, \"values\": {:?}}}",
            s.unit,
            sorted.len(),
            spread.map_or("null".into(), |v| format!("{v:?}")),
            bound.map_or("null".into(), |b| format!("{b:?}")),
            s.values
        ));
    }
    println!("{flagged} end-to-end (metric, workload) pairs spread wider than their bound");

    let seeds: Vec<String> = docs.iter().map(|d| d["seed"].to_string()).collect();
    let out = format!(
        "{{\"host\": {}, \"sets\": {}, \"seeds\": [{}], \"seconds\": {}, \"rows\": [\n{}\n]}}\n",
        docs[0]["host"],
        docs.len(),
        seeds.join(", "),
        docs[0]["seconds"],
        rows.join(",\n")
    );
    let target = Path::new(&sets[0]).with_file_name("repeat.json");
    std::fs::write(&target, out).map_err(|e| format!("{}: {e}", target.display()))?;
    println!("wrote {}", target.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_flags_a_pair_that_spreads_wider_than_its_bound() {
        let dir = std::env::temp_dir().join(format!("ledger-summarize-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("BENCHMARK.json");
        std::fs::write(
            &manifest,
            r#"{"end_to_end": [{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let mut args = vec![manifest.to_string_lossy().into_owned()];
        for (i, v) in [10.0, 20.0, 30.0].iter().enumerate() {
            let set = dir.join(format!("set_{i}.json"));
            std::fs::write(
                &set,
                format!(
                    r#"{{"host": {{"nproc": "2"}}, "seed": {i}, "seconds": 15.0, "workloads": {{"hot_cache": {{"end_to_end": {{"metrics": {{"p50_ms": {{"value": {v}, "unit": "ms"}}}}}}}}}}}}"#
                ),
            )
            .unwrap();
            args.push(set.to_string_lossy().into_owned());
        }
        summarize(&args).unwrap();
        let out: Value = load(&dir.join("repeat.json").to_string_lossy()).unwrap();
        assert_eq!(out["sets"], 3u64);
        let row = &out["rows"][0];
        assert_eq!(row["metric"], "p50_ms");
        assert_eq!(row["median"].as_f64(), Some(20.0));
        assert_eq!(row["spread"].as_f64(), Some(1.0), "(30-10)/20");
        assert_eq!(row["bound"].as_f64(), Some(0.1));
        assert!(summarize(&args[..2]).is_err(), "one set has no spread");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
