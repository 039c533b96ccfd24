//! `compare PARENT CHANGE [BENCHMARK.json]` — judges a change's runs
//! against its parent's.
//!
//! A result set is a directory holding one `<workload>.jsonl` file per
//! workload, each line the last stdout line of one untraced run. Runs
//! are paired by line number, so record the two sides alternately. For
//! every workload and end-to-end metric it prints both sides' median
//! and quartiles, the delta of the medians and a verdict (see
//! [`stats::verdict`]) under the bound `BENCHMARK.json` records.

use crate::stats::{self, Verdict};
use ca_obs::JsonValue;
use std::collections::BTreeMap;
use std::path::Path;

struct Spec {
    workloads: Vec<String>,
    /// name, unit, lower is better, bound
    metrics: Vec<(String, String, bool, f64)>,
}

fn parse_spec(text: &str) -> Result<Spec, String> {
    let doc = ca_obs::parse_json(text)?;
    let names = |key: &str| -> Result<Vec<&JsonValue>, String> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .map(|a| a.iter().collect())
            .ok_or_else(|| format!("benchmark spec has no `{key}` list"))
    };
    let field = |v: &JsonValue, key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("benchmark spec entry lacks `{key}`"))
    };
    let workloads = names("workloads")?
        .into_iter()
        .map(|w| field(w, "name"))
        .collect::<Result<_, _>>()?;
    let metrics = names("end_to_end")?
        .into_iter()
        .map(|m| {
            let bound = m
                .get("bound")
                .and_then(JsonValue::as_f64)
                .ok_or("end_to_end entry lacks `bound`")?;
            Ok((
                field(m, "name")?,
                field(m, "unit")?,
                field(m, "better")? == "lower",
                bound,
            ))
        })
        .collect::<Result<_, String>>()?;
    Ok(Spec { workloads, metrics })
}

/// Metric values of the correct runs in one `<workload>.jsonl`, and the
/// number of runs that reported incorrect output.
fn load(path: &Path) -> Result<(Vec<BTreeMap<String, f64>>, usize), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs = Vec::new();
    let mut incorrect = 0;
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc =
            ca_obs::parse_json(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        if !matches!(doc.get("correct"), Some(JsonValue::Bool(true))) {
            incorrect += 1;
            continue;
        }
        let metrics = doc
            .get("metrics")
            .and_then(JsonValue::as_object)
            .ok_or_else(|| format!("{}:{}: no metrics", path.display(), i + 1))?;
        runs.push(
            metrics
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect(),
        );
    }
    Ok((runs, incorrect))
}

/// Prints the comparison table; `Ok(true)` when no metric regressed, no
/// run reported incorrect output, and both sides hold the same, non-zero
/// number of correct runs.
pub fn main(args: &[String]) -> Result<bool, String> {
    let (Some(parent), Some(change)) = (args.first(), args.get(1)) else {
        return Err("expected PARENT_DIR CHANGE_DIR [BENCHMARK.json]".into());
    };
    let spec_path = args.get(2).map_or("BENCHMARK.json", String::as_str);
    let spec =
        parse_spec(&std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?)?;
    let mut clean = true;
    println!(
        "{:<14} {:<18} {:>30} {:>30} {:>8}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta"
    );
    for workload in &spec.workloads {
        let file = format!("{workload}.jsonl");
        let (p_runs, p_bad) = load(&Path::new(parent).join(&file))?;
        let (c_runs, c_bad) = load(&Path::new(change).join(&file))?;
        if p_bad + c_bad > 0 {
            println!("{workload:<14} incorrect runs: parent {p_bad}, change {c_bad}");
            clean = false;
        }
        // A run that crashed before printing leaves no line, which would
        // shift the pairing of the two sides; a side with no correct run
        // has nothing to judge.
        if p_runs.len() != c_runs.len() || c_runs.is_empty() {
            println!(
                "{workload:<14} correct runs differ or are missing: parent {}, change {}",
                p_runs.len(),
                c_runs.len()
            );
            clean = false;
        }
        for (name, unit, lower, bound) in &spec.metrics {
            let values = |runs: &[BTreeMap<String, f64>]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.get(name).copied()).collect()
            };
            let (p, c) = (values(&p_runs), values(&c_runs));
            let verdict = stats::verdict(&p, &c, *lower, *bound);
            let show = |v: &[f64]| {
                stats::quartiles(v).map_or("-".to_string(), |(q1, m, q3)| {
                    format!("{m:.4} [{q1:.4}, {q3:.4}] {unit}")
                })
            };
            let delta = match (stats::median(&p), stats::median(&c)) {
                (Some(pm), Some(cm)) if pm != 0.0 => format!("{:+.2}%", 100.0 * (cm - pm) / pm),
                _ => "-".into(),
            };
            println!(
                "{workload:<14} {name:<18} {:>30} {:>30} {delta:>8}  {} (n={}/{}, bound {bound})",
                show(&p),
                show(&c),
                verdict.as_str(),
                p.len(),
                c.len()
            );
            clean &= verdict != Verdict::Regressed;
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_reads_spec_and_result_sets() {
        let dir = Path::new(".bench_work").join(format!("test-compare-{}", std::process::id()));
        let (parent, change) = (dir.join("parent"), dir.join("change"));
        std::fs::create_dir_all(&parent).unwrap();
        std::fs::create_dir_all(&change).unwrap();
        let spec = dir.join("BENCHMARK.json");
        std::fs::write(
            &spec,
            r#"{"workloads": [{"name": "w", "why": "x"}],
                "end_to_end": [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.05}]}"#,
        )
        .unwrap();
        let line = |v: f64| {
            format!(
                "{{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
                 {{\"run_s\": {{\"value\": {v}, \"unit\": \"s\"}}}}}}\n"
            )
        };
        let write = |dir: &Path, base: f64| {
            let text: String = (0..10).map(|i| line(base + 0.01 * f64::from(i))).collect();
            std::fs::write(dir.join("w.jsonl"), text).unwrap();
        };
        let args = |spec: &Path| {
            vec![
                parent.display().to_string(),
                change.display().to_string(),
                spec.display().to_string(),
            ]
        };
        write(&parent, 10.0);
        write(&change, 10.0);
        assert_eq!(main(&args(&spec)), Ok(true));
        write(&change, 12.0);
        assert_eq!(main(&args(&spec)), Ok(false));
        std::fs::write(
            change.join("w.jsonl"),
            "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}\n",
        )
        .unwrap();
        assert_eq!(main(&args(&spec)), Ok(false));
        // Runs that crashed without a line: an empty change file, and a
        // change side one run short.
        std::fs::write(change.join("w.jsonl"), "").unwrap();
        assert_eq!(main(&args(&spec)), Ok(false));
        let short: String = (0..9).map(|i| line(10.0 + 0.01 * f64::from(i))).collect();
        std::fs::write(change.join("w.jsonl"), short).unwrap();
        assert_eq!(main(&args(&spec)), Ok(false));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
