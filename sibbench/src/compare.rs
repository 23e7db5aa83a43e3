//! `compare PARENT.jsonl CHANGE.jsonl`: reads two result sets (records
//! appended by untraced runs) and prints one row per workload and
//! end-to-end metric — each side's median and quartiles and a verdict
//! under the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::stats::{median, quartiles, sorted, verdict, Better};

/// `(workload, metric)` → `(seed, value)` of every untraced run.
type Runs = BTreeMap<(String, String), Vec<(u64, f64)>>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        if record.get("trace") != Some(&Value::Bool(false)) {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Value::as_str)
            .unwrap_or_default();
        let seed = record.get("seed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        for (name, metric) in record
            .get("metrics")
            .map(Value::members)
            .unwrap_or_default()
        {
            if let Some(value) = metric.get("value").and_then(Value::as_f64) {
                runs.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push((seed, value));
            }
        }
    }
    Ok(runs)
}

/// Pairs runs of the two sides that used the same seed, in order.
fn pair_by_seed(parent: &[(u64, f64)], change: &[(u64, f64)]) -> Vec<(f64, f64)> {
    let mut left: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(seed, v) in parent {
        left.entry(seed).or_default().push(v);
    }
    let mut used: BTreeMap<u64, usize> = BTreeMap::new();
    change
        .iter()
        .filter_map(|&(seed, v)| {
            let k = used.entry(seed).or_insert(0);
            let p = left.get(&seed)?.get(*k).copied()?;
            *k += 1;
            Some((p, v))
        })
        .collect()
}

/// Entry point of `sibbench compare`.
pub fn run(args: &[String]) -> Result<(), String> {
    let [parent_path, change_path] = args else {
        return Err("usage: sibbench compare PARENT.jsonl CHANGE.jsonl".into());
    };
    let manifest = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let manifest = json::parse(&manifest)?;
    let (parent, change) = (load(parent_path)?, load(change_path)?);
    let workloads: Vec<&str> = manifest
        .get("workloads")
        .map(Value::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    println!(
        "{:<16} {:<12} {:>34} {:>34} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "pairs"
    );
    for workload in workloads {
        for metric in manifest
            .get("end_to_end")
            .map(Value::items)
            .unwrap_or_default()
        {
            let name = metric
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or_default();
            let better = metric
                .get("better")
                .and_then(Value::as_str)
                .and_then(Better::parse)
                .ok_or_else(|| format!("{name}: bad `better`"))?;
            let bound = metric.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let key = (workload.to_string(), name.to_string());
            let p = parent.get(&key).cloned().unwrap_or_default();
            let c = change.get(&key).cloned().unwrap_or_default();
            let values = |runs: &[(u64, f64)]| runs.iter().map(|&(_, v)| v).collect::<Vec<_>>();
            let (pv, cv) = (values(&p), values(&c));
            let pairs = pair_by_seed(&p, &c);
            let summary = |v: &[f64]| {
                let s = sorted(v);
                let (q1, q3) = quartiles(&s);
                format!("{:.4} [{:.4}, {:.4}]", median(&s), q1, q3)
            };
            println!(
                "{workload:<16} {name:<12} {:>34} {:>34} {:>6}  {}",
                summary(&pv),
                summary(&cv),
                pairs.len(),
                verdict(&pv, &cv, &pairs, better, bound).label()
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_follow_seeds_not_positions() {
        let parent = [(1, 10.0), (2, 20.0), (3, 30.0), (1, 11.0)];
        let change = [(3, 31.0), (1, 12.0), (1, 13.0), (9, 99.0)];
        assert_eq!(
            pair_by_seed(&parent, &change),
            vec![(30.0, 31.0), (10.0, 12.0), (11.0, 13.0)]
        );
    }
}
