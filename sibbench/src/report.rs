//! What a run reports: metrics with unit and sample count, the run's
//! conditions, and the two outputs — the result line (last on stdout)
//! and a record appended to `.sibbench/results.jsonl` for `compare`.

use std::io::Write as _;

use crate::json::{number, quote};
use crate::stats::{median, percentile, sorted, tail_percentile};

/// One measured number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit, e.g. `ms`, `1/s`, `count`.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
    /// How many samples it summarises.
    pub samples: usize,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
            samples,
        }
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Failed, refused, `err` or wrong operations.
    pub failed: u64,
    /// Whether every correctness oracle held.
    pub correct: bool,
    /// The metrics of the result line, in `BENCHMARK.json` order.
    pub headline: Vec<Metric>,
    /// Every other metric, printed and recorded.
    pub detail: Vec<Metric>,
    /// Run conditions: name and value.
    pub conditions: Vec<(String, String)>,
    /// Oracle failures and other notes, printed to stderr.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds a condition.
    pub fn condition(&mut self, name: &str, value: impl ToString) {
        self.conditions.push((name.to_string(), value.to_string()));
    }

    /// Records a failed check.
    pub fn fail(&mut self, note: String) {
        self.correct = false;
        if self.notes.len() < 20 {
            self.notes.push(note);
        }
    }

    /// Adds `name_p50_unit` and `name_pXX_unit` (the highest percentile
    /// with ten samples beyond it) of `samples` as details.
    pub fn latency(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        let s = sorted(samples);
        self.detail.push(Metric::new(
            format!("{name}_p50_{unit}"),
            unit,
            median(&s),
            s.len(),
        ));
        if let Some(p) = tail_percentile(s.len()) {
            let label = format!("{p}").replace('.', "");
            self.detail.push(Metric::new(
                format!("{name}_p{label}_{unit}"),
                unit,
                percentile(&s, p),
                s.len(),
            ));
        }
    }

    /// Prints the human-readable report to stderr.
    pub fn print(&self, workload: &str, seed: u64, trace: bool) {
        eprintln!("== {workload} (seed {seed}, trace {})", u8::from(trace));
        for (name, value) in &self.conditions {
            eprintln!("  condition {name} = {value}");
        }
        for m in self.headline.iter().chain(&self.detail) {
            eprintln!(
                "  metric {:<48} {:>14.4} {:<6} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        eprintln!(
            "  operations: {} attempted, {} failed; correct: {}",
            self.attempted, self.failed, self.correct
        );
        for note in &self.notes {
            eprintln!("  check failed: {note}");
        }
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics` (the headline metrics as value and unit).
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .headline
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    number(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Appends the full record (every metric with its sample count, and
    /// the conditions) to `.sibbench/results.jsonl`.
    pub fn append_record(&self, workload: &str, seed: u64, trace: bool) -> Result<(), String> {
        let metrics: Vec<String> = self
            .headline
            .iter()
            .chain(&self.detail)
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                    quote(&m.name),
                    number(m.value),
                    quote(m.unit),
                    m.samples
                )
            })
            .collect();
        let conditions: Vec<String> = self
            .conditions
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
            .collect();
        let line = format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"conditions\": {{{}}}, \"metrics\": {{{}}}}}\n",
            quote(workload),
            self.correct,
            self.attempted,
            self.failed,
            conditions.join(", "),
            metrics.join(", ")
        );
        std::fs::create_dir_all(".sibbench").map_err(|e| e.to_string())?;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(".sibbench/results.jsonl")
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("appending to .sibbench/results.jsonl: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome {
            attempted: 10,
            failed: 1,
            correct: true,
            ..Outcome::default()
        };
        outcome
            .headline
            .push(Metric::new("setup_s", "s", 0.8127, 3));
        let v = crate::json::parse(&outcome.result_line()).unwrap();
        let keys: Vec<&str> = v.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.8127));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(setup.members().len(), 2);
    }

    #[test]
    fn latency_reports_median_and_a_tail_with_ten_beyond() {
        let mut outcome = Outcome::default();
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        outcome.latency("read", "us", &samples);
        let names: Vec<&str> = outcome.detail.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["read_p50_us", "read_p99_us"]);
        assert_eq!(outcome.detail[1].value, 990.0);
        outcome.detail.clear();
        outcome.latency("batch", "s", &[1.0, 2.0, 3.0]);
        assert_eq!(outcome.detail.len(), 1);
    }
}
