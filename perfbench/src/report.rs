//! The run report: correctness checks, operation counts, metrics with
//! their spread and sample count, and the two output lines (the full
//! report, then the one-line result the benchmark contract asks for).

use crate::host::{json_num, json_str};

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Interquartile range over the samples as a share of the median
    /// (0 for a single value or a count).
    pub spread: f64,
    pub samples: usize,
}

pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    /// Measured operations attempted / failed (checks are added on top).
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// Free-form `key: value` notes (sizes, counts) for the full report.
    pub notes: Vec<(String, String)>,
}

impl Report {
    /// A metric from a sample set: its median, with the set's spread.
    pub fn sampled(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value: crate::common::median(samples),
            spread: crate::common::rel_iqr(samples),
            samples: samples.len(),
        });
    }

    /// A metric with one value (a count, a ratio, a single measurement).
    pub fn single(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name: name.to_string(), unit, value, spread: 0.0, samples: 1 });
    }

    pub fn check(&mut self, name: &str, passed: bool, detail: String) {
        self.checks.push(Check { name: name.to_string(), passed, detail });
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    pub fn attempted(&self) -> u64 {
        self.ops_attempted + self.checks.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.ops_failed + self.checks.iter().filter(|c| !c.passed).count() as u64
    }

    /// The full report: provenance, workload, checks, notes, and every
    /// metric with spread and sample count. `compare` reads these lines.
    pub fn full_json(&self, workload: &str, seed: u64, trace: bool, provenance: &str) -> String {
        let mut s = format!(
            "{{\"report\":{{\"workload\":{},\"seed\":{seed},\"trace\":{trace},\"provenance\":{provenance},",
            json_str(workload)
        );
        s.push_str("\"checks\":[");
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":{},\"passed\":{},\"detail\":{}}}",
                json_str(&c.name),
                c.passed,
                json_str(&c.detail)
            ));
        }
        s.push_str("],\"notes\":{");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{}:{}", json_str(k), json_str(v)));
        }
        s.push_str("},\"metrics\":{");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{}:{{\"value\":{},\"unit\":{},\"spread\":{},\"samples\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit),
                json_num(m.spread),
                m.samples
            ));
        }
        s.push_str(&format!(
            "}},\"attempted\":{},\"failed\":{}}}}}",
            self.attempted(),
            self.failed()
        ));
        s
    }

    /// The contract's last line: `correct`, `attempted`, `failed`, and the
    /// metrics named in `names` (value and unit only).
    pub fn result_json(&self, names: &[&str]) -> String {
        let mut s = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.failed() == 0,
            self.attempted(),
            self.failed()
        );
        let mut first = true;
        for name in names {
            let Some(m) = self.metrics.iter().find(|m| m.name == *name) else { continue };
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            ));
        }
        s.push_str("}}");
        s
    }
}
