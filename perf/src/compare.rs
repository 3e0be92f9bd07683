//! `--compare A.json B.json`: set A is the parent, set B the change.
//! For every (end-to-end metric, workload) pair, print how much worse B
//! reads than A as a share of A, against the bound `BENCHMARK.json`
//! fixes, and exit non-zero when any pair is beyond its bound.
//!
//! A set is what `perf/run.sh` writes: `{"<workload>": <run record>}`.
//! One set on each side is a smoke test of a change, not a claim; a
//! claim takes ten alternating pairs (see `perf/README.md`).

use crate::report::RunRecord;
use crate::spec::{self, Spec, SpecEndToEnd};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

pub type ResultSet = BTreeMap<String, RunRecord>;

/// One (metric, workload) comparison.
#[derive(Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub parent: f64,
    pub change: f64,
    /// Positive = the change reads worse, as a share of the parent.
    pub worse_by: f64,
    pub bound: f64,
}

impl Row {
    pub fn regressed(&self) -> bool {
        self.worse_by > self.bound
    }
}

/// How much worse `change` is than `parent`, as a share of `parent`.
pub fn worse_by(m: &SpecEndToEnd, parent: f64, change: f64) -> f64 {
    let delta = if m.better == "lower" {
        change - parent
    } else {
        parent - change
    };
    if parent == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / parent.abs()
    }
}

/// Compare two sets; `Err` names what makes them incomparable.
pub fn rows(spec: &Spec, a: &ResultSet, b: &ResultSet) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for w in &spec.workloads {
        let (ra, rb) = match (a.get(&w.name), b.get(&w.name)) {
            (Some(ra), Some(rb)) => (ra, rb),
            _ => return Err(format!("workload {} is missing from a set", w.name)),
        };
        for (side, r) in [("A", ra), ("B", rb)] {
            if r.traced || !r.comparable {
                return Err(format!(
                    "{side}/{}: traced and smoke runs are not comparable",
                    w.name
                ));
            }
            if !r.correct {
                return Err(format!(
                    "{side}/{}: the run failed its output checks",
                    w.name
                ));
            }
        }
        for m in &spec.end_to_end {
            let value = |r: &RunRecord, side: &str| {
                r.metrics
                    .get(&m.name)
                    .map(|v| v.value)
                    .ok_or_else(|| format!("{side}/{}: no metric {}", w.name, m.name))
            };
            let (parent, change) = (value(ra, "A")?, value(rb, "B")?);
            rows.push(Row {
                workload: w.name.clone(),
                metric: m.name.clone(),
                parent,
                change,
                worse_by: worse_by(m, parent, change),
                bound: m.bound,
            });
        }
    }
    Ok(rows)
}

fn load_set(path: &Path) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn run(a: &Path, b: &Path, spec_path: &Path) -> ExitCode {
    let loaded = spec::load(spec_path)
        .and_then(|spec| Ok((load_set(a)?, load_set(b)?, spec)))
        .and_then(|(a, b, spec)| rows(&spec, &a, &b));
    let rows = match loaded {
        Ok(rows) => rows,
        Err(message) => {
            eprintln!("dio-perf --compare: {message}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<15} {:<12} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "parent (A)", "change (B)", "worse by", "bound"
    );
    for r in &rows {
        println!(
            "{:<15} {:<12} {:>14.4} {:>14.4} {:>8.2}% {:>6.1}%{}",
            r.workload,
            r.metric,
            r.parent,
            r.change,
            100.0 * r.worse_by,
            100.0 * r.bound,
            if r.regressed() { "  REGRESSION" } else { "" }
        );
    }
    let regressions = rows.iter().filter(|r| r.regressed()).count();
    println!("{regressions} of {} pairs beyond their bound", rows.len());
    if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: &str, bound: f64) -> SpecEndToEnd {
        SpecEndToEnd {
            name: "m".into(),
            unit: "ms".into(),
            better: better.into(),
            bound,
        }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        let lower = metric("lower", 0.1);
        assert!((worse_by(&lower, 10.0, 11.5) - 0.15).abs() < 1e-12);
        assert!((worse_by(&lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        let higher = metric("higher", 0.1);
        assert!((worse_by(&higher, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!(worse_by(&higher, 100.0, 120.0) < 0.0);
        assert_eq!(worse_by(&lower, 0.0, 0.0), 0.0);
        assert_eq!(worse_by(&lower, 0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn only_beyond_the_bound_is_a_regression() {
        let row = |worse_by| Row {
            workload: "w".into(),
            metric: "m".into(),
            parent: 1.0,
            change: 1.0,
            worse_by,
            bound: 0.1,
        };
        assert!(!row(0.1).regressed());
        assert!(row(0.1001).regressed());
        assert!(!row(-0.5).regressed());
    }
}
