//! `--compare <parent> <change>`: applies the bounds in `BENCHMARK.json`
//! to two sets of result lines and labels every end-to-end metric of
//! every workload `better`, `worse`, `unchanged` or `unresolved`.
//!
//! Each file holds the per-workload detail lines of one or more runs
//! (what the harness prints; other lines are skipped). Runs flagged
//! `contended` are not compared. With several runs on a side, that
//! side's reading is the median of its runs and its spread the
//! interquartile distance (the full range below four runs) over the
//! median. With one run, the spread is the p10–p90 band of the run's
//! samples over `value · √n`, roughly the width of a 95% interval of
//! their median.
//!
//! A metric whose spread exceeds its bound is `unresolved`, unless every
//! run of the change reads better than every run of the parent. Each
//! workload gets its own row; there is no combined score.

use crate::stats::{quartiles, relative_spread};
use serde::Value;
use std::fmt;

/// One end-to-end metric's regression bound.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether a smaller reading is better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// One run's reading of one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    /// The reported value (the median for timed metrics).
    pub value: f64,
    /// 10th percentile of the run's samples.
    pub p10: f64,
    /// 90th percentile of the run's samples.
    pub p90: f64,
    /// Samples behind the reading.
    pub n: usize,
}

/// Verdict for one metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Label {
    /// Better by more than the bound (or every change run beats every
    /// parent run).
    Better,
    /// Worse by more than the bound.
    Worse,
    /// Within the bound either way.
    Unchanged,
    /// The spread is wider than the bound.
    Unresolved,
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Label::Better => "better",
            Label::Worse => "worse",
            Label::Unchanged => "unchanged",
            Label::Unresolved => "unresolved",
        })
    }
}

fn median(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((_, q2, _)) => q2,
        None => values[0],
    }
}

fn side_spread(runs: &[Reading]) -> f64 {
    if runs.len() >= 2 {
        let values: Vec<f64> = runs.iter().map(|r| r.value).collect();
        return relative_spread(&values).unwrap_or(0.0);
    }
    let r = runs[0];
    if r.n > 1 && r.value != 0.0 {
        (r.p90 - r.p10) / (r.value.abs() * (r.n as f64).sqrt())
    } else {
        0.0
    }
}

/// Labels one metric. Returns the label and the change's median
/// relative to the parent's (positive = the reading went up).
///
/// # Panics
///
/// Panics when either side has no runs.
pub fn label(parent: &[Reading], change: &[Reading], b: &Bound) -> (Label, f64) {
    assert!(
        !parent.is_empty() && !change.is_empty(),
        "nothing to compare"
    );
    let values = |rs: &[Reading]| rs.iter().map(|r| r.value).collect::<Vec<f64>>();
    let (pv, cv) = (values(parent), values(change));
    let (pm, cm) = (median(&pv), median(&cv));
    let rel = (cm - pm) / pm.abs();
    let worse = if b.lower_is_better { rel } else { -rel };
    let spread = side_spread(parent).max(side_spread(change));
    let label = if spread > b.bound {
        let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let separated = if b.lower_is_better {
            max(&cv) < min(&pv)
        } else {
            min(&cv) > max(&pv)
        };
        if separated {
            Label::Better
        } else {
            Label::Unresolved
        }
    } else if worse > b.bound {
        Label::Worse
    } else if worse < -b.bound {
        Label::Better
    } else {
        Label::Unchanged
    };
    (label, rel)
}

/// The `end_to_end` bounds of a `BENCHMARK.json` text.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let Some(Value::Array(items)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("better"), m.get("bound")) {
            (Some(Value::Str(name)), Some(Value::Str(better)), Some(Value::Num(bound))) => {
                Ok(Bound {
                    name: name.clone(),
                    lower_is_better: better == "lower",
                    bound: *bound,
                })
            }
            _ => Err(format!("malformed end_to_end entry {m:?}")),
        })
        .collect()
}

/// `(workload, metric name, reading)` from every uncontended detail line
/// of a result file.
pub fn parse_runs(text: &str) -> Vec<(String, String, Reading)> {
    let mut out = Vec::new();
    for line in text.lines().map(str::trim).filter(|l| l.starts_with('{')) {
        let Ok(v) = serde_json::from_str::<Value>(line) else {
            continue;
        };
        let (Some(Value::Str(w)), Some(Value::Object(metrics))) =
            (v.get("workload"), v.get("metrics"))
        else {
            continue;
        };
        if matches!(v.get("contended"), Some(Value::Bool(true))) {
            eprintln!("skipping a contended {w} run");
            continue;
        }
        for (name, m) in metrics {
            let num = |k: &str| match m.get(k) {
                Some(Value::Num(x)) => Some(*x),
                _ => None,
            };
            if let Some(value) = num("value") {
                out.push((
                    w.clone(),
                    name.clone(),
                    Reading {
                        value,
                        p10: num("p10").unwrap_or(value),
                        p90: num("p90").unwrap_or(value),
                        n: num("n").unwrap_or(1.0) as usize,
                    },
                ));
            }
        }
    }
    out
}

/// Prints one row per workload; returns whether any metric got worse.
pub fn compare(bounds: &[Bound], parent: &str, change: &str) -> bool {
    let (parent, change) = (parse_runs(parent), parse_runs(change));
    let pick = |runs: &[(String, String, Reading)], w: &str, m: &str| -> Vec<Reading> {
        runs.iter()
            .filter(|(rw, rm, _)| rw == w && rm == m)
            .map(|r| r.2)
            .collect()
    };
    let mut any_worse = false;
    for w in crate::WORKLOADS {
        let mut cells = Vec::new();
        for b in bounds {
            let (p, c) = (pick(&parent, w, &b.name), pick(&change, w, &b.name));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let (l, rel) = label(&p, &c, b);
            any_worse |= l == Label::Worse;
            cells.push(format!(
                "{} {l} ({:+.1}%, bound {:.0}%)",
                b.name,
                rel * 100.0,
                b.bound * 100.0
            ));
        }
        if !cells.is_empty() {
            println!("{w:<12} {}", cells.join(" | "));
        }
    }
    any_worse
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(values: &[f64]) -> Vec<Reading> {
        values
            .iter()
            .map(|&value| Reading {
                value,
                p10: value,
                p90: value,
                n: 1,
            })
            .collect()
    }

    fn bound(b: f64) -> Bound {
        Bound {
            name: "pass_s".into(),
            lower_is_better: true,
            bound: b,
        }
    }

    #[test]
    fn within_bound_is_unchanged_beyond_it_worse_or_better() {
        let parent = runs(&[1.00, 1.01, 0.99, 1.00, 1.00]);
        let b = bound(0.05);
        assert_eq!(
            label(&parent, &runs(&[1.02, 1.03, 1.02, 1.02]), &b).0,
            Label::Unchanged
        );
        assert_eq!(
            label(&parent, &runs(&[1.10, 1.11, 1.10, 1.10]), &b).0,
            Label::Worse
        );
        assert_eq!(
            label(&parent, &runs(&[0.90, 0.91, 0.90, 0.90]), &b).0,
            Label::Better
        );
        let higher = Bound {
            lower_is_better: false,
            ..bound(0.05)
        };
        assert_eq!(
            label(&parent, &runs(&[0.90, 0.91, 0.90, 0.90]), &higher).0,
            Label::Worse
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let b = bound(0.05);
        let noisy_parent = runs(&[0.8, 1.0, 1.2, 0.9, 1.1]);
        // A 10% median shift, but the parent's own runs spread ~20%.
        let (l, rel) = label(&noisy_parent, &runs(&[1.1, 1.1, 1.1, 1.1]), &b);
        assert_eq!(l, Label::Unresolved);
        assert!((rel - 0.1).abs() < 1e-12);
        // Unless every change run beats every parent run.
        assert_eq!(
            label(&noisy_parent, &runs(&[0.5, 0.6, 0.55, 0.5]), &b).0,
            Label::Better
        );
        // One run a side: the p10-p90 band over sqrt(n) is the spread.
        let one = |value: f64, half: f64, n: usize| Reading {
            value,
            p10: value - half,
            p90: value + half,
            n,
        };
        assert_eq!(
            label(&[one(1.0, 0.5, 4)], &[one(1.2, 0.5, 4)], &b).0,
            Label::Unresolved
        );
        assert_eq!(
            label(&[one(1.0, 0.05, 100)], &[one(1.2, 0.05, 100)], &b).0,
            Label::Worse
        );
    }

    #[test]
    fn reads_bounds_and_detail_lines() {
        let bounds = parse_bounds(
            r#"{"end_to_end": [{"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        assert_eq!(bounds, vec![bound(0.1)]);
        let text = "noise\n\
            {\"workload\":\"yield_mc\",\"contended\":false,\"metrics\":{\"pass_s\":{\"unit\":\"s\",\"value\":0.15,\"p10\":0.14,\"p90\":0.16,\"n\":60}}}\n\
            {\"workload\":\"yield_mc\",\"contended\":true,\"metrics\":{\"pass_s\":{\"unit\":\"s\",\"value\":0.3}}}\n\
            {\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{}}\n";
        let r = parse_runs(text);
        assert_eq!(r.len(), 1);
        assert_eq!(
            (r[0].0.as_str(), r[0].1.as_str(), r[0].2.n),
            ("yield_mc", "pass_s", 60)
        );
    }
}
