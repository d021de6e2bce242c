//! Smoke tests of the built harness: `--quick` runs every workload once,
//! passes its correctness checks and prints every metric
//! `BENCHMARK.json` names, with the units it declares.

use serde::Value;
use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let Some(Value::Array(items)) = doc.get(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
            _ => panic!("malformed {section} entry {m:?}"),
        })
        .collect()
}

fn harness(args: &[&str]) -> Vec<Value> {
    let out = Command::new(env!("CARGO_BIN_EXE_ahfic_bench"))
        .args(args)
        .output()
        .expect("harness starts");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("utf-8 output")
        .lines()
        .map(|l| serde_json::from_str(l).unwrap_or_else(|e| panic!("{e}: {l}")))
        .collect()
}

fn unit_of<'a>(metrics: &'a Value, name: &str) -> Option<&'a Value> {
    metrics.get(name)?.get("unit")
}

#[test]
fn quick_run_of_every_workload_prints_every_declared_metric() {
    for (trace, section, key) in [("0", "end_to_end", "metrics"), ("1", "per_layer", "layers")] {
        let lines = harness(&["--quick", "--seed", "1", "--trace", trace]);
        let workloads: Vec<&Value> = lines.iter().filter_map(|l| l.get("workload")).collect();
        assert_eq!(workloads.len(), 5, "one detail line per workload");
        for line in &lines {
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)), "{line:?}");
            let metrics = line.get(key).expect("metrics present");
            for (name, unit) in declared(section) {
                assert_eq!(
                    unit_of(metrics, &name),
                    Some(&Value::Str(unit)),
                    "{name} in {:?}",
                    line.get("workload")
                );
            }
        }
    }
}

#[test]
fn last_line_holds_exactly_the_declared_metrics() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let lines = harness(&["--workload", "yield_mc", "--quick", "--trace", trace]);
        let last = lines.last().expect("a result line");
        let Value::Object(fields) = last else {
            panic!("result is not an object: {last:?}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("failed"), Some(&Value::Num(0.0)));
        let Some(Value::Object(metrics)) = last.get("metrics") else {
            panic!("no metrics object");
        };
        let printed: Vec<(String, String)> = metrics
            .iter()
            .map(|(n, m)| match m.get("unit") {
                Some(Value::Str(u)) => (n.clone(), u.clone()),
                _ => panic!("{n} has no unit"),
            })
            .collect();
        assert_eq!(printed, declared(section));
    }
}
