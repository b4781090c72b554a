//! Runs the ledger end to end in smoke mode (the `tiny` fixture, small
//! libraries, one second per run) and checks the result line.

use std::process::Command;

use spectral_telemetry::JsonValue;

fn run(workload: &str, trace: u8) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_spectral-ledger"))
        .args(["--smoke", "--workload", workload, "--seconds", "1", "--trace", &trace.to_string()])
        .output()
        .expect("ledger runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload} --trace {trace} failed:\n{stdout}");
    let last = stdout.lines().last().expect("ledger prints a result line");
    JsonValue::parse(last).expect("result line is JSON")
}

/// `(name, unit)` pairs listed under `key` in the repository's
/// `BENCHMARK.json`.
fn declared(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(JsonValue::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s =
                |k: &str| m.get(k).and_then(JsonValue::as_str).expect("name and unit").to_owned();
            (s("name"), s("unit"))
        })
        .collect()
}

// One test, so the runs never write the same library file at once.
#[test]
fn every_workload_reports_every_metric_in_smoke_mode() {
    for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
        let want = declared(key);
        for workload in ["online-gcc", "matched-mcf", "sweep-parser"] {
            let result = run(workload, trace);
            let obj = result.as_obj().expect("result is an object");
            let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(result.get("correct").and_then(JsonValue::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
            assert!(result.get("attempted").and_then(JsonValue::as_u64) >= Some(1));
            let metrics = result.get("metrics").and_then(JsonValue::as_obj).expect("metrics");
            let got: Vec<&String> = metrics.keys().collect();
            assert_eq!(got.len(), want.len(), "{workload} --trace {trace}: {got:?}");
            for (name, unit) in &want {
                let m = metrics.get(name).unwrap_or_else(|| panic!("{workload} lacks {name}"));
                assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some(unit.as_str()));
                let v = m.get("value").and_then(JsonValue::as_f64).expect("numeric value");
                assert!(v.is_finite(), "{workload} {name} = {v}");
                if trace == 0 {
                    assert!(v > 0.0, "{workload} {name} is {v}; end-to-end metrics are never 0");
                }
            }
        }
    }
}
