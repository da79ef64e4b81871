//! Smoke-sized self-test of the benchmark: every workload on tiny inputs,
//! traced and untraced, with every check on; and `BENCHMARK.json` declares
//! exactly the workloads and metrics the runs report.
//!
//! Run from the repository root:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use nas_serve::json::Json;
use perfbench::{run, Config, END_TO_END, PER_LAYER, WORKLOADS};

#[test]
fn every_workload_passes_its_checks_traced_and_untraced() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let cfg = Config {
                workload: workload.to_string(),
                seed: 7,
                seconds: 0.5,
                trace,
                smoke: true,
            };
            let outcome = run(&cfg).expect("smoke run completes");
            assert!(
                outcome.ledger.attempted > 0,
                "{workload}: nothing attempted"
            );
            assert_eq!(outcome.ledger.failed, 0, "{workload} trace={trace} failed");
            let line = outcome.result_line(trace).expect("every metric measured");
            assert!(line.starts_with("{\"correct\":true,"), "{line}");
        }
    }
}

#[test]
fn benchmark_json_declares_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
    let field = |item: &Json, key: &str| -> String {
        item.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("entry without {key}"))
            .to_string()
    };
    let list = |key: &str, with_unit: bool| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|m| {
                let unit = if with_unit {
                    field(m, "unit")
                } else {
                    String::new()
                };
                (field(m, "name"), unit)
            })
            .collect()
    };
    let declared = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    let workloads: Vec<String> = list("workloads", false).into_iter().map(|w| w.0).collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(list("end_to_end", true), declared(&END_TO_END));
    assert_eq!(list("per_layer", true), declared(&PER_LAYER));
}
