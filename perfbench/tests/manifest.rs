//! `BENCHMARK.json` at the repository root lists exactly the workloads and
//! metrics this benchmark reports, with the same units.

use perfbench::{E2E_METRICS, LAYER_METRICS, WORKLOADS};

fn manifest() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark")
}

#[test]
fn manifest_matches_the_benchmark() {
    let m = manifest();
    let (e2e, layers) = m.split_at(m.find("\"per_layer\"").expect("per_layer section"));
    for w in WORKLOADS {
        assert!(
            m.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
            "workload {w}"
        );
    }
    for (name, unit) in E2E_METRICS {
        assert!(
            e2e.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ")),
            "{name}"
        );
    }
    for (name, unit) in LAYER_METRICS {
        assert!(
            layers.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ")),
            "{name}"
        );
    }
    assert_eq!(e2e.matches("\"bound\"").count(), E2E_METRICS.len());
    assert_eq!(layers.matches("\"better\"").count(), LAYER_METRICS.len());
}
