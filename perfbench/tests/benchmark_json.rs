//! `BENCHMARK.json` must declare exactly the gated workloads and the
//! metrics, with their units, that the program runs and reports.

use perfbench::{Workload, END_TO_END, PER_LAYER};
use serde_json::Value;

fn declared(b: &Value, key: &str) -> Vec<(String, String)> {
    b[key]
        .as_array()
        .unwrap_or_else(|| panic!("{key} is a list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m[f].as_str()
                    .expect("name and unit are strings")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn reported(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_matches_the_program() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let b: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    assert_eq!(declared(&b, "end_to_end"), reported(END_TO_END));
    assert_eq!(declared(&b, "per_layer"), reported(PER_LAYER));
    // `edit` runs on request but is not gated: see NOTES.md.
    let workloads: Vec<Workload> = b["workloads"]
        .as_array()
        .expect("workloads is a list")
        .iter()
        .map(|w| {
            let name = w["name"].as_str().expect("workload name");
            Workload::parse(name).unwrap_or_else(|| panic!("unknown workload {name}"))
        })
        .collect();
    assert_eq!(workloads, [Workload::Browse, Workload::Dispatch]);
}
