//! Every metric `BENCHMARK.json` lists is emitted, under a well-formed
//! name, by every workload, on a small database and a short run.

use gembench::bench::{self, Config};
use gembench::gen::Workload;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn listed(section: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array end")];
    body.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_string()).collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn emitted(workload: Workload, trace: bool) -> BTreeSet<String> {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("metrics-{trace}"));
    let mut cfg = Config::new(workload, 5, 0.4, trace, dir);
    cfg.employees = 300;
    // A short run has too few samples for the reference tail levels.
    cfg.tail_levels = [0.5; 4];
    let report = bench::run(&cfg).expect("the run completes");
    assert!(report.correct, "{workload:?} oracles: {:?}", report.notes);
    assert_eq!(report.failed, 0);
    let names: Vec<String> = report.metrics.iter().map(|m| m.0.clone()).collect();
    let set: BTreeSet<String> = names.iter().cloned().collect();
    assert_eq!(set.len(), names.len(), "{workload:?} emits each metric once");
    for (name, value, _) in &report.metrics {
        assert!(value.is_finite(), "{workload:?} {name} = {value}");
    }
    set
}

#[test]
fn listed_names_are_well_formed() {
    let e2e = listed("end_to_end");
    let layer = listed("per_layer");
    assert!(e2e.contains("setup_s") && e2e.len() == 13, "{e2e:?}");
    assert!(e2e.is_disjoint(&layer));
    for name in e2e.iter().chain(&layer) {
        assert!(well_formed(name), "{name}");
    }
}

#[test]
fn every_workload_emits_every_listed_metric() {
    for w in Workload::ALL {
        assert_eq!(emitted(w, false), listed("end_to_end"), "{w:?} end-to-end");
        assert_eq!(emitted(w, true), listed("per_layer"), "{w:?} per-layer");
    }
}
