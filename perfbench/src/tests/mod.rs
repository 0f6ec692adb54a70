//! Every workload at a tiny scale: the emitted metric names are exactly
//! the ones `BENCHMARK.json` declares, every value is finite, and a
//! corrupted expected-logit table is caught as failed requests.

use crate::{run, Run, Scale, Workload};
use dropback::telemetry::Json;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Tracing, the span flags and the pool size are process-wide, so runs
/// in this module never overlap.
fn exclusive() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn tiny(workload: Workload, trace: bool) -> Run {
    let dir = std::env::temp_dir().join(format!(
        "dropback-perfbench-{}-{}-{}",
        std::process::id(),
        workload.name(),
        u8::from(trace)
    ));
    Run {
        workload,
        seed: 7,
        seconds: 1,
        trace,
        scale: Scale::Tiny,
        dir: dir.join("run"),
        trace_path: dir.join("trace.json"),
        corrupt_expected: false,
    }
}

fn declared(section: &str) -> Vec<String> {
    let doc = Json::parse(include_str!("../../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let mut names: Vec<String> = doc
        .get(section)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    names.sort();
    names
}

#[test]
fn workloads_are_the_declared_ones() {
    let mut ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    ours.sort();
    assert_eq!(ours, declared("workloads"));
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let _gate = exclusive();
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(section);
        for workload in Workload::ALL {
            let spec = tiny(workload, trace);
            let out = run(&spec).unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()));
            let _ = std::fs::remove_dir_all(spec.dir.parent().expect("run dir has a parent"));
            assert!(
                out.violations.is_empty(),
                "{} (trace {trace}): {:?}",
                workload.name(),
                out.violations
            );
            assert!(out.attempted > 0 && out.failed == 0, "{}", workload.name());
            let mut got: Vec<String> = out.metrics.iter().map(|m| m.name.to_string()).collect();
            got.sort();
            assert_eq!(got, want, "{} (trace {trace})", workload.name());
            for m in &out.metrics {
                assert!(
                    m.value.is_finite(),
                    "{}: {} = {}",
                    workload.name(),
                    m.name,
                    m.value
                );
            }
        }
    }
}

#[test]
fn corrupted_expected_logits_are_failures() {
    let _gate = exclusive();
    let mut spec = tiny(Workload::ServeRead, false);
    spec.corrupt_expected = true;
    let out = run(&spec).expect("the run completes");
    let _ = std::fs::remove_dir_all(spec.dir.parent().expect("run dir has a parent"));
    assert!(out.attempted > 0);
    assert_eq!(out.failed, out.attempted, "every reply mismatches");
    assert!(
        !out.violations.is_empty(),
        "a mismatch is a correctness violation"
    );
}
