//! The benchmark's own guarantees, at reduced sizes: simulated figures do
//! not depend on the pool size or on tracing, and the metric tables agree
//! with `BENCHMARK.json`.

use fss_perfbench::metrics::{summarize, END_TO_END, PER_LAYER};
use fss_perfbench::tracer::Tracer;
use fss_perfbench::{run_rep, Params, RepResult, SteadyState, Workload};
use fss_runtime::WorkerPool;
use std::sync::Arc;

fn small(workload: Workload, workers: usize, trace: bool) -> (RepResult, Tracer) {
    let params = Params {
        workers,
        reps: 1,
        scale: 0.03,
        ..Params::new(workload, 7, 1.0, trace)
    };
    let pool = Arc::new(WorkerPool::new(workers));
    let mut tracer = Tracer::new(trace);
    let rep = run_rep(&params, &pool, &mut tracer);
    assert!(rep.check_failures.is_empty(), "{:?}", rep.check_failures);
    (rep, tracer)
}

fn pool_and_tracing_do_not_change_results(workload: Workload) {
    let (serial, _) = small(workload, 1, false);
    let (pooled, _) = small(workload, 2, false);
    let (traced, tracer) = small(workload, 2, true);
    let (traced_serial, _) = small(workload, 1, true);
    assert!(serial.sim.ops > 0, "{workload:?} attempted nothing");
    for (label, other) in [("pool of 2", &pooled), ("traced", &traced)] {
        assert!(
            serial.sim.identical(&other.sim),
            "{workload:?}: {label} changed the simulated figures\n{:?}\n{:?}",
            serial.sim,
            other.sim
        );
    }
    // Pool dispatches count the execution strategy (a pool of 1 runs the
    // sweep in-line), not the simulation; every other count must agree.
    let simulated = |rep: &RepResult| -> Vec<(&'static str, f64)> {
        rep.layer
            .iter()
            .copied()
            .filter(|(name, _)| *name != "runtime.pool.dispatches")
            .collect()
    };
    assert_eq!(
        simulated(&traced),
        simulated(&traced_serial),
        "{workload:?}: per-layer counts depend on the pool size"
    );
    assert!(!tracer.spans().is_empty());
    assert!(tracer.spans().iter().all(|s| s.end_ns >= s.start_ns));
}

#[test]
fn switch_churn_is_deterministic() {
    pool_and_tracing_do_not_change_results(Workload::SwitchChurn);
}

#[test]
fn zapping_flash_is_deterministic() {
    pool_and_tracing_do_not_change_results(Workload::ZappingFlash);
}

#[test]
fn lossy_event_is_deterministic() {
    pool_and_tracing_do_not_change_results(Workload::LossyEvent);
}

#[test]
fn traced_summary_lists_every_layer_metric() {
    for workload in Workload::ALL {
        let (rep, tracer) = small(workload, 2, true);
        let summary = summarize(&[rep], &tracer, 1.0);
        assert!(
            summary.check_failures.is_empty(),
            "{:?}",
            summary.check_failures
        );
        let names: Vec<&str> = summary.metrics.iter().map(|m| m.0).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, expected);
        // Every time is measured on every workload, never a constant 0.
        for &(name, unit, value) in &summary.metrics {
            if unit == "ms" || unit == "ns" {
                assert!(value > 0.0, "{workload:?}: {name} reads {value}");
            }
        }
        let value = |name: &str| summary.metrics.iter().find(|m| m.0 == name).unwrap().2;
        let coverage = value("trace.window_coverage");
        assert!(coverage > 0.9 && coverage <= 1.0, "coverage {coverage}");
        assert_eq!(
            value("gossip.net.data_sent") > 0.0,
            workload == Workload::LossyEvent
        );
    }
}

#[test]
fn a_failed_check_marks_the_result_incorrect() {
    let (mut rep, tracer) = small(Workload::SwitchChurn, 1, false);
    rep.check_failures.push("injected".to_string());
    let summary = summarize(&[rep], &tracer, 1.0);
    assert!(summary.json().starts_with("{\"correct\": false,"));
}

#[test]
fn steady_state_rule() {
    let mut plateau = SteadyState::new(10);
    let verdict = (0..200).find_map(|_| plateau.observe(100.0));
    assert_eq!(verdict, Some(true));
    assert_eq!(plateau.periods(), 10 + 2 * 20);

    let mut growing = SteadyState::new(10);
    let mut bytes = 100.0;
    let verdict = (0..10_000).find_map(|_| {
        bytes *= 1.001;
        growing.observe(bytes)
    });
    assert_eq!(verdict, Some(false));
}

#[test]
fn benchmark_json_lists_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let workloads: Vec<&str> = json
        .split("{\"name\": \"")
        .skip(1)
        .filter(|entry| entry.contains("\", \"why\": "))
        .map(|entry| &entry[..entry.find('"').expect("closing quote")])
        .collect();
    assert!(workloads.len() >= 2, "BENCHMARK.json lists {workloads:?}");
    for name in &workloads {
        assert!(
            Workload::from_name(name).is_some(),
            "unknown workload {name}"
        );
    }
    let entries = json.matches("{\"name\": ").count();
    assert_eq!(
        entries,
        END_TO_END.len() + PER_LAYER.len() + workloads.len()
    );
    for (name, unit, _) in END_TO_END {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\",");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for (name, unit) in PER_LAYER {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
