//! The metric tables and the fold of an invocation's builds into them.
//!
//! `BENCHMARK.json` lists the same names and units; a test keeps the two in
//! step.

use crate::tracer::Tracer;
use crate::{median, quantile, RepResult};

/// End-to-end metrics: name, unit, and whether the figure is *host* (what
/// the simulator costs) or *simulated* (what the modelled network sees).
pub const END_TO_END: [(&str, &str, &str); 10] = [
    ("sim_peer_periods_per_s", "peer-periods/s", "host"),
    ("period_ms_p50", "ms", "host"),
    ("period_ms_p90", "ms", "host"),
    ("setup_s", "s", "host"),
    ("peak_rss_mib", "MiB", "host"),
    ("state_bytes_per_peer", "B", "simulated"),
    ("switch_time_s", "s", "simulated"),
    ("continuity", "ratio", "simulated"),
    ("control_overhead", "ratio", "simulated"),
    ("failed_share", "ratio", "simulated"),
];

/// Per-layer metrics of the traced run: name and unit.  Every time is
/// measured on every workload; a count of a layer a workload bypasses reads
/// 0 there.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("setup.build_ms", "ms"),
    ("setup.warmup_ms", "ms"),
    ("setup.warmup_periods", "count"),
    ("period.step_ms.p50", "ms"),
    ("period.step_ms.p90", "ms"),
    ("period.step_ms.sum", "ms"),
    ("period.ns_per_peer", "ns"),
    ("report.fold_ms", "ms"),
    ("gossip.memory_usage_ms", "ms"),
    ("trace.window_coverage", "ratio"),
    ("window.non_period_share", "ratio"),
    ("trace.sim_peer_periods_per_s", "peer-periods/s"),
    ("overlay.active_peers", "count"),
    ("gossip.data_segments", "count"),
    ("gossip.control_bits", "bit"),
    ("gossip.switch.countable", "count"),
    ("gossip.switch.completed", "count"),
    ("gossip.qoe.played", "count"),
    ("gossip.qoe.stall_events", "count"),
    ("gossip.qoe.stalled_segments", "count"),
    ("gossip.mem.ring_bytes_per_peer", "B"),
    ("gossip.mem.window_bytes_per_peer", "B"),
    ("gossip.mem.seq_bytes_per_peer", "B"),
    ("gossip.net.data_sent", "count"),
    ("gossip.net.data_delivered", "count"),
    ("gossip.net.data_lost", "count"),
    ("gossip.net.data_stale", "count"),
    ("gossip.net.requests_blinded", "count"),
    ("gossip.net.requests_lost", "count"),
    ("gossip.net.in_flight_max", "count"),
    ("gossip.net.delivered_ratio", "ratio"),
    ("runtime.pool.dispatches", "count"),
    ("runtime.zaps_in", "count"),
    ("runtime.admission.queue_depth", "count"),
    ("runtime.admission.queue_depth_max", "count"),
    ("runtime.admission.deferred", "count"),
    ("runtime.admission.view_staleness", "ratio"),
    ("runtime.zap.completed", "count"),
    ("runtime.zap.pending", "count"),
    ("host.steal_share", "ratio"),
];

/// An invocation's result: every metric of one table with its value.
pub struct Summary {
    /// `(name, unit, value)` in table order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Simulated ops (listener switches or zap arrivals) over all builds.
    pub ops: u64,
    /// Simulated ops whose listener missed the new stream, over all builds.
    pub ops_failed: u64,
    /// Measured periods over all builds: the closed loop's operations.
    pub periods: u64,
    /// Pooled period samples the percentiles are taken over.
    pub period_samples: usize,
    /// Share of the machine's CPU time stolen by the hypervisor during the
    /// measured windows.
    pub steal_share: f64,
    /// Output checks that failed.
    pub check_failures: Vec<String>,
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Wall time of every span called one of `names`, in milliseconds, sorted.
/// A role such as "the period" is one span name per workload
/// (`gossip.advance` or `runtime.step`).
fn sorted_ms(tracer: &Tracer, names: &[&str]) -> Vec<f64> {
    let mut v: Vec<f64> = names
        .iter()
        .flat_map(|name| tracer.durations(name))
        .map(|ns| ms(ns as f64))
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Σ of a sample (`+0.0` when empty, where `Iterator::sum` gives `-0.0`).
fn sum(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |a, b| a + b)
}

fn mean(v: &[f64]) -> f64 {
    sum(v) / v.len().max(1) as f64
}

/// Folds the builds of one invocation into the end-to-end table (untraced)
/// or the per-layer table (traced).  `peak_rss_mib` is the process's peak
/// resident set, read by the caller at the end.
pub fn summarize(reps: &[RepResult], tracer: &Tracer, peak_rss_mib: f64) -> Summary {
    let first = &reps[0];
    let mut failures: Vec<String> = reps.iter().flat_map(|r| r.check_failures.clone()).collect();
    for (i, rep) in reps.iter().enumerate().skip(1) {
        if !rep.sim.identical(&first.sim) {
            failures.push(format!(
                "simulated figures of build {i} differ from build 0: {:?} vs {:?}",
                rep.sim, first.sim
            ));
        }
        let same_layer = rep.layer.len() == first.layer.len()
            && rep
                .layer
                .iter()
                .zip(&first.layer)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
        if !same_layer {
            failures.push(format!("per-layer counts of build {i} differ from build 0"));
        }
    }

    let mut period_ms: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.period_ns.iter().map(|&ns| ms(ns as f64)))
        .collect();
    period_ms.sort_by(f64::total_cmp);
    let peer_periods: u64 = reps.iter().map(|r| r.sim.peer_periods).sum();
    let window_ns: u64 = reps.iter().map(|r| r.window_ns).sum();
    let throughput = peer_periods as f64 / (window_ns as f64 / 1e9);
    let stolen: u64 = reps.iter().map(|r| r.window_jiffies.0).sum();
    let cpu: u64 = reps.iter().map(|r| r.window_jiffies.1).sum();
    let steal_share = stolen as f64 / cpu.max(1) as f64;
    let sim = first.sim;

    let metrics: Vec<(&'static str, &'static str, f64)> = if !tracer.is_on() {
        let setup_s = median(
            &reps
                .iter()
                .map(|r| r.setup_ns as f64 / 1e9)
                .collect::<Vec<_>>(),
        );
        let values = [
            throughput,
            quantile(&period_ms, 0.5),
            quantile(&period_ms, 0.9),
            setup_s,
            peak_rss_mib,
            sim.state_bytes_per_peer,
            sim.switch_time_s,
            sim.continuity,
            sim.control_overhead,
            sim.failed_share(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), v)| (name, unit, v))
            .collect()
    } else {
        let n = reps.len() as f64;
        let period = sorted_ms(tracer, &["gossip.advance", "runtime.step"]);
        let (covered, window) = tracer.child_cover("window");
        let mut values: Vec<(&str, f64)> = vec![
            (
                "setup.build_ms",
                median(&sorted_ms(tracer, &["setup.build"])),
            ),
            (
                "setup.warmup_ms",
                median(&sorted_ms(tracer, &["gossip.warmup", "runtime.warmup"])),
            ),
            ("period.step_ms.p50", quantile(&period, 0.5)),
            ("period.step_ms.p90", quantile(&period, 0.9)),
            ("period.step_ms.sum", sum(&period) / n),
            (
                "period.ns_per_peer",
                sum(&period) * 1e6 / peer_periods.max(1) as f64,
            ),
            (
                "report.fold_ms",
                mean(&sorted_ms(tracer, &["gossip.report", "runtime.report"])),
            ),
            (
                "gossip.memory_usage_ms",
                mean(&sorted_ms(tracer, &["gossip.memory_usage"])),
            ),
            (
                "trace.window_coverage",
                covered as f64 / window.max(1) as f64,
            ),
            (
                "window.non_period_share",
                1.0 - sum(&period) * 1e6 / window.max(1) as f64,
            ),
            ("trace.sim_peer_periods_per_s", throughput),
            ("host.steal_share", steal_share),
        ];
        values.extend(first.layer.iter().copied());
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = values
                    .iter()
                    .find(|(k, _)| *k == name)
                    .map_or(0.0, |&(_, v)| v);
                (name, unit, v)
            })
            .collect()
    };
    for &(name, _, v) in &metrics {
        if !v.is_finite() {
            failures.push(format!("metric {name} is not a finite number ({v})"));
        }
    }

    Summary {
        metrics,
        ops: reps.iter().map(|r| r.sim.ops).sum(),
        ops_failed: reps.iter().map(|r| r.sim.ops_failed).sum(),
        periods: reps.iter().map(|r| r.sim.periods).sum(),
        period_samples: period_ms.len(),
        steal_share,
        check_failures: failures,
    }
}

impl Summary {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.  The attempted operations are the measured
    /// periods the driver thread issued; none can fail without aborting the
    /// run, so `failed` is 0.  (A listener that misses the new stream is a
    /// simulated outcome, reported as `ops_failed` and `failed_share`.)
    /// Non-finite values print as 0 (the run is then marked incorrect).
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|&(name, unit, v)| {
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
            self.check_failures.is_empty(),
            self.periods,
            metrics.join(", ")
        )
    }
}
