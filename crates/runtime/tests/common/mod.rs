//! Report surfaces and the digest the pin suites (`golden_report.rs`,
//! `shard_determinism.rs`, `event_mode.rs`) hash them with.  `{:?}` on
//! `f64` prints the shortest round-trip representation, so every digest is
//! exact, not rounded.

// Each pin suite compiles this module on its own and uses a subset of it.
#![allow(dead_code)]

use fss_runtime::RuntimeReport;
use fss_sim::hasher::FxHasher64;
use std::fmt::Write;
use std::hash::Hasher;

/// FxHash digest of `text` (deterministic across processes, unlike the std
/// `RandomState`).
pub fn fx_digest(text: &str) -> u64 {
    let mut h = FxHasher64::default();
    h.write(text.as_bytes());
    h.finish()
}

/// The pre-directory report surface: only fields that existed before the
/// membership-directory refactor, so additive metrics can evolve without
/// invalidating the pins.
pub fn legacy_surface(report: &RuntimeReport) -> String {
    let mut s = channel_surface(report);
    write!(
        s,
        " | cross={:?} load={:?} mem={:?}",
        report.cross_channel_zaps, report.zap_load, report.mem
    )
    .unwrap();
    s
}

/// The full report surface, admission metrics and the queue-depth
/// `timeline` included.
pub fn surface(report: &RuntimeReport, timeline: &[(u64, usize)]) -> String {
    let mut s = channel_surface(report);
    write!(
        s,
        " | cross={:?} load={:?} mem={:?} adm={:?} q={timeline:?}",
        report.cross_channel_zaps, report.zap_load, report.mem, report.admission
    )
    .unwrap();
    s
}

/// The streaming-QoE telemetry surface: the folded QoE / queue-depth
/// timelines and the scorecard's exact text form.
pub fn qoe_surface(report: &RuntimeReport) -> String {
    format!(
        "qoe={:?} depth={:?} card={}",
        report.qoe_timeline,
        report.queue_depth,
        report.scorecard.to_text()
    )
}

/// The run header and per-channel lines both report surfaces start with.
fn channel_surface(report: &RuntimeReport) -> String {
    let mut s = String::new();
    write!(s, "periods={} workload={}", report.periods, report.workload).unwrap();
    for c in &report.channels {
        write!(
            s,
            " | ch{} viewers={} periods={} traffic={:?} in={} out={} lat={:?}",
            c.channel, c.viewers, c.periods, c.traffic, c.zaps_in, c.zaps_out, c.zap_latency
        )
        .unwrap();
    }
    s
}
