//! Sharded peer storage must be unobservable in every report: a channel's
//! struct-of-arrays shard count changes *where* peer columns live and how
//! the scheduling pass is chunked over the worker pool — never a single
//! byte of any result.
//!
//! The sweep below drives the nastiest configuration the runtime offers —
//! per-channel churn, a Zipf zap workload with a flash-crowd storm, the
//! rate-limited admission queue and bounded candidate views — across shard
//! counts {1, 2, 4, 8} × pool sizes {1, 2, 4, 7} × both stepping modes, and
//! additionally pins the report digest so a shard-dependent result cannot
//! sneak in together with a compensating test update.

mod common;

use common::{fx_digest, qoe_surface, surface};
use fss_core::FastSwitchScheduler;
use fss_runtime::zap::{CrowdZap, Storm};
use fss_runtime::{
    AdmissionControl, RuntimeReport, SessionConfig, SessionManager, SteppingMode, WorkerPool,
};
use std::sync::Arc;

fn run(shards: usize, workers: usize, mode: SteppingMode) -> (RuntimeReport, Vec<(u64, usize)>) {
    let config = SessionConfig {
        seed: 47,
        admission: AdmissionControl {
            max_admits_per_period: Some(6),
            view_bound: Some(16),
        },
        ..SessionConfig::paper_default(4, 40)
    };
    let mut m = SessionManager::new(config, Arc::new(WorkerPool::new(workers)), || {
        Box::new(FastSwitchScheduler::new())
    });
    m.set_zap_schedule(Box::new(CrowdZap::zipf(4, 40, 0.03, 1.2, 47).with_storms(
        vec![Storm {
            at: 30,
            target: 1,
            size: 40,
        }],
    )));
    m.enable_channel_churn(9);
    m.set_shards(shards);
    m.set_mode(mode);
    m.warmup(25);
    m.run_periods(30);
    (m.report(), m.queue_depth_timeline())
}

/// The digest of the single-shard, single-worker barrier run.  Every other
/// (shards, workers, mode) combination must reproduce it byte for byte.
const PINNED_DIGEST: u64 = 17188237993819082087;

/// Digest of the same reference run's streaming-QoE telemetry surface
/// (bounded timelines + scorecard), pinned separately so the legacy pin
/// above keeps its pre-telemetry value.
const QOE_PINNED_DIGEST: u64 = 17697973354510269892;

#[test]
fn reports_are_byte_identical_across_shard_counts_and_pool_sizes() {
    let (reference, reference_timeline) = run(1, 1, SteppingMode::Barrier);
    assert!(reference.total_zaps() > 0);
    assert!(reference.cross_channel_zaps.completed > 0);
    assert!(reference.admission.rate_limited);
    assert!(reference.admission.deferred > 0, "the storm must queue");

    assert_eq!(
        fx_digest(&surface(&reference, &reference_timeline)),
        PINNED_DIGEST,
        "sharded run drifted from the pinned baseline:\n{}",
        surface(&reference, &reference_timeline)
    );
    assert!(
        reference.scorecard.admission_peak_queue > 0,
        "the storm must register on the depth timeline"
    );
    assert_eq!(
        fx_digest(&qoe_surface(&reference)),
        QOE_PINNED_DIGEST,
        "QoE telemetry drifted from the pinned baseline:\n{}",
        qoe_surface(&reference)
    );

    for &shards in &[1usize, 2, 4, 8] {
        for &workers in &[1usize, 2, 4, 7] {
            let (report, timeline) = run(shards, workers, SteppingMode::Barrier);
            assert_eq!(report, reference, "shards={shards} workers={workers}");
            assert_eq!(
                timeline, reference_timeline,
                "timeline shards={shards} workers={workers}"
            );
        }
        // Pipelined stepping composes with sharding too.
        let (report, timeline) = run(shards, 4, SteppingMode::Pipelined { run_ahead: 4 });
        assert_eq!(report, reference, "pipelined shards={shards}");
        assert_eq!(timeline, reference_timeline, "pipelined timeline");
    }
}
