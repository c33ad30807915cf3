//! Hot-path equivalence: the zero-allocation scratch-arena period loop (and
//! its chunked scheduling sweep, in-line or on a worker pool) must reproduce
//! the `SystemReport` of the original straight-line reference implementation
//! on a seeded churn scenario with the paper's schedulers.  The reference
//! reports are pinned as digests captured from that implementation.

use fast_source_switching::core::{FastSwitchScheduler, NormalSwitchScheduler};
use fast_source_switching::gossip::{
    GossipConfig, SegmentScheduler, StreamingSystem, SystemReport,
};
use fast_source_switching::overlay::{ChurnModel, OverlayBuilder, PeerId};
use fast_source_switching::runtime::WorkerPool;
use fast_source_switching::sim::hasher::FxHasher64;
use fast_source_switching::trace::{GeneratorConfig, TraceGenerator};
use std::hash::Hasher;
use std::sync::Arc;

/// Digest of the Fast-scheduler report, captured from the reference
/// implementation.
const FAST_REFERENCE_DIGEST: u64 = 17940517717451153860;

/// Digest of the Normal-scheduler report, captured from the reference
/// implementation.  No other pin covers `NormalSwitchScheduler`.
const NORMAL_REFERENCE_DIGEST: u64 = 4853517735897642489;

/// Process-stable digest of a report's full `Debug` text (`{:?}` on `f64`
/// prints the shortest round-trip form, so it is exact).
fn digest(report: &SystemReport) -> u64 {
    let mut h = FxHasher64::default();
    h.write(format!("{report:?}").as_bytes());
    h.finish()
}

#[derive(Clone, Copy, PartialEq)]
enum Path {
    Optimized,
    /// Chunked scheduling sweep without an executor (in-line chunks).
    Parallel(usize),
    /// Chunked scheduling sweep on a persistent pool of the given size.
    Pool {
        chunks: usize,
        workers: usize,
    },
}

/// Runs the 200-node churned switch scenario through the selected period
/// implementation and returns its report, plus the pool of a
/// [`Path::Pool`] run.
fn run_churn_scenario(
    scheduler: Box<dyn SegmentScheduler>,
    path: Path,
) -> (SystemReport, Option<Arc<WorkerPool>>) {
    let trace = TraceGenerator::new(GeneratorConfig::sized(200, 42)).generate("equivalence");
    let overlay = OverlayBuilder::paper_default().build(&trace).unwrap();
    let peers: Vec<PeerId> = overlay.active_peers().collect();
    let (s1, s2) = (peers[0], peers[peers.len() / 2]);

    let mut sys = StreamingSystem::new(overlay, GossipConfig::paper_default(), scheduler);
    let mut pool = None;
    match path {
        Path::Parallel(workers) => sys.set_parallelism(workers),
        Path::Pool { chunks, workers } => {
            sys.set_parallelism(chunks);
            let workers = Arc::new(WorkerPool::new(workers));
            sys.set_executor(workers.as_executor());
            pool = Some(workers);
        }
        Path::Optimized => {}
    }

    sys.start_initial_source(s1);
    sys.run_periods(40);
    sys.set_churn(ChurnModel::paper_default(7));
    sys.switch_source(s2);
    sys.run_periods(120);
    (sys.report(), pool)
}

#[test]
fn fast_scheduler_optimized_matches_reference_under_churn() {
    let (optimized, _) = run_churn_scenario(Box::new(FastSwitchScheduler::new()), Path::Optimized);
    assert_eq!(digest(&optimized), FAST_REFERENCE_DIGEST, "{optimized:?}");
    // The scenario is meaningful: the switch actually completed and traffic
    // flowed.
    assert!(optimized.switch_completed_secs.is_some());
    assert!(optimized.traffic_total.data_bits > 0);
    assert!(!optimized.ratio_samples.is_empty());
}

#[test]
fn normal_scheduler_optimized_matches_reference_under_churn() {
    let (optimized, _) =
        run_churn_scenario(Box::new(NormalSwitchScheduler::new()), Path::Optimized);
    assert_eq!(digest(&optimized), NORMAL_REFERENCE_DIGEST, "{optimized:?}");
}

#[test]
fn parallel_sweep_matches_sequential_under_churn() {
    let (sequential, _) = run_churn_scenario(Box::new(FastSwitchScheduler::new()), Path::Optimized);
    for workers in [2, 4, 7] {
        let (parallel, _) = run_churn_scenario(
            Box::new(FastSwitchScheduler::new()),
            Path::Parallel(workers),
        );
        assert_eq!(parallel, sequential, "workers = {workers}");
    }
}

/// The pool determinism guarantee: the scheduling sweep dispatched onto the
/// persistent worker pool produces byte-identical reports for every pool
/// size — 1 (in-line), 2, 4 and 7 workers — under churn, and matches the
/// sequential path (itself pinned to the reference digest above).  Every
/// pool must actually have been handed the scheduling pass.
#[test]
fn pool_backed_sweep_is_byte_identical_across_pool_sizes() {
    let (sequential, _) = run_churn_scenario(Box::new(FastSwitchScheduler::new()), Path::Optimized);
    for workers in [1, 2, 4, 7] {
        let (pooled, pool) = run_churn_scenario(
            Box::new(FastSwitchScheduler::new()),
            Path::Pool { chunks: 4, workers },
        );
        assert_eq!(pooled, sequential, "pool workers = {workers}");
        let dispatches = pool.expect("pool run returns its pool").dispatches();
        assert!(dispatches > 0, "pool workers = {workers}: no dispatch");
    }
}

/// Pool reuse across consecutive sessions: a pool that already ran one full
/// session must drive a second one to exactly the report a fresh pool
/// produces (no state leakage through the persistent workers).
#[test]
fn pool_reuse_across_sessions_matches_fresh_pool() {
    let run_on = |pool: &Arc<WorkerPool>, scheduler: Box<dyn SegmentScheduler>| {
        let trace = TraceGenerator::new(GeneratorConfig::sized(150, 42)).generate("pool-reuse");
        let overlay = OverlayBuilder::paper_default().build(&trace).unwrap();
        let peers: Vec<PeerId> = overlay.active_peers().collect();
        let (s1, s2) = (peers[0], peers[peers.len() / 2]);
        let mut sys = StreamingSystem::new(overlay, GossipConfig::paper_default(), scheduler);
        sys.set_parallelism(4);
        sys.set_executor(pool.as_executor());
        sys.start_initial_source(s1);
        sys.run_periods(30);
        sys.set_churn(ChurnModel::paper_default(7));
        sys.switch_source(s2);
        sys.run_periods(60);
        sys.report()
    };

    let shared = Arc::new(WorkerPool::new(3));
    let first = run_on(&shared, Box::new(FastSwitchScheduler::new()));
    let second = run_on(&shared, Box::new(NormalSwitchScheduler::new()));
    assert_eq!(
        first,
        run_on(
            &Arc::new(WorkerPool::new(3)),
            Box::new(FastSwitchScheduler::new())
        )
    );
    assert_eq!(
        second,
        run_on(
            &Arc::new(WorkerPool::new(3)),
            Box::new(NormalSwitchScheduler::new())
        )
    );
    assert_ne!(first, second, "schedulers must differ on this workload");
}
