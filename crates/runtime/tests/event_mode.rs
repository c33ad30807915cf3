//! Fault-injection regression suite for the event-driven stepping mode.
//!
//! Two invariants are pinned here:
//!
//! 1. **Degenerate equivalence** — installing the *ideal* network model
//!    (zero latency, zero loss, zero jitter) must reproduce the
//!    period-lockstep golden digests of `golden_report.rs` byte for byte.
//!    The event core is a strict generalisation: at the ideal point every
//!    grant arrives at the boundary that resolved it, in resolver order,
//!    and no fault stream is ever sampled.  Beyond the pins, ideal event
//!    runs equal lockstep runs report for report on every shard count.
//!
//! 2. **Faulty-run determinism** — a lossy, delayed, jittered run is itself
//!    digest-pinned and byte-identical across pool sizes {1, 2, 4, 7} ×
//!    shard counts {1, 2, 4, 8} × barrier/pipelined stepping.  Loss and
//!    jitter draws are stateless hashes (no RNG cursor), so no execution
//!    interleaving can perturb them.

mod common;

use common::{fx_digest, legacy_surface, qoe_surface};
use fss_core::FastSwitchScheduler;
use fss_overlay::NetworkConfig;
use fss_runtime::zap::{CrowdZap, Storm};
use fss_runtime::{RuntimeReport, SessionConfig, SessionManager, SteppingMode, WorkerPool};
use std::sync::Arc;

/// Mirrors `golden_report::run`, with a network model installed.
fn run_golden(
    channels: usize,
    seed: u64,
    mode: SteppingMode,
    churn: bool,
    storms: bool,
    network: NetworkConfig,
) -> RuntimeReport {
    let config = SessionConfig {
        seed,
        network: Some(network),
        ..SessionConfig::paper_default(channels, 40)
    };
    let pool = Arc::new(WorkerPool::new(3));
    let mut m = SessionManager::new(config, pool, || Box::new(FastSwitchScheduler::new()));
    if storms {
        m.set_zap_schedule(Box::new(
            CrowdZap::zipf(channels, 40, config.zap_fraction, 1.2, seed).with_storms(vec![Storm {
                at: 32,
                target: 1,
                size: 25,
            }]),
        ));
    }
    if churn {
        m.enable_channel_churn(5);
    }
    m.set_mode(mode);
    m.warmup(25);
    m.run_periods(30);
    m.report()
}

/// The golden digests of `golden_report.rs`, captured from period-lockstep
/// runs.  The ideal event-driven runs below must land on the same bytes.
const LEGACY_UNIFORM_BARRIER: u64 = 421153501399809134;
const LEGACY_CHURN_STORM_PIPELINED: u64 = 844092618700673579;
const QOE_UNIFORM_BARRIER: u64 = 7323453145858924477;
const QOE_CHURN_STORM_PIPELINED: u64 = 12569093327864263347;

#[test]
fn ideal_event_mode_reproduces_the_uniform_barrier_pins() {
    let report = run_golden(
        4,
        11,
        SteppingMode::Barrier,
        false,
        false,
        NetworkConfig::ideal(),
    );
    let surface = legacy_surface(&report);
    assert_eq!(
        fx_digest(&surface),
        LEGACY_UNIFORM_BARRIER,
        "ideal event mode diverged from period-lockstep:\n{surface}"
    );
    assert_eq!(
        fx_digest(&qoe_surface(&report)),
        QOE_UNIFORM_BARRIER,
        "ideal event mode perturbed the QoE telemetry surface"
    );
}

#[test]
fn ideal_event_mode_reproduces_the_churn_storm_pipelined_pins() {
    let report = run_golden(
        5,
        13,
        SteppingMode::Pipelined { run_ahead: 4 },
        true,
        true,
        NetworkConfig::ideal(),
    );
    let surface = legacy_surface(&report);
    assert_eq!(
        fx_digest(&surface),
        LEGACY_CHURN_STORM_PIPELINED,
        "ideal event mode diverged from period-lockstep:\n{surface}"
    );
    assert_eq!(
        fx_digest(&qoe_surface(&report)),
        QOE_CHURN_STORM_PIPELINED,
        "ideal event mode perturbed the QoE telemetry surface"
    );
}

/// The seed-13 churn + storm scenario (4 channels, admission open) with an
/// optional network model on a `shards`-shard store.
fn run_churn_storm(shards: usize, network: Option<NetworkConfig>) -> RuntimeReport {
    let config = SessionConfig {
        seed: 13,
        network,
        ..SessionConfig::paper_default(4, 40)
    };
    let pool = Arc::new(WorkerPool::new(3));
    let mut m = SessionManager::new(config, pool, || Box::new(FastSwitchScheduler::new()));
    m.set_zap_schedule(Box::new(
        CrowdZap::zipf(4, 40, config.zap_fraction, 1.2, 13).with_storms(vec![Storm {
            at: 32,
            target: 1,
            size: 25,
        }]),
    ));
    m.enable_channel_churn(5);
    m.set_shards(shards);
    m.warmup(25);
    m.run_periods(30);
    m.report()
}

#[test]
fn ideal_event_mode_matches_lockstep_across_shards() {
    let lockstep = run_churn_storm(1, None);
    assert!(lockstep.total_zaps() > 0);
    for &shards in &[1usize, 2, 4, 8] {
        let event = run_churn_storm(shards, Some(NetworkConfig::ideal()));
        assert_eq!(event, lockstep, "ideal event vs lockstep, shards={shards}");
    }
}

/// A faulty network that exercises every code path: 12% per-message loss,
/// trace latencies scaled past the period length, and enough jitter to
/// reorder same-link messages.
fn faulty_network() -> NetworkConfig {
    NetworkConfig {
        latency_scale: 3.0,
        loss_rate: 0.12,
        jitter_ms: 25,
        seed: 0xFA_0175,
    }
}

/// One lossy run of the full nasty configuration (churn + Zipf storms) at
/// the given pool size / shard count / stepping mode.
fn run_faulty(workers: usize, shards: usize, mode: SteppingMode) -> RuntimeReport {
    let config = SessionConfig {
        seed: 29,
        network: Some(faulty_network()),
        ..SessionConfig::paper_default(3, 35)
    };
    let pool = Arc::new(WorkerPool::new(workers));
    let mut m = SessionManager::new(config, pool, || Box::new(FastSwitchScheduler::new()));
    m.set_zap_schedule(Box::new(
        CrowdZap::zipf(3, 35, config.zap_fraction, 1.2, 29).with_storms(vec![Storm {
            at: 20,
            target: 1,
            size: 15,
        }]),
    ));
    m.enable_channel_churn(5);
    m.set_gossip_parallelism(workers);
    m.set_shards(shards);
    m.set_mode(mode);
    m.warmup(14);
    m.run_periods(18);
    m.report()
}

/// Digest of the (workers=1, shards=1, barrier) faulty reference run.
/// Every other combination must reproduce its surfaces byte for byte.
const FAULTY_PINNED_DIGEST: u64 = 13441145006459968134;

#[test]
fn faulty_runs_are_pinned_and_identical_across_pools_shards_and_modes() {
    let reference = run_faulty(1, 1, SteppingMode::Barrier);
    let reference_surface = format!(
        "{}\n{}",
        legacy_surface(&reference),
        qoe_surface(&reference)
    );
    assert_eq!(
        fx_digest(&reference_surface),
        FAULTY_PINNED_DIGEST,
        "faulty event-mode run drifted from the pinned baseline:\n{reference_surface}"
    );

    for &workers in &[2usize, 4, 7] {
        for &shards in &[2usize, 4, 8] {
            for mode in [
                SteppingMode::Barrier,
                SteppingMode::Pipelined { run_ahead: 4 },
            ] {
                let report = run_faulty(workers, shards, mode);
                let surface = format!("{}\n{}", legacy_surface(&report), qoe_surface(&report));
                assert_eq!(
                    surface, reference_surface,
                    "faulty run diverged at workers={workers} shards={shards} mode={mode:?}"
                );
            }
        }
    }
}

#[test]
fn loss_shows_up_as_reduced_data_traffic() {
    let ideal = run_golden(
        4,
        11,
        SteppingMode::Barrier,
        false,
        false,
        NetworkConfig::ideal(),
    );
    let lossy = run_golden(
        4,
        11,
        SteppingMode::Barrier,
        false,
        false,
        NetworkConfig::lossy(0.2, 7),
    );
    let data = |r: &RuntimeReport| r.channels.iter().map(|c| c.traffic.data_bits).sum::<u64>();
    assert!(
        data(&lossy) < data(&ideal),
        "20% loss must strictly reduce delivered data traffic"
    );
    let control = |r: &RuntimeReport| {
        r.channels
            .iter()
            .map(|c| c.traffic.control_bits)
            .sum::<u64>()
    };
    assert!(
        control(&lossy) > 0 && data(&lossy) > 0,
        "a 20%-lossy overlay must still stream"
    );
}

/// A network slow enough that grants straddle period boundaries: trace
/// latencies scaled 8× plus up to 40 ms of jitter push round trips past
/// `τ`, so arrivals are carried into later periods and many land on the
/// same millisecond tick — the orderings the in-flight store must keep.
fn boundary_crossing_network() -> NetworkConfig {
    NetworkConfig {
        latency_scale: 8.0,
        loss_rate: 0.02,
        jitter_ms: 40,
        seed: 0xB0_DA27,
    }
}

/// One boundary-crossing run (churn + Zipf zapping, so some arrivals find
/// their requester gone).  Also returns the largest number of messages
/// still in flight after any measured period.
fn run_boundary_crossing(workers: usize, shards: usize) -> (RuntimeReport, usize) {
    let config = SessionConfig {
        seed: 37,
        network: Some(boundary_crossing_network()),
        ..SessionConfig::paper_default(3, 35)
    };
    let pool = Arc::new(WorkerPool::new(workers));
    let mut m = SessionManager::new(config, pool, || Box::new(FastSwitchScheduler::new()));
    m.set_zap_schedule(Box::new(CrowdZap::zipf(
        3,
        35,
        config.zap_fraction,
        1.2,
        37,
    )));
    m.enable_channel_churn(7);
    m.set_gossip_parallelism(workers);
    m.set_shards(shards);
    m.warmup(14);
    let mut carried = 0;
    for _ in 0..18 {
        m.step();
        for c in 0..m.channels() {
            let net = m.channel_system(c).network().expect("network installed");
            carried = carried.max(net.in_flight());
        }
    }
    (m.report(), carried)
}

/// Digest of the boundary-crossing run, captured from the binary-heap event
/// queue the flat in-flight store replaced.
const BOUNDARY_CROSSING_DIGEST: u64 = 7842827486749016761;

#[test]
fn boundary_crossing_runs_are_pinned_across_pools_and_shards() {
    for &workers in &[1usize, 2] {
        for &shards in &[1usize, 4] {
            let (report, carried) = run_boundary_crossing(workers, shards);
            assert!(
                carried > 0,
                "the configuration must defer messages past a boundary"
            );
            let surface = format!("{}\n{}", legacy_surface(&report), qoe_surface(&report));
            assert_eq!(
                fx_digest(&surface),
                BOUNDARY_CROSSING_DIGEST,
                "boundary-crossing run drifted at workers={workers} shards={shards}:\n{surface}"
            );
        }
    }
}
