//! The multi-channel workload `zapping_flash`: a `SessionManager` with 8
//! channels, pipelined stepping, Zipf(1.2) zapping, two flash crowds inside
//! the measured window, rate-limited admission and per-channel churn.

use crate::tracer::{Tracer, ROOT};
use crate::{cpu_jiffies, mix, ns_since, Params, RepResult, SimFigures, SteadyState};
use fss_core::FastSwitchScheduler;
use fss_gossip::{MemUsage, QoeTotals, TrafficCounters};
use fss_runtime::zap::{CrowdZap, Storm};
use fss_runtime::{AdmissionControl, SessionConfig, SessionManager, SteppingMode, WorkerPool};
use std::sync::Arc;
use std::time::Instant;

/// Channels of the session.
const CHANNELS: usize = 8;
/// Zipf exponent of the zap targets (channel 0 the most popular).
const ZIPF_ALPHA: f64 = 1.2;

/// Σ over channels of the cumulative public gossip counters.
fn channel_totals(manager: &SessionManager) -> (TrafficCounters, QoeTotals) {
    let mut traffic = TrafficCounters::new();
    let mut qoe = QoeTotals::default();
    for c in 0..manager.channels() {
        let sys = manager.channel_system(c);
        traffic.merge(&sys.traffic_total());
        let t = sys.qoe().totals();
        qoe.played += t.played;
        qoe.stall_events += t.stall_events;
        qoe.stalled_segments += t.stalled_segments;
    }
    (traffic, qoe)
}

/// Active peers across channels.
fn active_peers(manager: &SessionManager) -> u64 {
    (0..manager.channels())
        .map(|c| manager.channel_system(c).overlay().active_count() as u64)
        .sum()
}

/// Builds the session, warms it to steady state and measures one window.
pub fn run(params: &Params, pool: &Arc<WorkerPool>, tr: &mut Tracer) -> RepResult {
    let viewers = params.scaled(1_000, 20);
    let crowd = params.scaled(250, 4);
    let seed = params.seed;
    let config = SessionConfig {
        seed: mix(seed ^ 0x5E55),
        admission: AdmissionControl::rate_limited(params.scaled(64, 1)),
        ..SessionConfig::paper_default(CHANNELS, viewers)
    };
    let mut failures = Vec::new();

    // --- set-up: session (traces, overlays, systems), warm-up -------------
    let setup_start = Instant::now();
    let setup = tr.open("setup", ROOT);
    let build = tr.open("setup.build", setup);
    let (mut manager, _) = tr.time("runtime.session_new", build, || {
        let mut manager = SessionManager::new(config, Arc::clone(pool), || {
            Box::new(FastSwitchScheduler::new())
        });
        manager.set_mode(SteppingMode::pipelined());
        manager.enable_channel_churn(mix(seed ^ 0xC4));
        manager
    });
    tr.close(build);
    let warm = tr.open("runtime.warmup", setup);
    let gossip = config.gossip;
    let span = (gossip.buffer_capacity as f64 / gossip.play_per_period()).ceil() as u64;
    let mut steady = SteadyState::new(span);
    let is_steady = loop {
        manager.warmup(1);
        let mut usage = MemUsage::default();
        for c in 0..CHANNELS {
            let (u, _) = tr.time("gossip.memory_usage", warm, || {
                manager.channel_system(c).memory_usage()
            });
            usage.active_peers += u.active_peers;
            usage.peer_bytes += u.peer_bytes;
        }
        if let Some(done) = steady.observe(usage.bytes_per_peer()) {
            break done;
        }
    };
    tr.close(warm);
    tr.close(setup);
    let setup_ns = ns_since(setup_start);
    if !is_steady {
        failures.push(format!(
            "bytes per active peer still growing after {} warm-up periods",
            steady.periods()
        ));
    }

    // The zap schedule starts with the measured window; the two crowds
    // converge on unpopular channels a third and two thirds of the way in.
    let periods = params.periods_per_rep();
    let start = manager.periods();
    let storms = vec![
        Storm {
            at: start + periods / 3,
            target: CHANNELS - 3,
            size: crowd,
        },
        Storm {
            at: start + 2 * periods / 3,
            target: CHANNELS - 1,
            size: crowd,
        },
    ];
    manager.set_zap_schedule(Box::new(
        CrowdZap::zipf(
            CHANNELS,
            viewers,
            config.zap_fraction,
            ZIPF_ALPHA,
            config.seed,
        )
        .with_storms(storms),
    ));

    // --- measured window ---------------------------------------------------
    let mut period_ns = Vec::with_capacity(periods as usize);
    let mut peer_periods = 0u64;
    let jiffies = cpu_jiffies();
    let window_start = Instant::now();
    let window = tr.open("window", ROOT);
    let (traffic0, qoe0) = channel_totals(&manager);
    let dispatches0 = pool.dispatches();
    for _ in 0..periods {
        let (_, ns) = tr.time("runtime.step", window, || manager.step());
        period_ns.push(ns);
        peer_periods += active_peers(&manager);
    }
    let dispatches = pool.dispatches() - dispatches0;
    let (traffic1, qoe1) = channel_totals(&manager);
    let (report, _) = tr.time("runtime.report", window, || manager.report());
    tr.close(window);
    let window_ns = ns_since(window_start);
    let end = cpu_jiffies();
    let window_jiffies = (
        end.0.saturating_sub(jiffies.0),
        end.1.saturating_sub(jiffies.1),
    );

    // --- output checks ----------------------------------------------------
    let zaps = &report.cross_channel_zaps;
    let zaps_in: usize = report.channels.iter().map(|c| c.zaps_in).sum();
    let zaps_out: usize = report.channels.iter().map(|c| c.zaps_out).sum();
    if zaps.completed + zaps.pending != zaps_in || zaps_in != zaps_out {
        failures.push(format!(
            "zaps not conserved: completed {} + pending {} vs in {zaps_in} vs out {zaps_out}",
            zaps.completed, zaps.pending
        ));
    }
    let admission = &report.admission;
    if admission.admitted + admission.still_queued != zaps_in {
        failures.push(format!(
            "admissions not conserved: admitted {} + still queued {} != zaps in {zaps_in}",
            admission.admitted, admission.still_queued
        ));
    }
    if zaps_in == 0 {
        failures.push("no zap arrived in the measured window".to_string());
    }

    let control = traffic1.control_bits - traffic0.control_bits;
    let data = traffic1.data_bits - traffic0.data_bits;
    let sim = SimFigures {
        warmup_periods: steady.periods(),
        periods,
        peer_periods,
        state_bytes_per_peer: report.mem.avg_bytes_per_peer,
        switch_time_s: zaps.avg_startup_secs,
        zap_latency_p95_s: zaps.p95_startup_secs,
        continuity: report.scorecard.continuity_mean,
        control_overhead: control as f64 / (control + data).max(1) as f64,
        ops: zaps_in as u64,
        ops_failed: zaps.pending as u64,
    };

    let mut layer = Vec::new();
    if tr.is_on() {
        let p = periods as f64;
        let per_period = |delta: u64| delta as f64 / p;
        let mut mem = MemUsage::default();
        for c in 0..CHANNELS {
            let (u, _) = tr.time("gossip.memory_usage", ROOT, || {
                manager.channel_system(c).memory_usage()
            });
            mem.active_peers += u.active_peers;
            mem.ring_bytes += u.ring_bytes;
            mem.window_bytes += u.window_bytes;
            mem.seq_bytes += u.seq_bytes;
        }
        let active = mem.active_peers.max(1) as f64;
        let depths: Vec<usize> = manager
            .queue_depth_timeline()
            .into_iter()
            .filter(|&(period, _)| period >= start)
            .map(|(_, depth)| depth)
            .collect();
        layer.extend([
            ("setup.warmup_periods", steady.periods() as f64),
            ("overlay.active_peers", per_period(peer_periods)),
            (
                "gossip.data_segments",
                per_period(data) / gossip.segment_bits as f64,
            ),
            ("gossip.control_bits", per_period(control)),
            ("gossip.qoe.played", per_period(qoe1.played - qoe0.played)),
            (
                "gossip.qoe.stall_events",
                per_period(qoe1.stall_events - qoe0.stall_events),
            ),
            (
                "gossip.qoe.stalled_segments",
                per_period(qoe1.stalled_segments - qoe0.stalled_segments),
            ),
            (
                "gossip.mem.ring_bytes_per_peer",
                mem.ring_bytes as f64 / active,
            ),
            (
                "gossip.mem.window_bytes_per_peer",
                mem.window_bytes as f64 / active,
            ),
            (
                "gossip.mem.seq_bytes_per_peer",
                mem.seq_bytes as f64 / active,
            ),
            ("runtime.pool.dispatches", per_period(dispatches)),
            ("runtime.zaps_in", zaps_in as f64 / p),
            (
                "runtime.admission.queue_depth",
                depths.iter().sum::<usize>() as f64 / depths.len().max(1) as f64,
            ),
            (
                "runtime.admission.queue_depth_max",
                depths.iter().copied().max().unwrap_or(0) as f64,
            ),
            ("runtime.admission.deferred", admission.deferred as f64 / p),
            (
                "runtime.admission.view_staleness",
                admission.avg_view_staleness,
            ),
            ("runtime.zap.completed", zaps.completed as f64),
            ("runtime.zap.pending", zaps.pending as f64),
        ]);
    }

    RepResult {
        setup_ns,
        period_ns,
        window_ns,
        window_jiffies,
        sim,
        layer,
        notes: vec![format!(
            "{} zap arrivals: {} completed, {} pending; admission queue peaked at {}, {} still queued",
            zaps_in, zaps.completed, zaps.pending, admission.max_queue_depth, admission.still_queued
        )],
        check_failures: failures,
    }
}
