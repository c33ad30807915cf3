//! The single-channel workloads: `switch_churn` (period-lockstep) and
//! `lossy_event` (event-driven network), both with 5 %/s churn and a source
//! switch every [`SWITCH_EVERY`] periods.

use crate::tracer::{Tracer, ROOT};
use crate::{
    cpu_jiffies, mix, nearest_rank, ns_since, Params, RepResult, SimFigures, SteadyState, Workload,
    SWITCH_EVERY,
};
use fss_core::FastSwitchScheduler;
use fss_gossip::{GossipConfig, NetStats, QoeTotals, StreamingSystem, TrafficCounters};
use fss_overlay::{ChurnModel, NetworkConfig, OverlayBuilder, OverlayConfig, PeerId};
use fss_runtime::WorkerPool;
use fss_trace::{GeneratorConfig, TraceGenerator};
use std::sync::Arc;
use std::time::Instant;

/// Scheduling-sweep chunks per pool worker.  Workers claim chunks
/// dynamically, so with several chunks each a worker whose vCPU the host
/// preempts holds up only its current small chunk while the other takes the
/// rest; with one chunk per worker the period would wait for all of it.
const CHUNKS_PER_WORKER: usize = 4;

/// Peers at start-up, before scaling.
fn base_nodes(workload: Workload) -> usize {
    match workload {
        Workload::LossyEvent => 5_000,
        _ => 10_000,
    }
}

/// The network `lossy_event` runs on: trace-derived latencies, 2 % loss
/// per message leg, up to 10 ms jitter.
fn lossy_network(seed: u64) -> NetworkConfig {
    NetworkConfig {
        latency_scale: 1.0,
        loss_rate: 0.02,
        jitter_ms: 10,
        seed,
    }
}

/// Cumulative public counters, read before and after the measured window.
#[derive(Clone, Copy)]
struct Counters {
    traffic: TrafficCounters,
    qoe: QoeTotals,
    net: NetStats,
    dispatches: u64,
}

impl Counters {
    fn read(sys: &StreamingSystem, pool: &WorkerPool) -> Counters {
        Counters {
            traffic: sys.traffic_total(),
            qoe: sys.qoe().totals(),
            net: sys.network_stats(),
            dispatches: pool.dispatches(),
        }
    }
}

/// Builds the workload, warms it to steady state and measures one window.
pub fn run(params: &Params, pool: &Arc<WorkerPool>, tr: &mut Tracer) -> RepResult {
    let lossy = params.workload == Workload::LossyEvent;
    let nodes = params.scaled(base_nodes(params.workload), 50);
    let seed = params.seed;
    let gossip = GossipConfig::paper_default();
    let mut failures = Vec::new();

    // --- set-up: trace, overlay, system, warm-up to steady state ---------
    let setup_start = Instant::now();
    let setup = tr.open("setup", ROOT);
    let build = tr.open("setup.build", setup);
    let (trace, _) = tr.time("trace.generate", build, || {
        TraceGenerator::new(GeneratorConfig::sized(nodes, mix(seed ^ 0x7ACE)))
            .generate(params.workload.name())
    });
    let (overlay, _) = tr.time("overlay.build", build, || {
        let config = OverlayConfig {
            seed: mix(seed ^ 0x0E11),
            ..OverlayConfig::default()
        };
        OverlayBuilder::new(config)
            .expect("default overlay parameters are valid")
            .build(&trace)
            .expect("a generated trace builds an overlay")
    });
    drop(trace);
    let ((mut sys, first_source), _) = tr.time("gossip.system_new", build, || {
        let source = overlay.active_peers().next().expect("non-empty overlay");
        let mut sys = StreamingSystem::new(overlay, gossip, Box::new(FastSwitchScheduler::new()));
        sys.set_parallelism(CHUNKS_PER_WORKER * params.workers);
        sys.set_executor(pool.as_executor());
        sys.set_churn(ChurnModel::paper_default(mix(seed ^ 0xC4)));
        if lossy {
            sys.set_network(lossy_network(mix(seed ^ 0xFA)));
        }
        sys.start_initial_source(source);
        (sys, source)
    });
    tr.close(build);
    let warm = tr.open("gossip.warmup", setup);
    let span = (gossip.buffer_capacity as f64 / gossip.play_per_period()).ceil() as u64;
    let mut steady = SteadyState::new(span);
    let is_steady = loop {
        sys.advance();
        let (mem, _) = tr.time("gossip.memory_usage", warm, || sys.memory_usage());
        if let Some(done) = steady.observe(mem.bytes_per_peer()) {
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

    // --- measured window: a switch every SWITCH_EVERY periods -------------
    let periods = params.periods_per_rep();
    let mut period_ns = Vec::with_capacity(periods as usize);
    let mut peer_periods = 0u64;
    let mut sources: Vec<PeerId> = vec![first_source];
    let mut pick = mix(seed ^ 0x5011);
    let mut listener_secs: Vec<f64> = Vec::new();
    let (mut start_new_sum, mut start_new_count) = (0.0f64, 0u64);
    let (mut ops, mut ops_failed) = (0u64, 0u64);
    let (mut countable, mut completed) = (0u64, 0u64);
    let mut notes = Vec::new();

    let jiffies = cpu_jiffies();
    let window_start = Instant::now();
    let window = tr.open("window", ROOT);
    let before = Counters::read(&sys, pool);
    let mut last_report = None;
    for _ in 0..periods / SWITCH_EVERY {
        // The next speaker: a random active peer that never was a source.
        let next = loop {
            pick = mix(pick);
            let active = sys.overlay().active_count() as u64;
            let candidate = sys
                .overlay()
                .active_peers()
                .nth((pick % active) as usize)
                .expect("index below the active count");
            if !sources.contains(&candidate) {
                break candidate;
            }
        };
        sources.push(next);
        tr.time("gossip.switch_source", window, || sys.switch_source(next));
        for _ in 0..SWITCH_EVERY {
            let (_, ns) = tr.time("gossip.advance", window, || sys.advance());
            period_ns.push(ns);
            peer_periods += sys.overlay().active_count() as u64;
        }
        // Harvest the handover before the next one.  Every listener present
        // at the handover is one op; it failed if it was not playing the new
        // stream when it departed or by now.
        let (report, _) = tr.time("gossip.report", window, || sys.report());
        let ((), _) = tr.time("bench.harvest", window, || {
            let sw = report.switch;
            countable += sw.countable_nodes as u64;
            completed += sw.completed_nodes as u64;
            start_new_sum += sw.start_new_secs.sum;
            start_new_count += sw.start_new_secs.count as u64;
            let (ops_before, failed_before) = (ops, ops_failed);
            for record in sys.switch_records().iter().filter(|r| r.present_at_switch) {
                ops += 1;
                match record.s2_started_secs {
                    Some(secs) if record.countable() => listener_secs.push(secs),
                    Some(_) => {}
                    None => ops_failed += 1,
                }
            }
            notes.push(format!(
                "handover {} to peer {next}: {} listeners, {} failed, {} stayed, mean start_new {:.3} s",
                notes.len() + 1,
                ops - ops_before,
                ops_failed - failed_before,
                sw.countable_nodes,
                sw.start_new_secs.mean()
            ));
            if sw.countable_nodes == 0 || sw.start_new_secs.count == 0 {
                failures.push(format!(
                    "handover to peer {next} reached no listener ({} countable)",
                    sw.countable_nodes
                ));
            }
        });
        last_report = Some(report);
    }
    let after = Counters::read(&sys, pool);
    tr.close(window);
    let window_ns = ns_since(window_start);
    let end = cpu_jiffies();
    let window_jiffies = (
        end.0.saturating_sub(jiffies.0),
        end.1.saturating_sub(jiffies.1),
    );
    let report = last_report.expect("at least one switch cycle");

    // --- output checks ----------------------------------------------------
    if lossy {
        let net = sys.network_stats();
        let in_flight = sys.network().map_or(0, |n| n.in_flight()) as u64;
        let accounted = net.data_delivered + net.data_lost + net.data_stale + in_flight;
        if net.data_sent != accounted {
            failures.push(format!(
                "traffic not conserved: data_sent {} != delivered {} + lost {} + stale {} + in flight {in_flight}",
                net.data_sent, net.data_delivered, net.data_lost, net.data_stale
            ));
        }
    }

    listener_secs.sort_by(f64::total_cmp);
    let control = after.traffic.control_bits - before.traffic.control_bits;
    let data = after.traffic.data_bits - before.traffic.data_bits;
    let played = after.qoe.played - before.qoe.played;
    let stalled = after.qoe.stalled_segments - before.qoe.stalled_segments;
    let sim = SimFigures {
        warmup_periods: steady.periods(),
        periods,
        peer_periods,
        state_bytes_per_peer: report.mem.bytes_per_peer(),
        switch_time_s: start_new_sum / start_new_count.max(1) as f64,
        zap_latency_p95_s: nearest_rank(&listener_secs, 0.95),
        continuity: played as f64 / (played + stalled).max(1) as f64,
        control_overhead: control as f64 / (control + data).max(1) as f64,
        ops,
        ops_failed,
    };

    let mut layer = Vec::new();
    if tr.is_on() {
        // Window totals of the public counters = the sums of their
        // per-period deltas; reported per measured period.
        let p = periods as f64;
        let per_period = |delta: u64| delta as f64 / p;
        let handovers = (periods / SWITCH_EVERY) as f64;
        let active = report.mem.active_peers.max(1) as f64;
        let net = |f: fn(&NetStats) -> u64| f(&after.net) - f(&before.net);
        layer.extend([
            ("setup.warmup_periods", steady.periods() as f64),
            ("overlay.active_peers", per_period(peer_periods)),
            (
                "gossip.data_segments",
                per_period(data) / gossip.segment_bits as f64,
            ),
            ("gossip.control_bits", per_period(control)),
            ("gossip.switch.countable", countable as f64 / handovers),
            ("gossip.switch.completed", completed as f64 / handovers),
            ("gossip.qoe.played", per_period(played)),
            (
                "gossip.qoe.stall_events",
                per_period(after.qoe.stall_events - before.qoe.stall_events),
            ),
            ("gossip.qoe.stalled_segments", per_period(stalled)),
            (
                "gossip.mem.ring_bytes_per_peer",
                report.mem.ring_bytes as f64 / active,
            ),
            (
                "gossip.mem.window_bytes_per_peer",
                report.mem.window_bytes as f64 / active,
            ),
            (
                "gossip.mem.seq_bytes_per_peer",
                report.mem.seq_bytes as f64 / active,
            ),
            (
                "runtime.pool.dispatches",
                per_period(after.dispatches - before.dispatches),
            ),
        ]);
        if lossy {
            let sent = net(|n| n.data_sent);
            let delivered = net(|n| n.data_delivered);
            layer.extend([
                ("gossip.net.data_sent", per_period(sent)),
                ("gossip.net.data_delivered", per_period(delivered)),
                ("gossip.net.data_lost", per_period(net(|n| n.data_lost))),
                ("gossip.net.data_stale", per_period(net(|n| n.data_stale))),
                (
                    "gossip.net.requests_blinded",
                    per_period(net(|n| n.requests_blinded)),
                ),
                (
                    "gossip.net.requests_lost",
                    per_period(net(|n| n.requests_lost)),
                ),
                ("gossip.net.in_flight_max", after.net.max_in_flight as f64),
                (
                    "gossip.net.delivered_ratio",
                    delivered as f64 / sent.max(1) as f64,
                ),
            ]);
        }
    }

    RepResult {
        setup_ns,
        period_ns,
        window_ns,
        window_jiffies,
        sim,
        layer,
        notes,
        check_failures: failures,
    }
}
