//! End-to-end period throughput on a 1000-node overlay in steady state.
//!
//! Benchmarks one full scheduling period (buffer-map exchange, discovery,
//! context building, scheduling, transfer resolution, delivery, playback)
//! through `StreamingSystem::advance`, the single period pipeline:
//!
//! * `optimized_period` — the scratch-arena pipeline: zero steady-state
//!   allocation, dense PeerId indexing, word-level bitset candidate
//!   intersection;
//! * `optimized_period_1k_pool*` — the same pipeline with the scheduling
//!   sweep dispatched onto the persistent `fss-runtime` worker pool (no
//!   thread spawns per period);
//! * `mem/*` — the per-peer footprint meter on the same steady system:
//!   prints steady-state bytes/peer (compact vs legacy layout) and times
//!   one full meter sweep;
//! * `zap_admission/*` — the per-batch cost of resolving one zap batch
//!   (mover selection + per-arrival neighbour/attribute sampling) through
//!   the legacy collect-then-`choose_multiple` path versus the membership
//!   directory's pooled admission pipeline;
//! * `qoe_overhead/*` — one steady period with QoE event recording on
//!   (the default) versus off: the cost of the streaming telemetry layer
//!   on the playback pass;
//! * `locality/*` — the shard-major fused pipeline unsharded and on an
//!   8-shard store: what the destination-shard regroup and the shard-run
//!   walk cost when the whole store already fits in cache;
//! * `net/*` — the event-driven network core against plain period
//!   stepping: `period_mode_1k` is the lockstep baseline, `event_ideal_1k`
//!   routes the same period through `advance()` with the ideal (zero
//!   latency, zero loss) model installed — byte-identical results, so the
//!   difference is pure event-core bookkeeping (budget ≤ 10 %) — and
//!   `event_faulty_1k` prices a lossy, delayed, jittered period.
//!
//! The period costs, the `mem/*` bytes/peer figures, the `zap_admission/*`
//! per-batch costs and the `qoe_overhead/*` telemetry tax are recorded in
//! `BENCH_period.json` (acceptance targets: ≥ 40 % bytes/peer reduction,
//! directory admission ≤ legacy admission, QoE overhead ≤ 5 % of a
//! period).  The retired `reference_period_1k` and `locality/phase_major_*`
//! lanes timed the straight-line and phase-major period bodies the single
//! pipeline replaced; their figures stay in the JSON as history.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fss_core::FastSwitchScheduler;
use fss_gossip::{
    AdmissionPipeline, AdmissionScratch, GossipConfig, MembershipView, StreamingSystem,
};
use fss_overlay::{BandwidthConfig, OverlayBuilder, PeerAttrs, PeerId};
use fss_trace::{GeneratorConfig, TraceGenerator};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const NODES: usize = 1_000;
const WARMUP_PERIODS: u64 = 60;

/// Builds a 1k-node system streamed to steady state.
fn steady_system(seed: u64) -> StreamingSystem {
    sharded_steady_system(seed, 1)
}

/// Builds a 1k-node system on `shards` store shards, streamed to steady
/// state.
fn sharded_steady_system(seed: u64, shards: usize) -> StreamingSystem {
    let trace = TraceGenerator::new(GeneratorConfig::sized(NODES, seed)).generate("throughput");
    let overlay = OverlayBuilder::paper_default().build(&trace).unwrap();
    let source = overlay.active_peers().next().unwrap();
    let mut sys = StreamingSystem::new(
        overlay,
        GossipConfig::paper_default(),
        Box::new(FastSwitchScheduler::new()),
    );
    sys.set_shards(shards);
    sys.start_initial_source(source);
    sys.run_periods(WARMUP_PERIODS);
    sys
}

fn bench_period_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("period_throughput");
    group.sample_size(10);

    let mut sys = steady_system(1);
    group.bench_function("optimized_period_1k", |b| b.iter(|| sys.advance()));

    let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
    let pool = std::sync::Arc::new(fss_runtime::WorkerPool::new(workers));
    let mut sys = steady_system(1);
    sys.set_parallelism(workers);
    sys.set_executor(pool.as_executor());
    group.bench_function("optimized_period_1k_pool", |b| b.iter(|| sys.advance()));

    // A deliberately oversubscribed pool (4 workers regardless of vCPUs)
    // bounds the dispatch overhead the persistent pool adds per period.
    let pool = std::sync::Arc::new(fss_runtime::WorkerPool::new(4));
    let mut sys = steady_system(1);
    sys.set_parallelism(4);
    sys.set_executor(pool.as_executor());
    group.bench_function("optimized_period_1k_pool4", |b| b.iter(|| sys.advance()));

    group.finish();
}

/// The `mem/*` lane: steady-state bytes/peer (the numbers recorded in
/// `BENCH_period.json`) and the cost of one meter sweep over all peers.
fn bench_memory_footprint(c: &mut Criterion) {
    let sys = steady_system(1);
    let mem = sys.report().mem;
    println!(
        "mem/bytes_per_peer_1k: {:.0} B/peer (ring {:.0} + window {:.0} + seqs {:.0} + inline); \
         legacy layout {:.0} B/peer; reduction {:.1}%",
        mem.bytes_per_peer(),
        mem.ring_bytes as f64 / mem.active_peers as f64,
        mem.window_bytes as f64 / mem.active_peers as f64,
        mem.seq_bytes as f64 / mem.active_peers as f64,
        mem.legacy_peer_bytes as f64 / mem.active_peers as f64,
        100.0 * mem.reduction_vs_legacy()
    );

    let mut group = c.benchmark_group("mem");
    group.sample_size(10);
    group.bench_function("usage_sweep_1k", |b| {
        b.iter(|| criterion::black_box(sys.memory_usage()))
    });
    group.finish();
}

/// The `period/1m` + `mem/1m` lanes: one full scheduling period and the
/// footprint meter on a **million-peer** sharded system.  Gated behind
/// `FSS_BENCH_1M=1` — the warm-up alone streams 70 periods over a ~4.6 GB
/// working set, which is minutes of wall clock; the default bench run
/// skips it.  The recorded figures live in `BENCH_period.json`
/// (`period/1m`, `mem/1m`).
fn bench_million_peers(c: &mut Criterion) {
    if std::env::var_os("FSS_BENCH_1M").is_none() {
        return;
    }
    const MILLION: usize = 1_000_000;
    let trace = TraceGenerator::new(GeneratorConfig::sized(MILLION, 1)).generate("throughput-1m");
    let overlay = OverlayBuilder::paper_default().build(&trace).unwrap();
    let source = overlay.active_peers().next().unwrap();
    let mut sys = StreamingSystem::new(
        overlay,
        GossipConfig::paper_default(),
        Box::new(FastSwitchScheduler::new()),
    );
    sys.set_shards(16);
    sys.start_initial_source(source);
    sys.run_periods(70);

    let mem = sys.report().mem;
    println!(
        "mem/1m: {:.0} B/peer, {:.2} GB of peer state over {} shards \
         (legacy layout {:.2} GB; reduction {:.1}%)",
        mem.bytes_per_peer(),
        mem.peer_bytes as f64 / 1e9,
        sys.shard_count(),
        mem.legacy_peer_bytes as f64 / 1e9,
        100.0 * mem.reduction_vs_legacy()
    );

    let mut group = c.benchmark_group("period");
    group.sample_size(10);
    group.bench_function("optimized_period_1m_sharded", |b| b.iter(|| sys.advance()));
    group.finish();

    let mut group = c.benchmark_group("mem");
    group.sample_size(10);
    group.bench_function("usage_sweep_1m", |b| {
        b.iter(|| criterion::black_box(sys.memory_usage()))
    });
    group.finish();
}

/// The `locality/*` lane: the shard-major fused pipeline on one shard and
/// on an 8-shard store.  Reports are byte-identical across shard counts
/// (pinned by `shard_determinism.rs`); at 1k the whole store fits in
/// cache, so the delta is the regroup and run-boundary overhead that the
/// locality dividend has to pay for at scale (`period/1m`).
fn bench_locality(c: &mut Criterion) {
    let mut group = c.benchmark_group("locality");
    group.sample_size(10);

    let mut sys = steady_system(1);
    group.bench_function("fused_period_1k", |b| b.iter(|| sys.advance()));

    let mut sys = sharded_steady_system(1, 8);
    group.bench_function("fused_period_1k_sharded8", |b| b.iter(|| sys.advance()));

    group.finish();
}

/// The `zap_admission/*` lane: what one zap batch (12 movers out, 12
/// arrivals in, `M = 5` neighbours each) costs to *resolve* on a steady
/// 1k-node channel pair.
///
/// * `legacy_batch_1k` — the pre-directory path (the PR 4 baseline):
///   collect the origin's eligible peers and the target's full candidate
///   list into fresh `Vec`s, then `choose_multiple` (which itself builds an
///   O(channel) index table per call) and per-arrival neighbour `Vec`s.
/// * `directory_batch_1k` — the membership directory: incremental views,
///   pooled scratch, sparse-Fisher–Yates sampling.  Identical RNG stream,
///   identical output, zero allocation.
fn bench_zap_admission(c: &mut Criterion) {
    const BATCH: usize = 12;
    const DEGREE: usize = 5;

    let origin = steady_system(2);
    let target = steady_system(3);
    let origin_source = origin.overlay().active_peers().next().unwrap();
    let bandwidth = BandwidthConfig::default();

    // Sanity: the two paths must agree before we time them.
    let legacy = legacy_resolve(
        &origin,
        &target,
        origin_source,
        BATCH,
        DEGREE,
        bandwidth,
        &mut SmallRng::seed_from_u64(77),
    );
    let mut scratch = AdmissionScratch::default();
    directory_resolve(
        origin.membership_view(),
        target.membership_view(),
        origin_source,
        BATCH,
        DEGREE,
        bandwidth,
        &mut SmallRng::seed_from_u64(77),
        &mut scratch,
    );
    assert_eq!(scratch.movers, legacy.0, "mover selection must agree");
    assert_eq!(scratch.neighbours, legacy.1, "neighbour sets must agree");

    let mut group = c.benchmark_group("zap_admission");
    group.sample_size(20);

    let mut rng = SmallRng::seed_from_u64(5);
    group.bench_function("legacy_batch_1k", |b| {
        b.iter(|| {
            black_box(legacy_resolve(
                &origin,
                &target,
                origin_source,
                BATCH,
                DEGREE,
                bandwidth,
                &mut rng,
            ))
        })
    });

    let mut rng = SmallRng::seed_from_u64(5);
    group.bench_function("directory_batch_1k", |b| {
        b.iter(|| {
            directory_resolve(
                origin.membership_view(),
                target.membership_view(),
                origin_source,
                BATCH,
                DEGREE,
                bandwidth,
                &mut rng,
                &mut scratch,
            );
            black_box(scratch.neighbours.len())
        })
    });

    group.finish();
}

/// The `qoe_overhead/*` lane: the telemetry tax of the streaming QoE
/// recorder on one full steady period.  `events_on_1k` is the default
/// configuration (recorder enabled, one `observe` per peer per period plus
/// the period fold); `events_off_1k` skips the whole event path.  The
/// acceptance target in `BENCH_period.json` is ≤ 5 % overhead.
fn bench_qoe_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("qoe_overhead");
    group.sample_size(10);

    let mut sys = steady_system(1);
    assert!(sys.qoe().is_enabled(), "QoE recording defaults to on");
    group.bench_function("events_on_1k", |b| b.iter(|| sys.advance()));
    assert!(
        sys.qoe().totals().startups > 0,
        "the instrumented steps must record startups"
    );

    let mut sys = steady_system(1);
    sys.set_qoe_enabled(false);
    group.bench_function("events_off_1k", |b| b.iter(|| sys.advance()));

    group.finish();
}

/// The `net/*` lane: what the event-driven core costs per period.
///
/// `event_ideal_1k` runs the identical workload as `period_mode_1k` —
/// the ideal model skips every fault draw and delivers at the resolving
/// boundary, so the reports stay byte-identical and the measured delta is
/// the queue push/pop and boundary-drain bookkeeping alone.  The
/// acceptance budget in `BENCH_period.json` is ≤ 10 % over period mode.
fn bench_net_overhead(c: &mut Criterion) {
    use fss_overlay::NetworkConfig;

    let mut group = c.benchmark_group("net");
    group.sample_size(10);

    let mut sys = steady_system(1);
    group.bench_function("period_mode_1k", |b| b.iter(|| sys.advance()));

    let mut sys = steady_system(1);
    sys.set_network(NetworkConfig::ideal());
    group.bench_function("event_ideal_1k", |b| b.iter(|| sys.advance()));
    assert_eq!(
        sys.network_stats().data_lost,
        0,
        "the ideal model must never sample the loss stream"
    );

    let trace = TraceGenerator::new(GeneratorConfig::sized(NODES, 1)).generate("throughput");
    let overlay = OverlayBuilder::paper_default().build(&trace).unwrap();
    let source = overlay.active_peers().next().unwrap();
    let mut sys = StreamingSystem::new(
        overlay,
        GossipConfig::paper_default(),
        Box::new(FastSwitchScheduler::new()),
    );
    sys.set_network(NetworkConfig {
        latency_scale: 1.0,
        loss_rate: 0.05,
        jitter_ms: 10,
        seed: 0x25,
    });
    sys.start_initial_source(source);
    sys.run_periods(WARMUP_PERIODS);
    group.bench_function("event_faulty_1k", |b| b.iter(|| sys.advance()));
    assert!(
        sys.network_stats().data_lost > 0,
        "the faulty lane must actually drop messages"
    );

    group.finish();
}

/// The pre-directory zap-batch resolution, verbatim from the PR 4
/// `SessionManager::apply_batch`: fresh collections and per-arrival `Vec`s.
#[allow(clippy::type_complexity)]
fn legacy_resolve(
    origin: &StreamingSystem,
    target: &StreamingSystem,
    origin_source: PeerId,
    batch: usize,
    degree: usize,
    bandwidth: BandwidthConfig,
    rng: &mut SmallRng,
) -> (Vec<PeerId>, Vec<PeerId>, Vec<(PeerAttrs, Vec<PeerId>)>) {
    let eligible: Vec<PeerId> = origin
        .overlay()
        .active_peers()
        .filter(|&p| p != origin_source)
        .collect();
    let non_source_present = origin.overlay().active_count() - 1;
    let floor_reserve = usize::from(non_source_present == eligible.len());
    let quota = eligible.len().saturating_sub(floor_reserve);
    let movers: Vec<PeerId> = eligible
        .choose_multiple(rng, batch.min(quota))
        .copied()
        .collect();
    let candidates: Vec<PeerId> = target.overlay().active_peers().collect();
    let degree = degree.min(candidates.len());
    let mut flat = Vec::new();
    let arrivals: Vec<(PeerAttrs, Vec<PeerId>)> = movers
        .iter()
        .map(|_| {
            let neighbours: Vec<PeerId> =
                candidates.choose_multiple(rng, degree).copied().collect();
            flat.extend_from_slice(&neighbours);
            let attrs = PeerAttrs {
                ping_ms: 80.0 * rng.gen_range(0.5..2.0),
                bandwidth: bandwidth.sample_peer(rng),
            };
            (attrs, neighbours)
        })
        .collect();
    (movers, flat, arrivals)
}

/// The directory path: the same resolution out of pooled scratch.
#[allow(clippy::too_many_arguments)]
fn directory_resolve(
    origin: &MembershipView,
    target: &MembershipView,
    origin_source: PeerId,
    batch: usize,
    degree: usize,
    bandwidth: BandwidthConfig,
    rng: &mut SmallRng,
    scratch: &mut AdmissionScratch,
) {
    let pipeline = AdmissionPipeline;
    scratch.clear();
    pipeline.select_movers(origin, origin_source, |_| false, batch, rng, scratch);
    let degree = degree.min(target.candidates().len());
    for _ in 0..scratch.movers.len() {
        pipeline.sample_neighbours(target, degree, rng, scratch);
        scratch.attrs.push(PeerAttrs {
            ping_ms: 80.0 * rng.gen_range(0.5..2.0),
            bandwidth: bandwidth.sample_peer(rng),
        });
    }
}

criterion_group!(
    benches,
    bench_period_throughput,
    bench_memory_footprint,
    bench_million_peers,
    bench_locality,
    bench_zap_admission,
    bench_qoe_overhead,
    bench_net_overhead
);
criterion_main!(benches);
