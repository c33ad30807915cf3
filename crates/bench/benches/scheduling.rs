//! Benchmarks of the per-period scheduling path: priority computation,
//! greedy supplier assignment, and the full fast/normal schedulers, as a
//! function of the number of candidate segments.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fss_core::{greedy_assign, AssignmentOrder, FastSwitchScheduler, NormalSwitchScheduler};
use fss_gossip::{
    CandidateSegment, SchedulerScratch, SchedulingContext, SegmentId, SegmentScheduler,
    SessionView, SourceId, SupplierInfo,
};

/// A switch context with `old` old-source and `new` new-source candidates,
/// each held by `suppliers` neighbours.
fn context(old: u64, new: u64, suppliers: u32) -> SchedulingContext {
    let make_suppliers = |base_pos: usize| -> Vec<SupplierInfo> {
        (0..suppliers)
            .map(|i| SupplierInfo {
                peer: i + 1,
                rate: 12.0 + i as f64 * 3.0,
                buffer_position: base_pos + i as usize * 7,
                buffer_capacity: 600,
            })
            .collect()
    };
    let mut candidates = Vec::new();
    for id in (200 - old)..200 {
        candidates.push(CandidateSegment {
            id: SegmentId(id),
            suppliers: make_suppliers(250),
        });
    }
    for id in 200..200 + new {
        candidates.push(CandidateSegment {
            id: SegmentId(id),
            suppliers: make_suppliers(20),
        });
    }
    SchedulingContext {
        tau_secs: 1.0,
        play_rate: 10.0,
        inbound_rate: 15.0,
        id_play: SegmentId(200 - old),
        startup_q: 10,
        new_source_qs: 50,
        old_session: Some(SessionView {
            id: SourceId(0),
            first_segment: SegmentId(0),
            last_segment: Some(SegmentId(199)),
        }),
        new_session: Some(SessionView {
            id: SourceId(1),
            first_segment: SegmentId(200),
            last_segment: None,
        }),
        q1: old as usize,
        q2: 50,
        candidates,
    }
}

fn bench_scheduling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduling");
    for &candidates in &[20u64, 100, 400] {
        let ctx = context(candidates / 2, candidates / 2, 5);
        group.bench_with_input(
            BenchmarkId::new("greedy_assign", candidates),
            &ctx,
            |b, ctx| b.iter(|| greedy_assign(ctx, AssignmentOrder::ByPriority)),
        );
        group.bench_with_input(
            BenchmarkId::new("fast_scheduler", candidates),
            &ctx,
            |b, ctx| {
                let (mut scratch, mut out) = (SchedulerScratch::new(), Vec::new());
                b.iter(|| FastSwitchScheduler::new().schedule_into(ctx, &mut scratch, &mut out))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("normal_scheduler", candidates),
            &ctx,
            |b, ctx| {
                let (mut scratch, mut out) = (SchedulerScratch::new(), Vec::new());
                b.iter(|| NormalSwitchScheduler::new().schedule_into(ctx, &mut scratch, &mut out))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_scheduling);
criterion_main!(benches);
