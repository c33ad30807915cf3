//! Benchmarks of the gossip substrate hot paths: FIFO buffer operations
//! and transfer resolution.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fss_gossip::{
    CapacityModel, FifoBuffer, RequestBatch, SegmentId, SegmentRequest, TransferResolver,
};

fn full_buffer() -> FifoBuffer {
    let mut buffer = FifoBuffer::new(600);
    for i in 0..600u64 {
        buffer.insert(SegmentId(1_000 + i));
    }
    buffer
}

fn bench_buffer(c: &mut Criterion) {
    let mut group = c.benchmark_group("buffer");

    group.bench_function("insert_with_eviction", |b| {
        let mut buffer = full_buffer();
        let mut next = 2_000u64;
        b.iter(|| {
            buffer.insert(SegmentId(next));
            next += 1;
        })
    });

    group.finish();
}

fn bench_transfer(c: &mut Criterion) {
    // 200 requesters, 15 requests each, spread over 40 suppliers.
    let batches: Vec<RequestBatch> = (0..200u32)
        .map(|r| RequestBatch {
            requester: r,
            inbound_budget: 15,
            requests: (0..15u64)
                .map(|k| SegmentRequest {
                    segment: SegmentId(u64::from(r) * 20 + k),
                    supplier: (r + k as u32) % 40,
                })
                .collect(),
        })
        .collect();

    let mut group = c.benchmark_group("transfer");
    group.bench_function("resolve_shared_200x15", |b| {
        let mut resolver = TransferResolver::with_model(CapacityModel::Shared);
        b.iter(|| resolver.resolve_round(black_box(&batches), |_| 15, 3))
    });
    group.bench_function("resolve_per_link_200x15", |b| {
        let mut resolver = TransferResolver::with_model(CapacityModel::PerLink);
        b.iter(|| resolver.resolve_round(black_box(&batches), |_| 15, 3))
    });
    group.finish();
}

criterion_group!(benches, bench_buffer, bench_transfer);
criterion_main!(benches);
