//! Reusable per-period working memory (the "scratch arena").
//!
//! `StreamingSystem::step` used to re-allocate the world every scheduling
//! period: the active-peer list, a `Vec<NeighborInfo>` per node, a
//! `Vec<SupplierInfo>` per candidate segment, a `HashMap` of outbound
//! budgets, and the per-node request vectors.  At production scale (the
//! ROADMAP's million-user scenarios) those allocations dominate the period
//! cost.  This module holds every buffer the hot path needs, all owned by
//! the system and reused across periods, so a steady-state period performs
//! **zero heap allocations**:
//!
//! * [`PeriodScratch`] — dense (indexed by [`PeerId`]) rate/budget tables,
//!   the active list, the merged request batches and a pool of recycled
//!   request vectors,
//! * [`WorkerScratch`] — the per-worker state of the (optionally parallel)
//!   scheduling pass: a reusable [`SchedulingContext`], supplier-vector and
//!   request-vector pools, the need/availability bitset words and the
//!   scheduler's own [`SchedulerScratch`].
//!
//! Candidate segments are enumerated by word-level bitset intersection of
//! the peers' availability windows, which every
//! [`FifoBuffer`](crate::buffer::FifoBuffer) maintains incrementally (one
//! bit flip per insert/evict) — nothing is rebuilt per period and no
//! per-id neighbour probing happens at all.
//!
//! The structures only ever grow (to a steady-state high-water mark); the
//! equivalence tests assert the resulting [`SystemReport`]s are identical to
//! the pre-refactor reference implementation, and the allocation-counter
//! test in `fss-bench` asserts the zero-allocation property.
//!
//! [`SystemReport`]: crate::system::SystemReport

use crate::config::GossipConfig;
use crate::mem::{vec_bytes, MemoryFootprint};
use crate::scheduler::{CandidateSegment, SchedulerScratch, SchedulingContext, SupplierInfo};
use crate::segment::{SegmentId, SessionDirectory};
use crate::store::{PeerRef, PeerStore};
use crate::transfer::{DeliveredSegment, RequestBatch};
use fss_overlay::PeerId;

/// Per-worker state of the scheduling pass.
#[derive(Debug, Default)]
pub struct WorkerScratch {
    /// The reusable scheduling context handed to the scheduler.
    pub ctx: SchedulingContext,
    /// Recycled supplier vectors for `ctx.candidates`.
    supplier_pool: Vec<Vec<SupplierInfo>>,
    /// Bits of the node's needed-but-missing ids over the current window.
    need_words: Vec<u64>,
    /// OR of the neighbours' availability words over the same window.
    avail_words: Vec<u64>,
    /// The scheduler's own reusable state.
    pub sched: SchedulerScratch,
    /// Batches produced by this worker, in node order.
    pub out: Vec<RequestBatch>,
    /// Recycled request vectors for new batches.
    pub request_pool: Vec<Vec<crate::scheduler::SegmentRequest>>,
    /// Control traffic observed by this worker (summed after the pass).
    pub control_bits: u64,
    /// Requests this worker suppressed because the supplier's buffer map
    /// was lost (event mode; summed after the pass).
    pub requests_blinded: u64,
    /// Requests this worker dropped on the request leg (event mode; summed
    /// after the pass).
    pub requests_lost: u64,
}

impl Default for SchedulingContext {
    fn default() -> Self {
        SchedulingContext {
            tau_secs: 0.0,
            play_rate: 0.0,
            inbound_rate: 0.0,
            id_play: SegmentId(0),
            startup_q: 0,
            new_source_qs: 0,
            old_session: None,
            new_session: None,
            q1: 0,
            q2: 0,
            candidates: Vec::new(),
        }
    }
}

impl WorkerScratch {
    /// Returns `ctx.candidates`' supplier vectors to the pool.
    fn clear_candidates(&mut self) {
        for mut candidate in self.ctx.candidates.drain(..) {
            candidate.suppliers.clear();
            self.supplier_pool.push(candidate.suppliers);
        }
    }

    // fss-lint: hot-path
    /// Enumerates the candidates of one id range by word-level bitset
    /// intersection: `need = range_mask AND NOT own_held`,
    /// `avail = OR(neighbour held)`, candidates = `need AND avail`.
    ///
    /// Candidates are produced in ascending id order with suppliers in
    /// `neighbors` order — identical to the reference per-id probing.
    #[allow(clippy::too_many_arguments)]
    fn candidates_in_range(
        &mut self,
        start: SegmentId,
        end: SegmentId,
        own: PeerRef<'_>,
        neighbors: &[PeerId],
        store: &PeerStore,
        outbound_rate: &[f64],
    ) {
        if end < start {
            return;
        }
        let (start, end) = (start.value(), end.value());
        let base = start & !63;
        let words = ((end - base) / 64 + 1) as usize;
        self.need_words.clear();
        self.need_words.resize(words, 0);
        self.avail_words.clear();
        self.avail_words.resize(words, 0);

        for (i, need) in self.need_words.iter_mut().enumerate() {
            let word_base = base + (i as u64) * 64;
            let mut mask = u64::MAX;
            if word_base < start {
                mask &= u64::MAX << (start - word_base);
            }
            if word_base + 63 > end {
                mask &= u64::MAX >> (word_base + 63 - end);
            }
            *need = mask & !own.buffer().availability_word(word_base);
        }
        for &n in neighbors {
            let buffer = store.buffer(n);
            if buffer.is_empty() {
                continue;
            }
            for (i, avail) in self.avail_words.iter_mut().enumerate() {
                *avail |= buffer.availability_word(base + (i as u64) * 64);
            }
        }

        for i in 0..words {
            let mut bits = self.need_words[i] & self.avail_words[i];
            while bits != 0 {
                let id = base + (i as u64) * 64 + bits.trailing_zeros() as u64;
                bits &= bits - 1;
                let mut suppliers = self.supplier_pool.pop().unwrap_or_default();
                for &n in neighbors {
                    let buffer = store.buffer(n);
                    if let Some(position) = buffer.position_from_tail(SegmentId(id)) {
                        suppliers.push(SupplierInfo {
                            peer: n,
                            rate: outbound_rate[n as usize],
                            buffer_position: position,
                            buffer_capacity: buffer.capacity(),
                        });
                    }
                }
                debug_assert!(!suppliers.is_empty(), "avail bit implies a supplier");
                self.ctx.candidates.push(CandidateSegment {
                    id: SegmentId(id),
                    suppliers,
                });
            }
        }
    }

    /// Rebuilds `self.ctx` for `node` without allocating, mirroring
    /// `PeerNode::build_context` exactly (same windows, same candidate
    /// order, same supplier order).  Returns `false` when the node has
    /// nothing it could request this period.
    ///
    /// The discovery inputs arrive precomputed: `known_sessions` is the
    /// node's *post-discovery* session count for this period (the fused
    /// scheduling pass computes it locally and defers the store write to
    /// the playback walk) and `max_advertised` is the max id over the
    /// neighbours' buffers, gathered once by the caller's chunk walk
    /// instead of re-walking the neighbour list here.
    #[allow(clippy::too_many_arguments)]
    pub fn build_context(
        &mut self,
        node: PeerRef<'_>,
        config: &GossipConfig,
        directory: &SessionDirectory,
        inbound_rate: f64,
        neighbors: &[PeerId],
        store: &PeerStore,
        outbound_rate: &[f64],
        known_sessions: usize,
        max_advertised: SegmentId,
    ) -> bool {
        self.clear_candidates();
        if neighbors.is_empty() || inbound_rate <= 0.0 {
            return false;
        }
        let known = crate::peer::known_slice(known_sessions, directory);
        if known.is_empty() {
            return false;
        }

        let id_play = node.id_play();
        let current_idx = known
            .iter()
            .rposition(|s| s.first_segment <= id_play)
            .unwrap_or(0);
        let current = &known[current_idx];
        let next = known.get(current_idx + 1);

        // Ranges identical to the reference implementation: the current
        // stream capped to a 2·B trailing window, plus the next (new-source)
        // stream once discovered.  Ranges are disjoint and ascending, so
        // candidates come out in id order.
        let current_end = current
            .last_segment
            .unwrap_or(max_advertised)
            .min(max_advertised);
        let window_cap = 2 * config.buffer_capacity as u64;
        let current_start = id_play
            .max(current.first_segment)
            .max(SegmentId(current_end.value().saturating_sub(window_cap)));
        if current_end >= current_start {
            self.candidates_in_range(
                current_start,
                current_end,
                node,
                neighbors,
                store,
                outbound_rate,
            );
        }
        if let Some(next) = next {
            let next_end = next
                .last_segment
                .unwrap_or(max_advertised)
                .min(max_advertised);
            if next_end >= next.first_segment {
                self.candidates_in_range(
                    next.first_segment,
                    next_end,
                    node,
                    neighbors,
                    store,
                    outbound_rate,
                );
            }
        }
        if self.ctx.candidates.is_empty() {
            return false;
        }

        let (old_session, new_session, q1, q2) = match next {
            Some(next) => (
                Some(session_view(current)),
                Some(session_view(next)),
                node.undelivered_in_session(current, max_advertised),
                node.q2_for(next, config.new_source_qs),
            ),
            None => (
                Some(session_view(current)),
                None,
                node.undelivered_in_session(current, max_advertised),
                0,
            ),
        };

        self.ctx.tau_secs = config.tau_secs;
        self.ctx.play_rate = config.play_rate;
        self.ctx.inbound_rate = inbound_rate;
        self.ctx.id_play = id_play;
        self.ctx.startup_q = config.startup_q;
        self.ctx.new_source_qs = config.new_source_qs;
        self.ctx.old_session = old_session;
        self.ctx.new_session = new_session;
        self.ctx.q1 = q1;
        self.ctx.q2 = q2;
        true
    }
    // fss-lint: end
}

impl MemoryFootprint for WorkerScratch {
    /// Context candidates, the recycled supplier/request pools and the
    /// bitset word buffers.  The type-erased scheduler scratch counts as
    /// its slot only (its contents are policy-private).
    fn heap_bytes(&self) -> usize {
        let nested_suppliers: usize = self
            .ctx
            .candidates
            .iter()
            .map(|c| vec_bytes(&c.suppliers))
            .chain(self.supplier_pool.iter().map(vec_bytes))
            .sum();
        let nested_requests: usize = self
            .out
            .iter()
            .map(|b| vec_bytes(&b.requests))
            .chain(self.request_pool.iter().map(vec_bytes))
            .sum();
        vec_bytes(&self.ctx.candidates)
            + nested_suppliers
            + vec_bytes(&self.need_words)
            + vec_bytes(&self.avail_words)
            + vec_bytes(&self.out)
            + vec_bytes(&self.request_pool)
            + vec_bytes(&self.supplier_pool)
            + nested_requests
    }
}

impl MemoryFootprint for PeriodScratch {
    /// The dense per-peer tables, the active/observed lists, the merged
    /// batches, the recycled request vectors and every worker slot.
    fn heap_bytes(&self) -> usize {
        let nested_requests: usize = self
            .batches
            .iter()
            .map(|b| vec_bytes(&b.requests))
            .chain(self.request_pool.iter().map(vec_bytes))
            .sum();
        let workers: usize =
            vec_bytes(&self.workers) + self.workers.iter().map(|w| w.heap_bytes()).sum::<usize>();
        vec_bytes(&self.active)
            + vec_bytes(&self.observed_max)
            + vec_bytes(&self.outbound_rate)
            + vec_bytes(&self.inbound_rate)
            + vec_bytes(&self.outbound_budget)
            + vec_bytes(&self.chunks)
            + vec_bytes(&self.batches)
            + vec_bytes(&self.request_pool)
            + vec_bytes(&self.deliveries)
            + vec_bytes(&self.dest_counts)
            + vec_bytes(&self.deliveries_dest)
            + nested_requests
            + workers
    }
}

fn session_view(session: &crate::segment::Session) -> crate::scheduler::SessionView {
    crate::scheduler::SessionView {
        id: session.id,
        first_segment: session.first_segment,
        last_segment: session.last_segment,
    }
}

/// All reusable buffers of the period loop, owned by the system.
#[derive(Debug, Default)]
pub struct PeriodScratch {
    /// Active peers this period, in id order.
    pub active: Vec<PeerId>,
    /// Discovery pass: max observed id per active peer (aligned with
    /// `active`).
    pub observed_max: Vec<SegmentId>,
    /// Dense per-peer outbound rate (segments/s).
    pub outbound_rate: Vec<f64>,
    /// Dense per-peer inbound rate (segments/s).
    pub inbound_rate: Vec<f64>,
    /// Dense per-peer whole-segment outbound budget for the period.
    pub outbound_budget: Vec<usize>,
    /// Chunk plan of the scheduling pass: `(start, end)` index ranges into
    /// `active`, one per chunk.  With a sharded store the chunks follow the
    /// shard boundaries; a single-shard store falls back to even slices.
    pub chunks: Vec<(usize, usize)>,
    /// The merged request batches, in node order.
    pub batches: Vec<RequestBatch>,
    /// Recycled request vectors (refilled from delivered batches).
    pub request_pool: Vec<Vec<crate::scheduler::SegmentRequest>>,
    /// Per-worker scheduling state (one entry when sequential).
    pub workers: Vec<WorkerScratch>,
    /// Deliveries of the current period, in resolver order
    /// (supplier-major — see [`crate::transfer`]).
    pub deliveries: Vec<DeliveredSegment>,
    /// Counting-sort workspace of the fused delivery walk: per destination
    /// shard, the offset of its run in `deliveries_dest` (length
    /// `shard_count + 1` after the prefix sum).
    pub dest_counts: Vec<usize>,
    /// Deliveries regrouped by destination (requester) shard, stable within
    /// each shard — the order the fused shard-major walk applies them in.
    pub deliveries_dest: Vec<DeliveredSegment>,
}

impl PeriodScratch {
    /// Grows the dense tables to cover `peer_capacity` ids and ensures
    /// `workers` worker slots exist.
    pub fn ensure_capacity(&mut self, peer_capacity: usize, workers: usize) {
        if self.outbound_rate.len() < peer_capacity {
            self.outbound_rate.resize(peer_capacity, 0.0);
            self.inbound_rate.resize(peer_capacity, 0.0);
            self.outbound_budget.resize(peer_capacity, 0);
        }
        while self.workers.len() < workers {
            self.workers.push(WorkerScratch::default());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_capacity_grows_monotonically() {
        let mut scratch = PeriodScratch::default();
        scratch.ensure_capacity(100, 2);
        assert_eq!(scratch.outbound_rate.len(), 100);
        assert_eq!(scratch.workers.len(), 2);
        scratch.ensure_capacity(50, 1);
        assert_eq!(scratch.outbound_rate.len(), 100, "tables never shrink");
        assert_eq!(scratch.workers.len(), 2);
        scratch.ensure_capacity(150, 4);
        assert_eq!(scratch.outbound_rate.len(), 150);
        assert_eq!(scratch.workers.len(), 4);
    }
}
