//! The Fast Switch Algorithm (Algorithm 1).
//!
//! Each period the scheduler:
//!
//! 1. scores every candidate segment with `priority = max(urgency, rarity)`
//!    and greedily assigns each one to the supplier that can deliver it
//!    earliest within the period, yielding the ordered schedulable sets `O1`
//!    and `O2` ([`greedy_assign`](crate::assign::greedy_assign)),
//! 2. computes the ideal inbound split `r1`/`r2` from the closed-form model
//!    ([`SwitchModel::optimal_split`]),
//! 3. clamps it to the available supply with the four-case rule
//!    ([`allocate_rates`]), and
//! 4. requests the first `I1` segments of `O1` and the first `I2` segments of
//!    `O2`, interleaved by priority.
//!
//! Outside of a switch (only one stream has schedulable segments) it degrades
//! to a plain priority scheduler, which is what the underlying pull-based
//! protocol does anyway.

use crate::allocation::allocate_rates;
use crate::assign::{greedy_assign_into, AssignScratch, AssignedSegment, AssignmentOrder};
use crate::model::SwitchModel;
use fss_gossip::{SchedulerScratch, SchedulingContext, SegmentRequest, SegmentScheduler};

/// The paper's proposed scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastSwitchScheduler;

impl FastSwitchScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        FastSwitchScheduler
    }
}

/// Reusable per-worker state of the fast scheduler.
#[derive(Debug, Default)]
struct FastScratch {
    assign: AssignScratch,
    /// Merge order: indices into the old set, or into the new set with the
    /// high bit set.
    merged: Vec<u32>,
}

const NEW_FLAG: u32 = 1 << 31;

// fss-lint: hot-path
/// Merges the selected old/new segments into `out` ordered by decreasing
/// priority (ties broken by ascending id), emitting at most `limit` requests.
fn merge_by_priority_into(
    old: &[AssignedSegment],
    new: &[AssignedSegment],
    order: &mut Vec<u32>,
    out: &mut Vec<SegmentRequest>,
    limit: usize,
) {
    order.clear();
    // The index-with-flag encoding needs both sets to fit below the flag bit;
    // candidate sets are bounded by the buffer window (hundreds), so this
    // never fires outside adversarial synthetic inputs.
    assert!(
        old.len() < NEW_FLAG as usize && new.len() < NEW_FLAG as usize,
        "candidate set too large for the u31 index encoding"
    );
    order.extend((0..old.len()).map(|i| i as u32));
    order.extend((0..new.len()).map(|i| i as u32 | NEW_FLAG));
    let segment_of = |key: u32| -> &AssignedSegment {
        if key & NEW_FLAG != 0 {
            &new[(key & !NEW_FLAG) as usize]
        } else {
            &old[key as usize]
        }
    };
    // Ids are unique, so the key is total and the unstable sort
    // deterministic.
    order.sort_unstable_by(|&x, &y| {
        let a = segment_of(x);
        let b = segment_of(y);
        b.priority
            .priority
            .partial_cmp(&a.priority.priority)
            .expect("priorities are finite")
            .then(a.id.cmp(&b.id))
    });
    out.extend(order.iter().take(limit).map(|&key| {
        let a = segment_of(key);
        SegmentRequest {
            segment: a.id,
            supplier: a.supplier,
        }
    }));
}
// fss-lint: end

impl SegmentScheduler for FastSwitchScheduler {
    fn name(&self) -> &'static str {
        "fast-switch"
    }

    fn schedule_into(
        &self,
        ctx: &SchedulingContext,
        scratch: &mut SchedulerScratch,
        out: &mut Vec<SegmentRequest>,
    ) {
        out.clear();
        let budget = ctx.inbound_budget();
        if budget == 0 || ctx.candidates.is_empty() {
            return;
        }
        let scratch: &mut FastScratch = scratch.get_or_default();
        greedy_assign_into(ctx, AssignmentOrder::ByPriority, &mut scratch.assign);
        let outcome = &scratch.assign.outcome;

        // Only one stream has anything schedulable: plain priority retrieval.
        if outcome.old.is_empty() || outcome.new.is_empty() || !ctx.switch_in_progress() {
            merge_by_priority_into(&outcome.old, &outcome.new, &mut scratch.merged, out, budget);
            return;
        }

        // Ideal split, clamped by the four-case rule.
        let model = SwitchModel::new(
            ctx.q1.max(1) as f64,
            ctx.q2 as f64,
            ctx.startup_q as f64,
            ctx.play_rate,
            ctx.inbound_rate,
        );
        let split = model.optimal_split();
        let allocation = allocate_rates(
            split,
            outcome.available_old(),
            outcome.available_new(),
            budget,
            ctx.tau_secs,
        );

        merge_by_priority_into(
            &outcome.old[..allocation.old_segments],
            &outcome.new[..allocation.new_segments],
            &mut scratch.merged,
            out,
            usize::MAX,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fss_gossip::{
        CandidateSegment, SegmentId, SessionView, SourceId, StreamClass, SupplierInfo,
    };

    /// Runs the scheduler on `ctx` into the reused `out`, returning it.
    fn run<'a>(
        ctx: &SchedulingContext,
        scratch: &mut SchedulerScratch,
        out: &'a mut Vec<SegmentRequest>,
    ) -> &'a [SegmentRequest] {
        FastSwitchScheduler::new().schedule_into(ctx, scratch, out);
        out
    }

    fn supplier(peer: u32, rate: f64, position: usize) -> SupplierInfo {
        SupplierInfo {
            peer,
            rate,
            buffer_position: position,
            buffer_capacity: 600,
        }
    }

    /// A node 60 segments behind the old stream's end, with the whole old
    /// tail and the first new segments available from ample suppliers.
    fn switch_ctx(inbound: f64) -> SchedulingContext {
        let mut candidates = Vec::new();
        // Old source: missing 140..=199 (60 segments).
        for id in 140..200u64 {
            candidates.push(CandidateSegment {
                id: SegmentId(id),
                suppliers: vec![supplier(1, 20.0, 300), supplier(2, 20.0, 200)],
            });
        }
        // New source: missing 200..=229 (30 segments available so far).
        for id in 200..230u64 {
            candidates.push(CandidateSegment {
                id: SegmentId(id),
                suppliers: vec![supplier(3, 20.0, 30), supplier(4, 20.0, 20)],
            });
        }
        SchedulingContext {
            tau_secs: 1.0,
            play_rate: 10.0,
            inbound_rate: inbound,
            id_play: SegmentId(140),
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
            q1: 60,
            q2: 50,
            candidates,
        }
    }

    #[test]
    fn interleaves_old_and_new_requests() {
        let ctx = switch_ctx(15.0);
        let (mut scratch, mut out) = (SchedulerScratch::new(), Vec::new());
        let requests = run(&ctx, &mut scratch, &mut out);
        assert!(!requests.is_empty());
        assert!(requests.len() <= ctx.inbound_budget());
        let old = requests
            .iter()
            .filter(|r| ctx.class_of(r.segment) == StreamClass::Old)
            .count();
        let new = requests.len() - old;
        assert!(old > 0, "some inbound goes to the old source");
        assert!(new > 0, "some inbound goes to the new source");

        // The split follows the model: with Q1 = 60, Q2 = 50, Q = 10, p = 10,
        // I = 15 the ideal r1 ≈ 9.27, so roughly 9 old and 6 new.
        let split = SwitchModel::new(60.0, 50.0, 10.0, 10.0, 15.0).optimal_split();
        assert!(
            (old as f64 - split.r1).abs() <= 1.0,
            "old={old} r1={}",
            split.r1
        );
        assert!(
            (new as f64 - split.r2).abs() <= 1.0,
            "new={new} r2={}",
            split.r2
        );
    }

    #[test]
    fn never_exceeds_the_inbound_budget() {
        let (mut scratch, mut out) = (SchedulerScratch::new(), Vec::new());
        for inbound in [1.0, 5.0, 10.0, 15.0, 33.0] {
            let ctx = switch_ctx(inbound);
            assert!(run(&ctx, &mut scratch, &mut out).len() <= ctx.inbound_budget());
        }
    }

    #[test]
    fn no_candidates_or_budget_yields_no_requests() {
        // Each empty schedule follows a full one into the same `out`: the
        // scheduler must clear what the previous period left there.
        let (mut scratch, mut out) = (SchedulerScratch::new(), Vec::new());
        let mut no_candidates = switch_ctx(15.0);
        no_candidates.candidates.clear();
        let mut no_budget = switch_ctx(15.0);
        no_budget.inbound_rate = 0.5;
        for ctx in [no_candidates, no_budget] {
            assert!(!run(&switch_ctx(15.0), &mut scratch, &mut out).is_empty());
            assert!(run(&ctx, &mut scratch, &mut out).is_empty());
        }
    }

    #[test]
    fn single_stream_contexts_fall_back_to_priority_order() {
        let mut ctx = switch_ctx(15.0);
        // Remove every new-source candidate: no switch decision to make.
        ctx.candidates.retain(|c| c.id < SegmentId(200));
        ctx.new_session = None;
        ctx.q2 = 0;
        let (mut scratch, mut out) = (SchedulerScratch::new(), Vec::new());
        let requests = run(&ctx, &mut scratch, &mut out);
        assert_eq!(requests.len(), ctx.inbound_budget());
        // Most urgent (earliest) segments are requested first.
        assert_eq!(requests[0].segment, SegmentId(140));
    }

    #[test]
    fn requests_are_unique_and_reference_candidate_suppliers() {
        let ctx = switch_ctx(15.0);
        let (mut scratch, mut out) = (SchedulerScratch::new(), Vec::new());
        let requests = run(&ctx, &mut scratch, &mut out);
        let mut ids: Vec<_> = requests.iter().map(|r| r.segment).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), requests.len());
        for r in requests {
            let c = ctx.candidates.iter().find(|c| c.id == r.segment).unwrap();
            assert!(c.suppliers.iter().any(|s| s.peer == r.supplier));
        }
    }

    #[test]
    fn scheduler_name_is_stable() {
        assert_eq!(FastSwitchScheduler::new().name(), "fast-switch");
    }
}
