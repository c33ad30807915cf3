//! Scheduling interface.
//!
//! Once per scheduling period every node assembles a [`SchedulingContext`]
//! describing what it needs, what its neighbours can supply and where its
//! playback stands, then hands it to a [`SegmentScheduler`] — the paper's
//! Fast Switch Algorithm, the Normal Switch baseline, or any other policy —
//! which returns the ordered list of [`SegmentRequest`]s to issue this
//! period.

use crate::segment::{SegmentId, SourceId};
use fss_overlay::PeerId;

/// Which stream a candidate segment belongs to, relative to an in-progress
/// source switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamClass {
    /// Segment of the old source `S1` (still required to finish its
    /// playback).
    Old,
    /// Segment of the new source `S2`.
    New,
}

/// A neighbour able to supply one candidate segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupplierInfo {
    /// The supplying neighbour.
    pub peer: PeerId,
    /// The neighbour's advertised sending rate `R(j)` in segments/second.
    pub rate: f64,
    /// The segment's position in the neighbour's FIFO buffer, measured from
    /// the tail (`p_ij` of Table 2; 1 = newest).
    pub buffer_position: usize,
    /// The neighbour's buffer capacity `B`.
    pub buffer_capacity: usize,
}

/// One segment the node needs and could obtain this period.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateSegment {
    /// The segment id.
    pub id: SegmentId,
    /// Neighbours currently holding the segment (never empty).
    pub suppliers: Vec<SupplierInfo>,
}

impl CandidateSegment {
    /// The number of suppliers (`n_i` of Table 2).
    pub fn supplier_count(&self) -> usize {
        self.suppliers.len()
    }

    /// The maximum receiving rate `R_i = max_j R_ij` (eq. 6).
    pub fn max_rate(&self) -> f64 {
        self.suppliers.iter().map(|s| s.rate).fold(0.0, f64::max)
    }
}

/// A view of one source session as known to the scheduling node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionView {
    /// The session identifier.
    pub id: SourceId,
    /// First segment id of the session.
    pub first_segment: SegmentId,
    /// Last segment id, if the node knows the session has ended.
    pub last_segment: Option<SegmentId>,
}

/// Everything a scheduler needs to decide this period's requests.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulingContext {
    /// Scheduling period `τ` in seconds.
    pub tau_secs: f64,
    /// Playback rate `p` in segments per second.
    pub play_rate: f64,
    /// The node's total inbound rate `I` in segments per second.
    pub inbound_rate: f64,
    /// The id of the segment being played (`id_play`); equals the next
    /// segment to play.
    pub id_play: SegmentId,
    /// Startup threshold `Q` (consecutive segments).
    pub startup_q: usize,
    /// New-source startup threshold `Qs`.
    pub new_source_qs: usize,
    /// The old source's session, when a switch is in progress or the node is
    /// still playing it.
    pub old_session: Option<SessionView>,
    /// The new source's session, once the node has discovered it.
    pub new_session: Option<SessionView>,
    /// `Q1`: undelivered segments of the old source still needed for its
    /// playback.
    pub q1: usize,
    /// `Q2`: undelivered segments among the first `Qs` of the new source.
    pub q2: usize,
    /// The segments the node needs and at least one neighbour can supply.
    pub candidates: Vec<CandidateSegment>,
}

impl SchedulingContext {
    /// Whole segments the node can receive this period (`⌊I·τ⌋`).
    pub fn inbound_budget(&self) -> usize {
        (self.inbound_rate * self.tau_secs).floor() as usize
    }

    /// True when the node is aware of an in-progress source switch (it knows
    /// the new session and still needs old-source segments or has not
    /// finished the old playback).
    pub fn switch_in_progress(&self) -> bool {
        self.new_session.is_some() && self.old_session.is_some()
    }

    /// Classifies a segment id against the (known) sessions.
    ///
    /// Ids at or beyond the new session's first segment are [`StreamClass::New`];
    /// everything else is [`StreamClass::Old`].
    pub fn class_of(&self, id: SegmentId) -> StreamClass {
        match self.new_session {
            Some(new) if id >= new.first_segment => StreamClass::New,
            _ => StreamClass::Old,
        }
    }
}

/// One request the scheduler decided to issue this period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentRequest {
    /// The requested segment.
    pub segment: SegmentId,
    /// The neighbour to request it from.
    pub supplier: PeerId,
}

/// Reusable, type-erased working memory handed to
/// [`SegmentScheduler::schedule_into`].
///
/// The system owns one scratch per worker and passes it to every scheduling
/// call, so a scheduler can keep sort buffers, hash maps and outcome vectors
/// alive across nodes and periods: after warm-up the scheduling pass performs
/// no heap allocation.  The slot is type-erased because each scheduler
/// implementation has its own scratch layout; the first call allocates it,
/// subsequent calls reuse it.
#[derive(Debug, Default)]
pub struct SchedulerScratch {
    slot: Option<Box<dyn std::any::Any + Send>>,
}

impl SchedulerScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The scheduler-specific scratch value, created on first use.
    pub fn get_or_default<T: Default + Send + 'static>(&mut self) -> &mut T {
        if !self.slot.as_ref().is_some_and(|s| s.is::<T>()) {
            self.slot = Some(Box::<T>::default());
        }
        self.slot
            .as_mut()
            .expect("slot populated above")
            .downcast_mut::<T>()
            .expect("type checked above")
    }
}

/// A pluggable segment-scheduling policy.
pub trait SegmentScheduler: Send + Sync {
    /// Short policy name used in reports (e.g. `"fast-switch"`).
    fn name(&self) -> &'static str;

    /// Decides which segments to request from which suppliers this period,
    /// writing the requests into `out` (cleared first) and reusing `scratch`
    /// for any intermediate state, so the period hot path allocates nothing.
    ///
    /// Implementations should emit at most [`SchedulingContext::inbound_budget`]
    /// requests; the transfer layer enforces the budget regardless.
    fn schedule_into(
        &self,
        ctx: &SchedulingContext,
        scratch: &mut SchedulerScratch,
        out: &mut Vec<SegmentRequest>,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(id: u32, first: u64, last: Option<u64>) -> SessionView {
        SessionView {
            id: SourceId(id),
            first_segment: SegmentId(first),
            last_segment: last.map(SegmentId),
        }
    }

    fn context() -> SchedulingContext {
        SchedulingContext {
            tau_secs: 1.0,
            play_rate: 10.0,
            inbound_rate: 15.9,
            id_play: SegmentId(100),
            startup_q: 10,
            new_source_qs: 50,
            old_session: Some(view(0, 0, Some(199))),
            new_session: Some(view(1, 200, None)),
            q1: 20,
            q2: 50,
            candidates: vec![],
        }
    }

    #[test]
    fn inbound_budget_floors() {
        let ctx = context();
        assert_eq!(ctx.inbound_budget(), 15);
        let mut half = ctx.clone();
        half.tau_secs = 0.5;
        assert_eq!(half.inbound_budget(), 7);
    }

    #[test]
    fn class_of_uses_new_session_boundary() {
        let ctx = context();
        assert_eq!(ctx.class_of(SegmentId(199)), StreamClass::Old);
        assert_eq!(ctx.class_of(SegmentId(200)), StreamClass::New);
        assert_eq!(ctx.class_of(SegmentId(500)), StreamClass::New);

        let mut no_switch = ctx;
        no_switch.new_session = None;
        assert_eq!(no_switch.class_of(SegmentId(500)), StreamClass::Old);
        assert!(!no_switch.switch_in_progress());
    }

    #[test]
    fn switch_detection() {
        assert!(context().switch_in_progress());
        let mut ctx = context();
        ctx.old_session = None;
        assert!(!ctx.switch_in_progress());
    }

    #[test]
    fn candidate_helpers() {
        let c = CandidateSegment {
            id: SegmentId(42),
            suppliers: vec![
                SupplierInfo {
                    peer: 1,
                    rate: 12.0,
                    buffer_position: 10,
                    buffer_capacity: 600,
                },
                SupplierInfo {
                    peer: 2,
                    rate: 20.0,
                    buffer_position: 500,
                    buffer_capacity: 600,
                },
            ],
        };
        assert_eq!(c.supplier_count(), 2);
        assert_eq!(c.max_rate(), 20.0);
    }

    #[test]
    fn scheduler_trait_is_object_safe() {
        struct Nothing;
        impl SegmentScheduler for Nothing {
            fn name(&self) -> &'static str {
                "nothing"
            }
            fn schedule_into(
                &self,
                _ctx: &SchedulingContext,
                _scratch: &mut SchedulerScratch,
                out: &mut Vec<SegmentRequest>,
            ) {
                out.clear();
            }
        }
        let b: Box<dyn SegmentScheduler> = Box::new(Nothing);
        assert_eq!(b.name(), "nothing");
        let mut out = vec![SegmentRequest {
            segment: SegmentId(1),
            supplier: 0,
        }];
        b.schedule_into(&context(), &mut SchedulerScratch::new(), &mut out);
        assert!(out.is_empty());
    }
}
