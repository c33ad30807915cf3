//! The message-level network model behind the event-driven stepping mode.
//!
//! [`NetworkModel`] carries granted segment transfers as in-flight messages
//! through a flat in-flight store instead of delivering them inside the
//! period that resolved them.  Each message leaves its supplier at the
//! period boundary, survives a Bernoulli data-leg loss draw, and arrives
//! after the modeled request+data round trip (scaled trace latency) plus a
//! bounded jitter.  Buffer-map and request legs are modeled at the boundary
//! itself: a lost buffer map blinds a requester to that supplier for the
//! period, and a lost request never reaches (or charges) the supplier.
//!
//! Determinism model (see `docs/network.md`):
//!
//! * every loss/jitter decision is a stateless hash draw from
//!   [`fss_overlay::net::LinkFaults`] — no RNG cursor exists, so evaluation
//!   order cannot change an outcome;
//! * the store hands out due messages in (arrival tick, send sequence)
//!   order, and sends happen in the resolver's deterministic grant order;
//! * the ideal configuration ([`fss_overlay::NetworkConfig::ideal`])
//!   schedules every arrival at the boundary that resolved it, reproducing
//!   period-lockstep stepping byte-for-byte (pinned by the golden-digest
//!   suite).
//!
//! The model allocates only on installation: messages are `Copy`
//! [`DeliveredSegment`]s stored inline in the pre-reserved store, so
//! steady-state event stepping stays allocation-free (enforced by
//! `zero_alloc.rs`).

use crate::transfer::DeliveredSegment;
use fss_overlay::net::{LinkFaults, NetworkConfig};
use fss_sim::SimTime;

/// A flat store of in-flight messages, keyed by arrival tick.
///
/// Entries live in one `Vec` in **send order**: [`push`](Self::push) is an
/// append.  A drain ([`drain_due`](Self::drain_due)) is one stable counting
/// sort of the due entries on their arrival tick, written straight into the
/// caller's buffer, so they come out ordered by (arrival, send sequence) —
/// the order a `(time, sequence)` min-heap pops in.  The entries that are
/// not yet due are compacted in place and keep their send order for the
/// next drain.  Nothing is ever re-sorted, and the only working memory is
/// one count per millisecond tick of the drained span (a one-tick span,
/// such as a boundary drain or the ideal network's, needs none).
#[derive(Debug)]
pub(crate) struct InFlightStore<T> {
    /// Pending `(arrival, payload)` entries in send order.
    entries: Vec<(SimTime, T)>,
    /// Per-tick counts, then write cursors, of the drain's counting sort.
    counts: Vec<usize>,
    /// No pending entry arrives before this tick.
    floor: u64,
    /// No pending entry arrives after this tick.
    ceil: u64,
}

impl<T: Copy> InFlightStore<T> {
    /// An empty store with room for `capacity` messages and for drains
    /// spanning `tick_span` milliseconds without reallocating.
    pub(crate) fn with_capacity(capacity: usize, tick_span: usize) -> Self {
        InFlightStore {
            entries: Vec::with_capacity(capacity),
            counts: Vec::with_capacity(tick_span),
            floor: 0,
            ceil: 0,
        }
    }

    /// Sends `payload`, due at `arrival`.
    pub(crate) fn push(&mut self, arrival: SimTime, payload: T) {
        let tick = arrival.as_millis();
        if self.entries.is_empty() {
            (self.floor, self.ceil) = (tick, tick);
        } else {
            self.floor = self.floor.min(tick);
            self.ceil = self.ceil.max(tick);
        }
        self.entries.push((arrival, payload));
    }

    /// Appends every entry arriving before `bound` (or at it, when
    /// `inclusive`) to `out` in (arrival, send sequence) order, removes
    /// them, and returns how many there were.
    pub(crate) fn drain_due(&mut self, bound: SimTime, inclusive: bool, out: &mut Vec<T>) -> usize {
        let Some(&(_, filler)) = self.entries.first() else {
            return 0;
        };
        let bound = bound.as_millis();
        // Due means `tick < end`; no entry lies past `ceil`.
        let end = if inclusive {
            bound.saturating_add(1)
        } else {
            bound
        }
        .min(self.ceil.saturating_add(1));
        if end <= self.floor {
            return 0;
        }
        let floor = self.floor;
        self.floor = end;
        if end - floor == 1 {
            // One tick: the due entries need no sort, only a stable split.
            let base = out.len();
            self.entries.retain(|&(arrival, payload)| {
                let due = arrival.as_millis() < end;
                if due {
                    out.push(payload);
                }
                !due
            });
            return out.len() - base;
        }
        self.counts.clear();
        self.counts.resize((end - floor) as usize, 0);
        for &(arrival, _) in &self.entries {
            let tick = arrival.as_millis();
            if tick < end {
                self.counts[(tick - floor) as usize] += 1;
            }
        }
        let base = out.len();
        let mut cursor = base;
        for count in self.counts.iter_mut() {
            let run = *count;
            *count = cursor;
            cursor += run;
        }
        let due = cursor - base;
        if due == 0 {
            return 0;
        }
        out.resize(cursor, filler);
        let mut kept = 0;
        for i in 0..self.entries.len() {
            let (arrival, payload) = self.entries[i];
            let tick = arrival.as_millis();
            if tick < end {
                let slot = &mut self.counts[(tick - floor) as usize];
                out[*slot] = payload;
                *slot += 1;
            } else {
                self.entries[kept] = (arrival, payload);
                kept += 1;
            }
        }
        self.entries.truncate(kept);
        due
    }

    /// Messages currently in flight.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The earliest pending arrival, if any (a scan: diagnostics only).
    pub(crate) fn next_arrival(&self) -> Option<SimTime> {
        self.entries.iter().map(|&(arrival, _)| arrival).min()
    }
}

impl<T> crate::mem::MemoryFootprint for InFlightStore<T> {
    fn heap_bytes(&self) -> usize {
        crate::mem::vec_bytes(&self.entries) + crate::mem::vec_bytes(&self.counts)
    }
}

/// Cumulative counters of the network model (diagnostics only — never part
/// of [`crate::system::SystemReport`], so enabling them cannot perturb the
/// golden-pinned report surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Requests suppressed because the supplier's buffer-map advertisement
    /// was lost (the requester scheduled blind).
    pub requests_blinded: u64,
    /// Requests dropped on the request leg (the supplier never saw them, so
    /// its outbound budget was not charged).
    pub requests_lost: u64,
    /// Granted segments handed to the network.
    pub data_sent: u64,
    /// Granted segments dropped on the data leg (the supplier's budget was
    /// already consumed — the paper-faithful cost of a lost transfer).
    pub data_lost: u64,
    /// Segments that completed their flight and landed in a buffer.
    pub data_delivered: u64,
    /// Segments that arrived after their requester left the overlay.
    pub data_stale: u64,
    /// High-water mark of simultaneously in-flight messages.
    pub max_in_flight: u64,
}

/// The installed network model: fault streams, the in-flight message store
/// and its counters.  Owned by `StreamingSystem`; the system's event-driven
/// step orchestrates it (fields are crate-visible for that, like the
/// period scratch).
#[derive(Debug)]
pub struct NetworkModel {
    /// The configured knobs (validated on installation).
    pub(crate) config: NetworkConfig,
    /// Stateless per-link loss/jitter draws.
    pub(crate) faults: LinkFaults,
    /// In-flight granted segments, drained in (arrival, send sequence)
    /// order.
    pub(crate) store: InFlightStore<DeliveredSegment>,
    /// Cumulative diagnostics.
    pub(crate) stats: NetStats,
    /// The scheduling period `τ` in millisecond ticks (≥ 1).
    pub(crate) tau_ms: u64,
}

impl NetworkModel {
    /// Builds the model and pre-reserves the in-flight store: room for
    /// `capacity_hint` messages, and a drain span of one period.
    ///
    /// # Panics
    /// Panics if `config` fails validation or `tau_ms` is zero.
    pub fn new(config: NetworkConfig, tau_ms: u64, capacity_hint: usize) -> Self {
        config.validate().expect("valid network configuration");
        assert!(tau_ms > 0, "the scheduling period must be at least 1 ms");
        NetworkModel {
            config,
            faults: LinkFaults::new(&config),
            store: InFlightStore::with_capacity(capacity_hint, tau_ms as usize + 1),
            stats: NetStats::default(),
            tau_ms,
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The cumulative counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.store.len()
    }

    /// Arrival time of the next in-flight message, if any.
    pub fn next_arrival(&self) -> Option<SimTime> {
        self.store.next_arrival()
    }

    /// The virtual instant of period boundary `period_index`.
    pub fn boundary(&self, period_index: u64) -> SimTime {
        SimTime::from_millis(period_index.saturating_mul(self.tau_ms))
    }
}

impl crate::mem::MemoryFootprint for NetworkModel {
    fn heap_bytes(&self) -> usize {
        self.store.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemoryFootprint;
    use crate::segment::SegmentId;

    #[test]
    fn new_validates_and_presizes() {
        let m = NetworkModel::new(NetworkConfig::ideal(), 1_000, 64);
        assert!(m.store.entries.capacity() >= 64);
        assert!(m.heap_bytes() >= 64 * std::mem::size_of::<(SimTime, DeliveredSegment)>());
        assert_eq!(m.in_flight(), 0);
        assert_eq!(m.stats(), NetStats::default());
        assert_eq!(m.boundary(3), SimTime::from_millis(3_000));
        assert_eq!(m.next_arrival(), None);
    }

    #[test]
    #[should_panic(expected = "at least 1 ms")]
    fn zero_tau_is_rejected() {
        NetworkModel::new(NetworkConfig::ideal(), 0, 0);
    }

    #[test]
    #[should_panic(expected = "valid network configuration")]
    fn invalid_config_is_rejected() {
        NetworkModel::new(NetworkConfig::lossy(1.5, 0), 1_000, 0);
    }

    #[test]
    fn messages_are_copy_and_pointer_free() {
        // The zero-allocation guarantee rests on payloads living inline in
        // the store; keep the message small and Copy.
        fn assert_copy<T: Copy>() {}
        assert_copy::<DeliveredSegment>();
        assert!(std::mem::size_of::<(SimTime, DeliveredSegment)>() <= 24);
    }

    #[test]
    fn drains_in_arrival_then_send_order_and_carry_leftovers() {
        let mut store = InFlightStore::with_capacity(8, 4);
        let ms = SimTime::from_millis;
        store.push(ms(30), "late");
        store.push(ms(10), "a");
        store.push(ms(20), "boundary");
        store.push(ms(10), "b");
        assert_eq!(store.next_arrival(), Some(ms(10)));

        // Exclusive drains refuse the entry due exactly at the bound and
        // append after whatever the buffer already holds.
        let mut out = vec!["kept"];
        assert_eq!(store.drain_due(ms(20), false, &mut out), 2);
        assert_eq!(out, ["kept", "a", "b"]);
        assert_eq!(store.drain_due(ms(20), false, &mut out), 0);

        // A message sent later but due earlier overtakes the leftovers.
        store.push(ms(20), "tie");
        out.clear();
        assert_eq!(store.drain_due(ms(20), true, &mut out), 2);
        assert_eq!(out, ["boundary", "tie"]);
        assert_eq!((store.len(), store.next_arrival()), (1, Some(ms(30))));

        out.clear();
        assert_eq!(store.drain_due(ms(u64::MAX), true, &mut out), 1);
        assert_eq!(out, ["late"]);
        assert_eq!(store.len(), 0);
        assert_eq!(store.next_arrival(), None);
    }

    #[test]
    fn drains_within_the_reserved_span_do_not_grow() {
        let mut store = InFlightStore::with_capacity(128, 8);
        let (cap, span_cap) = (store.entries.capacity(), store.counts.capacity());
        for i in 0..128u64 {
            store.push(SimTime::from_millis(100 + i % 7), i);
        }
        let mut out = Vec::with_capacity(128);
        assert_eq!(
            store.drain_due(SimTime::from_millis(108), false, &mut out),
            128
        );
        assert_eq!(
            store.entries.capacity(),
            cap,
            "pushes within capacity must not grow"
        );
        assert_eq!(
            store.counts.capacity(),
            span_cap,
            "a 7-tick drain fits the reserved span"
        );
    }

    /// The reference model: a `Vec` kept stably sorted by arrival time, so
    /// same-instant entries keep send order — the `(time, sequence)` order
    /// a binary-heap event queue pops in.
    struct ModelQueue {
        entries: Vec<(SimTime, u64)>,
    }

    impl ModelQueue {
        fn push(&mut self, time: SimTime, payload: u64) {
            self.entries.push((time, payload));
            // Stable sort: ties stay in send order.
            self.entries.sort_by_key(|&(t, _)| t);
        }

        fn drain_due(&mut self, bound: SimTime, inclusive: bool) -> Vec<u64> {
            let due = self
                .entries
                .iter()
                .take_while(|&&(t, _)| if inclusive { t <= bound } else { t < bound })
                .count();
            self.entries.drain(..due).map(|(_, p)| p).collect()
        }

        fn next_arrival(&self) -> Option<SimTime> {
            self.entries.first().map(|&(t, _)| t)
        }
    }

    fn message(payload: u64) -> DeliveredSegment {
        DeliveredSegment {
            requester: (payload % 7) as u32,
            supplier: (payload % 5) as u32,
            segment: SegmentId(payload),
        }
    }

    proptest::proptest! {
        /// The network model's store against the sorted-`Vec` model under
        /// arbitrary interleavings of sends (arrival ticks drawn from a
        /// narrow range, so ties are common) and inclusive / exclusive
        /// drains, with leftovers carried from one drain to the next: every
        /// drain yields exactly the model's sequence, and the in-flight
        /// count and next arrival always agree.
        #[test]
        fn prop_store_matches_sorted_vec_model(
            ops in proptest::collection::vec((0u8..3, 0u64..50), 1..300)
        ) {
            let mut net = NetworkModel::new(NetworkConfig::ideal(), 10, 16);
            let mut model = ModelQueue { entries: Vec::new() };
            let mut next_payload = 0u64;
            let mut out = Vec::new();
            for (op, tick) in ops {
                let t = SimTime::from_millis(tick);
                if op == 0 {
                    net.store.push(t, message(next_payload));
                    model.push(t, next_payload);
                    next_payload += 1;
                } else {
                    let inclusive = op == 1;
                    out.clear();
                    let drained = net.store.drain_due(t, inclusive, &mut out);
                    let want: Vec<DeliveredSegment> =
                        model.drain_due(t, inclusive).into_iter().map(message).collect();
                    proptest::prop_assert_eq!(drained, want.len());
                    proptest::prop_assert_eq!(&out, &want);
                }
                proptest::prop_assert_eq!(net.in_flight(), model.entries.len());
                proptest::prop_assert_eq!(net.next_arrival(), model.next_arrival());
            }
            // Drain whatever is left: full agreement to the end.
            out.clear();
            net.store.drain_due(SimTime::from_millis(u64::MAX), true, &mut out);
            let rest: Vec<DeliveredSegment> = model
                .drain_due(SimTime::from_millis(u64::MAX), true)
                .into_iter()
                .map(message)
                .collect();
            proptest::prop_assert_eq!(out, rest);
            proptest::prop_assert_eq!(net.in_flight(), 0);
        }
    }
}
