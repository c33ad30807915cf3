//! The complete period-synchronous streaming system.
//!
//! [`StreamingSystem`] wires the overlay, the per-node protocol state, the
//! pluggable scheduler and the transfer model into the simulation loop the
//! paper's evaluation runs:
//!
//! 1. (dynamic scenarios) apply churn and repair neighbour sets,
//! 2. the live source emits `p·τ` new segments,
//! 3. every node exchanges buffer maps with its neighbours (control traffic),
//!    discovers new sessions, builds its scheduling context and asks its
//!    scheduler which segments to request,
//! 4. requests are resolved against inbound/outbound budgets and the granted
//!    segments are delivered (data traffic),
//! 5. every node advances playback; switch milestones and the per-period
//!    ratio tracks are recorded.
//!
//! # One pipeline
//!
//! [`advance`](StreamingSystem::advance) is the only period body.  All
//! working memory lives in a reusable [`PeriodScratch`] arena (zero
//! steady-state heap allocation), candidate segments are discovered by
//! word-level bitset intersection of per-peer availability maps, per-peer
//! lookups use dense `Vec`s indexed by [`PeerId`], and the read-only
//! scheduling pass fans out over an attached [`JobExecutor`] (the
//! persistent `fss-runtime` worker pool in production; an in-line serial
//! fallback otherwise) in deterministic node order.  Chunk outputs land in
//! per-chunk scratch slots, so the report is byte-identical regardless of
//! executor, worker count or scheduling interleaving.  Installing a message-level network model
//! ([`StreamingSystem::set_network`]) adds three legs to the same pipeline
//! — boundary landing, in-flight dispatch and the arrival drain — rather
//! than a second period body.  The behaviour is pinned by report digests
//! (this module's tests, `tests/equivalence.rs` and the `fss-runtime` pin
//! suites), captured from the straight-line reference implementation and
//! the pipelines this one replaced.

use crate::buffer::FifoBuffer;
use crate::config::GossipConfig;
use crate::directory::{sample_distinct, MembershipView, SampleScratch, ViewConfig};
use crate::mem::{vec_bytes, MemUsage, MemoryFootprint};
use crate::membership::MembershipMaintainer;
use crate::net::{NetStats, NetworkModel};
use crate::peer::{self, PeerNode};
use crate::prefetch::{prefetch_read, DELIVERY_AHEAD, WALK_AHEAD};
use crate::qoe::{QoeRecorder, QoeTotals};
use crate::scheduler::SegmentScheduler;
use crate::scratch::{PeriodScratch, WorkerScratch};
use crate::segment::{SegmentId, SessionDirectory, SourceId};
use crate::stats::{RatioSample, SwitchRecord, SwitchStats, TrafficCounters};
use crate::store::{PeerRef, PeerStore};
use crate::transfer::{regroup_by_dest_shard, RequestBatch, TransferResolver};
use fss_overlay::net::{LinkFaults, MessageKind, NetworkConfig};
use fss_overlay::{ChurnModel, Overlay, OverlayError, PeerAttrs, PeerId};
use fss_sim::exec::{DisjointRanges, DisjointSlots, JobExecutor, SerialExecutor};
use fss_sim::{SimDuration, SimTime};
use std::sync::Arc;

/// Snapshot of everything an experiment needs after (or while) running the
/// system.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemReport {
    /// Name of the scheduling policy that produced this run.
    pub scheduler: &'static str,
    /// Aggregated switch statistics, folded over the per-peer switch
    /// records in peer order at report time.  The raw per-peer records stay
    /// readable through [`StreamingSystem::switch_records`]; the report
    /// itself is O(1) in the peer count.
    pub switch: SwitchStats,
    /// Per-period ratio samples recorded since the switch.
    pub ratio_samples: Vec<RatioSample>,
    /// Traffic accumulated over the whole run.
    pub traffic_total: TrafficCounters,
    /// Traffic accumulated between the switch and its completion.
    pub traffic_switch_window: TrafficCounters,
    /// Number of scheduling periods executed.
    pub periods: u64,
    /// Seconds (since the switch) at which the last countable node completed
    /// the switch, if every countable node did.
    pub switch_completed_secs: Option<f64>,
    /// Per-peer protocol-state footprint at report time (active peers only;
    /// a pure function of the protocol history, so it never breaks report
    /// equivalence across implementations, worker counts or stepping
    /// modes — see [`crate::mem`]).
    pub mem: MemUsage,
    /// Cumulative QoE event counters (startups, stall episodes, continuity)
    /// recorded on the playback path — see [`crate::qoe`].  All zero when
    /// telemetry is disabled.
    pub qoe: QoeTotals,
}

/// The period-synchronous gossip streaming simulator.
pub struct StreamingSystem {
    config: GossipConfig,
    overlay: Overlay,
    /// Sharded struct-of-arrays peer storage: dense contiguous id shards,
    /// each owning its peers' buffer/playback/discovery/credit columns.
    /// The shards are the chunk unit of the parallel scheduling pass.
    peers: PeerStore,
    directory: SessionDirectory,
    scheduler: Box<dyn SegmentScheduler>,
    resolver: TransferResolver,
    churn: Option<ChurnModel>,
    membership: MembershipMaintainer,
    /// This channel's slot in the cross-channel membership directory: the
    /// incrementally maintained member/candidate view every admission path
    /// (churn rejoin, zap batches, storms) and the repair pass read instead
    /// of re-collecting `active_peers()`.
    view: MembershipView,
    /// Pooled churn working memory (eligible/left/joined/neighbour buffers).
    churn_scratch: ChurnScratch,

    sources: Vec<PeerId>,
    /// Next segment id the live source will emit.
    next_emit: SegmentId,
    emit_credit: f64,

    period_index: u64,
    traffic_total: TrafficCounters,
    traffic_switch_window: TrafficCounters,

    /// Set when the source switch is triggered.
    switch_secs: Option<f64>,
    /// The session pair involved in the switch (old, new).
    switch_sessions: Option<(SourceId, SourceId)>,
    switch_records: Vec<SwitchRecord>,
    ratio_samples: Vec<RatioSample>,
    switch_completed_secs: Option<f64>,

    /// Streaming QoE event recorder, fed by the playback pass (see
    /// [`crate::qoe`]).  Consumes no RNG and allocates nothing in steady
    /// state, so enabling it cannot change any simulated result.
    qoe: QoeRecorder,

    /// Reusable period working memory.
    scratch: PeriodScratch,
    /// Chunk count of the scheduling pass (results are identical for any
    /// value).
    parallelism: usize,
    /// Executor running the scheduling-pass chunks.  `None` degrades to the
    /// in-line [`SerialExecutor`] — byte-identical results either way.
    executor: Option<Arc<dyn JobExecutor>>,
    /// The message-level network model.  `None` (the default) selects
    /// period-lockstep stepping; `Some` switches [`advance`](Self::advance)
    /// to the event-driven mode, which carries granted transfers as
    /// scheduled messages with latency, loss and jitter (see [`crate::net`]).
    net: Option<NetworkModel>,
}

impl StreamingSystem {
    /// Creates a system over `overlay` with the given scheduling policy.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(
        overlay: Overlay,
        config: GossipConfig,
        scheduler: Box<dyn SegmentScheduler>,
    ) -> Self {
        config.validate().expect("valid gossip configuration");
        let capacity = overlay.graph().capacity();
        let mut peers = PeerStore::with_capacity(capacity);
        for id in 0..capacity as PeerId {
            peers.push(PeerNode::new(id, &config, SegmentId(0)));
        }
        let min_degree = overlay.config().min_degree;
        let membership_seed = overlay.config().seed ^ 0x4d45_4d42;
        let view = MembershipView::from_members(
            ViewConfig {
                candidate_bound: None,
                seed: overlay.config().seed ^ 0x0D15_EC70,
            },
            overlay.active_peers(),
        );
        StreamingSystem {
            config,
            overlay,
            peers,
            directory: SessionDirectory::new(),
            scheduler,
            resolver: TransferResolver::new(),
            churn: None,
            membership: MembershipMaintainer::new(min_degree, membership_seed),
            view,
            churn_scratch: ChurnScratch::default(),
            sources: Vec::new(),
            next_emit: SegmentId(0),
            emit_credit: 0.0,
            period_index: 0,
            traffic_total: TrafficCounters::new(),
            traffic_switch_window: TrafficCounters::new(),
            switch_secs: None,
            switch_sessions: None,
            switch_records: vec![SwitchRecord::default(); capacity],
            ratio_samples: Vec::new(),
            switch_completed_secs: None,
            qoe: QoeRecorder::with_capacity(capacity),
            scratch: PeriodScratch::default(),
            parallelism: 1,
            executor: None,
            net: None,
        }
    }

    /// Enables per-period churn (the paper's dynamic environments).
    pub fn set_churn(&mut self, churn: ChurnModel) {
        self.churn = Some(churn);
    }

    /// Selects how supplier outbound capacity is enforced (per-link by
    /// default; shared for the bandwidth-starved ablation).
    pub fn set_capacity_model(&mut self, model: crate::transfer::CapacityModel) {
        self.resolver = TransferResolver::with_model(model);
    }

    /// Installs a message-level network model and switches
    /// [`advance`](Self::advance) to the event-driven stepping mode.
    ///
    /// The in-flight queue is pre-reserved for the steady-state message
    /// volume (per-period grant count × the latency horizon in periods), so
    /// event stepping allocates nothing once warm.  Installing the
    /// [`NetworkConfig::ideal`] model reproduces period-lockstep results
    /// byte-for-byte (pinned by the golden-digest suite).
    ///
    /// # Panics
    /// Panics if the configuration is invalid or `τ` rounds below 1 ms.
    pub fn set_network(&mut self, config: NetworkConfig) {
        let tau_ms = (self.config.tau_secs * 1_000.0).round() as u64;
        let per_period = (self.config.play_rate * self.config.tau_secs).ceil() as usize + 1;
        // Horizon: how many periods a message can stay in flight under the
        // slowest link (request + data leg = 2 one-way = 4 access delays),
        // clamped against pathological latency models.
        let slowest_ms = config.latency_scale * 4.0 * self.overlay.latency().max_access_ms()
            + config.jitter_ms as f64;
        let horizon = if slowest_ms.is_finite() && tau_ms > 0 {
            (slowest_ms / tau_ms as f64).ceil().min(64.0) as usize + 2
        } else {
            2
        };
        let hint = self.overlay.active_count() * per_period * horizon;
        self.net = Some(NetworkModel::new(config, tau_ms, hint));
    }

    /// The installed network model, if event-driven stepping is active.
    pub fn network(&self) -> Option<&NetworkModel> {
        self.net.as_ref()
    }

    /// The network model's cumulative counters ([`NetStats::default`] when
    /// no model is installed — period mode neither drops nor delays).
    pub fn network_stats(&self) -> NetStats {
        self.net.as_ref().map(|n| n.stats()).unwrap_or_default()
    }

    /// Sets the number of scheduling-pass chunks (the fan-out width).
    ///
    /// The sweep is chunked deterministically, so results are
    /// byte-identical to the sequential order for any width.
    pub fn set_parallelism(&mut self, workers: usize) {
        self.parallelism = workers.max(1);
    }

    /// The configured scheduling-pass chunk count.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Re-partitions the peer store into (at least) `shards` shards.  With
    /// more than one shard, the shards — not [`set_parallelism`]'s even
    /// slices — become the chunk unit of the scheduling pass, so the worker
    /// pool steps shards independently.  Results are byte-identical across
    /// shard counts: chunk outputs concatenate in peer order either way.
    ///
    /// [`set_parallelism`]: Self::set_parallelism
    pub fn set_shards(&mut self, shards: usize) {
        self.peers.set_shards(shards);
    }

    /// Number of shards currently backing the peer store.
    pub fn shard_count(&self) -> usize {
        self.peers.shard_count()
    }

    /// Attaches the executor that runs the scheduling-pass chunks — in
    /// production the persistent `fss-runtime::WorkerPool`, which amortises
    /// thread spawn cost to zero per period.
    ///
    /// Without an executor the chunks run in-line; because every chunk
    /// writes only its own scratch slot, reports are byte-identical in all
    /// configurations.
    pub fn set_executor(&mut self, executor: Arc<dyn JobExecutor>) {
        self.executor = Some(executor);
    }

    /// The protocol configuration.
    pub fn config(&self) -> &GossipConfig {
        &self.config
    }

    /// The overlay being streamed over.
    pub fn overlay(&self) -> &Overlay {
        &self.overlay
    }

    /// The session directory.
    pub fn directory(&self) -> &SessionDirectory {
        &self.directory
    }

    /// This channel's membership view — the directory slot other layers
    /// (zap resolution, experiments) read candidates from.
    pub fn membership_view(&self) -> &MembershipView {
        &self.view
    }

    /// Reconfigures the membership view (e.g. installs a bounded candidate
    /// list).  The view is rebuilt from the current membership; call before
    /// the measured run for reproducible candidate lists.
    pub fn configure_view(&mut self, config: ViewConfig) {
        self.view = MembershipView::from_members(config, self.overlay.active_peers());
    }

    /// Current simulation time in seconds.
    pub fn now_secs(&self) -> f64 {
        self.period_index as f64 * self.config.tau_secs
    }

    /// Seconds elapsed since the source switch (0 before the switch).
    pub fn secs_since_switch(&self) -> f64 {
        match self.switch_secs {
            Some(t) => self.now_secs() - t,
            None => 0.0,
        }
    }

    /// Number of scheduling periods executed so far.
    pub fn periods(&self) -> u64 {
        self.period_index
    }

    /// Traffic accumulated over the whole run so far (the `traffic_total`
    /// of [`report`](Self::report), without building the report).
    pub fn traffic_total(&self) -> TrafficCounters {
        self.traffic_total
    }

    /// Read access to one peer (panics on unknown ids).
    pub fn peer(&self, id: PeerId) -> PeerRef<'_> {
        self.peers.peer(id)
    }

    /// The raw per-peer switch records (indexed by [`PeerId`]).  Reports
    /// carry only their [`SwitchStats`] aggregate; tests and diagnostics
    /// that need per-peer milestones read them here.
    pub fn switch_records(&self) -> &[SwitchRecord] {
        &self.switch_records
    }

    /// The streaming QoE recorder: the latest per-period event row and the
    /// per-period startup/stall event buffers higher layers fold into
    /// bounded timelines (see [`crate::qoe`]).
    pub fn qoe(&self) -> &QoeRecorder {
        &self.qoe
    }

    /// Turns QoE event recording on or off (on by default).  The event path
    /// consumes no RNG and allocates nothing in steady state, so this knob
    /// can never change a simulated result — it exists for the
    /// `qoe_overhead` benchmark lane and for callers that want the last few
    /// percent of period throughput.
    pub fn set_qoe_enabled(&mut self, on: bool) {
        self.qoe.set_enabled(on);
    }

    /// Starts the first source.  Must be called exactly once before running.
    pub fn start_initial_source(&mut self, source: PeerId) -> SourceId {
        assert!(
            self.directory.is_empty(),
            "initial source already started; use switch_source for later sources"
        );
        assert!(
            self.overlay.graph().is_active(source),
            "source must be active"
        );
        let id = self.directory.start_session(source, self.now_secs(), None);
        let bw = self.overlay.config().bandwidth.source_peer();
        self.overlay
            .set_bandwidth(source, bw)
            .expect("source exists");
        self.sources.push(source);
        self.next_emit = SegmentId(0);
        self.peers
            .peer_mut(source)
            .discover_sessions(&self.directory, SegmentId(0));
        id
    }

    /// Stops the live source and hands the stream over to `new_source`
    /// (the paper's source switch, time "0" of the evaluation).
    ///
    /// Returns the new session id.
    pub fn switch_source(&mut self, new_source: PeerId) -> SourceId {
        let live = self
            .directory
            .live()
            .expect("a live session is required to switch from");
        let old_id = live.id;
        let old_source = live.source_peer;
        assert!(
            self.overlay.graph().is_active(new_source),
            "new source must be active"
        );
        assert_ne!(
            new_source, old_source,
            "new source must differ from the old one"
        );

        let last_emitted = SegmentId(self.next_emit.value().saturating_sub(1));
        let new_id = self
            .directory
            .start_session(new_source, self.now_secs(), Some(last_emitted));

        // Bandwidth roles: the new source stops downloading and gets the
        // large source outbound; the old source goes back to being a regular
        // peer so it can fetch the new stream.
        let src_bw = self.overlay.config().bandwidth.source_peer();
        self.overlay
            .set_bandwidth(new_source, src_bw)
            .expect("new source exists");
        // The old source keeps its large outbound: it remains the primary
        // holder of the old stream's tail, which other nodes still need.  Its
        // inbound becomes that of a regular peer so it can fetch the new
        // stream itself.
        let regular = self.overlay.config().bandwidth;
        let old_bw = fss_overlay::PeerBandwidth {
            inbound: regular.mean_rate,
            outbound: regular.source_outbound,
        };
        self.overlay
            .set_bandwidth(old_source, old_bw)
            .expect("old source exists");
        self.sources.push(new_source);

        // The new source knows its own session immediately.
        let first_segment = self.directory.sessions()[new_id.0 as usize].first_segment;
        self.peers
            .peer_mut(new_source)
            .discover_sessions(&self.directory, first_segment);

        // Record switch-time state.  A fresh record per peer, so serial
        // switches (speaker after speaker) each get their own milestones.
        self.switch_secs = Some(self.now_secs());
        self.switch_sessions = Some((old_id, new_id));
        self.switch_completed_secs = None;
        self.traffic_switch_window = TrafficCounters::new();
        self.ratio_samples.clear();
        let old_session = *self.directory.get(old_id).expect("old session exists");
        for record in self.switch_records.iter_mut() {
            *record = SwitchRecord::default();
        }
        for peer_id in self.overlay.active_peers().collect::<Vec<_>>() {
            let record = &mut self.switch_records[peer_id as usize];
            record.present_at_switch = true;
            record.q0 = self
                .peers
                .peer(peer_id)
                .undelivered_in_session(&old_session, last_emitted);
        }
        // Sources are not "switching" nodes: exclude them from the averages.
        self.switch_records[new_source as usize].present_at_switch = false;
        new_id
    }

    /// Removes one peer from the overlay (the per-peer half of
    /// [`depart_batch`](Self::depart_batch), which repairs afterwards).
    ///
    /// # Panics
    /// Panics if `peer` has ever been a source.
    fn depart_peer(&mut self, peer: PeerId) -> Result<(), OverlayError> {
        assert!(
            !self.sources.contains(&peer),
            "sources cannot depart (peer {peer})"
        );
        self.overlay.remove_peer(peer)?;
        self.view.on_depart(peer);
        if let Some(record) = self.switch_records.get_mut(peer as usize) {
            record.departed = true;
        }
        Ok(())
    }

    /// Removes a batch of peers and repairs the membership once — the
    /// departure half of a *zap batch* (a group of viewers leaving this
    /// channel for another one at the same period boundary).
    ///
    /// Each peer's protocol state stays allocated (ids are never reused) and
    /// its switch record is marked departed so it stops counting towards
    /// switch metrics.  Batching the
    /// [`repair_membership`](Self::repair_membership) pass is what keeps a
    /// multi-viewer zap batch a single pairwise synchronisation point
    /// between two channels.  An empty batch is a no-op (no repair pass, no
    /// RNG consumption).
    ///
    /// # Panics
    /// Panics if any peer has ever been a source: departing the emitter
    /// would silently stall the whole stream, and old sources remain the
    /// primary holders of their stream's tail — the same protection the
    /// churn path enforces.
    pub fn depart_batch(&mut self, peers: &[PeerId]) -> Result<(), OverlayError> {
        if peers.is_empty() {
            return Ok(());
        }
        for &peer in peers {
            self.depart_peer(peer)?;
        }
        self.repair_membership();
        Ok(())
    }

    /// Admits a batch of peers and repairs the membership once — the arrival
    /// half of a *zap batch* (a group of viewers zapping in from another
    /// channel).
    ///
    /// Arrival `i` takes `neighbours[i * degree..(i + 1) * degree]` as its
    /// neighbour set and its id is appended to `ids_out` (cleared first), so
    /// admission allocates nothing per arrival.  Exactly like the churn join
    /// rule, all arrivals are registered first and only then pointed at
    /// their neighbours' playback steps, so arrivals may neighbour each
    /// other within the batch.  An empty batch is a no-op.
    ///
    /// # Panics
    /// Panics if `neighbours.len() != attrs.len() * degree`.
    pub fn admit_batch_grouped(
        &mut self,
        attrs: &[PeerAttrs],
        neighbours: &[PeerId],
        degree: usize,
        ids_out: &mut Vec<PeerId>,
    ) -> Result<(), OverlayError> {
        assert_eq!(
            neighbours.len(),
            attrs.len() * degree,
            "flat neighbour buffer must hold `degree` entries per arrival"
        );
        ids_out.clear();
        for (i, peer_attrs) in attrs.iter().enumerate() {
            let id = self
                .overlay
                .add_peer(*peer_attrs, &neighbours[i * degree..(i + 1) * degree])?;
            self.view.on_join(id);
            self.register_joined_peer(id);
            ids_out.push(id);
        }
        for &id in ids_out.iter() {
            self.rejoin_at_neighbours(id);
        }
        if !ids_out.is_empty() {
            self.repair_membership();
        }
        Ok(())
    }

    /// Allocates the protocol state of a peer the overlay just added.
    fn register_joined_peer(&mut self, id: PeerId) {
        debug_assert_eq!(id as usize, self.peers.len());
        self.peers
            .push(PeerNode::new(id, &self.config, SegmentId(0)));
        self.switch_records.push(SwitchRecord::default());
        self.qoe.register_peer(self.period_index);
    }

    /// Points a joiner's playback at its neighbours' current steps (the
    /// paper's join rule, shared by churn joiners and zap arrivals).
    fn rejoin_at_neighbours(&mut self, id: PeerId) {
        let join_point = self
            .overlay
            .neighbors(id)
            .iter()
            .map(|&n| self.peers.peer(n).id_play())
            .max()
            .unwrap_or(SegmentId(0));
        self.peers.peer_mut(id).rejoin_at(join_point);
    }

    /// Repairs neighbour sets after external membership changes
    /// ([`depart_batch`](Self::depart_batch) /
    /// [`admit_batch_grouped`](Self::admit_batch_grouped) run it once per
    /// batch).
    ///
    /// The per-period churn path runs this automatically; external drivers
    /// call it once per batch of zap events.
    pub fn repair_membership(&mut self) {
        self.membership
            .repair(&mut self.overlay, self.view.members())
            .expect("membership repair over valid overlay");
    }

    /// Runs `n` scheduling periods through whichever stepping mode is
    /// installed (see [`advance`](Self::advance)).
    pub fn run_periods(&mut self, n: u64) {
        for _ in 0..n {
            self.advance();
        }
    }

    /// Runs until every countable node has completed the switch or
    /// `max_periods` have elapsed since the call.  Returns the number of
    /// periods executed.
    pub fn run_until_switched(&mut self, max_periods: u64) -> u64 {
        let mut executed = 0;
        while executed < max_periods && self.switch_completed_secs.is_none() {
            self.advance();
            executed += 1;
        }
        executed
    }

    /// Executes one scheduling period — the single period pipeline every
    /// runner (period loops, the session manager, experiments) goes
    /// through:
    ///
    /// 1. churn and membership repair,
    /// 2. source emission,
    /// 3. buffer-map exchange, discovery and scheduling on the (optionally
    ///    parallel) chunked pass, which computes post-discovery knowledge
    ///    locally and defers the store write to step 5,
    /// 4. global transfer resolution (no buffer mutation yet),
    /// 5. the shard-major fused walk: delivery application, discovery
    ///    write, playback, QoE and switch milestones per shard run while
    ///    that shard's columns are cache-resident,
    /// 6. switch-window traffic accounting.
    ///
    /// With a network model installed ([`set_network`](Self::set_network))
    /// three legs join in: in-flight messages due exactly at this boundary
    /// land before churn, the step-4 grants are sent into the in-flight
    /// store instead of applied, and every message arriving before the next
    /// boundary becomes step 5's delivery list.  Under
    /// [`NetworkConfig::ideal`] every grant arrives at the boundary that
    /// resolved it, in resolver order — the lockstep state evolution,
    /// byte-for-byte (fault draws are skipped entirely, so no RNG stream
    /// moves either).
    pub fn advance(&mut self) {
        let period_traffic_before = self.traffic_total;
        let bounds = self.net.as_ref().map(|net| {
            (
                net.boundary(self.period_index),
                net.boundary(self.period_index + 1),
            )
        });
        if let Some((now, _)) = bounds {
            self.land_boundary_arrivals(now);
        }
        self.apply_churn();
        self.emit_segments();
        self.collect_requests_scratch();
        self.resolve_transfers();
        if let Some((now, next)) = bounds {
            self.dispatch_deliveries(now);
            self.collect_arrivals(next, false);
        }
        self.period_index += 1;
        self.apply_and_play_fused();
        self.account_switch_window(period_traffic_before);
        self.update_switch_completion();
    }

    /// The event-mode delivery half: sends each grant the resolver made
    /// from the requests that survived the buffer-map and request legs
    /// (filtered in the scheduling chunks) into the in-flight store, due
    /// after the request and data legs of scaled trace latency plus jitter,
    /// unless the data leg drops it.
    ///
    /// Loss semantics per leg:
    /// * a lost buffer-map advertisement blinds the requester to that
    ///   supplier for the whole period (all its requests there are
    ///   suppressed before resolution),
    /// * a lost request never reaches the supplier, so it does not charge
    ///   the supplier's outbound budget (later requests may take the slot),
    /// * a lost data message *does* consume the budget the resolver granted
    ///   it — upstream bandwidth spent on a transfer that never lands.
    fn dispatch_deliveries(&mut self, now: SimTime) {
        let period = self.period_index;
        let net = self.net.as_mut().expect("network model installed");
        let latency = self.overlay.latency();
        let scale = net.config.latency_scale;
        for d in &self.scratch.deliveries {
            net.stats.data_sent += 1;
            let segment = d.segment.value();
            if net
                .faults
                .lost(d.supplier, d.requester, MessageKind::Data, period, segment)
            {
                net.stats.data_lost += 1;
                continue;
            }
            let rtt_ms = if scale > 0.0 {
                (scale * latency.round_trip_ms(d.requester, d.supplier))
                    .round()
                    .max(0.0) as u64
            } else {
                0
            };
            let jitter =
                net.faults
                    .jitter_ms(d.supplier, d.requester, MessageKind::Data, period, segment);
            let arrival = now.saturating_add(SimDuration::from_millis(rtt_ms + jitter));
            net.store.push(arrival, *d);
        }
        net.stats.max_in_flight = net.stats.max_in_flight.max(net.store.len() as u64);
    }

    /// Applies every in-flight message due exactly at `now` (the previous
    /// period's drain stopped short of it) to its requester's buffer, in
    /// send order, before this period's scheduling reads the buffers.
    fn land_boundary_arrivals(&mut self, now: SimTime) {
        self.collect_arrivals(now, true);
        for i in 0..self.scratch.deliveries.len() {
            let d = self.scratch.deliveries[i];
            self.peers.buffer_mut(d.requester).insert(d.segment);
            self.traffic_total.add_data(self.config.segment_bits);
        }
    }

    /// Moves every in-flight message due before `bound` (or at it, when
    /// `inclusive`) into `scratch.deliveries`, in (arrival, send sequence)
    /// order.  Arrivals for peers that have since left the overlay are
    /// dropped and counted stale; their bits were still spent on the wire
    /// and are accounted here, the others where they are applied.
    fn collect_arrivals(&mut self, bound: SimTime, inclusive: bool) {
        let net = self.net.as_mut().expect("network model installed");
        let deliveries = &mut self.scratch.deliveries;
        deliveries.clear();
        let drained = net.store.drain_due(bound, inclusive, deliveries);
        let graph = self.overlay.graph();
        deliveries.retain(|d| graph.is_active(d.requester));
        let stale = (drained - deliveries.len()) as u64;
        net.stats.data_delivered += deliveries.len() as u64;
        net.stats.data_stale += stale;
        self.traffic_total
            .add_data(self.config.segment_bits * stale);
    }

    /// Builds the run report.  The per-peer switch records fold into their
    /// [`SwitchStats`] aggregate here — one serial pass in peer order, so
    /// the report is identical across implementations and worker counts and
    /// its size is independent of the peer count.
    pub fn report(&self) -> SystemReport {
        SystemReport {
            scheduler: self.scheduler.name(),
            switch: SwitchStats::from_records(&self.switch_records),
            ratio_samples: self.ratio_samples.clone(),
            traffic_total: self.traffic_total,
            traffic_switch_window: self.traffic_switch_window,
            periods: self.period_index,
            switch_completed_secs: self.switch_completed_secs,
            mem: self.memory_usage(),
            qoe: self.qoe.totals(),
        }
    }

    /// The per-peer protocol-state footprint meter: bytes reserved by the
    /// **active** peers' state (ring / window / sequence array plus the
    /// inline node), aggregated into a [`MemUsage`].
    ///
    /// Deterministic across implementations and execution strategies (it
    /// reads protocol state only — never the scratch arena, whose size
    /// follows the configured parallelism), so it is safe to surface in
    /// [`SystemReport`].  For the full process picture including scratch,
    /// use the [`MemoryFootprint`] impl on the system itself.
    pub fn memory_usage(&self) -> MemUsage {
        let mut usage = MemUsage {
            peer_slots: self.peers.len(),
            ..MemUsage::default()
        };
        // The columns of the sharded store hold exactly the fields of the
        // logical `PeerNode` record, so its size remains the metered
        // per-peer inline stride.
        let inline = std::mem::size_of::<PeerNode>();
        // Shard-major sweep: resolve each shard's buffer column once and
        // index slots directly (the active list is ascending, so each shard
        // is one contiguous run), prefetching the next buffer struct ahead
        // of its `mem_breakdown` reads.  Sums in active order, so the
        // metered totals are byte-identical to the per-id walk.
        let shift = self.peers.shard_shift();
        let mask = self.peers.shard_size() - 1;
        let shards = self.peers.shards();
        // fss-lint: hot-path
        let mut shard_idx = usize::MAX;
        let mut buffers: &[FifoBuffer] = &[];
        for p in self.overlay.active_peers() {
            let shard = (p as usize) >> shift;
            if shard != shard_idx {
                shard_idx = shard;
                buffers = shards[shard].buffers();
            }
            let slot = (p as usize) & mask;
            if let Some(ahead) = buffers.get(slot + WALK_AHEAD) {
                prefetch_read(ahead);
            }
            usage.add_peer(inline, buffers[slot].mem_breakdown());
        }
        // fss-lint: end
        usage
    }

    // ------------------------------------------------------------------
    // internal steps (shared)
    // ------------------------------------------------------------------

    fn account_switch_window(&mut self, period_traffic_before: TrafficCounters) {
        if self.switch_secs.is_some() && self.switch_completed_secs.is_none() {
            let delta = TrafficCounters {
                control_bits: self.traffic_total.control_bits - period_traffic_before.control_bits,
                data_bits: self.traffic_total.data_bits - period_traffic_before.data_bits,
            };
            self.traffic_switch_window.merge(&delta);
        }
    }

    /// Per-period churn, routed through the membership directory: the
    /// departure shuffle reads the view's member list, every joiner's
    /// neighbour set is sampled from the view's candidate list (the same
    /// admission pipeline zap batches use), and the view is kept in sync
    /// event by event so later joiners can attach to earlier ones.
    ///
    /// RNG-compatible with the standalone `ChurnModel::step`: the view's
    /// ascending-id member order is exactly the `active_peers()` collection
    /// order the legacy path sampled from (asserted by the churn and
    /// golden-report test-suites).
    fn apply_churn(&mut self) {
        {
            let Some(churn) = self.churn.as_mut() else {
                return;
            };
            let scratch = &mut self.churn_scratch;
            let view = &mut self.view;
            let overlay = &mut self.overlay;
            debug_assert_eq!(view.len(), overlay.active_count());

            let population = view.len();
            churn
                .step_departures(
                    overlay,
                    view.members(),
                    &self.sources,
                    &mut scratch.eligible,
                    &mut scratch.left,
                )
                .expect("churn departures over valid overlay");
            for &left in &scratch.left {
                view.on_depart(left);
            }

            scratch.joined.clear();
            let join_count = churn.join_count(population);
            for _ in 0..join_count {
                if view.is_empty() {
                    break;
                }
                scratch.neighbours.clear();
                let degree = churn.join_degree.min(view.candidates().len());
                let neighbours = &mut scratch.neighbours;
                let sampler = &mut scratch.sampler;
                let attrs = churn.draw_arrival(|rng| {
                    sample_distinct(view.candidates(), rng, degree, sampler, neighbours)
                });
                let id = overlay
                    .add_peer(attrs, neighbours)
                    .expect("churn joiner over valid overlay");
                view.on_join(id);
                scratch.joined.push(id);
            }
        }

        for &left in &self.churn_scratch.left {
            if (left as usize) < self.switch_records.len() {
                self.switch_records[left as usize].departed = true;
            }
        }
        // Joiners may neighbour each other within the same churn step, so
        // allocate all their protocol state first and only then compute join
        // points from their neighbours' playback positions.  (Indexed loops:
        // register/rejoin take `&mut self`, which cannot overlap a borrow of
        // the scratch's joined list.)
        for i in 0..self.churn_scratch.joined.len() {
            let joined = self.churn_scratch.joined[i];
            self.register_joined_peer(joined);
        }
        for i in 0..self.churn_scratch.joined.len() {
            let joined = self.churn_scratch.joined[i];
            self.rejoin_at_neighbours(joined);
        }
        self.repair_membership();
    }

    fn emit_segments(&mut self) {
        let Some(live) = self.directory.live().copied() else {
            return;
        };
        self.emit_credit += self.config.play_rate * self.config.tau_secs;
        let count = self.emit_credit.floor() as u64;
        self.emit_credit -= count as f64;
        let buffer = self.peers.buffer_mut(live.source_peer);
        for _ in 0..count {
            buffer.insert(self.next_emit);
            self.next_emit = self.next_emit.next();
        }
    }

    fn update_switch_completion(&mut self) {
        if self.switch_secs.is_none() || self.switch_completed_secs.is_some() {
            return;
        }
        let all_done = self
            .switch_records
            .iter()
            .filter(|r| r.countable())
            .all(|r| r.completed());
        let any = self.switch_records.iter().any(|r| r.countable());
        if any && all_done {
            self.switch_completed_secs = Some(self.secs_since_switch());
        }
    }

    // ------------------------------------------------------------------
    // optimized period internals
    // ------------------------------------------------------------------

    /// Buffer-map gather + discovery + context building + scheduling,
    /// entirely out of the scratch arena.  Fills `self.scratch.batches` in
    /// node order.
    ///
    /// The discovery gather is fused into the scheduling chunks: each chunk
    /// walks its peers' neighbour buffers **once**, records the max observed
    /// id in `observed_max` (chunk ranges partition the active list, so the
    /// parallel writes are disjoint) and builds each scheduling context from
    /// the locally computed post-discovery knowledge.  Discovery writes only
    /// touch the per-peer header — never a buffer — so every gather still
    /// reads pre-discovery state.  The discovery result lands in the store
    /// in the shard-major fused walk, where the header line is hot anyway;
    /// nothing between scheduling and that walk reads session knowledge
    /// (resolution, dispatch and the arrival drain touch only buffers and
    /// the in-flight store).
    fn collect_requests_scratch(&mut self) {
        let capacity = self.overlay.graph().capacity();
        let workers = self.parallelism;
        self.scratch.ensure_capacity(capacity, workers);

        self.scratch.active.clear();
        {
            let overlay = &self.overlay;
            self.scratch.active.extend(overlay.active_peers());
        }
        let active_len = self.scratch.active.len();
        self.scratch.observed_max.clear();
        self.scratch.observed_max.resize(active_len, SegmentId(0));

        // Dense per-peer rate tables, refreshed once per period.
        for i in 0..self.scratch.active.len() {
            let p = self.scratch.active[i] as usize;
            let (inbound, outbound) = self
                .overlay
                .attrs(p as PeerId)
                .map(|a| (a.bandwidth.inbound, a.bandwidth.outbound))
                .unwrap_or((0.0, 0.0));
            self.scratch.inbound_rate[p] = inbound;
            self.scratch.outbound_rate[p] = outbound;
        }

        // Chunk plan: with a sharded store the shards are the chunk unit
        // (each chunk is the shard-local run of the active list); a
        // single-shard store falls back to the legacy even slicing.  One
        // scratch slot per chunk.
        self.plan_chunks(workers);
        let chunk_count = self.scratch.chunks.len();
        self.scratch.ensure_capacity(capacity, chunk_count);

        // Hand the recycled request vectors to the workers that will
        // actually run this period (there may be fewer chunks than worker
        // slots; idle slots must not hoard vectors).
        {
            let PeriodScratch {
                request_pool,
                workers: worker_slots,
                ..
            } = &mut self.scratch;
            let mut next = 0usize;
            while let Some(requests) = request_pool.pop() {
                worker_slots[next % chunk_count].request_pool.push(requests);
                next += 1;
            }
        }

        // Scheduling pass (read-only over peers/overlay/directory; writes
        // only chunk-owned scratch ranges).
        self.run_scheduling_pass();

        // Merge worker outputs in node order and account control traffic.
        debug_assert!(self.scratch.batches.is_empty());
        let mut control_bits = 0u64;
        let (mut blinded, mut lost) = (0u64, 0u64);
        {
            let PeriodScratch {
                batches,
                request_pool,
                workers: worker_slots,
                ..
            } = &mut self.scratch;
            for worker in worker_slots.iter_mut() {
                control_bits += worker.control_bits;
                worker.control_bits = 0;
                blinded += std::mem::take(&mut worker.requests_blinded);
                lost += std::mem::take(&mut worker.requests_lost);
                batches.append(&mut worker.out);
                // Return leftovers so no worker strands vectors across
                // periods (worker/chunk assignment can change every period).
                request_pool.append(&mut worker.request_pool);
            }
        }
        self.traffic_total.add_control(control_bits);
        if let Some(net) = self.net.as_mut() {
            net.stats.requests_blinded += blinded;
            net.stats.requests_lost += lost;
        }
    }

    /// Fills `scratch.chunks` with the `(start, end)` index ranges of the
    /// active list the scheduling pass fans out over.
    ///
    /// With a sharded store the shard-boundary runs are the chunk unit: the
    /// active list is ascending, so each shard's active peers form one
    /// contiguous run, found by binary search on the shard's id bound.  A
    /// run is then **cost-balanced**: any run longer than twice the mean run
    /// length is split into equal contiguous pieces under that cap, so one
    /// densely populated shard (a skewed zap landing, say) cannot serialise
    /// the whole parallel pass behind a single oversized chunk.  The split
    /// is a pure function of the active list and the shard geometry —
    /// deterministic and order-preserving, so merged outputs are unchanged.
    /// A single-shard store falls back to the legacy even slicing over
    /// `workers` chunks.  Always produces at least one (possibly empty)
    /// chunk.
    fn plan_chunks(&mut self, workers: usize) {
        let PeriodScratch { chunks, active, .. } = &mut self.scratch;
        chunks.clear();
        if self.peers.shard_count() > 1 {
            let shift = self.peers.shard_shift();
            let mut runs = 0usize;
            let mut start = 0usize;
            while start < active.len() {
                let shard = (active[start] as usize) >> shift;
                let bound = ((shard as u64) + 1) << shift;
                start += active[start..].partition_point(|&p| (p as u64) < bound);
                runs += 1;
            }
            let cap = (2 * active.len())
                .checked_div(runs)
                .unwrap_or(active.len())
                .max(1);
            let mut start = 0usize;
            while start < active.len() {
                let shard = (active[start] as usize) >> shift;
                let bound = ((shard as u64) + 1) << shift;
                let end = start + active[start..].partition_point(|&p| (p as u64) < bound);
                let len = end - start;
                let pieces = len.div_ceil(cap);
                for k in 0..pieces {
                    chunks.push((start + k * len / pieces, start + (k + 1) * len / pieces));
                }
                start = end;
            }
        } else {
            let (chunk_size, used) = chunk_layout(active.len(), workers);
            for c in 0..used {
                let start = (c * chunk_size).min(active.len());
                let end = (start + chunk_size).min(active.len());
                chunks.push((start, end));
            }
        }
        if chunks.is_empty() {
            chunks.push((0, 0));
        }
    }

    /// Dispatches the per-node scheduling over the planned chunks.  Chunks
    /// are contiguous slices of the active list, so concatenating worker
    /// outputs reproduces the sequential node order exactly; each chunk
    /// writes only its own [`WorkerScratch`] slot, so any [`JobExecutor`]
    /// (the persistent pool, or the in-line serial fallback) yields
    /// identical results.
    fn run_scheduling_pass(&mut self) {
        // Event mode with loss: the buffer-map and request legs are drawn in
        // the chunks, right after each peer's scheduling.
        let faults = self
            .net
            .as_ref()
            .filter(|net| net.config.loss_rate > 0.0)
            .map(|net| RequestLegFaults {
                faults: net.faults,
                period: self.period_index,
            });
        let executor = &self.executor;
        let PeriodScratch {
            active,
            observed_max,
            chunks,
            workers: worker_slots,
            outbound_rate,
            inbound_rate,
            ..
        } = &mut self.scratch;
        let peers = &self.peers;
        let overlay = &self.overlay;
        let directory = &self.directory;
        let config = &self.config;
        let scheduler: &dyn SegmentScheduler = &*self.scheduler;

        let used = chunks.len();
        if used <= 1 {
            let (start, end) = chunks.first().copied().unwrap_or((0, 0));
            schedule_chunk(
                &active[start..end],
                &mut observed_max[start..end],
                &mut worker_slots[0],
                peers,
                overlay,
                directory,
                config,
                scheduler,
                outbound_rate,
                inbound_rate,
                faults,
            );
            return;
        }

        let active = &active[..];
        let chunks = &chunks[..];
        let outbound_rate = &outbound_rate[..];
        let inbound_rate = &inbound_rate[..];
        let slots = DisjointSlots::new(&mut worker_slots[..used]);
        let observed = DisjointRanges::new(&mut observed_max[..]);
        let job = move |chunk: usize| {
            let (start, end) = chunks[chunk];
            // SAFETY: chunk indices are unique per execute() run, so each
            // scratch slot is borrowed by exactly one chunk; the chunk plan
            // partitions the active list, so the observed ranges are
            // disjoint.
            let worker = unsafe { slots.slot(chunk) };
            let observed_out = unsafe { observed.range(start, end) };
            schedule_chunk(
                &active[start..end],
                observed_out,
                worker,
                peers,
                overlay,
                directory,
                config,
                scheduler,
                outbound_rate,
                inbound_rate,
                faults,
            );
        };
        match executor {
            Some(executor) => executor.execute(used, &job),
            None => SerialExecutor.execute(used, &job),
        }
    }

    /// Global transfer resolution out of the scratch arena: dense outbound
    /// budgets instead of a per-period `HashMap`, reusable entry / delivery
    /// buffers inside the resolver, and request-vector recycling.  Fills
    /// `scratch.deliveries` in resolver (supplier-major) order without
    /// touching any peer state — application is the caller's half.
    fn resolve_transfers(&mut self) {
        let tau = self.config.tau_secs;
        for budget in self.scratch.outbound_budget.iter_mut() {
            *budget = 0;
        }
        for i in 0..self.scratch.active.len() {
            let p = self.scratch.active[i] as usize;
            self.scratch.outbound_budget[p] =
                (self.scratch.outbound_rate[p] * tau).floor() as usize;
        }

        {
            let PeriodScratch {
                batches,
                outbound_budget,
                deliveries,
                ..
            } = &mut self.scratch;
            self.resolver.resolve_round_into(
                batches,
                |p| outbound_budget.get(p as usize).copied().unwrap_or(0),
                self.period_index,
                deliveries,
            );
        }

        // Recycle the request vectors for the next period.
        let PeriodScratch {
            batches,
            request_pool,
            ..
        } = &mut self.scratch;
        for batch in batches.drain(..) {
            let mut requests = batch.requests;
            requests.clear();
            request_pool.push(requests);
        }
    }

    /// The shard-major fused back half of [`advance`](Self::advance):
    /// delivery application, discovery write, playback advance, QoE
    /// observation and switch milestones run back to back per shard run of
    /// the active list, while that shard's header and buffer columns are
    /// cache-resident.
    ///
    /// Independent of the shard geometry because
    /// * deliveries are regrouped **stably** by destination shard, so each
    ///   buffer's insert sequence is the resolver's (see
    ///   [`regroup_by_dest_shard`]),
    /// * playback, discovery and milestones read only the peer's own
    ///   columns plus period-start scratch (`observed_max`), never another
    ///   peer's state, and
    /// * the walk is serial and ascending, so QoE observation order and the
    ///   f64 milestone accumulation order follow the peer ids.
    // Kept out of line: inlined into its single caller, `advance()`, the
    // walk measured about 5 % slower (perfbench `zapping_flash`, 2 vCPUs).
    #[inline(never)]
    fn apply_and_play_fused(&mut self) {
        let qoe_on = self.qoe.is_enabled();
        if qoe_on {
            self.qoe.begin_period(self.period_index);
        }

        let shard_count = self.peers.shard_count();
        let shift = self.peers.shard_shift();
        let mask = self.peers.shard_size() - 1;
        if shard_count > 1 {
            let PeriodScratch {
                deliveries,
                dest_counts,
                deliveries_dest,
                ..
            } = &mut self.scratch;
            regroup_by_dest_shard(deliveries, shift, shard_count, dest_counts, deliveries_dest);
        }

        // Switch-milestone inputs, resolved once for the whole walk.
        let since_switch = if self.switch_sessions.is_some() {
            self.secs_since_switch()
        } else {
            0.0
        };
        let switch = self.switch_sessions.map(|(old_id, new_id)| {
            let old = *self.directory.get(old_id).expect("old session");
            let new = *self.directory.get(new_id).expect("new session");
            let old_end = old.last_segment.expect("old session closed at switch");
            (old, new, old_end)
        });
        let qs = self.config.new_source_qs;
        let segment_bits = self.config.segment_bits;

        let config = &self.config;
        let directory = &self.directory;
        let peers = &mut self.peers;
        let qoe = &mut self.qoe;
        let switch_records = &mut self.switch_records;
        let traffic_total = &mut self.traffic_total;
        let scratch = &self.scratch;
        let active = &scratch.active[..];
        let observed_max = &scratch.observed_max[..];
        let (deliveries, dest_counts) = if shard_count > 1 {
            (&scratch.deliveries_dest[..], &scratch.dest_counts[..])
        } else {
            (&scratch.deliveries[..], &[][..])
        };

        let mut undelivered_sum = 0.0;
        let mut delivered_sum = 0.0;
        let mut counted = 0usize;
        let mut waiting = 0u64;
        let mut applied = 0usize;

        // fss-lint: hot-path
        let mut run_start = 0usize;
        while run_start < active.len() {
            let shard_idx = (active[run_start] as usize) >> shift;
            let bound = ((shard_idx as u64) + 1) << shift;
            let run_end = run_start + active[run_start..].partition_point(|&p| (p as u64) < bound);

            let shard_deliveries = if shard_count > 1 {
                let start = if shard_idx == 0 {
                    0
                } else {
                    dest_counts[shard_idx - 1]
                };
                &deliveries[start..dest_counts[shard_idx]]
            } else {
                deliveries
            };
            let (buffers, headers) = peers.shard_mut(shard_idx).columns_mut();

            // Delivery application, destination-shard-local (stable
            // regrouping keeps each requester's insert order = resolver
            // order).
            for (i, d) in shard_deliveries.iter().enumerate() {
                if let Some(ahead) = shard_deliveries.get(i + DELIVERY_AHEAD) {
                    prefetch_read(&buffers[(ahead.requester as usize) & mask]);
                }
                buffers[(d.requester as usize) & mask].insert(d.segment);
                traffic_total.add_data(segment_bits);
            }
            applied += shard_deliveries.len();

            // Discovery write, playback, QoE and milestones per peer while
            // its header line and buffer struct are hot.
            for i in run_start..run_end {
                let p = active[i];
                let slot = (p as usize) & mask;
                if let Some(&ahead) = active.get(i + WALK_AHEAD) {
                    if (ahead as usize) >> shift == shard_idx {
                        let ahead_slot = (ahead as usize) & mask;
                        prefetch_read(&headers[ahead_slot]);
                        prefetch_read(&buffers[ahead_slot]);
                    }
                }
                let header = &mut headers[slot];
                peer::discover_sessions(&mut header.known_sessions, directory, observed_max[i]);
                let known = peer::known_slice(header.known_sessions, directory);
                let buffer = &buffers[slot];
                let played = peer::advance_playback(
                    buffer,
                    &mut header.playback,
                    &mut header.play_credit,
                    known,
                    config,
                );
                if qoe_on {
                    let playback = &header.playback;
                    qoe.observe(
                        p as usize,
                        playback.has_started(),
                        playback.stalls(),
                        played,
                    );
                }
                let Some((old, new, old_end)) = &switch else {
                    continue;
                };
                let record = &mut switch_records[p as usize];
                if !record.countable() {
                    continue;
                }
                let id_play = header.playback.next_play();
                if record.s1_finished_secs.is_none() && id_play > *old_end {
                    record.s1_finished_secs = Some(since_switch);
                }
                let q2 = peer::q2_for(buffer, new, qs);
                if record.s2_prepared_secs.is_none() && q2 == 0 {
                    record.s2_prepared_secs = Some(since_switch);
                }
                if record.s2_started_secs.is_none() && id_play > new.first_segment {
                    record.s2_started_secs = Some(since_switch);
                }
                if !record.completed() {
                    waiting += 1;
                }

                // Ratio tracks (Figures 5 and 9) — ascending-order f64
                // accumulation.
                let q1 = peer::undelivered_in_session(buffer, id_play, old, *old_end);
                let undelivered_ratio = if record.q0 == 0 {
                    0.0
                } else {
                    q1 as f64 / record.q0 as f64
                };
                let delivered_ratio = (qs - q2) as f64 / qs as f64;
                undelivered_sum += undelivered_ratio;
                delivered_sum += delivered_ratio;
                counted += 1;
            }
            run_start = run_end;
        }
        // fss-lint: end
        debug_assert_eq!(
            applied,
            deliveries.len(),
            "every delivery's requester is active"
        );

        if counted > 0 {
            self.ratio_samples.push(RatioSample {
                secs: since_switch,
                undelivered_ratio_s1: undelivered_sum / counted as f64,
                delivered_ratio_s2: delivered_sum / counted as f64,
            });
        }
        if qoe_on {
            self.qoe.finish_period(waiting);
        }
    }
}

impl MemoryFootprint for StreamingSystem {
    /// The whole simulated process: every peer slot (including departed
    /// peers, whose state stays allocated), the scratch arena, the
    /// membership view, the switch records and ratio samples.  Unlike
    /// [`SystemReport::mem`] this depends on the configured parallelism
    /// (worker slots) and is *not* surfaced in reports.
    fn heap_bytes(&self) -> usize {
        self.peers.heap_bytes()
            + self.scratch.heap_bytes()
            + self.view.heap_bytes()
            + self.churn_scratch.heap_bytes()
            + vec_bytes(&self.switch_records)
            + vec_bytes(&self.ratio_samples)
            + vec_bytes(&self.sources)
            + self.qoe.heap_bytes()
            + self.net.as_ref().map_or(0, |n| n.heap_bytes())
    }
}

/// Pooled working memory of the directory-routed churn pass.
#[derive(Debug, Default)]
struct ChurnScratch {
    eligible: Vec<PeerId>,
    left: Vec<PeerId>,
    joined: Vec<PeerId>,
    neighbours: Vec<PeerId>,
    sampler: SampleScratch,
}

impl MemoryFootprint for ChurnScratch {
    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.eligible)
            + vec_bytes(&self.left)
            + vec_bytes(&self.joined)
            + vec_bytes(&self.neighbours)
            + self.sampler.heap_bytes()
    }
}

/// Splits `active_len` nodes over at most `workers` contiguous chunks.
///
/// Returns `(chunk_size, chunk_count)`.  Both the request-vector
/// distribution and the thread dispatch derive their layout from this one
/// function so recycled vectors always land in workers that actually run.
fn chunk_layout(active_len: usize, workers: usize) -> (usize, usize) {
    if workers <= 1 || active_len < 2 {
        return (active_len.max(1), 1);
    }
    let chunk_size = active_len.div_ceil(workers);
    (chunk_size, active_len.div_ceil(chunk_size))
}

/// The fault streams and period the scheduling chunks draw buffer-map and
/// request-leg loss from.
#[derive(Clone, Copy)]
struct RequestLegFaults {
    faults: LinkFaults,
    period: u64,
}

/// Runs the fused gather + discovery + scheduling pass for one contiguous
/// chunk of the active list.
///
/// Per peer, the neighbour buffers are walked **once**: the walk yields the
/// max advertised id (written to `observed_out`, the chunk's range of the
/// discovery table, and folded with the peer's own buffer into its
/// post-discovery session count) and feeds the same value into the
/// scheduling context, which previously re-gathered it.  The store is never
/// written — discovery results travel through `observed_out` — so the pass
/// stays a pure function of the (immutable) system state plus the worker's
/// own scratch, which is what makes the parallel fan-out trivially
/// deterministic.
///
/// With `faults` set (event mode with loss), each peer's requests then pass
/// the buffer-map and request legs: a request is dropped when the
/// supplier's buffer map to this peer was lost (the peer scheduled blind)
/// or when the request itself was lost.  The draws are stateless hashes, so
/// the chunk layout cannot change an outcome; the drop counts land in the
/// worker slot.
// fss-lint: hot-path
#[allow(clippy::too_many_arguments)]
fn schedule_chunk(
    chunk: &[PeerId],
    observed_out: &mut [SegmentId],
    worker: &mut WorkerScratch,
    store: &PeerStore,
    overlay: &Overlay,
    directory: &SessionDirectory,
    config: &GossipConfig,
    scheduler: &dyn SegmentScheduler,
    outbound_rate: &[f64],
    inbound_rate: &[f64],
    faults: Option<RequestLegFaults>,
) {
    debug_assert_eq!(chunk.len(), observed_out.len());
    for (i, &p) in chunk.iter().enumerate() {
        if let Some(&ahead) = chunk.get(i + WALK_AHEAD) {
            store.prefetch_peer(ahead);
        }
        let neighbors = overlay.neighbors(p);

        // One gather serves discovery and the scheduling context.  The
        // discovery fold applies to every active peer — including ones the
        // scheduling skips below — exactly like the standalone pass did.
        let own = store.buffer(p).max_id();
        let mut neighbour_max: Option<SegmentId> = None;
        for (j, &n) in neighbors.iter().enumerate() {
            if let Some(&ahead) = neighbors.get(j + 2) {
                store.prefetch_buffer(ahead);
            }
            let max = store.buffer(n).max_id();
            if max > neighbour_max {
                neighbour_max = max;
            }
        }
        let observed = own.max(neighbour_max).unwrap_or(SegmentId(0));
        observed_out[i] = observed;

        if neighbors.is_empty() {
            continue;
        }
        // Buffer-map exchange cost: one 620-bit map per neighbour.
        worker.control_bits += config.buffermap_bits * neighbors.len() as u64;

        let inbound = inbound_rate[p as usize];
        if inbound <= 0.0 {
            continue;
        }
        // Post-discovery knowledge, computed locally (the store write is
        // deferred to the playback walk).
        let mut known_sessions = store.header(p).known_sessions;
        peer::discover_sessions(&mut known_sessions, directory, observed);

        if !worker.build_context(
            store.peer(p),
            config,
            directory,
            inbound,
            neighbors,
            store,
            outbound_rate,
            known_sessions,
            neighbour_max.unwrap_or(SegmentId(0)),
        ) {
            continue;
        }
        let mut requests = worker.request_pool.pop().unwrap_or_default();
        scheduler.schedule_into(&worker.ctx, &mut worker.sched, &mut requests);
        if let Some(RequestLegFaults { faults, period }) = faults {
            let (mut blinded, mut lost) = (0u64, 0u64);
            requests.retain(|req| {
                if faults.lost(req.supplier, p, MessageKind::BufferMap, period, 0) {
                    blinded += 1;
                    false
                } else if faults.lost(
                    p,
                    req.supplier,
                    MessageKind::Request,
                    period,
                    req.segment.value(),
                ) {
                    lost += 1;
                    false
                } else {
                    true
                }
            });
            worker.requests_blinded += blinded;
            worker.requests_lost += lost;
        }
        if requests.is_empty() {
            worker.request_pool.push(requests);
            continue;
        }
        let inbound_budget = worker.ctx.inbound_budget();
        worker.out.push(RequestBatch {
            requester: p,
            inbound_budget,
            requests,
        });
    }
}
// fss-lint: end

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{SchedulingContext, SegmentRequest};
    use fss_overlay::OverlayBuilder;
    use fss_trace::{GeneratorConfig, TraceGenerator};

    /// A simple priority-free scheduler used only by these tests: request
    /// candidates oldest-first, spreading requests across suppliers so no
    /// single supplier is asked for more than its per-period capacity.
    struct GreedyOldest;
    impl SegmentScheduler for GreedyOldest {
        fn name(&self) -> &'static str {
            "greedy-oldest"
        }
        fn schedule(&self, ctx: &SchedulingContext) -> Vec<SegmentRequest> {
            let mut candidates = ctx.candidates.clone();
            crate::directory::sort_by_id(&mut candidates, |c| c.id);
            let mut load: std::collections::HashMap<fss_overlay::PeerId, usize> =
                std::collections::HashMap::new();
            let mut requests = Vec::new();
            for c in candidates {
                if requests.len() >= ctx.inbound_budget() {
                    break;
                }
                let best = c
                    .suppliers
                    .iter()
                    .filter(|s| {
                        let cap = (s.rate * ctx.tau_secs).floor() as usize;
                        load.get(&s.peer).copied().unwrap_or(0) < cap
                    })
                    .min_by(|a, b| {
                        let la = *load.get(&a.peer).unwrap_or(&0) as f64 / a.rate;
                        let lb = *load.get(&b.peer).unwrap_or(&0) as f64 / b.rate;
                        la.partial_cmp(&lb).unwrap()
                    });
                if let Some(best) = best {
                    *load.entry(best.peer).or_default() += 1;
                    requests.push(SegmentRequest {
                        segment: c.id,
                        supplier: best.peer,
                    });
                }
            }
            requests
        }
    }

    fn build_system(nodes: usize, seed: u64) -> StreamingSystem {
        let trace = TraceGenerator::new(GeneratorConfig::sized(nodes, seed)).generate("sys");
        let overlay = OverlayBuilder::paper_default().build(&trace).unwrap();
        StreamingSystem::new(
            overlay,
            GossipConfig::paper_default(),
            Box::new(GreedyOldest),
        )
    }

    fn first_two(sys: &StreamingSystem) -> (PeerId, PeerId) {
        let peers: Vec<PeerId> = sys.overlay().active_peers().take(2).collect();
        (peers[0], peers[1])
    }

    #[test]
    fn warmup_reaches_steady_playback() {
        let mut sys = build_system(60, 1);
        let (source, _) = first_two(&sys);
        sys.start_initial_source(source);
        sys.run_periods(40);

        assert_eq!(sys.periods(), 40);
        // Every node should have started playing and be within a few periods
        // of the stream head.
        let head = 40.0 * 10.0;
        let mut started = 0;
        for p in sys.overlay().active_peers() {
            if p == source {
                continue;
            }
            let node = sys.peer(p);
            if node.playback().has_started() {
                started += 1;
                assert!(node.id_play().value() as f64 <= head);
                assert!(
                    node.id_play().value() as f64 >= head - 200.0,
                    "node {p} lags too far: {}",
                    node.id_play()
                );
            }
        }
        assert!(
            started as f64 >= 0.95 * (sys.overlay().active_count() - 1) as f64,
            "only {started} nodes started playback"
        );
        assert!(sys.report().traffic_total.control_bits > 0);
        assert!(sys.report().traffic_total.data_bits > 0);
    }

    #[test]
    fn switch_completes_and_records_milestones() {
        let mut sys = build_system(60, 2);
        let (s1, s2) = first_two(&sys);
        sys.start_initial_source(s1);
        sys.run_periods(40);
        sys.switch_source(s2);
        let executed = sys.run_until_switched(200);
        assert!(executed < 200, "switch never completed");

        let report = sys.report();
        assert_eq!(report.scheduler, "greedy-oldest");
        assert!(report.switch_completed_secs.is_some());
        let countable: Vec<&SwitchRecord> = sys
            .switch_records()
            .iter()
            .filter(|r| r.countable())
            .collect();
        assert!(!countable.is_empty());
        for r in &countable {
            assert!(r.completed());
            let finished = r.s1_finished_secs.unwrap();
            let prepared = r.s2_prepared_secs.unwrap();
            assert!(finished >= 0.0 && prepared >= 0.0);
            if let Some(started) = r.s2_started_secs {
                assert!(started + 1e-9 >= finished.max(prepared) - 1.0);
            }
        }
        // The report's aggregate folds exactly those records.
        assert_eq!(
            report.switch,
            SwitchStats::from_records(sys.switch_records())
        );
        assert_eq!(report.switch.countable_nodes, countable.len());
        assert_eq!(report.switch.completed_nodes, countable.len());
        // The new source is excluded from the averages.
        assert!(!sys.switch_records()[s2 as usize].countable());

        // Ratio samples move in the right directions.
        assert!(!report.ratio_samples.is_empty());
        let first = report.ratio_samples.first().unwrap();
        let last = report.ratio_samples.last().unwrap();
        assert!(last.undelivered_ratio_s1 <= first.undelivered_ratio_s1 + 1e-9);
        assert!(last.delivered_ratio_s2 >= first.delivered_ratio_s2 - 1e-9);
        assert!((last.delivered_ratio_s2 - 1.0).abs() < 1e-9);

        // Communication overhead is on the order of a percent.
        let overhead = report.traffic_switch_window.overhead();
        assert!(overhead > 0.001 && overhead < 0.1, "overhead {overhead}");
    }

    #[test]
    fn dynamic_environment_with_churn_still_completes() {
        let mut sys = build_system(80, 3);
        let (s1, s2) = first_two(&sys);
        sys.start_initial_source(s1);
        sys.run_periods(30);
        sys.set_churn(ChurnModel::paper_default(99));
        sys.switch_source(s2);
        let executed = sys.run_until_switched(300);
        assert!(executed < 300, "switch never completed under churn");

        // Some nodes left, some joined; joiners are not countable.
        assert!(sys.switch_records().len() > 80);
        assert!(sys.switch_records().iter().any(|r| r.departed));
        assert!(sys.switch_records().iter().skip(80).all(|r| !r.countable()));
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let run = || {
            let mut sys = build_system(50, 7);
            let (s1, s2) = first_two(&sys);
            sys.start_initial_source(s1);
            sys.run_periods(25);
            sys.switch_source(s2);
            sys.run_periods(40);
            sys.report()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    /// Process-stable digest of a report's full `Debug` text (`{:?}` on
    /// `f64` prints the shortest round-trip form, so it is exact).
    fn digest(report: &SystemReport) -> u64 {
        use std::hash::Hasher;
        let mut h = crate::hasher::FxHasher64::default();
        h.write(format!("{report:?}").as_bytes());
        h.finish()
    }

    /// Digest of the warm-up + switch + churn run below, captured from the
    /// original straight-line reference implementation (which produced the
    /// same report as the scratch-arena pipeline, byte for byte).
    const REFERENCE_DIGEST: u64 = 9978038332221076924;

    /// Digest of the 4-shard run below, captured from the reference
    /// implementation, which never consulted the chunk plan.
    const SHARDED_REFERENCE_DIGEST: u64 = 11828084830896208951;

    /// The scratch-arena pipeline reproduces the reference implementation's
    /// report across a warm-up, a source switch and churn.
    #[test]
    fn optimized_step_matches_reference_step() {
        let mut sys = build_system(60, 11);
        let (s1, s2) = first_two(&sys);
        sys.start_initial_source(s1);
        sys.run_periods(30);
        sys.set_churn(ChurnModel::paper_default(5));
        sys.switch_source(s2);
        sys.run_periods(60);
        let report = sys.report();
        assert_eq!(digest(&report), REFERENCE_DIGEST, "{report:?}");
    }

    /// Regression test: recycled request vectors must never strand in worker
    /// slots that receive no chunk (more workers than chunks), and every
    /// period must return all vectors to the global pool.
    #[test]
    fn request_pool_never_strands_in_idle_workers() {
        let mut sys = build_system(20, 23);
        sys.set_parallelism(8); // far more workers than 20 peers need
        let (s1, _) = first_two(&sys);
        sys.start_initial_source(s1);
        let mut pool_high_water = 0usize;
        for period in 0..60 {
            sys.advance();
            for (w, worker) in sys.scratch.workers.iter().enumerate() {
                assert!(
                    worker.request_pool.is_empty(),
                    "period {period}: worker {w} kept {} vectors",
                    worker.request_pool.len()
                );
            }
            pool_high_water = pool_high_water.max(sys.scratch.request_pool.len());
        }
        // The pool is bounded by the number of requesting nodes, not by the
        // number of elapsed periods.
        assert!(
            pool_high_water <= sys.overlay().active_count(),
            "pool grew to {pool_high_water} vectors for {} nodes",
            sys.overlay().active_count()
        );
    }

    #[test]
    fn parallel_sweep_is_byte_identical() {
        let run = |workers: usize| {
            let mut sys = build_system(80, 17);
            sys.set_parallelism(workers);
            assert_eq!(sys.parallelism(), workers.max(1));
            let (s1, s2) = first_two(&sys);
            sys.start_initial_source(s1);
            sys.run_periods(25);
            sys.set_churn(ChurnModel::paper_default(3));
            sys.switch_source(s2);
            sys.run_periods(50);
            sys.report()
        };
        let sequential = run(1);
        for workers in [2, 3, 8] {
            assert_eq!(run(workers), sequential, "workers = {workers}");
        }
    }

    /// The sharding invariant: re-partitioning the peer store changes only
    /// the chunk boundaries of the scheduling pass, never the results —
    /// even when churn grows the population across shard boundaries.
    #[test]
    fn sharded_stepping_is_byte_identical() {
        let run = |shards: usize| {
            let mut sys = build_system(80, 17);
            sys.set_shards(shards);
            assert!(sys.shard_count() >= shards.min(1));
            let (s1, s2) = first_two(&sys);
            sys.start_initial_source(s1);
            sys.run_periods(25);
            sys.set_churn(ChurnModel::paper_default(3));
            sys.switch_source(s2);
            sys.run_periods(50);
            sys.report()
        };
        let single = run(1);
        for shards in [2, 4, 8] {
            assert_eq!(run(shards), single, "shards = {shards}");
        }
    }

    /// Satellite: cost-balanced chunk splitting.  A densely populated shard
    /// must not serialise the scheduling pass behind one oversized chunk —
    /// runs longer than twice the mean run length split into equal,
    /// order-preserving pieces under that cap.
    #[test]
    fn plan_chunks_splits_skewed_shard_runs() {
        let mut sys = build_system(200, 3);
        sys.set_shards(8);
        let shard_size = sys.peers.shard_size();
        let shard_count = sys.peers.shard_count();
        assert!(shard_count >= 4, "need a multi-shard geometry");
        assert!(shard_size >= 16);

        // Skewed population: 16 actives packed into shard 0, one straggler
        // in each of the next three shards.
        let base = |s: usize| (s * shard_size) as PeerId;
        sys.scratch.active.clear();
        for i in 0..16 {
            sys.scratch.active.push(base(0) + i as PeerId);
        }
        sys.scratch.active.push(base(1));
        sys.scratch.active.push(base(2));
        sys.scratch.active.push(base(3));
        let total = sys.scratch.active.len();

        sys.plan_chunks(1);
        let chunks = sys.scratch.chunks.clone();

        // Order-preserving partition of the active list.
        let mut expect_start = 0usize;
        for &(start, end) in &chunks {
            assert_eq!(start, expect_start, "chunks must tile in order");
            assert!(end >= start);
            expect_start = end;
        }
        assert_eq!(expect_start, total);

        // 4 runs over 19 actives: cap = 2 * 19 / 4 = 9, so the 16-long
        // shard-0 run must split (into two 8s) and no chunk may exceed the
        // cap.
        let cap = 2 * total / 4;
        assert!(chunks.len() > 4, "skewed run did not split: {chunks:?}");
        for &(start, end) in &chunks {
            assert!(
                end - start <= cap,
                "chunk {start}..{end} exceeds cost cap {cap}"
            );
            // No chunk straddles a shard boundary.
            if end > start {
                let first = sys.scratch.active[start] as usize / shard_size;
                let last = sys.scratch.active[end - 1] as usize / shard_size;
                assert_eq!(first, last, "chunk {start}..{end} straddles shards");
            }
        }

        // A balanced population keeps the one-chunk-per-run plan.
        sys.scratch.active.clear();
        for s in 0..4 {
            for i in 0..4 {
                sys.scratch.active.push(base(s) + i as PeerId);
            }
        }
        sys.plan_chunks(1);
        assert_eq!(sys.scratch.chunks.len(), 4, "{:?}", sys.scratch.chunks);
    }

    /// Sharded stepping reproduces the reference implementation's report
    /// too.
    #[test]
    fn sharded_step_matches_reference_step() {
        let mut sys = build_system(90, 29);
        sys.set_shards(4);
        let (s1, s2) = first_two(&sys);
        sys.start_initial_source(s1);
        sys.run_periods(30);
        sys.set_churn(ChurnModel::paper_default(7));
        sys.switch_source(s2);
        sys.run_periods(40);
        let report = sys.report();
        assert_eq!(digest(&report), SHARDED_REFERENCE_DIGEST, "{report:?}");
    }

    #[test]
    fn external_depart_and_admit_mirror_churn() {
        let mut sys = build_system(30, 8);
        let (source, viewer) = first_two(&sys);
        sys.start_initial_source(source);
        sys.run_periods(20);

        sys.depart_batch(&[viewer]).unwrap();
        assert!(!sys.overlay().graph().is_active(viewer));
        assert!(sys.switch_records()[viewer as usize].departed);

        let neighbours: Vec<PeerId> = sys.overlay().active_peers().take(5).collect();
        let attrs = *sys.overlay().attrs(source).unwrap();
        let mut ids = Vec::new();
        sys.admit_batch_grouped(&[attrs], &neighbours, neighbours.len(), &mut ids)
            .unwrap();
        let joined = ids[0];
        assert!(sys.overlay().graph().is_active(joined));
        // The arrival follows its neighbours' playback steps, like a churn
        // joiner: its join point is at (or past) the slowest neighbour.
        let min_neighbour_play = neighbours
            .iter()
            .map(|&n| sys.peer(n).id_play())
            .min()
            .unwrap();
        assert!(sys.peer(joined).playback().join_point() >= min_neighbour_play);
        sys.run_periods(5); // the system keeps running with the newcomer
    }

    /// The batched zap hooks depart/admit every peer with one repair pass,
    /// and arrivals within a batch may neighbour each other.
    #[test]
    fn batched_zap_hooks_mirror_single_peer_calls() {
        let mut sys = build_system(40, 9);
        let (source, _) = first_two(&sys);
        sys.start_initial_source(source);
        sys.run_periods(20);

        let leavers: Vec<PeerId> = sys
            .overlay()
            .active_peers()
            .filter(|&p| p != source)
            .take(4)
            .collect();
        sys.depart_batch(&leavers).unwrap();
        for &p in &leavers {
            assert!(!sys.overlay().graph().is_active(p));
            assert!(sys.switch_records()[p as usize].departed);
        }
        // Membership was repaired: every active node keeps its min degree.
        let min_degree = sys.overlay().config().min_degree;
        for p in sys.overlay().active_peers().collect::<Vec<_>>() {
            assert!(sys.overlay().neighbors(p).len() >= min_degree.min(3));
        }

        // Admit a batch in which the second arrival neighbours the first.
        let attrs = *sys.overlay().attrs(source).unwrap();
        let hosts: Vec<PeerId> = sys.overlay().active_peers().take(5).collect();
        let first_id = sys.overlay().graph().capacity() as PeerId;
        let flat = [hosts[0], hosts[1], hosts[0], first_id];
        let mut ids = Vec::new();
        sys.admit_batch_grouped(&[attrs; 2], &flat, 2, &mut ids)
            .unwrap();
        assert_eq!(ids.len(), 2);
        assert_eq!(ids[0], first_id);
        for &id in &ids {
            assert!(sys.overlay().graph().is_active(id));
        }
        assert!(sys.overlay().neighbors(ids[1]).contains(&ids[0]));
        // Empty batches are no-ops.
        sys.depart_batch(&[]).unwrap();
        sys.admit_batch_grouped(&[], &[], 2, &mut ids).unwrap();
        assert!(ids.is_empty());
        sys.run_periods(5);
    }

    /// The report-surfaced memory meter: counts active peers, reports a
    /// positive per-peer footprint, and the compact layout's saving over
    /// the legacy (u64-ring / u32-seq) layout meets the ≥ 40 % target.
    #[test]
    fn memory_meter_tracks_active_peer_state() {
        let mut sys = build_system(60, 31);
        let (s1, _) = first_two(&sys);
        sys.start_initial_source(s1);
        sys.run_periods(40);
        let mem = sys.report().mem;
        assert_eq!(mem.active_peers, sys.overlay().active_count());
        assert_eq!(mem.peer_slots, 60);
        assert!(mem.bytes_per_peer() > 0.0);
        assert!(mem.max_peer_bytes >= mem.peer_bytes / mem.active_peers as u64);
        assert!(
            mem.reduction_vs_legacy() >= 0.40,
            "compact layout must save ≥ 40% vs the legacy layout, got {:.1}%",
            100.0 * mem.reduction_vs_legacy()
        );
        // The full-system footprint covers at least the peer state, and the
        // breakdown components sum into the per-peer bytes.
        use crate::mem::MemoryFootprint;
        assert!(sys.heap_bytes() as u64 >= mem.peer_bytes);
        assert!(mem.ring_bytes + mem.window_bytes + mem.seq_bytes <= mem.peer_bytes);
    }

    /// The directory invariant: the membership view mirrors the overlay's
    /// active set exactly — in ascending-id (`active_peers()`) order —
    /// through churn and batched zaps alike.
    #[test]
    fn membership_view_stays_in_sync_with_the_overlay() {
        let mut sys = build_system(60, 19);
        let (source, _) = first_two(&sys);
        sys.start_initial_source(source);
        let check = |sys: &StreamingSystem| {
            let active: Vec<PeerId> = sys.overlay().active_peers().collect();
            assert_eq!(sys.membership_view().members(), &active[..]);
            assert_eq!(sys.membership_view().candidates(), &active[..]);
        };
        check(&sys);
        sys.set_churn(ChurnModel::paper_default(3));
        for _ in 0..15 {
            sys.advance();
            check(&sys);
        }
        // Batched zap traffic keeps the view in sync too.
        let leavers: Vec<PeerId> = sys
            .overlay()
            .active_peers()
            .filter(|&p| p != source)
            .take(5)
            .collect();
        sys.depart_batch(&leavers).unwrap();
        check(&sys);
        let attrs = *sys.overlay().attrs(source).unwrap();
        let hosts: Vec<PeerId> = sys.overlay().active_peers().take(4).collect();
        let mut flat = Vec::new();
        for _ in 0..3 {
            flat.extend_from_slice(&hosts);
        }
        let mut ids = Vec::new();
        sys.admit_batch_grouped(&[attrs; 3], &flat, hosts.len(), &mut ids)
            .unwrap();
        assert_eq!(ids.len(), 3);
        check(&sys);
        sys.run_periods(5);
        check(&sys);
    }

    /// A bounded (partial) view keeps its candidate list capped and live
    /// while the member list stays exact.
    #[test]
    fn bounded_view_survives_churn() {
        use crate::directory::ViewConfig;
        let mut sys = build_system(80, 23);
        let (source, _) = first_two(&sys);
        sys.start_initial_source(source);
        sys.configure_view(ViewConfig {
            candidate_bound: Some(12),
            seed: 5,
        });
        sys.set_churn(ChurnModel::paper_default(9));
        for _ in 0..20 {
            sys.advance();
            let view = sys.membership_view();
            assert_eq!(view.len(), sys.overlay().active_count());
            assert!(view.candidates().len() <= 12);
            for &c in view.candidates() {
                assert!(
                    sys.overlay().graph().is_active(c),
                    "candidate {c} is not live"
                );
            }
        }
        assert!(sys.membership_view().staleness() >= 0.0);
    }

    #[test]
    #[should_panic(expected = "sources cannot depart")]
    fn departing_a_source_panics() {
        let mut sys = build_system(20, 6);
        let (s1, _) = first_two(&sys);
        sys.start_initial_source(s1);
        let _ = sys.depart_batch(&[s1]);
    }

    #[test]
    #[should_panic(expected = "initial source already started")]
    fn double_initial_source_panics() {
        let mut sys = build_system(20, 4);
        let (a, b) = first_two(&sys);
        sys.start_initial_source(a);
        sys.start_initial_source(b);
    }

    #[test]
    #[should_panic(expected = "live session")]
    fn switch_without_initial_source_panics() {
        let mut sys = build_system(20, 5);
        let (p, _) = first_two(&sys);
        sys.switch_source(p);
    }

    /// A scheduler whose request stream can be shut off mid-run, starving
    /// every buffer: started peers drain what they hold and then stall.
    struct FaucetScheduler {
        open: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }
    impl SegmentScheduler for FaucetScheduler {
        fn name(&self) -> &'static str {
            "faucet"
        }
        fn schedule(&self, ctx: &SchedulingContext) -> Vec<SegmentRequest> {
            if self.open.load(std::sync::atomic::Ordering::Relaxed) {
                GreedyOldest.schedule(ctx)
            } else {
                Vec::new()
            }
        }
    }

    /// Induced buffer starvation produces *exact* stall accounting: every
    /// started non-source peer begins exactly one episode, the stalled
    /// gauge holds at that count for the whole starved window, no episode
    /// ends while starved, and recovery closes exactly as many episodes as
    /// began — with durations covering at least the starved window.
    #[test]
    fn starvation_stall_accounting_is_exact() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let open = Arc::new(AtomicBool::new(true));
        let trace = TraceGenerator::new(GeneratorConfig::sized(30, 3)).generate("faucet");
        let overlay = OverlayBuilder::paper_default().build(&trace).unwrap();
        let mut sys = StreamingSystem::new(
            overlay,
            GossipConfig::paper_default(),
            Box::new(FaucetScheduler { open: open.clone() }),
        );
        let source = sys.overlay().active_peers().next().unwrap();
        sys.start_initial_source(source);
        sys.run_periods(30);

        // Sources hold what they emit, so they never stall; the exact
        // stall population is every *other* started peer.
        let started: u64 = sys
            .overlay()
            .active_peers()
            .filter(|&p| p != source && sys.peer(p).playback().has_started())
            .count() as u64;
        assert!(started > 0, "warmup must start playback");
        assert_eq!(sys.qoe().latest().unwrap().stalled, 0, "no stalls yet");

        // Cut every request and drain the buffers dry.
        open.store(false, Ordering::Relaxed);
        let mut begins = 0u64;
        let mut ends = 0u64;
        let step = |sys: &mut StreamingSystem, begins: &mut u64, ends: &mut u64| {
            sys.advance();
            let row = *sys.qoe().latest().unwrap();
            *begins += row.stall_begins;
            *ends += row.stall_ends;
            row
        };
        let mut fully_stalled = false;
        for _ in 0..40 {
            let row = step(&mut sys, &mut begins, &mut ends);
            if row.stalled == started {
                fully_stalled = true;
                break;
            }
        }
        assert!(fully_stalled, "starvation never stalled every started peer");
        assert_eq!(
            begins, started,
            "each started peer begins exactly one episode"
        );
        assert_eq!(ends, 0, "no episode can end while starved");

        // Hold the starved window: the gauge is pinned at `started`, no new
        // begins or ends, and every peer misses the same per-period play
        // budget — so the missed-opportunity counter repeats exactly.
        const HOLD: u64 = 5;
        let reference = step(&mut sys, &mut begins, &mut ends);
        assert_eq!(reference.stalled, started);
        assert!(reference.stalled_segments > 0);
        for _ in 1..HOLD {
            let row = step(&mut sys, &mut begins, &mut ends);
            assert_eq!(row.stalled, started);
            assert_eq!(row.stall_begins, 0);
            assert_eq!(row.stall_ends, 0);
            assert_eq!(row.stalled_segments, reference.stalled_segments);
        }
        assert_eq!(begins, started);
        assert_eq!(ends, 0);
        let totals_starved = sys.qoe().totals();

        // Reopen the faucet: playback resumes and closes every episode.
        open.store(true, Ordering::Relaxed);
        let mut recovered = false;
        for _ in 0..250 {
            let row = step(&mut sys, &mut begins, &mut ends);
            if row.stalled == 0 {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "playback never recovered after reopening");
        assert_eq!(begins, started, "recovery must not begin new episodes");
        assert_eq!(ends, started, "every episode ends exactly once");
        let totals = sys.qoe().totals();
        assert_eq!(totals.stall_events - totals_starved.stall_events, started);
        assert!(
            totals.stall_periods - totals_starved.stall_periods >= started * HOLD,
            "episode durations must cover the starved window"
        );
        assert!(totals.continuity().unwrap() < 1.0);
    }

    // ------------------------------------------------------------------
    // event-driven stepping mode
    // ------------------------------------------------------------------

    /// Runs `periods` on a fresh churned system with an optional network
    /// model, stepping through `advance()`, and returns it.
    fn run_with_network(net: Option<NetworkConfig>, periods: u64) -> StreamingSystem {
        let mut sys = build_system(120, 0xE7E7);
        let source = sys.overlay().active_peers().next().unwrap();
        sys.set_churn(ChurnModel::new(0.03, 0.03, 5, 0xC0FFEE));
        if let Some(config) = net {
            sys.set_network(config);
        }
        sys.start_initial_source(source);
        sys.run_periods(periods / 2);
        let target = sys
            .overlay()
            .active_peers()
            .filter(|&p| p != source)
            .nth(10)
            .unwrap();
        sys.switch_source(target);
        sys.run_periods(periods - periods / 2);
        sys
    }

    #[test]
    fn ideal_event_mode_matches_period_mode_byte_for_byte() {
        let period = run_with_network(None, 40).report();
        let event = run_with_network(Some(NetworkConfig::ideal()), 40).report();
        assert_eq!(period, event);
    }

    #[test]
    fn ideal_event_mode_skips_every_fault_draw() {
        let sys = run_with_network(Some(NetworkConfig::ideal()), 30);
        let stats = sys.network_stats();
        assert!(stats.data_sent > 0);
        assert_eq!(stats.data_sent, stats.data_delivered);
        assert_eq!(stats.data_lost, 0);
        assert_eq!(stats.requests_lost + stats.requests_blinded, 0);
        assert_eq!(stats.data_stale, 0);
        assert_eq!(sys.network().unwrap().in_flight(), 0);
    }

    #[test]
    fn lossy_event_mode_is_deterministic_and_drops_data() {
        let config = NetworkConfig::lossy(0.15, 0xBAD);
        let a = run_with_network(Some(config), 40);
        let b = run_with_network(Some(config), 40);
        assert_eq!(a.report(), b.report());
        assert_eq!(a.network_stats(), b.network_stats());

        let stats = a.network_stats();
        assert!(stats.data_lost > 0, "15% loss must drop something");
        assert!(stats.requests_lost + stats.requests_blinded > 0);
        let ideal = run_with_network(Some(NetworkConfig::ideal()), 40);
        assert!(
            a.report().traffic_total.data_bits < ideal.report().traffic_total.data_bits,
            "loss must reduce delivered data traffic"
        );
        // Every sent message is accounted exactly once.
        assert_eq!(
            stats.data_sent,
            stats.data_lost
                + stats.data_delivered
                + stats.data_stale
                + a.network().unwrap().in_flight() as u64
        );
    }

    #[test]
    fn latency_defers_arrivals_across_period_boundaries() {
        // Scale the trace RTTs far past τ so every transfer spans at least
        // one boundary: the first scheduling period completes with data in
        // flight and none delivered.
        let mut sys = build_system(80, 0x11AA);
        let source = sys.overlay().active_peers().next().unwrap();
        sys.set_network(NetworkConfig::delayed(50.0, 0));
        sys.start_initial_source(source);
        sys.run_periods(2);
        let after_two = sys.network_stats();
        assert!(after_two.data_sent > 0, "grants must be dispatched");
        assert!(
            sys.network().unwrap().in_flight() > 0,
            "scaled latency must leave messages in flight at the boundary"
        );
        sys.run_periods(60);
        let stats = sys.network_stats();
        assert!(
            stats.data_delivered > 0,
            "delayed messages must eventually land"
        );
        assert!(stats.max_in_flight >= after_two.data_sent.min(1));
        // Jitter alone must also defer nothing incorrectly: totals conserve.
        assert_eq!(
            stats.data_sent,
            stats.data_delivered + stats.data_stale + sys.network().unwrap().in_flight() as u64
        );
    }
}
