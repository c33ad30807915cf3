//! Pull-based gossip streaming substrate.
//!
//! This crate implements the streaming system the ICPP 2008 paper simulates
//! on: a CoolStreaming-style, pull-based ("smart gossip") P2P streaming
//! overlay in which every node periodically exchanges data-availability
//! information (buffer maps) with its neighbours and then retrieves the data
//! segments it needs from a subset of them.
//!
//! The crate provides every protocol ingredient *except* the scheduling
//! policy, which is pluggable through the [`scheduler::SegmentScheduler`]
//! trait — the paper's Fast Switch Algorithm and the Normal Switch baseline
//! live in `fss-core` and implement that trait.
//!
//! Module map:
//!
//! * [`config`] — protocol constants (`τ`, `p`, `B`, `Q`, `Qs`, segment and
//!   buffer-map sizes), defaulting to the paper's §5.1 values,
//! * [`segment`] — global segment identifiers, sources and serial sessions,
//! * [`buffer`] — the per-node FIFO segment buffer (`B = 600` segments),
//! * [`buffermap`] — the 620-bit data-availability map exchanged per period,
//! * [`playback`] — the per-node playback state machine (startup after `Q`
//!   consecutive segments, new-source startup after `Qs` segments *and* the
//!   old stream finishing),
//! * [`scheduler`] — the scheduling context handed to switch algorithms and
//!   the request type they return,
//! * [`transfer`] — bandwidth-constrained request resolution (per-supplier
//!   outbound and per-requester inbound budgets),
//! * [`membership`] — neighbour-set repair under churn,
//! * [`net`] — the message-level network model of the event-driven
//!   stepping mode: granted transfers wait in a flat in-flight store as
//!   messages with per-link latency, Bernoulli loss and bounded jitter
//!   from stateless fault streams (see `docs/network.md`),
//! * [`directory`] — the cross-channel membership directory: per-channel
//!   [`directory::MembershipView`]s maintained incrementally on every
//!   join/depart (churn, zaps, storms), and the shared allocation-free
//!   [`directory::AdmissionPipeline`] + sampler every join path draws its
//!   partners from (see `docs/architecture.md`),
//! * [`peer`] — per-node protocol state and context construction,
//! * [`store`] — struct-of-arrays sharded peer storage: dense contiguous
//!   peer-id shards owning their peers' state as parallel columns, the
//!   chunk unit of the parallel scheduling pass (see `docs/performance.md`),
//! * [`stats`] — traffic counters, switch records and ratio samples,
//! * [`qoe`] — counter-only QoE event recording on the playback path
//!   (startups, stall episodes, continuity, switch progress), one
//!   [`qoe::PeriodSample`] row per period (see `docs/observability.md`),
//! * [`mem`] — the [`mem::MemoryFootprint`] accounting trait and the
//!   per-peer byte meter surfaced in reports (see `docs/performance.md`),
//! * [`scratch`] — the reusable per-period working memory (zero-allocation
//!   hot path; see `docs/performance.md`),
//! * [`hasher`] — deterministic hashing for hot-path maps, and
//! * [`system`] — the complete period-synchronous streaming system.

#![warn(missing_docs)]

pub mod buffer;
pub mod buffermap;
pub mod cast;
pub mod config;
pub mod directory;
pub mod hasher;
pub mod mem;
pub mod membership;
pub mod net;
pub mod peer;
pub mod playback;
pub(crate) mod prefetch;
pub mod qoe;
pub mod scheduler;
pub mod scratch;
pub mod segment;
pub mod stats;
pub mod store;
pub mod system;
pub mod transfer;

pub use buffer::FifoBuffer;
pub use buffermap::BufferMap;
pub use config::GossipConfig;
pub use directory::{AdmissionPipeline, AdmissionScratch, MembershipView, ViewConfig};
pub use mem::{BufferMemBreakdown, MemUsage, MemoryFootprint};
pub use net::{NetStats, NetworkModel};
pub use peer::PeerNode;
pub use playback::{PlaybackPhase, PlaybackState};
pub use qoe::{PeriodSample, QoeRecorder, QoeTotals};
pub use scheduler::{
    CandidateSegment, SchedulerScratch, SchedulingContext, SegmentRequest, SegmentScheduler,
    SessionView, StreamClass, SupplierInfo,
};
pub use segment::{SegmentId, Session, SessionDirectory, SourceId};
pub use stats::{MilestoneStat, RatioSample, SwitchRecord, SwitchStats, TrafficCounters};
pub use store::{PeerHeader, PeerMut, PeerRef, PeerShard, PeerStore};
pub use system::{StreamingSystem, SystemReport};
pub use transfer::{CapacityModel, DeliveredSegment, RequestBatch, TransferResolver};
