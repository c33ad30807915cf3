//! Struct-of-arrays sharded peer storage.
//!
//! The pre-sharding system kept one `Vec<PeerNode>` — an array of structs.
//! At million-peer scale that layout has two costs: every protocol pass
//! (scheduling, delivery, playback) strides over 192-byte records to touch
//! one or two fields, and the worker pool has to carve chunks out of a
//! single array whose ownership the borrow checker cannot split by field.
//!
//! [`PeerStore`] flips the layout.  Peers live in **shards** of dense,
//! contiguous [`PeerId`] ranges (ids are assigned sequentially and never
//! reused, so `id → (shard, slot)` is a shift and a mask).  Each
//! [`PeerShard`] owns its peers' state as parallel *columns* — buffers,
//! playback states, discovery counters, playback credits — so a pass that
//! only needs buffers walks a dense `Vec<FifoBuffer>`, and the scheduling
//! pass hands whole shards to the worker pool as its chunk unit (see
//! `StreamingSystem::plan_chunks`).
//!
//! The [`PeerNode`] record survives as the *logical* per-peer unit: joiners
//! are constructed as `PeerNode`s and [`PeerStore::push`] destructures them
//! into columns, and the memory meter keeps reporting
//! `size_of::<PeerNode>()` as the per-peer inline stride — the columns hold
//! exactly those fields, so the accounting is unchanged by the layout.
//!
//! Borrowed access comes as views: [`PeerRef`] (shared, `Copy`) and
//! [`PeerMut`] (exclusive), both forwarding to the protocol logic shared
//! with `PeerNode` in [`crate::peer`].

use crate::buffer::FifoBuffer;
use crate::mem::{vec_bytes, MemoryFootprint};
use crate::peer::{self, PeerNode};
use crate::playback::PlaybackState;
use crate::segment::{SegmentId, Session, SessionDirectory};
use fss_overlay::PeerId;

/// Default shard capacity: 64 Ki peers per shard keeps a million-peer store
/// at 16 shards while leaving small systems in a single shard.
pub const DEFAULT_SHARD_SIZE: usize = 1 << 16;

/// The **hot** per-peer column: everything the period sweep reads or writes
/// per peer *except* the bulk buffer storage — playback cursor, fractional
/// play credit and the discovery counter, packed into a single record so
/// one cache-line fill serves the whole playback/QoE/discovery pass.
///
/// The cold counterpart is the [`FifoBuffer`] column: its ring/window/seqs
/// heap blocks (≈ 4.4 KB/peer at the paper's `B = 600`) are touched only on
/// actual buffer reads and mutations, never dragged in by header-only
/// passes.
#[derive(Debug, Clone)]
pub struct PeerHeader {
    /// Playback position, startup flag and stall/played counters.
    pub playback: PlaybackState,
    /// Fractional playback credit carried across periods.
    pub play_credit: f64,
    /// How many sessions (prefix of the directory) the peer has discovered.
    pub known_sessions: usize,
}

// One header per cache line: the fused period walk budgets exactly one
// line fill per peer for the hot column.
const _: () = assert!(std::mem::size_of::<PeerHeader>() <= 64);

/// One shard: the peer state of a contiguous [`PeerId`] range, stored as
/// parallel columns (struct of arrays), split hot/cold: the dense
/// [`PeerHeader`] column carries the per-period scalar state, the
/// [`FifoBuffer`] column carries the bulk segment storage.
#[derive(Debug, Default)]
pub struct PeerShard {
    buffers: Vec<FifoBuffer>,
    headers: Vec<PeerHeader>,
}

impl PeerShard {
    fn with_capacity(capacity: usize) -> PeerShard {
        let mut shard = PeerShard::default();
        shard.buffers.reserve_exact(capacity);
        shard.headers.reserve_exact(capacity);
        shard
    }

    /// Peers stored in this shard.
    pub fn len(&self) -> usize {
        self.buffers.len()
    }

    /// True when the shard holds no peers.
    pub fn is_empty(&self) -> bool {
        self.buffers.is_empty()
    }

    /// The shard's buffer column (dense, slot-indexed).
    pub fn buffers(&self) -> &[FifoBuffer] {
        &self.buffers
    }

    /// The shard's hot header column (dense, slot-indexed).
    pub fn headers(&self) -> &[PeerHeader] {
        &self.headers
    }

    /// Both columns, mutably and simultaneously — the fused period walk
    /// applies deliveries to the buffer column and advances playback in the
    /// header column within one shard-resident pass.
    pub(crate) fn columns_mut(&mut self) -> (&mut [FifoBuffer], &mut [PeerHeader]) {
        (&mut self.buffers, &mut self.headers)
    }

    fn push_parts(&mut self, buffer: FifoBuffer, header: PeerHeader) {
        self.buffers.push(buffer);
        self.headers.push(header);
    }
}

impl MemoryFootprint for PeerShard {
    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.buffers)
            + vec_bytes(&self.headers)
            + self.buffers.iter().map(|b| b.heap_bytes()).sum::<usize>()
    }
}

/// Sharded struct-of-arrays storage for every peer the system has ever
/// admitted (slots are never reused; departed peers keep their slot, as in
/// the previous `Vec<PeerNode>` layout).
#[derive(Debug)]
pub struct PeerStore {
    /// Power-of-two shard capacity.
    shard_size: usize,
    /// `log2(shard_size)` — `id >> shift` is the shard index.
    shift: u32,
    /// Total peers across all shards.
    len: usize,
    shards: Vec<PeerShard>,
}

impl PeerStore {
    /// Creates an empty store with the given power-of-two shard size.
    pub fn new(shard_size: usize) -> PeerStore {
        assert!(
            shard_size.is_power_of_two(),
            "shard size must be a power of two, got {shard_size}"
        );
        PeerStore {
            shard_size,
            shift: shard_size.trailing_zeros(),
            len: 0,
            shards: Vec::new(),
        }
    }

    /// Creates an empty store sized for `capacity` peers at the default
    /// shard size.
    pub fn with_capacity(capacity: usize) -> PeerStore {
        let mut store = PeerStore::new(DEFAULT_SHARD_SIZE);
        store
            .shards
            .reserve_exact(capacity.div_ceil(DEFAULT_SHARD_SIZE));
        store
    }

    /// Total peers stored (including departed peers — slots are permanent).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no peer has been admitted yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The power-of-two capacity of each shard.
    pub fn shard_size(&self) -> usize {
        self.shard_size
    }

    /// `log2(shard_size)`: `id >> shard_shift()` is a peer's shard index.
    pub fn shard_shift(&self) -> u32 {
        self.shift
    }

    /// Number of shards currently backing the store.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards themselves (scheduling hands these to the worker pool).
    pub fn shards(&self) -> &[PeerShard] {
        &self.shards
    }

    /// Mutable access to one shard's columns (the fused period walk's
    /// per-run handle).
    pub(crate) fn shard_mut(&mut self, index: usize) -> &mut PeerShard {
        &mut self.shards[index]
    }

    /// Re-partitions the store into (at least) `shards` shards by shrinking
    /// the shard size to the smallest power of two that covers the current
    /// population in that many shards.  Stored state is moved column-wise;
    /// results are byte-identical across shard counts (sharding only changes
    /// the chunk boundaries of the scheduling pass, whose outputs concatenate
    /// in peer order either way).
    pub fn set_shards(&mut self, shards: usize) {
        let shards = shards.max(1);
        let shard_size = self.len.div_ceil(shards).max(1).next_power_of_two();
        if shard_size == self.shard_size {
            return;
        }
        let old = std::mem::take(&mut self.shards);
        self.shard_size = shard_size;
        self.shift = shard_size.trailing_zeros();
        self.len = 0;
        self.shards.reserve_exact(
            old.iter()
                .map(PeerShard::len)
                .sum::<usize>()
                .div_ceil(shard_size),
        );
        for shard in old {
            let PeerShard { buffers, headers } = shard;
            for (buffer, header) in buffers.into_iter().zip(headers) {
                self.push_parts(buffer, header);
            }
        }
    }

    /// Appends the next peer.  Ids are dense: the node's id must equal the
    /// store's current length (checked in debug builds by the caller, which
    /// owns id assignment).
    pub fn push(&mut self, node: PeerNode) {
        let (buffer, playback, known, credit) = node.into_parts();
        self.push_parts(
            buffer,
            PeerHeader {
                playback,
                play_credit: credit,
                known_sessions: known,
            },
        );
    }

    fn push_parts(&mut self, buffer: FifoBuffer, header: PeerHeader) {
        if self.len == self.shards.len() * self.shard_size {
            self.shards.push(PeerShard::with_capacity(self.shard_size));
        }
        let shard = self.shards.last_mut().expect("shard just ensured");
        shard.push_parts(buffer, header);
        self.len += 1;
    }

    /// `id → (shard, slot)`.
    #[inline]
    fn loc(&self, id: PeerId) -> (usize, usize) {
        let id = id as usize;
        (id >> self.shift, id & (self.shard_size - 1))
    }

    /// The shard index holding `id`.
    #[inline]
    pub fn shard_of(&self, id: PeerId) -> usize {
        (id as usize) >> self.shift
    }

    /// A peer's buffer column entry.
    #[inline]
    pub fn buffer(&self, id: PeerId) -> &FifoBuffer {
        let (shard, slot) = self.loc(id);
        &self.shards[shard].buffers[slot]
    }

    /// Mutable access to a peer's buffer (deliveries, source emission).
    #[inline]
    pub fn buffer_mut(&mut self, id: PeerId) -> &mut FifoBuffer {
        let (shard, slot) = self.loc(id);
        &mut self.shards[shard].buffers[slot]
    }

    /// A peer's hot header column entry.
    #[inline]
    pub fn header(&self, id: PeerId) -> &PeerHeader {
        let (shard, slot) = self.loc(id);
        &self.shards[shard].headers[slot]
    }

    /// A shared view of one peer.
    #[inline]
    pub fn peer(&self, id: PeerId) -> PeerRef<'_> {
        let (shard, slot) = self.loc(id);
        let shard = &self.shards[shard];
        let header = &shard.headers[slot];
        PeerRef {
            id,
            buffer: &shard.buffers[slot],
            playback: &header.playback,
            known_sessions: header.known_sessions,
        }
    }

    /// An exclusive view of one peer.
    #[inline]
    pub fn peer_mut(&mut self, id: PeerId) -> PeerMut<'_> {
        let (shard, slot) = self.loc(id);
        let shard = &mut self.shards[shard];
        PeerMut {
            id,
            buffer: &mut shard.buffers[slot],
            header: &mut shard.headers[slot],
        }
    }

    /// Issues a software prefetch for a peer's buffer struct and header
    /// line.  Advisory only: out-of-range ids are ignored.
    #[inline]
    pub(crate) fn prefetch_peer(&self, id: PeerId) {
        let (shard, slot) = self.loc(id);
        if let Some(shard) = self.shards.get(shard) {
            if let Some(buffer) = shard.buffers.get(slot) {
                crate::prefetch::prefetch_read(buffer);
            }
            if let Some(header) = shard.headers.get(slot) {
                crate::prefetch::prefetch_read(header);
            }
        }
    }

    /// Issues a software prefetch for a peer's buffer struct only (the
    /// neighbour-gather walks read `max_id`/availability words, never the
    /// header).  Advisory only: out-of-range ids are ignored.
    #[inline]
    pub(crate) fn prefetch_buffer(&self, id: PeerId) {
        let (shard, slot) = self.loc(id);
        if let Some(buffer) = self.shards.get(shard).and_then(|s| s.buffers.get(slot)) {
            crate::prefetch::prefetch_read(buffer);
        }
    }
}

impl MemoryFootprint for PeerStore {
    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.shards) + self.shards.iter().map(|s| s.heap_bytes()).sum::<usize>()
    }
}

/// A shared, `Copy` view of one stored peer — the read-side twin of
/// [`PeerNode`], sharing its protocol logic.
#[derive(Clone, Copy)]
pub struct PeerRef<'a> {
    id: PeerId,
    buffer: &'a FifoBuffer,
    playback: &'a PlaybackState,
    known_sessions: usize,
}

impl<'a> PeerRef<'a> {
    /// The peer's id.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// The peer's segment buffer.
    pub fn buffer(&self) -> &'a FifoBuffer {
        self.buffer
    }

    /// The peer's playback state.
    pub fn playback(&self) -> &'a PlaybackState {
        self.playback
    }

    /// Number of sessions the peer has discovered.
    pub fn known_sessions(&self) -> usize {
        self.known_sessions
    }

    /// The id the peer will play next (`id_play`).
    pub fn id_play(&self) -> SegmentId {
        self.playback.next_play()
    }

    /// See [`PeerNode::undelivered_in_session`].
    pub fn undelivered_in_session(&self, session: &Session, fallback_end: SegmentId) -> usize {
        peer::undelivered_in_session(self.buffer, self.id_play(), session, fallback_end)
    }

    /// See [`PeerNode::q2_for`].
    pub fn q2_for(&self, session: &Session, qs: usize) -> usize {
        peer::q2_for(self.buffer, session, qs)
    }
}

/// An exclusive view of one stored peer — the write-side twin of
/// [`PeerNode`], sharing its protocol logic.
pub struct PeerMut<'a> {
    id: PeerId,
    buffer: &'a mut FifoBuffer,
    header: &'a mut PeerHeader,
}

impl PeerMut<'_> {
    /// The peer's id.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// Mutable access to the peer's buffer.
    pub fn buffer_mut(&mut self) -> &mut FifoBuffer {
        self.buffer
    }

    /// See [`PeerNode::rejoin_at`].
    pub fn rejoin_at(&mut self, join_point: SegmentId) {
        self.header.playback.rejoin_at(join_point);
    }

    /// See [`PeerNode::discover_sessions`].
    pub fn discover_sessions(&mut self, directory: &SessionDirectory, observed_max: SegmentId) {
        peer::discover_sessions(&mut self.header.known_sessions, directory, observed_max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GossipConfig;

    fn store_of(n: usize, shard_size: usize) -> PeerStore {
        let cfg = GossipConfig::paper_default();
        let mut store = PeerStore::new(shard_size);
        for id in 0..n {
            store.push(PeerNode::new(id as PeerId, &cfg, SegmentId(0)));
        }
        store
    }

    #[test]
    fn push_assigns_dense_shard_slots() {
        let store = store_of(10, 4);
        assert_eq!(store.len(), 10);
        assert_eq!(store.shard_count(), 3);
        assert_eq!(store.shards()[0].len(), 4);
        assert_eq!(store.shards()[1].len(), 4);
        assert_eq!(store.shards()[2].len(), 2);
        assert_eq!(store.shard_of(3), 0);
        assert_eq!(store.shard_of(4), 1);
        assert_eq!(store.peer(7).id(), 7);
    }

    #[test]
    fn views_match_the_logical_record() {
        let cfg = GossipConfig::paper_default();
        let mut dir = SessionDirectory::new();
        dir.start_session(0, 0.0, None);

        let mut store = store_of(6, 4);
        let mut node = PeerNode::new(2, &cfg, SegmentId(0));

        for i in 0..20u64 {
            store.buffer_mut(2).insert(SegmentId(i));
            node.buffer_mut().insert(SegmentId(i));
        }
        store.peer_mut(2).discover_sessions(&dir, SegmentId(5));
        node.discover_sessions(&dir, SegmentId(5));
        assert_eq!(store.peer(2).known_sessions(), node.known_sessions());

        // Peer 2 is slot 2 of shard 0; advance it over the bare columns, as
        // the fused period walk does.
        let (buffers, headers) = store.shard_mut(0).columns_mut();
        let header = &mut headers[2];
        let played_store = peer::advance_playback(
            &buffers[2],
            &mut header.playback,
            &mut header.play_credit,
            peer::known_slice(header.known_sessions, &dir),
            &cfg,
        );
        let played_node = node.advance_playback(&cfg, &dir);
        assert_eq!(played_store, played_node);
        assert_eq!(store.peer(2).id_play(), node.id_play());

        let s = &dir.sessions()[0];
        assert_eq!(
            store.peer(2).undelivered_in_session(s, SegmentId(19)),
            node.undelivered_in_session(s, SegmentId(19))
        );
        assert_eq!(store.peer(2).q2_for(s, 5), node.q2_for(s, 5));
    }

    #[test]
    fn resharding_preserves_state_and_order() {
        let mut dir = SessionDirectory::new();
        dir.start_session(0, 0.0, None);

        let mut store = store_of(11, 4);
        for id in 0..11u32 {
            for i in 0..(id as u64 + 1) {
                store.buffer_mut(id).insert(SegmentId(i));
            }
            store.peer_mut(id).discover_sessions(&dir, SegmentId(0));
        }

        store.set_shards(2);
        assert_eq!(store.len(), 11);
        assert_eq!(store.shard_size(), 8);
        assert_eq!(store.shard_count(), 2);
        for id in 0..11u32 {
            assert_eq!(store.buffer(id).len(), id as usize + 1);
            assert_eq!(store.peer(id).known_sessions(), 1);
        }

        // Growing back to one shard is equally lossless.
        store.set_shards(1);
        assert_eq!(store.shard_count(), 1);
        for id in 0..11u32 {
            assert_eq!(store.buffer(id).len(), id as usize + 1);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shard_size_is_rejected() {
        PeerStore::new(12);
    }
}
