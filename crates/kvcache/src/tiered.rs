//! The tiered KV cache manager (§4.3), deepened below the CPU with the
//! SSD and cold storage tiers of `docs/STORAGE.md`.
//!
//! [`TieredKvCache`] tracks every active conversation's chunks across the
//! storage hierarchy (GPU-resident, lazily-copied, CPU-resident,
//! SSD-resident, cold-resident, dropped) and makes the paper's decisions:
//!
//! 1. **Ahead-of-time swap-out** (§4.3.2): when strictly-free GPU slots
//!    fall below the 25 % watermark, chunks chosen by the eviction policy
//!    are *copied* to the CPU tier ([`Tier::GpuCopied`]). Their GPU slots
//!    are reclaimed lazily — only when another allocation actually needs
//!    them — so a conversation that returns quickly gets its context back
//!    without any transfer ("revalidation").
//! 2. **Cross-tier demotion** (generalizing the paper's §4.3.4 dropping):
//!    when the CPU tier is full, the same retention-value policy chooses
//!    victims, but instead of dropping them outright each victim is
//!    demoted one tier down — CPU→SSD, SSD→cold — and only falls off the
//!    bottom of the hierarchy when the cold tier itself is full. With the
//!    deep tiers disabled (capacity `0`, the default), demotion reduces
//!    to the paper's two-tier dropping behaviour exactly.
//! 3. **Restore planning**: a returning conversation's context is split
//!    into generalized Figure-5 segments — dropped prefix (recompute),
//!    deep-tier and CPU middles (read back / swap in), GPU tail (hit) —
//!    and committed once the scheduler has verified GPU space.
//! 4. **Rehydration**: a restarted or failed-over replica can rebuild a
//!    session's chunks in the cold tier from a persisted manifest (see
//!    [`crate::manifest`]) via [`TieredKvCache::rehydrate_session`],
//!    turning a full recompute into cold reads.
//!
//! All quantities are in tokens; byte conversion and transfer timing are
//! the simulator's job (`pensieve_sim::storage` models the deep-tier
//! devices), physical KV bytes the functional engine's.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use pensieve_model::SimTime;
use pensieve_obs::{DropReason, Recorder as _, SharedRecorder, StorageTier, TraceEvent};

use crate::manifest::ManifestChunk;
use crate::policy::{EvictionPolicy, Granularity, LruPolicy, WithinOrder};
use crate::prefix::PrefixIndex;
use crate::stats::CacheStats;
use crate::types::{CacheConfig, ChunkId, ChunkState, SessionId, Tier};

/// Handles dropped without being released through
/// [`TieredKvCache::release`] — the leak-check counterpart of the
/// refcount errors. Global across caches (handles are just ids).
static LEAKED_HANDLES: AtomicU64 = AtomicU64::new(0);

/// Number of [`ChunkHandle`]s ever dropped without a matching
/// [`TieredKvCache::release`]. Test harnesses assert this stays zero;
/// the analyzer's leak lint points here.
#[must_use]
pub fn leaked_chunk_handles() -> u64 {
    LEAKED_HANDLES.load(Ordering::Relaxed)
}

/// Error from cache operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheError {
    /// Not enough effectively-free GPU slots for the request.
    OutOfGpu {
        /// Tokens requested.
        needed: usize,
        /// Tokens effectively free (counting reclaimable copies).
        free: usize,
    },
    /// The conversation is not tracked by the cache.
    UnknownConversation(SessionId),
    /// The addressed chunk holds no CPU-tier copy, so a CPU-tier fault
    /// cannot apply to it.
    ChunkNotInCpuTier {
        /// Owning conversation.
        conv: SessionId,
        /// Chunk index within the conversation.
        chunk: usize,
    },
    /// An imported session is already tracked by this cache; a handoff
    /// target must not hold prior state for the session.
    SessionExists(SessionId),
    /// A raw-token fetch addressed tokens beyond the stored history.
    HistoryRangeOutOfBounds {
        /// Owning conversation.
        conv: SessionId,
        /// One past the last requested token.
        end: usize,
        /// Stored history length.
        len: usize,
    },
    /// A shared-chunk operation addressed a chunk id the cache does not
    /// hold.
    UnknownChunk(ChunkId),
    /// A shared chunk's reference count would overflow — acquisitions
    /// are unbalanced by a full `u32::MAX` of missing releases.
    RefCountOverflow(ChunkId),
    /// A release was issued against a shared chunk with no outstanding
    /// matching acquire — a double release.
    RefCountUnderflow(ChunkId),
    /// A shared chunk chain's context offsets do not line up — the ids
    /// are not consecutive chunks of one prefix.
    BrokenSharedChain(ChunkId),
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::OutOfGpu { needed, free } => {
                write!(f, "out of GPU KV slots: need {needed}, free {free}")
            }
            CacheError::UnknownConversation(c) => {
                write!(f, "unknown conversation {c:?}")
            }
            CacheError::ChunkNotInCpuTier { conv, chunk } => {
                write!(f, "chunk {chunk} of {conv:?} has no CPU-tier copy")
            }
            CacheError::SessionExists(c) => {
                write!(f, "session {c:?} already tracked by this cache")
            }
            CacheError::HistoryRangeOutOfBounds { conv, end, len } => {
                write!(
                    f,
                    "raw-token fetch past stored history of {conv:?}: end {end}, stored {len}"
                )
            }
            CacheError::UnknownChunk(id) => {
                write!(f, "unknown shared chunk {id:?}")
            }
            CacheError::RefCountOverflow(id) => {
                write!(f, "reference count overflow on shared chunk {id:?}")
            }
            CacheError::RefCountUnderflow(id) => {
                write!(f, "release without matching acquire on shared chunk {id:?}")
            }
            CacheError::BrokenSharedChain(id) => {
                write!(
                    f,
                    "shared chunk {id:?} breaks its chain's context continuity"
                )
            }
        }
    }
}

impl std::error::Error for CacheError {}

/// Portable snapshot of one session's chunk layout, produced by
/// [`TieredKvCache::export_session`] for KV handoff between replicas.
///
/// Resident tiers are normalized to [`Tier::Cpu`] — handoffs stream from
/// host memory, never device-to-device — while [`Tier::Dropped`] chunks
/// carry no bytes and survive only as recompute obligations. A router
/// models the inter-node transfer chunk by chunk and calls
/// [`SessionExport::mark_lost`] for any chunk the link loses, before
/// handing the snapshot to [`TieredKvCache::import_session`] on the
/// target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionExport {
    /// The exported session.
    pub session: SessionId,
    /// The session's leading shared chunk chain, *by reference*: shared
    /// chunks are content-addressed, so migration ships their ids, and
    /// the target re-attaches any chunk it already holds instead of
    /// streaming bytes. Ids the target does not hold become recompute
    /// obligations.
    pub shared: Vec<SharedChunkRef>,
    /// Private chunk states in context order (after the shared chain).
    pub chunks: Vec<ChunkState>,
}

/// One entry of a [`SessionExport`]'s shared chain: the chunk's
/// content-addressed identity plus its token count (so a target that
/// does not hold the chunk knows the size of the recompute obligation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedChunkRef {
    /// Content-addressed id.
    pub id: ChunkId,
    /// Tokens in the chunk.
    pub tokens: usize,
}

impl SessionExport {
    /// Tokens that carry KV bytes and must be streamed to the target.
    #[must_use]
    pub fn streamable_tokens(&self) -> usize {
        self.chunks
            .iter()
            .filter(|c| c.tier != Tier::Dropped)
            .map(|c| c.tokens)
            .sum()
    }

    /// Tokens already lost: recompute obligations at the target.
    #[must_use]
    pub fn dropped_tokens(&self) -> usize {
        self.chunks
            .iter()
            .filter(|c| c.tier == Tier::Dropped)
            .map(|c| c.tokens)
            .sum()
    }

    /// Marks chunk `index` as lost in transit ([`Tier::Dropped`]).
    /// Returns the tokens affected (0 if out of range or already
    /// dropped).
    pub fn mark_lost(&mut self, index: usize) -> usize {
        match self.chunks.get_mut(index) {
            Some(c) if c.tier != Tier::Dropped => {
                c.tier = Tier::Dropped;
                c.tokens
            }
            _ => 0,
        }
    }
}

/// One chunk chosen for ahead-of-time swap-out (GPU -> CPU copy), or for
/// direct dropping when the CPU tier cannot hold it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapOutOp {
    /// Owning conversation. Meaningless (zero) when `shared` is set — a
    /// shared chunk has sharers, not an owner.
    pub conv: SessionId,
    /// Chunk index within the conversation. Meaningless (zero) when
    /// `shared` is set.
    pub chunk: usize,
    /// Tokens to copy.
    pub tokens: usize,
    /// True if the chunk was dropped instead of copied (no CPU space).
    pub dropped: bool,
    /// Set when the evicted chunk is a content-addressed shared chunk.
    pub shared: Option<ChunkId>,
}

/// Restore plan for a returning conversation (paper Figure 5,
/// generalized to the deep storage hierarchy).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequestPlan {
    /// Tokens still resident in the GPU tier (free hits).
    pub gpu_hit_tokens: usize,
    /// Lazily-copied tokens revalidated in place (free hits).
    pub revalidate_tokens: usize,
    /// Tokens to transfer CPU -> GPU.
    pub swap_in_tokens: usize,
    /// Tokens to read back from the SSD tier (through the CPU staging
    /// path, then over PCIe).
    pub ssd_read_tokens: usize,
    /// Tokens to read back from the cold store (slowest path).
    pub cold_read_tokens: usize,
    /// Dropped tokens to recompute from raw text.
    pub recompute_tokens: usize,
    /// Of all the tokens above, how many were served from the
    /// conversation's *shared* chunk chain (any resident tier) — the
    /// cross-conversation sharing win, also counted in
    /// [`CacheStats::shared_hit_tokens`] at commit.
    pub shared_hit_tokens: usize,
    /// Token ranges, in context order, with the tier they were found in.
    /// `Tier::Dropped` ranges become recompute sub-requests.
    pub segments: Vec<(Range<usize>, Tier)>,
}

impl RequestPlan {
    /// New GPU slots this restore will occupy (swap-ins, deep-tier reads
    /// and recomputes).
    #[must_use]
    pub fn new_gpu_slots(&self) -> usize {
        self.swap_in_tokens + self.ssd_read_tokens + self.cold_read_tokens + self.recompute_tokens
    }

    /// Tokens read back from the deep (SSD + cold) tiers.
    #[must_use]
    pub fn deep_read_tokens(&self) -> usize {
        self.ssd_read_tokens + self.cold_read_tokens
    }

    /// Token ranges that must be recomputed, in ascending order.
    #[must_use]
    pub fn recompute_ranges(&self) -> Vec<Range<usize>> {
        self.segments
            .iter()
            .filter(|(_, t)| *t == Tier::Dropped)
            .map(|(r, _)| r.clone())
            .collect()
    }

    /// True if the whole context was GPU-resident (or empty).
    #[must_use]
    pub fn is_full_gpu_hit(&self) -> bool {
        self.swap_in_tokens == 0 && self.deep_read_tokens() == 0 && self.recompute_tokens == 0
    }
}

/// One eviction victim: a conversation-private chunk or a shared chunk.
/// The derived order (`Conv` before `Shared`, then by id) is the
/// deterministic tie-break among equal policy scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Victim {
    /// Private chunk `index` of a conversation.
    Conv(SessionId, usize),
    /// A content-addressed shared chunk.
    Shared(ChunkId),
}

/// Caller-held eviction-candidate snapshots, one per host-side tier.
/// Each is collected lazily and at most once per eviction pass, then
/// consumed from the front with entries re-validated at use — the same
/// O(n log n)-per-pass discipline the two-tier drop queue used.
#[derive(Default)]
struct EvictQueues {
    cpu: Option<std::collections::VecDeque<Victim>>,
    ssd: Option<std::collections::VecDeque<Victim>>,
    cold: Option<std::collections::VecDeque<Victim>>,
}

/// One physical, content-addressed, reference-counted chunk shared
/// across conversations. Shared chunks never enter [`Tier::GpuCopied`]:
/// lazy reclamation is a per-conversation return-soon bet that has no
/// owner to bet on here, so GPU eviction moves them straight to the CPU
/// tier.
#[derive(Debug, Clone)]
struct SharedChunk {
    /// Tokens in the chunk.
    tokens: usize,
    /// Context length at the chunk's end within its chain.
    context_end: usize,
    /// Current tier (never [`Tier::GpuCopied`]).
    tier: Tier,
    /// Total references: chain memberships across conversations plus
    /// outstanding [`ChunkHandle`]s.
    refs: usize,
    /// Outstanding explicitly-acquired [`ChunkHandle`]s (a subset of
    /// `refs`), tracked separately so releases can be validated.
    external_refs: usize,
    /// References held by *pinned* (running-batch) conversations; a
    /// chunk with any is exempt from eviction.
    pinned_refs: usize,
    /// True for globally-materialized chunks (e.g. the deployment-wide
    /// tool preamble): exempt from eviction regardless of refs.
    global: bool,
    /// Last time any sharer touched the chunk.
    last_active: SimTime,
}

/// RAII guard for an explicit shared-chunk reference, returned by
/// [`TieredKvCache::acquire`] and [`TieredKvCache::materialize_global`].
///
/// The guard must be given back via [`TieredKvCache::release`] — the
/// cache owns the refcount, so the guard cannot decrement it on `Drop`.
/// Dropping an unreleased handle is *leak-checked* instead: it
/// increments the process-wide [`leaked_chunk_handles`] counter, which
/// tests and the analyzer's leak lint pin to zero.
#[derive(Debug)]
pub struct ChunkHandle {
    id: ChunkId,
    armed: bool,
}

impl ChunkHandle {
    /// The referenced chunk's content-addressed id.
    #[must_use]
    pub fn id(&self) -> ChunkId {
        self.id
    }
}

impl Drop for ChunkHandle {
    fn drop(&mut self) {
        if self.armed {
            LEAKED_HANDLES.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[derive(Debug)]
struct ConvEntry {
    /// Leading shared chunk chain (ids into the cache's shared pool).
    shared: Vec<ChunkId>,
    /// Tokens covered by `shared`; private chunk positions start here.
    shared_tokens: usize,
    /// Conversation-private chunks, after the shared chain.
    chunks: Vec<ChunkState>,
    last_active: SimTime,
    pinned: bool,
}

impl ConvEntry {
    /// Private (non-shared) tokens.
    fn private_tokens(&self) -> usize {
        self.chunks.iter().map(|c| c.tokens).sum()
    }

    /// Logical context tokens: shared chain + private chunks.
    fn total_tokens(&self) -> usize {
        self.shared_tokens + self.private_tokens()
    }
}

/// The tiered cache manager.
///
/// # Examples
///
/// ```
/// use pensieve_kvcache::{CacheConfig, SessionId, LruPolicy, TieredKvCache};
/// use pensieve_model::SimTime;
///
/// let mut cache = TieredKvCache::builder(CacheConfig::for_test(32, 1024, 4096))
///     .policy(Box::new(LruPolicy))
///     .build();
/// let conv = SessionId(1);
/// // A first turn appends its prompt + outputs to the GPU tier.
/// cache.append_tokens(conv, 300, SimTime::from_secs(0.0)).unwrap();
/// cache.unpin(conv);
/// // When the conversation returns, the whole context is a GPU hit.
/// let plan = cache.commit_restore(conv, SimTime::from_secs(30.0)).unwrap();
/// assert!(plan.is_full_gpu_hit());
/// assert_eq!(plan.gpu_hit_tokens, 300);
/// ```
pub struct TieredKvCache {
    cfg: CacheConfig,
    policy: Box<dyn EvictionPolicy>,
    convs: BTreeMap<SessionId, ConvEntry>,
    /// Tokens in `Tier::Gpu`.
    gpu_resident: usize,
    /// Tokens in `Tier::GpuCopied` (occupy a GPU slot *and* CPU space).
    gpu_copied: usize,
    /// Tokens in `Tier::Cpu`.
    cpu_resident: usize,
    /// Tokens in `Tier::Ssd` (the tier-2 simulated NVMe).
    ssd_resident: usize,
    /// Tokens in `Tier::Cold` (the tier-3 simulated NFS/object store).
    cold_resident: usize,
    /// Lazily-copied chunks in copy order, for O(1) slot reclamation.
    /// Entries are validated at pop (a chunk may have been revalidated or
    /// suspended since).
    copied_fifo: std::collections::VecDeque<(SessionId, usize)>,
    /// Commit log for KV replication: sessions whose committed *private*
    /// context grew since the last [`TieredKvCache::take_commits`] drain,
    /// mapped to their new private token count (shared chunks are
    /// attached by id at the standby, never byte-streamed). Bounded by
    /// the session count (one entry per session, overwritten on every
    /// append).
    commit_log: BTreeMap<SessionId, usize>,
    /// Pool of content-addressed shared chunks, keyed by id.
    shared: BTreeMap<ChunkId, SharedChunk>,
    /// Radix index from token prefixes to shared chunk chains.
    index: PrefixIndex,
    stats: CacheStats,
    /// Passive trace sink; `None` (the default) records nothing.
    recorder: Option<SharedRecorder>,
}

/// Builder for [`TieredKvCache`] — the only public construction path.
///
/// # Examples
///
/// ```
/// use pensieve_kvcache::{CacheConfig, TieredKvCache};
///
/// let cache = TieredKvCache::builder(CacheConfig::for_test(32, 2048, 8192))
///     .deep_tiers(16_384, 65_536)
///     .build();
/// assert_eq!(cache.config().ssd_capacity_tokens, 16_384);
/// ```
pub struct TieredKvCacheBuilder {
    cfg: CacheConfig,
    policy: Box<dyn EvictionPolicy>,
    recorder: Option<SharedRecorder>,
}

impl TieredKvCacheBuilder {
    /// Sets the eviction policy (default: [`LruPolicy`]).
    #[must_use]
    pub fn policy(mut self, policy: Box<dyn EvictionPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Enables the SSD (tier-2) and cold (tier-3) capacities, in tokens;
    /// `0` leaves the corresponding tier off. Shorthand for
    /// [`CacheConfig::with_deep_tiers`] on the builder's config.
    #[must_use]
    pub fn deep_tiers(mut self, ssd: usize, cold: usize) -> Self {
        self.cfg = self.cfg.with_deep_tiers(ssd, cold);
        self
    }

    /// Attaches a passive trace recorder from the start.
    #[must_use]
    pub fn recorder(mut self, recorder: SharedRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Builds the cache.
    #[must_use]
    pub fn build(self) -> TieredKvCache {
        let mut cache = TieredKvCache::new(self.cfg, self.policy);
        cache.recorder = self.recorder;
        cache
    }
}

impl fmt::Debug for TieredKvCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TieredKvCache")
            .field("conversations", &self.convs.len())
            .field("gpu_resident", &self.gpu_resident)
            .field("gpu_copied", &self.gpu_copied)
            .field("cpu_resident", &self.cpu_resident)
            .field("ssd_resident", &self.ssd_resident)
            .field("cold_resident", &self.cold_resident)
            .field("policy", &self.policy.name())
            .finish()
    }
}

impl TieredKvCache {
    /// Starts building a cache over `cfg`; see [`TieredKvCacheBuilder`].
    #[must_use]
    pub fn builder(cfg: CacheConfig) -> TieredKvCacheBuilder {
        TieredKvCacheBuilder {
            cfg,
            policy: Box::new(LruPolicy),
            recorder: None,
        }
    }

    /// Creates a cache with the given capacities and eviction policy
    /// (crate-internal; public construction goes through
    /// [`TieredKvCache::builder`]).
    fn new(cfg: CacheConfig, policy: Box<dyn EvictionPolicy>) -> Self {
        let chunk_tokens = cfg.chunk_tokens;
        TieredKvCache {
            cfg,
            policy,
            convs: BTreeMap::new(),
            gpu_resident: 0,
            gpu_copied: 0,
            cpu_resident: 0,
            ssd_resident: 0,
            cold_resident: 0,
            copied_fifo: std::collections::VecDeque::new(),
            commit_log: BTreeMap::new(),
            shared: BTreeMap::new(),
            index: PrefixIndex::new(chunk_tokens),
            stats: CacheStats::default(),
            recorder: None,
        }
    }

    /// Attaches a trace recorder. Recording is passive: eviction, drop
    /// and restore decisions are identical with or without it.
    pub fn set_recorder(&mut self, recorder: Option<SharedRecorder>) {
        self.recorder = recorder;
    }

    /// The cache configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// GPU slots in use (resident + lazily-copied).
    #[must_use]
    pub fn gpu_slots_used(&self) -> usize {
        self.gpu_resident + self.gpu_copied
    }

    /// Strictly free GPU slots (no reclamation needed).
    #[must_use]
    pub fn gpu_free_strict(&self) -> usize {
        self.cfg.gpu_capacity_tokens - self.gpu_slots_used()
    }

    /// Effectively free GPU slots: strictly free plus lazily-reclaimable
    /// copies.
    #[must_use]
    pub fn gpu_free_effective(&self) -> usize {
        self.cfg.gpu_capacity_tokens - self.gpu_resident
    }

    /// CPU tokens in use (CPU-resident + lazy copies).
    #[must_use]
    pub fn cpu_used(&self) -> usize {
        self.cpu_resident + self.gpu_copied
    }

    /// SSD (tier-2) tokens in use.
    #[must_use]
    pub fn ssd_used(&self) -> usize {
        self.ssd_resident
    }

    /// Cold-store (tier-3) tokens in use.
    #[must_use]
    pub fn cold_used(&self) -> usize {
        self.cold_resident
    }

    /// Lazily-copied tokens belonging to `conv`.
    fn copied_tokens_of(&self, conv: SessionId) -> usize {
        self.convs.get(&conv).map_or(0, |e| {
            e.chunks
                .iter()
                .filter(|c| c.tier == Tier::GpuCopied)
                .map(|c| c.tokens)
                .sum()
        })
    }

    /// GPU tokens effectively free for *new allocations of `conv`*:
    /// strictly free slots plus copies reclaimable from other
    /// conversations. `conv`'s own lazy copies are excluded — they are
    /// revalidated in place on restore, not reclaimed, so they cannot
    /// back new slots.
    #[must_use]
    pub fn gpu_free_effective_for(&self, conv: SessionId) -> usize {
        self.gpu_free_effective() - self.copied_tokens_of(conv)
    }

    /// Tokens of `conv` currently tracked (0 if unknown).
    #[must_use]
    pub fn conversation_tokens(&self, conv: SessionId) -> usize {
        self.convs.get(&conv).map_or(0, ConvEntry::total_tokens)
    }

    /// All tracked conversations, in ascending id order.
    #[must_use]
    pub fn sessions(&self) -> Vec<SessionId> {
        self.convs.keys().copied().collect()
    }

    /// Per-chunk manifest entries of `conv` in context order, regardless
    /// of tier (a dropped chunk still shapes the layout): the shared
    /// chain's content-addressed ids first, then private chunks as
    /// [`ChunkId::NONE`]. Empty for unknown conversations. This is what
    /// a cold-tier manifest records.
    #[must_use]
    pub fn manifest_chunks(&self, conv: SessionId) -> Vec<ManifestChunk> {
        let Some(e) = self.convs.get(&conv) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(e.shared.len() + e.chunks.len());
        for id in &e.shared {
            let tokens = self.shared.get(id).map_or(0, |s| s.tokens);
            out.push(ManifestChunk { id: *id, tokens });
        }
        for c in &e.chunks {
            out.push(ManifestChunk {
                id: ChunkId::NONE,
                tokens: c.tokens,
            });
        }
        out
    }

    /// True if the conversation has tracked context.
    #[must_use]
    pub fn contains(&self, conv: SessionId) -> bool {
        self.convs.contains_key(&conv)
    }

    /// Marks a conversation as part of the running batch: its chunks are
    /// exempt from eviction.
    pub fn pin(&mut self, conv: SessionId) {
        self.set_pinned(conv, true);
    }

    /// Clears the running-batch pin.
    pub fn unpin(&mut self, conv: SessionId) {
        self.set_pinned(conv, false);
    }

    /// Central pin transition: keeps each shared chunk's pinned-sharer
    /// refcount consistent by adjusting it exactly once per state change.
    fn set_pinned(&mut self, conv: SessionId, pinned: bool) {
        let Some(e) = self.convs.get_mut(&conv) else {
            return;
        };
        if e.pinned == pinned {
            return;
        }
        e.pinned = pinned;
        for id in e.shared.clone() {
            if let Some(s) = self.shared.get_mut(&id) {
                if pinned {
                    s.pinned_refs += 1;
                } else {
                    s.pinned_refs = s.pinned_refs.saturating_sub(1);
                }
            }
        }
    }

    /// Updates a conversation's last-active time (shared chain included).
    pub fn touch(&mut self, conv: SessionId, now: SimTime) {
        if let Some(e) = self.convs.get_mut(&conv) {
            e.last_active = now;
            for id in e.shared.clone() {
                if let Some(s) = self.shared.get_mut(&id) {
                    s.last_active = now;
                }
            }
        }
    }

    /// Computes the Figure-5 restore plan for `conv` without mutating
    /// anything: the shared chain first (in chain order), then the
    /// private chunks. Unknown conversations yield an empty plan.
    #[must_use]
    pub fn plan_restore(&self, conv: SessionId) -> RequestPlan {
        let Some(e) = self.convs.get(&conv) else {
            return RequestPlan::default();
        };
        let mut plan = RequestPlan::default();
        let mut pos = 0;
        let shared_states = e.shared.iter().filter_map(|id| {
            self.shared.get(id).map(|s| {
                (
                    ChunkState {
                        tier: s.tier,
                        tokens: s.tokens,
                        context_end: s.context_end,
                    },
                    true,
                )
            })
        });
        for (c, is_shared) in shared_states.chain(e.chunks.iter().map(|c| (*c, false))) {
            let range = pos..pos + c.tokens;
            match c.tier {
                Tier::Gpu => plan.gpu_hit_tokens += c.tokens,
                Tier::GpuCopied => plan.revalidate_tokens += c.tokens,
                Tier::Cpu => plan.swap_in_tokens += c.tokens,
                Tier::Ssd => plan.ssd_read_tokens += c.tokens,
                Tier::Cold => plan.cold_read_tokens += c.tokens,
                Tier::Dropped => plan.recompute_tokens += c.tokens,
            }
            if is_shared && c.tier != Tier::Dropped {
                plan.shared_hit_tokens += c.tokens;
            }
            // Merge adjacent ranges of the same effective segment kind
            // (GPU and GpuCopied both count as resident hits).
            let kind = match c.tier {
                Tier::Gpu | Tier::GpuCopied => Tier::Gpu,
                t => t,
            };
            match plan.segments.last_mut() {
                Some((r, t)) if *t == kind && r.end == range.start => r.end = range.end,
                _ => plan.segments.push((range, kind)),
            }
            pos += c.tokens;
        }
        plan
    }

    /// Commits a restore: revalidates lazy copies, swaps CPU chunks in,
    /// marks dropped chunks as recomputed-on-GPU, pins and touches the
    /// conversation, and updates statistics.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::OutOfGpu`] (without mutating) if the plan's
    /// new slots exceed effectively-free GPU space.
    pub fn commit_restore(
        &mut self,
        conv: SessionId,
        now: SimTime,
    ) -> Result<RequestPlan, CacheError> {
        let plan = self.plan_restore(conv);
        let needed = plan.new_gpu_slots();
        if needed > self.gpu_free_effective_for(conv) {
            return Err(CacheError::OutOfGpu {
                needed,
                free: self.gpu_free_effective_for(conv),
            });
        }
        self.reclaim_gpu_slots(needed, Some(conv));
        // Promote the shared chain first: one physical promotion serves
        // every sharer, and later sharers restore it as a free GPU hit.
        let chain = self
            .convs
            .get(&conv)
            .map_or_else(Vec::new, |e| e.shared.clone());
        for id in chain {
            let Some(s) = self.shared.get_mut(&id) else {
                continue;
            };
            match s.tier {
                Tier::Gpu => {}
                Tier::Cpu => {
                    self.cpu_resident -= s.tokens;
                    self.gpu_resident += s.tokens;
                    self.stats.swapped_in_tokens += s.tokens as u64;
                    s.tier = Tier::Gpu;
                }
                Tier::Ssd => {
                    self.ssd_resident -= s.tokens;
                    self.gpu_resident += s.tokens;
                    s.tier = Tier::Gpu;
                }
                Tier::Cold => {
                    self.cold_resident -= s.tokens;
                    self.gpu_resident += s.tokens;
                    s.tier = Tier::Gpu;
                }
                Tier::Dropped => {
                    self.gpu_resident += s.tokens;
                    s.tier = Tier::Gpu;
                }
                // Shared chunks never hold lazy GPU copies.
                Tier::GpuCopied => {}
            }
            s.last_active = now;
        }
        if let Some(e) = self.convs.get_mut(&conv) {
            for c in e.chunks.iter_mut() {
                match c.tier {
                    Tier::Gpu => {}
                    Tier::GpuCopied => {
                        // Revalidate: discard the CPU copy, keep the slot.
                        self.gpu_copied -= c.tokens;
                        self.gpu_resident += c.tokens;
                        self.stats.revalidated_tokens += c.tokens as u64;
                        c.tier = Tier::Gpu;
                    }
                    Tier::Cpu => {
                        self.cpu_resident -= c.tokens;
                        self.gpu_resident += c.tokens;
                        self.stats.swapped_in_tokens += c.tokens as u64;
                        c.tier = Tier::Gpu;
                    }
                    Tier::Ssd => {
                        self.ssd_resident -= c.tokens;
                        self.gpu_resident += c.tokens;
                        c.tier = Tier::Gpu;
                    }
                    Tier::Cold => {
                        self.cold_resident -= c.tokens;
                        self.gpu_resident += c.tokens;
                        c.tier = Tier::Gpu;
                    }
                    Tier::Dropped => {
                        self.gpu_resident += c.tokens;
                        c.tier = Tier::Gpu;
                    }
                }
            }
            e.last_active = now;
        }
        self.set_pinned(conv, true);
        self.stats.gpu_hit_tokens += (plan.gpu_hit_tokens + plan.revalidate_tokens) as u64;
        self.stats.cpu_hit_tokens += plan.swap_in_tokens as u64;
        self.stats.ssd_hit_tokens += plan.ssd_read_tokens as u64;
        self.stats.cold_hit_tokens += plan.cold_read_tokens as u64;
        self.stats.recomputed_tokens += plan.recompute_tokens as u64;
        self.stats.shared_hit_tokens += plan.shared_hit_tokens as u64;
        if plan.gpu_hit_tokens
            + plan.revalidate_tokens
            + plan.swap_in_tokens
            + plan.deep_read_tokens()
            + plan.recompute_tokens
            > 0
        {
            if plan.is_full_gpu_hit() {
                self.stats.full_gpu_hits += 1;
            } else {
                self.stats.partial_hits += 1;
            }
        }
        if self.recorder.enabled() {
            if plan.revalidate_tokens > 0 {
                self.recorder.record(TraceEvent::Revalidated {
                    at: now,
                    conv: conv.0,
                    tokens: plan.revalidate_tokens,
                });
            }
            if plan.swap_in_tokens > 0 {
                self.recorder.record(TraceEvent::SwapInCommitted {
                    at: now,
                    conv: conv.0,
                    tokens: plan.swap_in_tokens,
                });
            }
            if plan.ssd_read_tokens > 0 {
                self.recorder.record(TraceEvent::TierReadCommitted {
                    at: now,
                    conv: conv.0,
                    tokens: plan.ssd_read_tokens,
                    tier: StorageTier::Ssd,
                });
            }
            if plan.cold_read_tokens > 0 {
                self.recorder.record(TraceEvent::TierReadCommitted {
                    at: now,
                    conv: conv.0,
                    tokens: plan.cold_read_tokens,
                    tier: StorageTier::Cold,
                });
            }
            if plan.recompute_tokens > 0 {
                self.recorder.record(TraceEvent::RecomputeCommitted {
                    at: now,
                    conv: conv.0,
                    tokens: plan.recompute_tokens,
                });
            }
        }
        debug_assert!(self.check_invariants());
        Ok(plan)
    }

    /// Appends `n` freshly-computed tokens to `conv` in the GPU tier,
    /// creating the conversation if needed.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::OutOfGpu`] if effectively-free space is
    /// insufficient.
    ///
    /// # Panics
    ///
    /// Panics if the conversation's trailing chunk is not GPU-resident —
    /// callers must [`TieredKvCache::commit_restore`] first.
    pub fn append_tokens(
        &mut self,
        conv: SessionId,
        n: usize,
        now: SimTime,
    ) -> Result<(), CacheError> {
        if n > self.gpu_free_effective_for(conv) {
            return Err(CacheError::OutOfGpu {
                needed: n,
                free: self.gpu_free_effective_for(conv),
            });
        }
        self.reclaim_gpu_slots(n, Some(conv));
        let chunk_tokens = self.cfg.chunk_tokens;
        let e = self.convs.entry(conv).or_insert_with(|| ConvEntry {
            shared: Vec::new(),
            shared_tokens: 0,
            chunks: Vec::new(),
            last_active: now,
            pinned: true,
        });
        let mut remaining = n;
        let mut pos = e.total_tokens();
        while remaining > 0 {
            if let Some(last) = e.chunks.last_mut() {
                if last.tokens < chunk_tokens {
                    assert_eq!(
                        last.tier,
                        Tier::Gpu,
                        "appending into a non-resident trailing chunk"
                    );
                    let add = remaining.min(chunk_tokens - last.tokens);
                    last.tokens += add;
                    last.context_end += add;
                    pos += add;
                    remaining -= add;
                    continue;
                }
            }
            let add = remaining.min(chunk_tokens);
            e.chunks.push(ChunkState {
                tier: Tier::Gpu,
                tokens: add,
                context_end: pos + add,
            });
            pos += add;
            remaining -= add;
        }
        e.last_active = now;
        let committed = e.private_tokens();
        self.commit_log.insert(conv, committed);
        self.gpu_resident += n;
        debug_assert!(self.check_invariants());
        Ok(())
    }

    /// Drains the KV commit log: every session whose committed context
    /// grew since the previous drain, with its new total token count, in
    /// `SessionId` order. Replication streams consume this to learn what
    /// delta to ship to the standby; without a consumer the log stays
    /// bounded at one entry per live session.
    pub fn take_commits(&mut self) -> Vec<(SessionId, usize)> {
        let log = std::mem::take(&mut self.commit_log);
        log.into_iter().collect()
    }

    /// Ahead-of-time swap-out (§4.3.2): if strictly-free GPU slots are
    /// below the watermark, copies policy-chosen chunks to the CPU tier
    /// until the watermark is met or no candidate remains. Chunks that the
    /// CPU tier cannot hold (and nothing droppable remains) are dropped
    /// directly.
    ///
    /// Returns the operations performed, for transfer timing.
    pub fn maybe_swap_out(&mut self, now: SimTime) -> Vec<SwapOutOp> {
        self.swap_out_until(self.cfg.swap_trigger_tokens(), now)
    }

    /// Evicts (copies or drops) policy-chosen chunks until at least
    /// `target_free` GPU tokens are effectively free, or no candidate
    /// remains. Used both for the watermark-triggered ahead-of-time pass
    /// and for forced eviction when an admission cannot fit.
    pub fn swap_out_until(&mut self, target_free: usize, now: SimTime) -> Vec<SwapOutOp> {
        self.swap_out_until_for(target_free, None, now)
    }

    /// [`TieredKvCache::swap_out_until`] targeting the effective space
    /// available *to `for_conv`* (see
    /// [`TieredKvCache::gpu_free_effective_for`]): that conversation's own
    /// chunks are not eviction candidates, since demoting them cannot
    /// create space for its restore.
    pub fn swap_out_until_for(
        &mut self,
        target_free: usize,
        for_conv: Option<SessionId>,
        now: SimTime,
    ) -> Vec<SwapOutOp> {
        let trigger = target_free;
        let free = |cache: &Self| match for_conv {
            Some(c) => cache.gpu_free_effective_for(c),
            None => cache.gpu_free_effective(),
        };
        let mut ops = Vec::new();
        // Target *effective* free space: a copied chunk's GPU slot is
        // reclaimed lazily, so the copy itself already makes room.
        if free(self) >= trigger {
            return ops;
        }
        // One candidate collection per pass: the GPU eviction order and
        // (lazily) each lower tier's demotion order are snapshots walked
        // in sorted order, which keeps the pass O(n log n) instead of
        // O(n^2).
        let mut candidates = self.collect_candidates(Tier::Gpu, now, false);
        if let Some(c) = for_conv {
            candidates.retain(|&(v, _)| !matches!(v, Victim::Conv(conv, _) if conv == c));
        }
        let mut queues = EvictQueues::default();
        let conversation_granularity = self.policy.granularity() == Granularity::Conversation;
        let mut active_conv: Option<SessionId> = None;
        for (victim, _) in candidates {
            let finishing = conversation_granularity
                && matches!(victim, Victim::Conv(conv, _) if Some(conv) == active_conv);
            // Conversation-granularity policies finish the conversation
            // they started evicting before honoring the watermark.
            if free(self) >= trigger && !finishing {
                break;
            }
            let (conv, idx) = match victim {
                Victim::Conv(conv, idx) => (conv, idx),
                Victim::Shared(id) => {
                    // A shared GPU chunk is either moved to the CPU tier
                    // (a real transfer — every sharer still references
                    // it) or, when only unreferenced, dropped outright.
                    let Some(tokens) = self
                        .shared
                        .get(&id)
                        .filter(|s| s.tier == Tier::Gpu && s.pinned_refs == 0 && !s.global)
                        .map(|s| s.tokens)
                    else {
                        continue;
                    };
                    let copied = self.ensure_cpu_space_with(tokens, now, &mut queues);
                    let Some(s) = self.shared.get_mut(&id) else {
                        continue;
                    };
                    let refs = s.refs;
                    if copied {
                        s.tier = Tier::Cpu;
                        self.gpu_resident -= tokens;
                        self.cpu_resident += tokens;
                        self.stats.swapped_out_tokens += tokens as u64;
                    } else if refs == 0 {
                        s.tier = Tier::Dropped;
                        self.gpu_resident -= tokens;
                        self.stats.dropped_tokens += tokens as u64;
                    } else {
                        // Referenced but nowhere to put it: keep it
                        // resident rather than burn every sharer.
                        continue;
                    }
                    self.recorder.record(TraceEvent::SharedChunkEvicted {
                        at: now,
                        chunk: id.0,
                        tokens,
                        refs,
                        dropped: !copied,
                    });
                    ops.push(SwapOutOp {
                        conv: SessionId(0),
                        chunk: 0,
                        tokens,
                        dropped: !copied,
                        shared: Some(id),
                    });
                    continue;
                }
            };
            active_conv = Some(conv);
            // Candidates were collected from `convs` this pass, but the
            // walk is total anyway: a missing entry is skipped, not a
            // panic on the eviction path.
            let Some(tokens) = self
                .convs
                .get(&conv)
                .and_then(|e| e.chunks.get(idx))
                .map(|c| c.tokens)
            else {
                continue;
            };
            // Make CPU room; if impossible, drop the chunk instead.
            let copied = self.ensure_cpu_space_with(tokens, now, &mut queues);
            let Some(c) = self
                .convs
                .get_mut(&conv)
                .and_then(|e| e.chunks.get_mut(idx))
            else {
                continue;
            };
            debug_assert_eq!(c.tier, Tier::Gpu);
            self.gpu_resident -= tokens;
            if copied {
                c.tier = Tier::GpuCopied;
                self.gpu_copied += tokens;
                self.copied_fifo.push_back((conv, idx));
                self.stats.swapped_out_tokens += tokens as u64;
            } else {
                c.tier = Tier::Dropped;
                self.stats.dropped_tokens += tokens as u64;
            }
            self.recorder.record(TraceEvent::ChunkEvicted {
                at: now,
                conv: conv.0,
                chunk: idx,
                tokens,
                dropped: !copied,
            });
            ops.push(SwapOutOp {
                conv,
                chunk: idx,
                tokens,
                dropped: !copied,
                shared: None,
            });
        }
        debug_assert!(self.check_invariants());
        ops
    }

    /// Suspends a running request (§4.3.5): moves all its GPU-resident
    /// chunks to the CPU tier immediately and unpins it. Returns the
    /// number of tokens that must be transferred.
    pub fn suspend(&mut self, conv: SessionId, now: SimTime) -> usize {
        self.set_pinned(conv, false);
        let Some(e) = self.convs.get_mut(&conv) else {
            return 0;
        };
        let mut to_move = Vec::new();
        for (i, c) in e.chunks.iter().enumerate() {
            match c.tier {
                Tier::Gpu => to_move.push((i, c.tokens, false)),
                Tier::GpuCopied => to_move.push((i, c.tokens, true)),
                _ => {}
            }
        }
        let mut transferred = 0;
        for (i, tokens, already_copied) in to_move {
            if already_copied {
                // The CPU already holds a copy; just release the GPU slot.
                let Some(c) = self.convs.get_mut(&conv).and_then(|e| e.chunks.get_mut(i)) else {
                    continue;
                };
                c.tier = Tier::Cpu;
                self.gpu_copied -= tokens;
                self.cpu_resident += tokens;
                continue;
            }
            let copied = self.ensure_cpu_space(tokens, now);
            // ensure_cpu_space only demotes or drops host-tier chunks
            // and never removes a conversation entry, but the walk stays
            // total.
            let Some(c) = self.convs.get_mut(&conv).and_then(|e| e.chunks.get_mut(i)) else {
                continue;
            };
            self.gpu_resident -= tokens;
            if copied {
                c.tier = Tier::Cpu;
                self.cpu_resident += tokens;
                self.stats.swapped_out_tokens += tokens as u64;
                transferred += tokens;
            } else {
                c.tier = Tier::Dropped;
                self.stats.dropped_tokens += tokens as u64;
            }
        }
        self.recorder.record(TraceEvent::Suspended {
            at: now,
            conv: conv.0,
            tokens: transferred,
        });
        debug_assert!(self.check_invariants());
        transferred
    }

    /// Removes a conversation and frees all its private space, releasing
    /// its shared-chain references. A shared chunk whose last reference
    /// is released here stays in the pool (still resident, still
    /// indexed) but becomes fully evictable and falls out of the
    /// hierarchy under pressure.
    pub fn remove_conversation(&mut self, conv: SessionId) {
        self.set_pinned(conv, false);
        self.commit_log.remove(&conv);
        if let Some(e) = self.convs.remove(&conv) {
            for id in &e.shared {
                if let Some(s) = self.shared.get_mut(id) {
                    s.refs = s.refs.saturating_sub(1);
                }
            }
            for c in &e.chunks {
                match c.tier {
                    Tier::Gpu => self.gpu_resident -= c.tokens,
                    Tier::GpuCopied => self.gpu_copied -= c.tokens,
                    Tier::Cpu => self.cpu_resident -= c.tokens,
                    Tier::Ssd => self.ssd_resident -= c.tokens,
                    Tier::Cold => self.cold_resident -= c.tokens,
                    Tier::Dropped => {}
                }
            }
        }
        debug_assert!(self.check_invariants());
    }

    /// Removes `session` from this cache and returns a portable snapshot
    /// of its chunk layout for handoff to another replica. All resident
    /// chunks (GPU, lazily-copied, CPU, SSD, cold) are staged as
    /// [`Tier::Cpu`] in the export — the wire format carries host-memory
    /// bytes, so deep-tier chunks are read up before transfer;
    /// already-[`Tier::Dropped`] chunks stay dropped and
    /// become recompute obligations at the target. Returns `None` if the
    /// session is unknown or pinned in the running batch — pinned
    /// sessions must finish or be suspended before export.
    pub fn export_session(&mut self, session: SessionId) -> Option<SessionExport> {
        if self.convs.get(&session).is_none_or(|e| e.pinned) {
            return None;
        }
        self.commit_log.remove(&session);
        let e = self.convs.remove(&session)?;
        // Shared chunks travel by reference, never by bytes: the export
        // names their ids so the target can re-attach any it already
        // holds. The local references are released here; a chunk whose
        // last sharer departs stays pooled but becomes fully evictable.
        let mut shared = Vec::with_capacity(e.shared.len());
        for id in &e.shared {
            let tokens = self.shared.get(id).map_or(0, |s| s.tokens);
            shared.push(SharedChunkRef { id: *id, tokens });
            if let Some(s) = self.shared.get_mut(id) {
                s.refs = s.refs.saturating_sub(1);
            }
        }
        let mut chunks = e.chunks;
        for c in &mut chunks {
            match c.tier {
                Tier::Gpu => {
                    self.gpu_resident -= c.tokens;
                    c.tier = Tier::Cpu;
                }
                Tier::GpuCopied => {
                    self.gpu_copied -= c.tokens;
                    c.tier = Tier::Cpu;
                }
                Tier::Cpu => self.cpu_resident -= c.tokens,
                Tier::Ssd => {
                    self.ssd_resident -= c.tokens;
                    c.tier = Tier::Cpu;
                }
                Tier::Cold => {
                    self.cold_resident -= c.tokens;
                    c.tier = Tier::Cpu;
                }
                Tier::Dropped => {}
            }
        }
        debug_assert!(self.check_invariants());
        Some(SessionExport {
            session,
            chunks,
            shared,
        })
    }

    /// Installs a handed-off session snapshot into this cache's host
    /// tiers. Chunks are admitted in context order at the tier the
    /// snapshot names (peer exports stage everything as [`Tier::Cpu`];
    /// rehydrated manifests may carry [`Tier::Ssd`]/[`Tier::Cold`]
    /// placements); once a tier's capacity is exhausted the remainder is
    /// demoted to [`Tier::Dropped`] (counted in
    /// [`CacheStats::dropped_tokens`]) and recomputed on the next
    /// restore. Imports never evict existing residents — a migrated-in
    /// conversation has no claim over the target's warm cache. Returns
    /// the tokens admitted to resident tiers.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::SessionExists`] if the session is already
    /// tracked here; the cache is unchanged.
    pub fn import_session(
        &mut self,
        export: SessionExport,
        now: SimTime,
    ) -> Result<usize, CacheError> {
        if self.convs.contains_key(&export.session) {
            return Err(CacheError::SessionExists(export.session));
        }
        // Re-attach the leading run of shared chunks this cache already
        // pools (bytes never travel for shared state — only ids do). The
        // first unknown id breaks prefix continuity, so it and everything
        // after it become private recompute obligations.
        let mut shared_ids: Vec<ChunkId> = Vec::new();
        let mut shared_tokens = 0usize;
        let mut unknown: Vec<SharedChunkRef> = Vec::new();
        for r in &export.shared {
            if r.tokens == 0 {
                continue;
            }
            if unknown.is_empty() && self.shared.contains_key(&r.id) {
                shared_ids.push(r.id);
                shared_tokens += r.tokens;
            } else {
                unknown.push(*r);
            }
        }
        let mut admitted = 0usize;
        for id in &shared_ids {
            if let Some(s) = self.shared.get_mut(id) {
                s.refs += 1;
                s.last_active = now;
                if s.tier != Tier::Dropped {
                    admitted += s.tokens;
                }
            }
        }
        if !shared_ids.is_empty() {
            self.recorder.record(TraceEvent::SharedAttached {
                at: now,
                conv: export.session.0,
                tokens: shared_tokens,
                chunks: shared_ids.len(),
            });
        }
        // Normalize to local chunk granularity: exports from a peer cache
        // are already chunk-sized (this is a no-op), but replication
        // deltas arrive as one chunk per flush and must be split to keep
        // the eviction policy's unit of work intact. Unattached shared
        // spans lead the private chain as dropped chunks so the context
        // offsets stay contiguous.
        let mut chunks: Vec<ChunkState> = Vec::with_capacity(export.chunks.len() + unknown.len());
        let mut unknown_end = shared_tokens;
        for r in &unknown {
            unknown_end += r.tokens;
            chunks.push(ChunkState {
                tier: Tier::Dropped,
                tokens: r.tokens,
                context_end: unknown_end,
            });
            self.stats.dropped_tokens += r.tokens as u64;
        }
        for c in export.chunks {
            let mut remaining = c.tokens;
            let mut end = c.context_end - c.tokens;
            while remaining > 0 {
                let take = remaining.min(self.cfg.chunk_tokens);
                end += take;
                chunks.push(ChunkState {
                    tier: c.tier,
                    tokens: take,
                    context_end: end,
                });
                remaining -= take;
            }
        }
        for c in &mut chunks {
            match c.tier {
                Tier::Cpu => {
                    if self.cpu_used() + c.tokens <= self.cfg.cpu_capacity_tokens {
                        self.cpu_resident += c.tokens;
                        admitted += c.tokens;
                    } else {
                        c.tier = Tier::Dropped;
                        self.stats.dropped_tokens += c.tokens as u64;
                    }
                }
                Tier::Ssd => {
                    if self.ssd_resident + c.tokens <= self.cfg.ssd_capacity_tokens {
                        self.ssd_resident += c.tokens;
                        admitted += c.tokens;
                    } else {
                        c.tier = Tier::Dropped;
                        self.stats.dropped_tokens += c.tokens as u64;
                    }
                }
                Tier::Cold => {
                    if self.cold_resident + c.tokens <= self.cfg.cold_capacity_tokens {
                        self.cold_resident += c.tokens;
                        admitted += c.tokens;
                    } else {
                        c.tier = Tier::Dropped;
                        self.stats.dropped_tokens += c.tokens as u64;
                    }
                }
                Tier::Dropped => {}
                Tier::Gpu | Tier::GpuCopied => {
                    // Exports are CPU-staged by construction; a stray
                    // GPU-tier chunk carries no transferable bytes here.
                    c.tier = Tier::Dropped;
                    self.stats.dropped_tokens += c.tokens as u64;
                }
            }
        }
        self.convs.insert(
            export.session,
            ConvEntry {
                shared: shared_ids,
                shared_tokens,
                chunks,
                last_active: now,
                pinned: false,
            },
        );
        debug_assert!(self.check_invariants());
        Ok(admitted)
    }

    /// Every chunk with a CPU-tier copy ([`Tier::Cpu`] or
    /// [`Tier::GpuCopied`]), as `(conversation, chunk index, tokens)` in a
    /// deterministic `(conversation, index)` order. The fault injector
    /// picks loss/corruption victims from this listing; `convs` is a
    /// `BTreeMap`, so the walk is ordered by construction and no
    /// post-sort is needed.
    #[must_use]
    pub fn cpu_resident_chunks(&self) -> Vec<(SessionId, usize, usize)> {
        let mut out: Vec<(SessionId, usize, usize)> = Vec::new();
        for (&cid, e) in &self.convs {
            for (i, c) in e.chunks.iter().enumerate() {
                if matches!(c.tier, Tier::Cpu | Tier::GpuCopied) {
                    out.push((cid, i, c.tokens));
                }
            }
        }
        out
    }

    /// Applies a host-memory-loss fault to a chunk's CPU-tier copy:
    /// [`Tier::Cpu`] chunks become [`Tier::Dropped`] (recompute on next
    /// restore); [`Tier::GpuCopied`] chunks lose only the copy and revert
    /// to [`Tier::Gpu`] (the GPU bytes are intact). Returns the tokens
    /// affected.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownConversation`] or
    /// [`CacheError::ChunkNotInCpuTier`] if the addressed chunk holds no
    /// CPU-tier copy; the cache is unchanged.
    pub fn mark_chunk_lost(&mut self, conv: SessionId, chunk: usize) -> Result<usize, CacheError> {
        let tokens = self.invalidate_cpu_copy(conv, chunk)?;
        self.stats.lost_chunk_tokens += tokens as u64;
        Ok(tokens)
    }

    /// Applies a corruption fault: identical state transition to
    /// [`TieredKvCache::mark_chunk_lost`] (a checksum-mismatched copy is
    /// unusable), but counted separately in
    /// [`CacheStats::corrupted_chunk_tokens`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`TieredKvCache::mark_chunk_lost`].
    pub fn mark_chunk_corrupt(
        &mut self,
        conv: SessionId,
        chunk: usize,
    ) -> Result<usize, CacheError> {
        let tokens = self.invalidate_cpu_copy(conv, chunk)?;
        self.stats.corrupted_chunk_tokens += tokens as u64;
        Ok(tokens)
    }

    /// Shared state transition for loss/corruption of a CPU-tier copy.
    fn invalidate_cpu_copy(&mut self, conv: SessionId, chunk: usize) -> Result<usize, CacheError> {
        let e = self
            .convs
            .get_mut(&conv)
            .ok_or(CacheError::UnknownConversation(conv))?;
        let Some(c) = e.chunks.get_mut(chunk) else {
            return Err(CacheError::ChunkNotInCpuTier { conv, chunk });
        };
        let tokens = c.tokens;
        match c.tier {
            Tier::Cpu => {
                c.tier = Tier::Dropped;
                self.cpu_resident -= tokens;
            }
            Tier::GpuCopied => {
                // The GPU still holds the bytes; only the copy is gone.
                // The chunk's copied_fifo entry goes stale and is skipped
                // at reclamation (tier check at pop).
                c.tier = Tier::Gpu;
                self.gpu_copied -= tokens;
                self.gpu_resident += tokens;
            }
            Tier::Gpu | Tier::Ssd | Tier::Cold | Tier::Dropped => {
                return Err(CacheError::ChunkNotInCpuTier { conv, chunk });
            }
        }
        debug_assert!(self.check_invariants());
        Ok(tokens)
    }

    /// Recompute fallback after persistent swap-in transfer failures:
    /// drops every [`Tier::Cpu`] chunk of `conv` so its next restore plan
    /// recomputes them from raw tokens instead of retrying the transfer.
    /// Returns the tokens dropped (0 for unknown conversations).
    pub fn drop_cpu_chunks(&mut self, conv: SessionId, now: SimTime) -> usize {
        let Some(e) = self.convs.get_mut(&conv) else {
            return 0;
        };
        let mut dropped = 0;
        for (i, c) in e.chunks.iter_mut().enumerate() {
            if c.tier == Tier::Cpu {
                c.tier = Tier::Dropped;
                dropped += c.tokens;
                self.recorder.record(TraceEvent::ChunkDropped {
                    at: now,
                    conv: conv.0,
                    chunk: i,
                    tokens: c.tokens,
                    reason: DropReason::SwapInFault,
                });
            }
        }
        self.cpu_resident -= dropped;
        self.stats.swap_in_fault_tokens += dropped as u64;
        debug_assert!(self.check_invariants());
        dropped
    }

    /// Recompute fallback after a failed deep-tier read: drops every
    /// [`Tier::Ssd`] and [`Tier::Cold`] chunk of `conv` so its next
    /// restore plan recomputes them from raw tokens instead of retrying
    /// the device. Returns the tokens dropped (0 for unknown
    /// conversations).
    pub fn drop_deep_chunks(&mut self, conv: SessionId, now: SimTime) -> usize {
        let Some(e) = self.convs.get_mut(&conv) else {
            return 0;
        };
        let mut dropped = 0;
        for (i, c) in e.chunks.iter_mut().enumerate() {
            match c.tier {
                Tier::Ssd => self.ssd_resident -= c.tokens,
                Tier::Cold => self.cold_resident -= c.tokens,
                _ => continue,
            }
            c.tier = Tier::Dropped;
            dropped += c.tokens;
            self.recorder.record(TraceEvent::ChunkDropped {
                at: now,
                conv: conv.0,
                chunk: i,
                tokens: c.tokens,
                reason: DropReason::ColdReadFault,
            });
        }
        self.stats.cold_read_fault_tokens += dropped as u64;
        debug_assert!(self.check_invariants());
        dropped
    }

    /// Rebuilds a session's chunk layout from a persisted manifest after
    /// a restart. The leading run of manifest entries whose
    /// content-addressed ids are still pooled here re-attach as shared
    /// references (no bytes move); the remainder installs at
    /// [`Tier::Cold`] while cold capacity allows, never evicting existing
    /// residents, and past that as [`Tier::Dropped`] recompute
    /// obligations. Returns the tokens recovered without recomputation
    /// (re-attached plus cold-admitted), counted in
    /// [`CacheStats::rehydrated_tokens`].
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::SessionExists`] if the session is already
    /// tracked here; the cache is unchanged.
    pub fn rehydrate_session(
        &mut self,
        session: SessionId,
        manifest: &[ManifestChunk],
        now: SimTime,
    ) -> Result<usize, CacheError> {
        if self.convs.contains_key(&session) {
            return Err(CacheError::SessionExists(session));
        }
        let mut shared_ids: Vec<ChunkId> = Vec::new();
        let mut shared_tokens = 0usize;
        let mut chunks = Vec::with_capacity(manifest.len());
        let mut end = 0usize;
        let mut admitted = 0usize;
        for m in manifest {
            if m.tokens == 0 {
                continue; // Defensive: a manifest never records empty chunks.
            }
            if chunks.is_empty() && m.id != ChunkId::NONE {
                if let Some(s) = self.shared.get_mut(&m.id) {
                    s.refs += 1;
                    s.last_active = now;
                    shared_ids.push(m.id);
                    shared_tokens += m.tokens;
                    end += m.tokens;
                    if s.tier != Tier::Dropped {
                        admitted += m.tokens;
                    }
                    continue;
                }
            }
            end += m.tokens;
            let tier = if self.cold_resident + m.tokens <= self.cfg.cold_capacity_tokens {
                self.cold_resident += m.tokens;
                admitted += m.tokens;
                Tier::Cold
            } else {
                Tier::Dropped
            };
            chunks.push(ChunkState {
                tier,
                tokens: m.tokens,
                context_end: end,
            });
        }
        if !shared_ids.is_empty() {
            self.recorder.record(TraceEvent::SharedAttached {
                at: now,
                conv: session.0,
                tokens: shared_tokens,
                chunks: shared_ids.len(),
            });
        }
        self.convs.insert(
            session,
            ConvEntry {
                shared: shared_ids,
                shared_tokens,
                chunks,
                last_active: now,
                pinned: false,
            },
        );
        self.stats.rehydrated_tokens += admitted as u64;
        debug_assert!(self.check_invariants());
        Ok(admitted)
    }

    /// Frees CPU space for `tokens` by demoting policy-chosen CPU-tier
    /// chunks down the storage hierarchy (dropping them when the deep
    /// tiers are disabled or full). Returns false if space could not be
    /// found (caller should drop instead of copy).
    fn ensure_cpu_space(&mut self, tokens: usize, now: SimTime) -> bool {
        self.ensure_cpu_space_with(tokens, now, &mut EvictQueues::default())
    }

    /// [`TieredKvCache::ensure_cpu_space`] with caller-held eviction
    /// queues: each tier's candidate snapshot is collected at most once
    /// per pass and consumed from the front, entries being re-validated
    /// at use.
    fn ensure_cpu_space_with(
        &mut self,
        tokens: usize,
        now: SimTime,
        queues: &mut EvictQueues,
    ) -> bool {
        if tokens > self.cfg.cpu_capacity_tokens {
            return false;
        }
        while self.cpu_used() + tokens > self.cfg.cpu_capacity_tokens {
            let q = queues.cpu.get_or_insert_with(|| {
                self.collect_candidates(Tier::Cpu, now, false)
                    .into_iter()
                    .map(|(v, _)| v)
                    .collect()
            });
            let Some(victim) = q.pop_front() else {
                return false;
            };
            let (conv, idx) = match victim {
                Victim::Shared(id) => {
                    self.demote_shared_chunk(id, Tier::Cpu, now, queues);
                    continue;
                }
                Victim::Conv(conv, idx) => (conv, idx),
            };
            let Some(e) = self.convs.get(&conv) else {
                continue; // Conversation removed since the snapshot.
            };
            if e.pinned {
                continue; // Re-pinned since the snapshot.
            }
            let Some(c) = e.chunks.get(idx) else {
                continue; // Chunk index stale; snapshot outlived it.
            };
            if c.tier != Tier::Cpu {
                continue; // Tier changed since the snapshot.
            }
            let victim_tokens = c.tokens;
            self.cpu_resident -= victim_tokens;
            self.demote_chunk(conv, idx, victim_tokens, Tier::Cpu, now, queues);
        }
        true
    }

    /// Refcount-aware demotion of a *shared* chunk one tier down: a
    /// still-referenced chunk is only moved when the next tier has room
    /// (its sharers keep it; dropping would burn them all), while an
    /// unreferenced chunk falls through the hierarchy and off the bottom
    /// exactly like a private one. No-op if the chunk is not where the
    /// snapshot said (stale queue entry), pinned, or global.
    fn demote_shared_chunk(
        &mut self,
        id: ChunkId,
        from: Tier,
        now: SimTime,
        queues: &mut EvictQueues,
    ) {
        let Some((tokens, refs)) = self
            .shared
            .get(&id)
            .filter(|s| s.tier == from && s.pinned_refs == 0 && !s.global)
            .map(|s| (s.tokens, s.refs))
        else {
            return;
        };
        // Find space *before* touching source accounting, so a failed
        // placement leaves the chunk exactly where it was.
        let to = if from == Tier::Cpu && self.ensure_ssd_space(tokens, now, queues) {
            Some(Tier::Ssd)
        } else if from != Tier::Cold && self.ensure_cold_space(tokens, now, queues) {
            Some(Tier::Cold)
        } else {
            None
        };
        if to.is_none() && refs > 0 {
            return; // Referenced and nowhere to go: keep it resident.
        }
        let Some(s) = self.shared.get_mut(&id) else {
            return;
        };
        match from {
            Tier::Cpu => self.cpu_resident -= tokens,
            Tier::Ssd => self.ssd_resident -= tokens,
            Tier::Cold => self.cold_resident -= tokens,
            Tier::Gpu | Tier::GpuCopied | Tier::Dropped => return,
        }
        match to {
            Some(Tier::Ssd) => {
                s.tier = Tier::Ssd;
                self.ssd_resident += tokens;
                self.stats.demoted_tokens += tokens as u64;
            }
            Some(_) => {
                s.tier = Tier::Cold;
                self.cold_resident += tokens;
                self.stats.demoted_tokens += tokens as u64;
            }
            None => {
                s.tier = Tier::Dropped;
                self.stats.dropped_tokens += tokens as u64;
            }
        }
        self.recorder.record(TraceEvent::SharedChunkEvicted {
            at: now,
            chunk: id.0,
            tokens,
            refs,
            dropped: to.is_none(),
        });
    }

    /// Moves an evicted chunk one tier down the hierarchy: a CPU victim
    /// lands in the SSD tier (or the cold store when the SSD tier is
    /// disabled), an SSD victim lands in the cold store, and a chunk the
    /// whole hierarchy cannot hold is dropped. The caller has already
    /// removed the chunk from its source tier's accounting.
    fn demote_chunk(
        &mut self,
        conv: SessionId,
        idx: usize,
        tokens: usize,
        from: Tier,
        now: SimTime,
        queues: &mut EvictQueues,
    ) {
        let to = if from == Tier::Cpu && self.ensure_ssd_space(tokens, now, queues) {
            Some((Tier::Ssd, StorageTier::Ssd))
        } else if self.ensure_cold_space(tokens, now, queues) {
            Some((Tier::Cold, StorageTier::Cold))
        } else {
            None
        };
        let Some(c) = self
            .convs
            .get_mut(&conv)
            .and_then(|e| e.chunks.get_mut(idx))
        else {
            return; // Validated by the caller; the walk stays total.
        };
        match to {
            Some((tier, obs_to)) => {
                c.tier = tier;
                match tier {
                    Tier::Ssd => self.ssd_resident += tokens,
                    _ => self.cold_resident += tokens,
                }
                self.stats.demoted_tokens += tokens as u64;
                self.recorder.record(TraceEvent::ChunkDemoted {
                    at: now,
                    conv: conv.0,
                    chunk: idx,
                    tokens,
                    from: if from == Tier::Cpu {
                        StorageTier::Cpu
                    } else {
                        StorageTier::Ssd
                    },
                    to: obs_to,
                });
            }
            None => {
                c.tier = Tier::Dropped;
                self.stats.dropped_tokens += tokens as u64;
                self.recorder.record(TraceEvent::ChunkDropped {
                    at: now,
                    conv: conv.0,
                    chunk: idx,
                    tokens,
                    reason: if from == Tier::Cpu {
                        DropReason::CpuPressure
                    } else {
                        DropReason::ColdPressure
                    },
                });
            }
        }
    }

    /// Frees SSD space for `tokens` by demoting policy-chosen SSD chunks
    /// to the cold store (or dropping them when it is full). Returns
    /// false when the SSD tier is disabled or cannot fit the chunk.
    fn ensure_ssd_space(&mut self, tokens: usize, now: SimTime, queues: &mut EvictQueues) -> bool {
        if tokens > self.cfg.ssd_capacity_tokens {
            return false;
        }
        while self.ssd_resident + tokens > self.cfg.ssd_capacity_tokens {
            let q = queues.ssd.get_or_insert_with(|| {
                self.collect_candidates(Tier::Ssd, now, false)
                    .into_iter()
                    .map(|(v, _)| v)
                    .collect()
            });
            let Some(victim) = q.pop_front() else {
                return false;
            };
            let (conv, idx) = match victim {
                Victim::Shared(id) => {
                    self.demote_shared_chunk(id, Tier::Ssd, now, queues);
                    continue;
                }
                Victim::Conv(conv, idx) => (conv, idx),
            };
            let Some(e) = self.convs.get(&conv) else {
                continue;
            };
            if e.pinned {
                continue;
            }
            let Some(c) = e.chunks.get(idx) else {
                continue;
            };
            if c.tier != Tier::Ssd {
                continue;
            }
            let victim_tokens = c.tokens;
            self.ssd_resident -= victim_tokens;
            self.demote_chunk(conv, idx, victim_tokens, Tier::Ssd, now, queues);
        }
        true
    }

    /// Frees cold-store space for `tokens` by dropping policy-chosen
    /// cold chunks — the bottom of the hierarchy has nowhere further to
    /// demote. Returns false when the cold tier is disabled or cannot
    /// fit the chunk.
    fn ensure_cold_space(&mut self, tokens: usize, now: SimTime, queues: &mut EvictQueues) -> bool {
        if tokens > self.cfg.cold_capacity_tokens {
            return false;
        }
        while self.cold_resident + tokens > self.cfg.cold_capacity_tokens {
            let q = queues.cold.get_or_insert_with(|| {
                self.collect_candidates(Tier::Cold, now, false)
                    .into_iter()
                    .map(|(v, _)| v)
                    .collect()
            });
            let Some(victim) = q.pop_front() else {
                return false;
            };
            let (conv, idx) = match victim {
                Victim::Shared(id) => {
                    // Bottom of the hierarchy: a still-referenced shared
                    // chunk is kept (its sharers outweigh the incomer),
                    // an unreferenced one is dropped.
                    self.demote_shared_chunk(id, Tier::Cold, now, queues);
                    continue;
                }
                Victim::Conv(conv, idx) => (conv, idx),
            };
            let Some(e) = self.convs.get_mut(&conv) else {
                continue;
            };
            if e.pinned {
                continue;
            }
            let Some(c) = e.chunks.get_mut(idx) else {
                continue;
            };
            if c.tier != Tier::Cold {
                continue;
            }
            let victim_tokens = c.tokens;
            c.tier = Tier::Dropped;
            self.cold_resident -= victim_tokens;
            self.stats.dropped_tokens += victim_tokens as u64;
            self.recorder.record(TraceEvent::ChunkDropped {
                at: now,
                conv: conv.0,
                chunk: idx,
                tokens: victim_tokens,
                reason: DropReason::ColdPressure,
            });
        }
        true
    }

    /// Converts lazily-copied chunks back to CPU-only until at least
    /// `needed` strictly-free slots exist. `favored` conversations' copies
    /// are reclaimed last (they are about to be revalidated).
    ///
    /// Runs in amortized O(1) per reclaimed chunk: copies are queued in
    /// copy order (which follows the eviction policy's order) and stale
    /// entries are skipped on pop.
    fn reclaim_gpu_slots(&mut self, needed: usize, favored: Option<SessionId>) {
        if self.gpu_free_strict() >= needed || self.gpu_copied == 0 {
            return;
        }
        let mut kept = Vec::new();
        while self.gpu_free_strict() < needed {
            let Some((conv, idx)) = self.copied_fifo.pop_front() else {
                break;
            };
            if Some(conv) == favored {
                kept.push((conv, idx));
                continue;
            }
            let Some(c) = self
                .convs
                .get_mut(&conv)
                .and_then(|e| e.chunks.get_mut(idx))
            else {
                continue; // Conversation removed; stale entry.
            };
            if c.tier != Tier::GpuCopied {
                continue; // Revalidated/suspended since copying; stale.
            }
            c.tier = Tier::Cpu;
            self.gpu_copied -= c.tokens;
            self.cpu_resident += c.tokens;
        }
        // Favored entries stay queued for future reclamation.
        for entry in kept.into_iter().rev() {
            self.copied_fifo.push_front(entry);
        }
    }

    /// All evictable chunks in `tier` — private chunks of unpinned
    /// conversations plus shared chunks with no pinned sharer — sorted
    /// ascending by (score, victim identity), with the policy's
    /// within-conversation order applied to private chunk indices.
    ///
    /// A shared chunk's score is the policy score *multiplied by its
    /// sharer count*: evicting it burns every sharer's restore, so its
    /// retention value `V = Cost(s, l)/T` scales with the number of
    /// conversations it serves.
    fn collect_candidates(
        &self,
        tier: Tier,
        now: SimTime,
        include_pinned: bool,
    ) -> Vec<(Victim, f64)> {
        let trailing = self.policy.within_order() == WithinOrder::TrailingFirst;
        let mut out: Vec<(Victim, f64)> = Vec::new();
        for (&cid, e) in &self.convs {
            if e.pinned && !include_pinned {
                continue;
            }
            for (i, c) in e.chunks.iter().enumerate() {
                if c.tier == tier {
                    let score = self.policy.score(c, e.last_active, now);
                    out.push((Victim::Conv(cid, i), score));
                }
            }
        }
        for (&id, s) in &self.shared {
            if s.tier != tier || s.global || (s.pinned_refs > 0 && !include_pinned) {
                continue;
            }
            let state = ChunkState {
                tier: s.tier,
                tokens: s.tokens,
                context_end: s.context_end,
            };
            let score = self.policy.score(&state, s.last_active, now) * s.refs.max(1) as f64;
            out.push((Victim::Shared(id), score));
        }
        // total_cmp gives a total order even if a policy ever returned a
        // NaN score (NaN sorts last instead of panicking), and agrees
        // with partial_cmp on the finite scores every in-tree policy
        // produces.
        let conversation_granularity = self.policy.granularity() == Granularity::Conversation;
        out.sort_by(|a, b| {
            a.1.total_cmp(&b.1).then_with(|| match (a.0, b.0) {
                (Victim::Conv(c1, i1), Victim::Conv(c2, i2)) => {
                    c1.cmp(&c2).then(if trailing && !conversation_granularity {
                        i2.cmp(&i1)
                    } else {
                        i1.cmp(&i2)
                    })
                }
                _ => a.0.cmp(&b.0),
            })
        });
        out
    }

    /// Registers `tokens` as a shareable prefix (tool preamble, RAG
    /// document, common system prompt) and returns its content-addressed
    /// chunk chain. Whole chunks only — a trailing partial chunk is not
    /// shareable under chunked eviction and is silently ignored. Chunks
    /// enter the pool at [`Tier::Dropped`] (identity without bytes) and
    /// gain residency the first time a sharer restores them or via
    /// [`TieredKvCache::materialize_global`]. Registering the same
    /// prefix twice is idempotent.
    pub fn register_shared(&mut self, tokens: &[u32], now: SimTime) -> Vec<ChunkId> {
        let chain = self.index.insert(tokens);
        let chunk_tokens = self.index.chunk_tokens();
        let mut end = 0usize;
        for id in &chain {
            end += chunk_tokens;
            if let Some(s) = self.shared.get_mut(id) {
                s.last_active = now;
            } else {
                self.shared.insert(
                    *id,
                    SharedChunk {
                        tokens: chunk_tokens,
                        context_end: end,
                        tier: Tier::Dropped,
                        refs: 0,
                        external_refs: 0,
                        pinned_refs: 0,
                        global: false,
                        last_active: now,
                    },
                );
            }
        }
        chain
    }

    /// Longest registered chunk chain matching a prefix of `tokens` —
    /// the discovery half of sharing. Token bytes are compared at every
    /// hop, so a hash collision shortens the match instead of sharing
    /// the wrong KV.
    #[must_use]
    pub fn lookup_shared(&self, tokens: &[u32]) -> Vec<ChunkId> {
        self.index.longest_match(tokens)
    }

    /// Starts a new conversation whose context begins with the shared
    /// chunk chain `chain` (typically from
    /// [`TieredKvCache::lookup_shared`]): every chunk's reference count
    /// rises by one and no KV bytes are duplicated. Private tokens
    /// appended later sit after the chain. Returns the logical tokens
    /// covered by the chain.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::SessionExists`] if `conv` is already
    /// tracked, [`CacheError::UnknownChunk`] for an unregistered id, or
    /// [`CacheError::BrokenSharedChain`] when the ids are not
    /// consecutive chunks of one prefix. The cache is unchanged on
    /// error.
    pub fn attach_shared(
        &mut self,
        conv: SessionId,
        chain: &[ChunkId],
        now: SimTime,
    ) -> Result<usize, CacheError> {
        if self.convs.contains_key(&conv) {
            return Err(CacheError::SessionExists(conv));
        }
        // Validate the whole chain before mutating anything.
        let mut total = 0usize;
        for id in chain {
            let s = self.shared.get(id).ok_or(CacheError::UnknownChunk(*id))?;
            if s.context_end != total + s.tokens {
                return Err(CacheError::BrokenSharedChain(*id));
            }
            total += s.tokens;
        }
        for id in chain {
            if let Some(s) = self.shared.get_mut(id) {
                s.refs += 1;
                s.last_active = now;
            }
        }
        self.convs.insert(
            conv,
            ConvEntry {
                shared: chain.to_vec(),
                shared_tokens: total,
                chunks: Vec::new(),
                last_active: now,
                pinned: false,
            },
        );
        if !chain.is_empty() {
            self.recorder.record(TraceEvent::SharedAttached {
                at: now,
                conv: conv.0,
                tokens: total,
                chunks: chain.len(),
            });
        }
        debug_assert!(self.check_invariants());
        Ok(total)
    }

    /// Promotes a registered chain to permanent GPU residency — the
    /// deployment-wide tool preamble every request shares. Global chunks
    /// are exempt from eviction; the returned handles hold the explicit
    /// references and must eventually go back through
    /// [`TieredKvCache::release`].
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownChunk`] for an unregistered id,
    /// [`CacheError::RefCountOverflow`] on a saturated chunk, or
    /// [`CacheError::OutOfGpu`] when the non-resident part of the chain
    /// exceeds effectively-free GPU space. The cache is unchanged on
    /// error.
    pub fn materialize_global(
        &mut self,
        chain: &[ChunkId],
        now: SimTime,
    ) -> Result<Vec<ChunkHandle>, CacheError> {
        // Validate everything up front so a failure mutates nothing.
        let mut needed = 0usize;
        for id in chain {
            let s = self.shared.get(id).ok_or(CacheError::UnknownChunk(*id))?;
            if s.refs.checked_add(1).is_none() || s.external_refs.checked_add(1).is_none() {
                return Err(CacheError::RefCountOverflow(*id));
            }
            if s.tier != Tier::Gpu {
                needed += s.tokens;
            }
        }
        if needed > self.gpu_free_effective() {
            return Err(CacheError::OutOfGpu {
                needed,
                free: self.gpu_free_effective(),
            });
        }
        self.reclaim_gpu_slots(needed, None);
        let mut handles = Vec::with_capacity(chain.len());
        for id in chain {
            let Some(s) = self.shared.get_mut(id) else {
                continue; // Validated above; the walk stays total.
            };
            match s.tier {
                Tier::Gpu => {}
                Tier::Cpu => {
                    self.cpu_resident -= s.tokens;
                    self.gpu_resident += s.tokens;
                    self.stats.swapped_in_tokens += s.tokens as u64;
                }
                Tier::Ssd => {
                    self.ssd_resident -= s.tokens;
                    self.gpu_resident += s.tokens;
                }
                Tier::Cold => {
                    self.cold_resident -= s.tokens;
                    self.gpu_resident += s.tokens;
                }
                // Dropped = computed once here; shared chunks never hold
                // lazy GPU copies.
                Tier::Dropped | Tier::GpuCopied => {
                    self.gpu_resident += s.tokens;
                }
            }
            s.tier = Tier::Gpu;
            s.global = true;
            s.refs += 1;
            s.external_refs += 1;
            s.last_active = now;
            handles.push(ChunkHandle {
                id: *id,
                armed: true,
            });
        }
        debug_assert!(self.check_invariants());
        Ok(handles)
    }

    /// Takes an explicit reference on a pooled shared chunk, keeping it
    /// alive independent of any conversation (e.g. while a migration is
    /// in flight). Pair with [`TieredKvCache::release`].
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownChunk`] for an unregistered id or
    /// [`CacheError::RefCountOverflow`] on a saturated chunk.
    pub fn acquire(&mut self, id: ChunkId) -> Result<ChunkHandle, CacheError> {
        let s = self
            .shared
            .get_mut(&id)
            .ok_or(CacheError::UnknownChunk(id))?;
        let refs = s
            .refs
            .checked_add(1)
            .ok_or(CacheError::RefCountOverflow(id))?;
        let external = s
            .external_refs
            .checked_add(1)
            .ok_or(CacheError::RefCountOverflow(id))?;
        s.refs = refs;
        s.external_refs = external;
        Ok(ChunkHandle { id, armed: true })
    }

    /// Gives back an explicit reference taken by
    /// [`TieredKvCache::acquire`] or
    /// [`TieredKvCache::materialize_global`]. Consumes the handle either
    /// way; a handle dropped *without* coming here counts in
    /// [`leaked_chunk_handles`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownChunk`] if the pool no longer knows
    /// the id, or [`CacheError::RefCountUnderflow`] when no matching
    /// acquire is outstanding (a double release through forged handles).
    pub fn release(&mut self, handle: ChunkHandle) -> Result<(), CacheError> {
        let mut handle = handle;
        handle.armed = false;
        let id = handle.id;
        let s = self
            .shared
            .get_mut(&id)
            .ok_or(CacheError::UnknownChunk(id))?;
        if s.external_refs == 0 || s.refs == 0 {
            return Err(CacheError::RefCountUnderflow(id));
        }
        s.external_refs -= 1;
        s.refs -= 1;
        Ok(())
    }

    /// Outstanding references on a pooled shared chunk (0 if unknown):
    /// chain memberships plus explicit handles.
    #[must_use]
    pub fn shared_refs(&self, id: ChunkId) -> usize {
        self.shared.get(&id).map_or(0, |s| s.refs)
    }

    /// Tokens of `conv`'s chain held by *global* (permanently resident)
    /// shared chunks — context the engine serves without charging the
    /// conversation any cache space.
    #[must_use]
    pub fn global_shared_tokens(&self, conv: SessionId) -> usize {
        self.convs.get(&conv).map_or(0, |e| {
            e.shared
                .iter()
                .filter_map(|id| self.shared.get(id))
                .filter(|s| s.global)
                .map(|s| s.tokens)
                .sum()
        })
    }

    /// Logical resident KV tokens: what the cache would hold if every
    /// sharer kept a private copy — each conversation's non-dropped
    /// private chunks plus its chain's non-dropped chunks, counted once
    /// *per sharer*. The denominator of the dedup ratio.
    #[must_use]
    pub fn logical_resident_tokens(&self) -> usize {
        let mut total = 0usize;
        for e in self.convs.values() {
            for id in &e.shared {
                if let Some(s) = self.shared.get(id) {
                    if s.tier != Tier::Dropped {
                        total += s.tokens;
                    }
                }
            }
            total += e
                .chunks
                .iter()
                .filter(|c| c.tier != Tier::Dropped)
                .map(|c| c.tokens)
                .sum::<usize>();
        }
        total
    }

    /// Physical resident KV tokens actually held: non-dropped private
    /// chunks plus each non-dropped pooled shared chunk counted *once*,
    /// however many conversations reference it. The numerator of the
    /// dedup ratio.
    #[must_use]
    pub fn physical_resident_tokens(&self) -> usize {
        let shared: usize = self
            .shared
            .values()
            .filter(|s| s.tier != Tier::Dropped)
            .map(|s| s.tokens)
            .sum();
        let private: usize = self
            .convs
            .values()
            .flat_map(|e| e.chunks.iter())
            .filter(|c| c.tier != Tier::Dropped)
            .map(|c| c.tokens)
            .sum();
        shared + private
    }

    /// Forks `child` from `parent`, sharing the parent's entire current
    /// context instead of copying it. The parent's private chunks are
    /// *promoted* into the shared pool (their physical placement is
    /// untouched; lazy GPU copies revalidate, since shared chunks never
    /// stay [`Tier::GpuCopied`]) under lineage-derived ids, and both
    /// conversations continue from the same chain with refcount 2 per
    /// chunk. Returns the logical tokens now shared.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownConversation`] if `parent` is not
    /// tracked or [`CacheError::SessionExists`] if `child` is. The cache
    /// is unchanged on error.
    pub fn fork_session(
        &mut self,
        parent: SessionId,
        child: SessionId,
        now: SimTime,
    ) -> Result<usize, CacheError> {
        if !self.convs.contains_key(&parent) {
            return Err(CacheError::UnknownConversation(parent));
        }
        if self.convs.contains_key(&child) {
            return Err(CacheError::SessionExists(child));
        }
        let Some(e) = self.convs.get_mut(&parent) else {
            return Err(CacheError::UnknownConversation(parent));
        };
        let parent_pinned = e.pinned;
        let mut chain = std::mem::take(&mut e.shared);
        let private = std::mem::take(&mut e.chunks);
        let mut context_end = e.shared_tokens;
        let mut prev = chain.last().copied().unwrap_or(ChunkId::ROOT);
        // Promote each private chunk under a lineage-derived id: the
        // timing model tracks token *counts*, so identity chains over
        // (parent, position, length) exactly as content ids chain over
        // token bytes — deterministic across replicas and reruns.
        let mut promoted = Vec::with_capacity(private.len());
        for (i, c) in private.iter().enumerate() {
            let id =
                ChunkId::derive_words(prev, &[parent.0, (chain.len() + i) as u64, c.tokens as u64]);
            context_end += c.tokens;
            promoted.push((id, *c));
            prev = id;
        }
        for (id, c) in &promoted {
            let tier = match c.tier {
                // Revalidate the lazy copy: keep the GPU slot, drop the
                // CPU-side copy. The chunk's copied_fifo entry goes
                // stale and is skipped at reclamation.
                Tier::GpuCopied => {
                    self.gpu_copied -= c.tokens;
                    self.gpu_resident += c.tokens;
                    self.stats.revalidated_tokens += c.tokens as u64;
                    Tier::Gpu
                }
                t => t,
            };
            self.shared.insert(
                *id,
                SharedChunk {
                    tokens: c.tokens,
                    context_end: c.context_end,
                    tier,
                    refs: 2,
                    external_refs: 0,
                    pinned_refs: usize::from(parent_pinned),
                    global: false,
                    last_active: now,
                },
            );
            chain.push(*id);
        }
        // Pre-existing chain chunks gain the child as one more sharer.
        for id in chain.iter().take(chain.len() - promoted.len()) {
            if let Some(s) = self.shared.get_mut(id) {
                s.refs += 1;
                s.last_active = now;
            }
        }
        if let Some(e) = self.convs.get_mut(&parent) {
            e.shared.clone_from(&chain);
            e.shared_tokens = context_end;
            e.last_active = now;
        }
        // The parent's committed private context is now shared; the
        // replication stream ships shared state by id, not bytes.
        self.commit_log.remove(&parent);
        self.convs.insert(
            child,
            ConvEntry {
                shared: chain.clone(),
                shared_tokens: context_end,
                chunks: Vec::new(),
                last_active: now,
                pinned: false,
            },
        );
        self.recorder.record(TraceEvent::SharedAttached {
            at: now,
            conv: child.0,
            tokens: context_end,
            chunks: chain.len(),
        });
        debug_assert!(self.check_invariants());
        Ok(context_end)
    }

    /// Verifies internal accounting; used in debug assertions.
    fn check_invariants(&self) -> bool {
        let mut gpu = 0;
        let mut copied = 0;
        let mut cpu = 0;
        let mut ssd = 0;
        let mut cold = 0;
        let mut chain_refs: BTreeMap<ChunkId, usize> = BTreeMap::new();
        let mut chain_pins: BTreeMap<ChunkId, usize> = BTreeMap::new();
        for e in self.convs.values() {
            let mut chain_tokens = 0usize;
            for id in &e.shared {
                assert!(self.shared.contains_key(id), "chain id missing from pool");
                chain_tokens += self.shared.get(id).map_or(0, |s| s.tokens);
                *chain_refs.entry(*id).or_insert(0) += 1;
                if e.pinned {
                    *chain_pins.entry(*id).or_insert(0) += 1;
                }
            }
            assert_eq!(chain_tokens, e.shared_tokens, "shared_tokens drift");
            let mut pos = e.shared_tokens;
            for c in &e.chunks {
                assert!(c.tokens > 0 && c.tokens <= self.cfg.chunk_tokens);
                assert_eq!(c.context_end, pos + c.tokens, "context_end drift");
                pos += c.tokens;
                match c.tier {
                    Tier::Gpu => gpu += c.tokens,
                    Tier::GpuCopied => copied += c.tokens,
                    Tier::Cpu => cpu += c.tokens,
                    Tier::Ssd => ssd += c.tokens,
                    Tier::Cold => cold += c.tokens,
                    Tier::Dropped => {}
                }
            }
        }
        for (id, s) in &self.shared {
            assert!(s.tokens > 0 && s.tokens <= self.cfg.chunk_tokens);
            assert_ne!(s.tier, Tier::GpuCopied, "shared chunk holds a lazy copy");
            match s.tier {
                Tier::Gpu => gpu += s.tokens,
                Tier::Cpu => cpu += s.tokens,
                Tier::Ssd => ssd += s.tokens,
                Tier::Cold => cold += s.tokens,
                Tier::GpuCopied | Tier::Dropped => {}
            }
            let from_chains = chain_refs.get(id).copied().unwrap_or(0);
            assert_eq!(
                s.refs,
                from_chains + s.external_refs,
                "shared refcount drift"
            );
            assert_eq!(
                s.pinned_refs,
                chain_pins.get(id).copied().unwrap_or(0),
                "shared pinned-ref drift"
            );
        }
        assert_eq!(gpu, self.gpu_resident, "gpu_resident drift");
        assert_eq!(copied, self.gpu_copied, "gpu_copied drift");
        assert_eq!(cpu, self.cpu_resident, "cpu_resident drift");
        assert_eq!(ssd, self.ssd_resident, "ssd_resident drift");
        assert_eq!(cold, self.cold_resident, "cold_resident drift");
        assert!(self.gpu_slots_used() <= self.cfg.gpu_capacity_tokens);
        assert!(self.cpu_used() <= self.cfg.cpu_capacity_tokens);
        assert!(self.ssd_resident <= self.cfg.ssd_capacity_tokens);
        assert!(self.cold_resident <= self.cfg.cold_capacity_tokens);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CachedAttentionPolicy, LruPolicy, TrailingEndPolicy};
    use crate::prefix::synthetic_preamble;

    fn lru_cache(gpu: usize, cpu: usize) -> TieredKvCache {
        TieredKvCache::new(CacheConfig::for_test(32, gpu, cpu), Box::new(LruPolicy))
    }

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// Manifest entries for private (non-shared) chunks of the given sizes.
    fn private_manifest(tokens: &[usize]) -> Vec<ManifestChunk> {
        tokens
            .iter()
            .map(|&tokens| ManifestChunk {
                id: ChunkId::NONE,
                tokens,
            })
            .collect()
    }

    #[test]
    fn append_builds_chunks() {
        let mut cache = lru_cache(1000, 1000);
        let c = SessionId(1);
        cache.append_tokens(c, 50, t(0.0)).unwrap();
        assert_eq!(cache.conversation_tokens(c), 50);
        cache.append_tokens(c, 20, t(1.0)).unwrap();
        assert_eq!(cache.conversation_tokens(c), 70);
        assert_eq!(cache.gpu_slots_used(), 70);
        // 70 tokens at chunk 32 = chunks of 32, 32, 6.
        let plan = cache.plan_restore(c);
        assert_eq!(plan.gpu_hit_tokens, 70);
        assert!(plan.is_full_gpu_hit());
    }

    #[test]
    fn export_import_round_trip_preserves_layout() {
        let mut src = lru_cache(1000, 1000);
        let c = SessionId(7);
        src.append_tokens(c, 70, t(0.0)).unwrap();
        src.unpin(c);
        let export = src.export_session(c).expect("unpinned session exports");
        assert!(!src.contains(c));
        assert_eq!(src.gpu_slots_used(), 0);
        assert_eq!(src.cpu_used(), 0);
        assert_eq!(export.streamable_tokens(), 70);
        assert_eq!(export.dropped_tokens(), 0);
        assert!(export.chunks.iter().all(|ch| ch.tier == Tier::Cpu));

        let mut dst = lru_cache(1000, 1000);
        let admitted = dst.import_session(export, t(1.0)).unwrap();
        assert_eq!(admitted, 70);
        assert_eq!(dst.cpu_used(), 70);
        let plan = dst.plan_restore(c);
        assert_eq!(plan.swap_in_tokens, 70);
        assert_eq!(plan.recompute_tokens, 0);
    }

    #[test]
    fn export_refuses_pinned_and_unknown_sessions() {
        let mut cache = lru_cache(1000, 1000);
        let c = SessionId(1);
        cache.append_tokens(c, 40, t(0.0)).unwrap();
        cache.pin(c);
        assert!(cache.export_session(c).is_none());
        assert_eq!(cache.conversation_tokens(c), 40);
        assert!(cache.export_session(SessionId(99)).is_none());
        cache.unpin(c);
        assert!(cache.export_session(c).is_some());
    }

    #[test]
    fn lost_chunks_become_recompute_obligations() {
        let mut src = lru_cache(1000, 1000);
        let c = SessionId(2);
        src.append_tokens(c, 96, t(0.0)).unwrap();
        src.unpin(c);
        let mut export = src.export_session(c).unwrap();
        assert_eq!(export.mark_lost(0), 32);
        assert_eq!(export.mark_lost(0), 0, "double-loss is idempotent");
        assert_eq!(export.streamable_tokens(), 64);
        assert_eq!(export.dropped_tokens(), 32);

        let mut dst = lru_cache(1000, 1000);
        assert_eq!(dst.import_session(export, t(1.0)).unwrap(), 64);
        let plan = dst.plan_restore(c);
        // A dropped leading chunk forces recomputation of the prefix;
        // the surviving CPU chunks behind it are swapped in.
        assert_eq!(plan.recompute_tokens, 32);
        assert_eq!(plan.swap_in_tokens, 64);
    }

    #[test]
    fn import_demotes_past_cpu_capacity() {
        let mut src = lru_cache(1000, 1000);
        let c = SessionId(3);
        src.append_tokens(c, 96, t(0.0)).unwrap();
        src.unpin(c);
        let export = src.export_session(c).unwrap();

        // Target CPU tier only fits one 32-token chunk.
        let mut dst = lru_cache(1000, 40);
        let before = dst.stats().dropped_tokens;
        assert_eq!(dst.import_session(export, t(1.0)).unwrap(), 32);
        assert_eq!(dst.stats().dropped_tokens - before, 64);
        assert_eq!(dst.conversation_tokens(c), 96);
        assert_eq!(dst.cpu_used(), 32);
    }

    #[test]
    fn import_rejects_existing_session() {
        let mut a = lru_cache(1000, 1000);
        let c = SessionId(4);
        a.append_tokens(c, 32, t(0.0)).unwrap();
        a.unpin(c);
        let export = a.export_session(c).unwrap();

        let mut b = lru_cache(1000, 1000);
        b.append_tokens(c, 32, t(0.0)).unwrap();
        assert!(matches!(
            b.import_session(export, t(1.0)),
            Err(CacheError::SessionExists(s)) if s == c
        ));
        assert_eq!(b.conversation_tokens(c), 32);
    }

    #[test]
    fn append_rejects_overflow() {
        let mut cache = lru_cache(64, 64);
        let c = SessionId(1);
        assert!(matches!(
            cache.append_tokens(c, 65, t(0.0)),
            Err(CacheError::OutOfGpu { needed: 65, .. })
        ));
        assert_eq!(cache.conversation_tokens(c), 0);
    }

    #[test]
    fn watermark_triggers_ahead_of_time_swap() {
        // Capacity 128, watermark 25% -> swap when effective free < 32.
        let mut cache = lru_cache(128, 1000);
        let a = SessionId(1);
        cache.append_tokens(a, 64, t(0.0)).unwrap();
        cache.unpin(a);
        // 64 free (50%): above the watermark, nothing to do.
        assert!(cache.maybe_swap_out(t(0.5)).is_empty());
        cache.append_tokens(a, 36, t(1.0)).unwrap();
        cache.unpin(a);
        // 28 effectively free -> copy exactly one 32-token chunk.
        let ops = cache.maybe_swap_out(t(1.5));
        assert_eq!(ops.len(), 1);
        assert!(!ops[0].dropped);
        assert_eq!(ops[0].tokens, 32);
        assert!(cache.gpu_free_effective() >= 32);
        // The copied chunk still revalidates for free on return.
        let plan = cache.plan_restore(a);
        assert_eq!(plan.revalidate_tokens, 32);
        assert_eq!(plan.swap_in_tokens, 0);
    }

    #[test]
    fn revalidation_restores_for_free() {
        let mut cache = lru_cache(128, 1000);
        let a = SessionId(1);
        cache.append_tokens(a, 100, t(0.0)).unwrap();
        cache.unpin(a);
        let ops = cache.maybe_swap_out(t(1.0));
        assert_eq!(ops.len(), 1, "one chunk copied reaches the watermark");
        let plan = cache.commit_restore(a, t(2.0)).unwrap();
        assert_eq!(plan.new_gpu_slots(), 0, "revalidation costs nothing");
        assert_eq!(cache.stats().revalidated_tokens, 32);
        assert_eq!(cache.stats().swapped_in_tokens, 0);
        assert!(cache.stats().full_gpu_hits == 1);
    }

    #[test]
    fn lazy_copies_reclaimed_under_pressure_then_swapped_in() {
        let mut cache = lru_cache(128, 1000);
        let a = SessionId(1);
        cache.append_tokens(a, 100, t(0.0)).unwrap();
        cache.unpin(a);
        cache.maybe_swap_out(t(1.0));
        // A second conversation consumes the reclaimable slots.
        let b = SessionId(2);
        cache.append_tokens(b, 60, t(2.0)).unwrap();
        // A's copied chunk lost its GPU slot.
        let plan = cache.plan_restore(a);
        assert_eq!(plan.swap_in_tokens, 32);
        assert_eq!(plan.revalidate_tokens, 0);
        // B must release space before A can restore (b drops from gpu).
        cache.unpin(b);
        cache.suspend(b, t(3.0));
        let plan = cache.commit_restore(a, t(3.0)).unwrap();
        assert_eq!(plan.new_gpu_slots(), 32);
        assert_eq!(cache.stats().swapped_in_tokens, 32);
        assert_eq!(cache.stats().partial_hits, 1);
    }

    #[test]
    fn chunk_too_big_for_cpu_tier_is_dropped() {
        // CPU tier smaller than one chunk: eviction must drop, not copy.
        let mut cache = lru_cache(128, 16);
        let a = SessionId(1);
        cache.append_tokens(a, 128, t(0.0)).unwrap();
        cache.unpin(a);
        let ops = cache.maybe_swap_out(t(1.0));
        assert_eq!(ops.len(), 1);
        assert!(ops[0].dropped);
        assert_eq!(ops[0].chunk, 0, "leading chunk goes first under LRU");
        assert_eq!(cache.stats().dropped_tokens, 32);
    }

    #[test]
    fn cpu_pressure_drops_cpu_chunks_leading_first() {
        let mut cache = lru_cache(192, 64);
        // Conversation A is suspended to CPU (64 tokens fill the tier).
        let a = SessionId(1);
        cache.append_tokens(a, 64, t(0.0)).unwrap();
        cache.suspend(a, t(1.0));
        assert_eq!(cache.cpu_used(), 64);
        // Conversation B fills the GPU and triggers eviction; copying B's
        // chunk requires dropping A's leading CPU chunk.
        let b = SessionId(2);
        cache.append_tokens(b, 192, t(2.0)).unwrap();
        cache.unpin(b);
        let ops = cache.maybe_swap_out(t(3.0));
        assert!(!ops.is_empty());
        assert!(!ops[0].dropped, "B's chunk was copied, not dropped");
        assert!(cache.stats().dropped_tokens >= 32, "A lost a CPU chunk");
        let plan_a = cache.plan_restore(a);
        assert!(plan_a.recompute_tokens >= 32);
        assert_eq!(
            plan_a.segments.first().map(|(r, t)| (r.clone(), *t)),
            Some((0..64, Tier::Dropped)),
            "A's chunks dropped from the leading end"
        );
    }

    #[test]
    fn restore_plan_splits_figure5_segments() {
        let mut cache = lru_cache(128, 64);
        let a = SessionId(1);
        cache.append_tokens(a, 128, t(0.0)).unwrap();
        // Suspending with a CPU tier that holds only two chunks: chunks
        // 0 and 1 get copied but are then dropped to make room for 2 and
        // 3, leaving the paper's Figure-5 layout — dropped prefix, CPU
        // middle.
        cache.suspend(a, t(1.0));
        let plan = cache.plan_restore(a);
        assert_eq!(plan.recompute_tokens, 64);
        assert_eq!(plan.swap_in_tokens, 64);
        assert_eq!(plan.segments.len(), 2);
        assert_eq!(plan.segments[0], (0..64, Tier::Dropped));
        assert_eq!(plan.segments[1], (64..128, Tier::Cpu));
        assert_eq!(plan.recompute_ranges(), vec![0..64]);
        assert!(!plan.is_full_gpu_hit());
        assert_eq!(plan.new_gpu_slots(), 128);
    }

    #[test]
    fn suspend_moves_everything_off_gpu() {
        let mut cache = lru_cache(256, 1000);
        let a = SessionId(1);
        cache.append_tokens(a, 100, t(0.0)).unwrap();
        let moved = cache.suspend(a, t(1.0));
        assert_eq!(moved, 100);
        assert_eq!(cache.gpu_slots_used(), 0);
        let plan = cache.plan_restore(a);
        assert_eq!(plan.swap_in_tokens, 100);
    }

    #[test]
    fn pinned_conversations_are_not_evicted() {
        let mut cache = lru_cache(128, 1000);
        let a = SessionId(1);
        cache.append_tokens(a, 120, t(0.0)).unwrap();
        // Still pinned: swap-out finds no candidates.
        let ops = cache.maybe_swap_out(t(1.0));
        assert!(ops.is_empty());
        cache.unpin(a);
        assert!(!cache.maybe_swap_out(t(1.0)).is_empty());
    }

    #[test]
    fn lru_evicts_least_recently_active_conversation() {
        let mut cache = lru_cache(96, 1000);
        let (a, b) = (SessionId(1), SessionId(2));
        cache.append_tokens(a, 32, t(0.0)).unwrap();
        cache.append_tokens(b, 32, t(5.0)).unwrap();
        cache.unpin(a);
        cache.unpin(b);
        // 32 free = 33% > 25%: no swap yet. Add one more chunk.
        let c = SessionId(3);
        cache.append_tokens(c, 32, t(6.0)).unwrap();
        let ops = cache.maybe_swap_out(t(7.0));
        assert_eq!(ops[0].conv, a, "oldest conversation evicted first");
    }

    #[test]
    fn whole_conversation_policy_takes_all_chunks_of_one_conv() {
        let mut cache = TieredKvCache::new(
            CacheConfig::for_test(32, 192, 1000),
            Box::new(CachedAttentionPolicy),
        );
        let (a, b) = (SessionId(1), SessionId(2));
        cache.append_tokens(a, 64, t(0.0)).unwrap();
        cache.append_tokens(b, 96, t(5.0)).unwrap();
        cache.unpin(a);
        cache.unpin(b);
        // 32 free < 48 trigger: evict. Policy must take both of A's chunks
        // before any of B's.
        let ops = cache.maybe_swap_out(t(6.0));
        assert!(ops.len() >= 2);
        assert!(ops[0].conv == a && ops[1].conv == a);
    }

    #[test]
    fn trailing_policy_evicts_from_the_back() {
        let mut cache = TieredKvCache::new(
            CacheConfig::for_test(32, 128, 1000),
            Box::new(TrailingEndPolicy),
        );
        let a = SessionId(1);
        cache.append_tokens(a, 128, t(0.0)).unwrap();
        cache.unpin(a);
        let ops = cache.maybe_swap_out(t(1.0));
        assert_eq!(ops[0].chunk, 3, "trailing chunk first");
    }

    #[test]
    fn remove_conversation_frees_all_tiers() {
        let mut cache = lru_cache(128, 64);
        let a = SessionId(1);
        cache.append_tokens(a, 128, t(0.0)).unwrap();
        cache.unpin(a);
        cache.maybe_swap_out(t(1.0));
        cache.remove_conversation(a);
        assert_eq!(cache.gpu_slots_used(), 0);
        assert_eq!(cache.cpu_used(), 0);
        assert_eq!(cache.conversation_tokens(a), 0);
    }

    #[test]
    fn commit_restore_fails_without_space_and_is_side_effect_free() {
        let mut cache = lru_cache(96, 1000);
        let a = SessionId(1);
        cache.append_tokens(a, 96, t(0.0)).unwrap();
        cache.unpin(a);
        cache.suspend(a, t(1.0));
        // Fill the GPU with another pinned conversation.
        let b = SessionId(2);
        cache.append_tokens(b, 96, t(2.0)).unwrap();
        let before = cache.plan_restore(a);
        assert!(cache.commit_restore(a, t(3.0)).is_err());
        assert_eq!(cache.plan_restore(a), before, "failed commit mutated state");
    }

    /// Retention-value eviction order: cheap-to-recompute leading chunks
    /// of long-idle conversations go first; an active conversation's
    /// trailing chunk goes last.
    #[test]
    fn retention_value_orders_evictions() {
        use crate::policy::RetentionValuePolicy;
        use pensieve_model::{CostModel, HardwareSpec, ModelConfig, ProfiledCostTable};
        let cost = CostModel::new(ModelConfig::opt_13b(), HardwareSpec::azure_nc_a100(1));
        let policy = RetentionValuePolicy::new(ProfiledCostTable::profile(&cost, 32, 16384));
        let mut cache = TieredKvCache::new(CacheConfig::for_test(32, 512, 4096), Box::new(policy));
        // Conversation A: long context, idle since t=0.
        let a = SessionId(1);
        cache.append_tokens(a, 256, t(0.0)).unwrap();
        cache.unpin(a);
        // Conversation B: short context, active recently.
        let b = SessionId(2);
        cache.append_tokens(b, 128, t(100.0)).unwrap();
        cache.unpin(b);
        // Force deep eviction.
        let ops = cache.swap_out_until(512, t(101.0));
        assert!(!ops.is_empty());
        // The very first eviction is A's leading chunk (idle + cheap).
        assert_eq!(ops[0].conv, a);
        assert_eq!(ops[0].chunk, 0);
        // All of A's chunks go before any of B's (A idle 101 s vs 1 s —
        // the idle-time ratio dominates the cost ratio here).
        let first_b = ops.iter().position(|o| o.conv == b);
        let last_a = ops.iter().rposition(|o| o.conv == a);
        if let (Some(fb), Some(la)) = (first_b, last_a) {
            assert!(la < fb, "A (idle) must evict before B (recent)");
        }
        // Within A, chunks leave leading-end first.
        let a_chunks: Vec<usize> = ops
            .iter()
            .filter(|o| o.conv == a)
            .map(|o| o.chunk)
            .collect();
        let mut sorted = a_chunks.clone();
        sorted.sort_unstable();
        assert_eq!(a_chunks, sorted, "leading chunks evicted first");
    }

    /// Stale lazy-copy FIFO entries (revalidated chunks) are skipped, and
    /// re-copied chunks reclaim correctly afterwards.
    #[test]
    fn reclamation_skips_revalidated_copies() {
        let mut cache = lru_cache(128, 1000);
        let a = SessionId(1);
        cache.append_tokens(a, 100, t(0.0)).unwrap();
        cache.unpin(a);
        // Copy one chunk out, then revalidate it by restoring A.
        assert_eq!(cache.maybe_swap_out(t(1.0)).len(), 1);
        cache.commit_restore(a, t(2.0)).unwrap();
        assert_eq!(cache.stats().revalidated_tokens, 32);
        cache.unpin(a);
        // Copy again; the stale FIFO entry must not confuse reclamation.
        cache.append_tokens(a, 4, t(3.0)).unwrap();
        cache.unpin(a);
        let ops = cache.maybe_swap_out(t(4.0));
        assert!(!ops.is_empty());
        // A new conversation forces reclamation of the fresh copy.
        let b = SessionId(2);
        cache.append_tokens(b, 50, t(5.0)).unwrap();
        assert!(cache.gpu_slots_used() <= 128);
        let plan = cache.plan_restore(a);
        assert!(plan.swap_in_tokens >= 32, "fresh copy was reclaimed to CPU");
    }

    #[test]
    fn lost_cpu_chunk_becomes_dropped_and_recomputes() {
        let mut cache = lru_cache(256, 1000);
        let a = SessionId(1);
        cache.append_tokens(a, 64, t(0.0)).unwrap();
        cache.suspend(a, t(1.0));
        let listing = cache.cpu_resident_chunks();
        assert_eq!(listing, vec![(a, 0, 32), (a, 1, 32)]);
        let tokens = cache.mark_chunk_lost(a, 0).unwrap();
        assert_eq!(tokens, 32);
        assert_eq!(cache.stats().lost_chunk_tokens, 32);
        let plan = cache.plan_restore(a);
        assert_eq!(plan.recompute_tokens, 32);
        assert_eq!(plan.swap_in_tokens, 32);
        // A second fault on the same chunk is rejected: no CPU copy left.
        assert_eq!(
            cache.mark_chunk_lost(a, 0),
            Err(CacheError::ChunkNotInCpuTier { conv: a, chunk: 0 })
        );
    }

    #[test]
    fn corrupted_lazy_copy_reverts_to_gpu_resident() {
        let mut cache = lru_cache(128, 1000);
        let a = SessionId(1);
        cache.append_tokens(a, 100, t(0.0)).unwrap();
        cache.unpin(a);
        // One chunk gets lazily copied by the watermark pass.
        assert_eq!(cache.maybe_swap_out(t(1.0)).len(), 1);
        let listing = cache.cpu_resident_chunks();
        assert_eq!(listing.len(), 1);
        let (conv, idx, _) = listing[0];
        let tokens = cache.mark_chunk_corrupt(conv, idx).unwrap();
        assert_eq!(tokens, 32);
        assert_eq!(cache.stats().corrupted_chunk_tokens, 32);
        // The GPU bytes were never touched: a restore is still a full hit.
        let plan = cache.plan_restore(a);
        assert!(plan.is_full_gpu_hit());
        assert_eq!(cache.cpu_used(), 0);
        // The stale copied_fifo entry must not break later reclamation.
        let b = SessionId(2);
        cache.append_tokens(b, 28, t(2.0)).unwrap();
        assert!(cache.gpu_slots_used() <= 128);
    }

    #[test]
    fn drop_cpu_chunks_forces_recompute_fallback() {
        let mut cache = lru_cache(256, 1000);
        let a = SessionId(1);
        cache.append_tokens(a, 96, t(0.0)).unwrap();
        cache.suspend(a, t(1.0));
        assert_eq!(cache.drop_cpu_chunks(a, t(2.0)), 96);
        assert_eq!(cache.stats().swap_in_fault_tokens, 96);
        assert_eq!(cache.cpu_used(), 0);
        let plan = cache.plan_restore(a);
        assert_eq!(plan.swap_in_tokens, 0);
        assert_eq!(plan.recompute_tokens, 96);
        // Idempotent and safe on unknown conversations.
        assert_eq!(cache.drop_cpu_chunks(a, t(2.0)), 0);
        assert_eq!(cache.drop_cpu_chunks(SessionId(99), t(2.0)), 0);
    }

    #[test]
    fn fault_apis_reject_unknown_targets() {
        let mut cache = lru_cache(64, 64);
        assert_eq!(
            cache.mark_chunk_lost(SessionId(9), 0),
            Err(CacheError::UnknownConversation(SessionId(9)))
        );
        let a = SessionId(1);
        cache.append_tokens(a, 32, t(0.0)).unwrap();
        // GPU-resident chunk has no CPU copy.
        assert_eq!(
            cache.mark_chunk_corrupt(a, 0),
            Err(CacheError::ChunkNotInCpuTier { conv: a, chunk: 0 })
        );
        // Out-of-range chunk index.
        assert!(cache.mark_chunk_lost(a, 7).is_err());
    }

    #[test]
    fn unknown_conversation_has_empty_plan() {
        let cache = lru_cache(10, 10);
        let plan = cache.plan_restore(SessionId(42));
        assert_eq!(plan, RequestPlan::default());
        assert!(plan.is_full_gpu_hit());
    }

    fn deep_cache(gpu: usize, cpu: usize, ssd: usize, cold: usize) -> TieredKvCache {
        TieredKvCache::new(
            CacheConfig::for_test(32, gpu, cpu).with_deep_tiers(ssd, cold),
            Box::new(LruPolicy),
        )
    }

    #[test]
    fn eviction_cascades_down_the_tier_hierarchy() {
        // One 32-token chunk per host tier: each suspension pushes the
        // previous resident one tier further down until the oldest falls
        // off the bottom.
        let mut cache = deep_cache(128, 32, 32, 32);
        let (a, b, c, d) = (SessionId(1), SessionId(2), SessionId(3), SessionId(4));
        for (i, s) in [a, b, c, d].into_iter().enumerate() {
            let at = t(2.0 * i as f64);
            cache.append_tokens(s, 32, at).unwrap();
            cache.suspend(s, t(2.0 * i as f64 + 1.0));
        }
        let tier_of = |cache: &TieredKvCache, s: SessionId| {
            cache
                .plan_restore(s)
                .segments
                .first()
                .map(|(_, tier)| *tier)
                .unwrap()
        };
        assert_eq!(tier_of(&cache, a), Tier::Dropped, "oldest fell off");
        assert_eq!(tier_of(&cache, b), Tier::Cold);
        assert_eq!(tier_of(&cache, c), Tier::Ssd);
        assert_eq!(tier_of(&cache, d), Tier::Cpu);
        assert_eq!(cache.cpu_used(), 32);
        assert_eq!(cache.ssd_used(), 32);
        assert_eq!(cache.cold_used(), 32);
        // a: cpu->ssd, ssd->cold; b: cpu->ssd, ssd->cold; c: cpu->ssd.
        assert_eq!(cache.stats().demoted_tokens, 160);
        assert_eq!(cache.stats().dropped_tokens, 32);
    }

    #[test]
    fn deep_tier_chunks_restore_as_hits() {
        let mut cache = deep_cache(128, 32, 32, 32);
        let (a, b, c) = (SessionId(1), SessionId(2), SessionId(3));
        for (i, s) in [a, b, c].into_iter().enumerate() {
            let at = t(2.0 * i as f64);
            cache.append_tokens(s, 32, at).unwrap();
            cache.suspend(s, t(2.0 * i as f64 + 1.0));
        }
        // a is cold, b is SSD, c is CPU.
        let plan_b = cache.plan_restore(b);
        assert_eq!(plan_b.ssd_read_tokens, 32);
        assert_eq!(plan_b.new_gpu_slots(), 32);
        assert!(!plan_b.is_full_gpu_hit());
        let committed = cache.commit_restore(b, t(10.0)).unwrap();
        assert_eq!(committed.ssd_read_tokens, 32);
        assert_eq!(cache.stats().ssd_hit_tokens, 32);
        assert_eq!(cache.ssd_used(), 0, "SSD chunk promoted to GPU");

        let plan_a = cache.plan_restore(a);
        assert_eq!(plan_a.cold_read_tokens, 32);
        cache.commit_restore(a, t(11.0)).unwrap();
        assert_eq!(cache.stats().cold_hit_tokens, 32);
        assert_eq!(cache.cold_used(), 0);
        // Both restores were served entirely from the deep tiers.
        assert_eq!(cache.stats().hit_rate(), 1.0);
    }

    #[test]
    fn zero_capacity_deep_tiers_reduce_to_two_tier_dropping() {
        // with_deep_tiers(0, 0) is the default everywhere: CPU pressure
        // must drop, exactly as before this hierarchy existed.
        let mut cache = deep_cache(128, 32, 0, 0);
        let (a, b) = (SessionId(1), SessionId(2));
        cache.append_tokens(a, 32, t(0.0)).unwrap();
        cache.suspend(a, t(1.0));
        cache.append_tokens(b, 32, t(2.0)).unwrap();
        cache.suspend(b, t(3.0));
        assert_eq!(cache.stats().demoted_tokens, 0);
        assert_eq!(cache.stats().dropped_tokens, 32);
        assert_eq!(cache.plan_restore(a).recompute_tokens, 32);
    }

    #[test]
    fn drop_deep_chunks_forces_recompute() {
        let mut cache = deep_cache(128, 32, 32, 32);
        let (a, b) = (SessionId(1), SessionId(2));
        cache.append_tokens(a, 32, t(0.0)).unwrap();
        cache.suspend(a, t(1.0));
        cache.append_tokens(b, 32, t(2.0)).unwrap();
        cache.suspend(b, t(3.0));
        // a is on SSD now; a failed device read drops it for recompute.
        assert_eq!(cache.drop_deep_chunks(a, t(4.0)), 32);
        assert_eq!(cache.stats().cold_read_fault_tokens, 32);
        assert_eq!(cache.ssd_used(), 0);
        assert_eq!(cache.plan_restore(a).recompute_tokens, 32);
        // Unknown conversations and warm sessions are no-ops.
        assert_eq!(cache.drop_deep_chunks(SessionId(9), t(4.0)), 0);
        assert_eq!(cache.drop_deep_chunks(b, t(4.0)), 0);
    }

    #[test]
    fn rehydrate_installs_cold_chunks_up_to_capacity() {
        let mut cache = deep_cache(128, 32, 32, 64);
        let a = SessionId(7);
        // Three chunks, cold tier fits two: trailing chunk drops to a
        // recompute obligation.
        assert_eq!(
            cache
                .rehydrate_session(a, &private_manifest(&[32, 32, 32]), t(0.0))
                .unwrap(),
            64
        );
        assert_eq!(cache.cold_used(), 64);
        assert_eq!(cache.stats().rehydrated_tokens, 64);
        assert_eq!(cache.conversation_tokens(a), 96);
        let plan = cache.plan_restore(a);
        assert_eq!(plan.cold_read_tokens, 64);
        assert_eq!(plan.recompute_tokens, 32);
        // Restoring after rehydration promotes the cold chunks to GPU.
        cache.commit_restore(a, t(1.0)).unwrap();
        assert_eq!(cache.stats().cold_hit_tokens, 64);
        assert_eq!(cache.cold_used(), 0);
        // A second rehydration of a live session is rejected unchanged.
        assert!(matches!(
            cache.rehydrate_session(a, &private_manifest(&[32]), t(2.0)),
            Err(CacheError::SessionExists(s)) if s == a
        ));
    }

    #[test]
    fn deep_tiers_round_trip_through_export_import() {
        let mut src = deep_cache(128, 32, 32, 32);
        let (a, b) = (SessionId(1), SessionId(2));
        src.append_tokens(a, 32, t(0.0)).unwrap();
        src.suspend(a, t(1.0));
        src.append_tokens(b, 32, t(2.0)).unwrap();
        src.suspend(b, t(3.0));
        // a sits on SSD; export stages it back to CPU for the wire.
        let export = src.export_session(a).unwrap();
        assert_eq!(src.ssd_used(), 0);
        assert!(export.chunks.iter().all(|c| c.tier == Tier::Cpu));

        let mut dst = deep_cache(128, 64, 0, 0);
        assert_eq!(dst.import_session(export, t(4.0)).unwrap(), 32);
        assert_eq!(dst.cpu_used(), 32);
        assert_eq!(dst.plan_restore(a).swap_in_tokens, 32);
    }

    // ---- Cross-conversation shared chunks ----

    #[test]
    fn attach_shares_one_physical_copy_across_sharers() {
        let mut cache = lru_cache(4096, 4096);
        let preamble = synthetic_preamble(1, 96); // 3 chunks of 32
        let chain = cache.register_shared(&preamble, t(0.0));
        assert_eq!(chain.len(), 3);
        assert_eq!(cache.lookup_shared(&preamble), chain);
        for i in 0..4u64 {
            let conv = SessionId(i + 1);
            assert_eq!(cache.attach_shared(conv, &chain, t(0.1)).unwrap(), 96);
            cache.commit_restore(conv, t(0.2)).unwrap();
            cache.append_tokens(conv, 32, t(0.3)).unwrap();
            cache.unpin(conv);
        }
        // First restore computes the chain once; later ones hit it.
        assert_eq!(cache.stats().shared_hit_tokens, 3 * 96);
        for id in &chain {
            assert_eq!(cache.shared_refs(*id), 4);
        }
        // One chain + four private turns, not four chains.
        assert_eq!(cache.physical_resident_tokens(), 96 + 4 * 32);
        assert_eq!(cache.logical_resident_tokens(), 4 * 96 + 4 * 32);
        // Positions: private context starts after the shared chain.
        assert_eq!(cache.conversation_tokens(SessionId(1)), 128);
    }

    #[test]
    fn attach_validates_chain_and_session() {
        let mut cache = lru_cache(1024, 1024);
        let chain = cache.register_shared(&synthetic_preamble(2, 64), t(0.0));
        cache.attach_shared(SessionId(1), &chain, t(0.1)).unwrap();
        assert!(matches!(
            cache.attach_shared(SessionId(1), &chain, t(0.2)),
            Err(CacheError::SessionExists(s)) if s == SessionId(1)
        ));
        assert!(matches!(
            cache.attach_shared(SessionId(2), &[ChunkId(42)], t(0.3)),
            Err(CacheError::UnknownChunk(id)) if id == ChunkId(42)
        ));
        // Out-of-order ids break context continuity.
        let reversed: Vec<ChunkId> = chain.iter().rev().copied().collect();
        assert!(matches!(
            cache.attach_shared(SessionId(2), &reversed, t(0.4)),
            Err(CacheError::BrokenSharedChain(_))
        ));
        assert!(
            !cache.contains(SessionId(2)),
            "failed attach mutates nothing"
        );
    }

    #[test]
    fn shared_chunk_survives_eviction_while_referenced() {
        // GPU fits the shared chunk plus one private chunk; CPU has room.
        let mut cache = lru_cache(64, 256);
        let chain = cache.register_shared(&synthetic_preamble(3, 32), t(0.0));
        let (a, b) = (SessionId(1), SessionId(2));
        cache.attach_shared(a, &chain, t(0.1)).unwrap();
        cache.commit_restore(a, t(0.2)).unwrap();
        cache.append_tokens(a, 32, t(0.3)).unwrap();
        cache.unpin(a);
        // Forcing full free space must evict, but the shared chunk moves
        // to CPU (its sharer still references it) instead of dropping.
        cache.swap_out_until(64, t(1.0));
        assert_eq!(cache.stats().dropped_tokens, 0);
        let plan = cache.plan_restore(a);
        assert_eq!(plan.recompute_tokens, 0);
        // A second sharer attaching later still finds the chunk.
        cache.attach_shared(b, &chain, t(2.0)).unwrap();
        assert_eq!(cache.shared_refs(chain[0]), 2);
        assert!(cache.plan_restore(b).shared_hit_tokens > 0);
    }

    #[test]
    fn last_release_makes_shared_chunk_droppable() {
        let mut cache = lru_cache(64, 0); // no CPU tier: eviction = drop
        let chain = cache.register_shared(&synthetic_preamble(4, 32), t(0.0));
        let a = SessionId(1);
        cache.attach_shared(a, &chain, t(0.1)).unwrap();
        cache.commit_restore(a, t(0.2)).unwrap();
        cache.unpin(a);
        // Referenced with nowhere to go: eviction keeps it resident.
        cache.swap_out_until(64, t(1.0));
        assert_eq!(cache.gpu_slots_used(), 32);
        // Last sharer leaves; now the same pressure drops it.
        cache.remove_conversation(a);
        assert_eq!(cache.shared_refs(chain[0]), 0);
        cache.swap_out_until(64, t(2.0));
        assert_eq!(cache.gpu_slots_used(), 0);
        assert_eq!(cache.stats().dropped_tokens, 32);
        // Identity survives the drop: a new attach recomputes, not errors.
        let b = SessionId(2);
        cache.attach_shared(b, &chain, t(3.0)).unwrap();
        assert_eq!(cache.plan_restore(b).recompute_tokens, 32);
    }

    #[test]
    fn global_chunks_are_never_evicted() {
        let mut cache = lru_cache(96, 0);
        let chain = cache.register_shared(&synthetic_preamble(5, 32), t(0.0));
        let handles = cache.materialize_global(&chain, t(0.0)).unwrap();
        assert_eq!(cache.gpu_slots_used(), 32);
        cache.swap_out_until(96, t(1.0));
        assert_eq!(cache.gpu_slots_used(), 32, "global chunk stays resident");
        for h in handles {
            cache.release(h).unwrap();
        }
        assert_eq!(leaked_chunk_handles(), 0);
    }

    #[test]
    fn handle_refcounts_are_balanced_and_typed() {
        let mut cache = lru_cache(256, 0);
        let chain = cache.register_shared(&synthetic_preamble(6, 32), t(0.0));
        let id = chain[0];
        assert!(matches!(
            cache.acquire(ChunkId(7)),
            Err(CacheError::UnknownChunk(_))
        ));
        let h1 = cache.acquire(id).unwrap();
        let h2 = cache.acquire(id).unwrap();
        assert_eq!(cache.shared_refs(id), 2);
        cache.release(h1).unwrap();
        cache.release(h2).unwrap();
        assert_eq!(cache.shared_refs(id), 0);
        // A forged handle releases into an empty refcount: typed error,
        // no panic, no underflow.
        let forged = ChunkHandle { id, armed: false };
        assert!(matches!(
            cache.release(forged),
            Err(CacheError::RefCountUnderflow(e)) if e == id
        ));
        assert_eq!(cache.shared_refs(id), 0);
    }

    #[test]
    fn fork_shares_parent_history_without_copying() {
        let mut cache = lru_cache(4096, 4096);
        let (parent, child) = (SessionId(1), SessionId(2));
        cache.append_tokens(parent, 96, t(0.0)).unwrap();
        cache.unpin(parent);
        let before_physical = cache.physical_resident_tokens();
        assert_eq!(cache.fork_session(parent, child, t(1.0)).unwrap(), 96);
        // No bytes copied: physical stays put, logical doubles.
        assert_eq!(cache.physical_resident_tokens(), before_physical);
        assert_eq!(cache.logical_resident_tokens(), 2 * before_physical);
        assert_eq!(cache.conversation_tokens(parent), 96);
        assert_eq!(cache.conversation_tokens(child), 96);
        // Both continue independently from the same point.
        cache.commit_restore(parent, t(2.0)).unwrap();
        cache.append_tokens(parent, 32, t(2.1)).unwrap();
        cache.unpin(parent);
        cache.commit_restore(child, t(3.0)).unwrap();
        cache.append_tokens(child, 16, t(3.1)).unwrap();
        cache.unpin(child);
        assert_eq!(cache.conversation_tokens(parent), 128);
        assert_eq!(cache.conversation_tokens(child), 112);
        // Fork errors are typed and non-mutating.
        assert!(matches!(
            cache.fork_session(SessionId(9), SessionId(10), t(4.0)),
            Err(CacheError::UnknownConversation(_))
        ));
        assert!(matches!(
            cache.fork_session(parent, child, t(4.0)),
            Err(CacheError::SessionExists(_))
        ));
    }

    #[test]
    fn manifest_round_trips_shared_chain_through_rehydrate() {
        let mut cache = deep_cache(4096, 64, 64, 256);
        let chain = cache.register_shared(&synthetic_preamble(8, 64), t(0.0));
        let a = SessionId(1);
        cache.attach_shared(a, &chain, t(0.1)).unwrap();
        cache.commit_restore(a, t(0.2)).unwrap();
        cache.append_tokens(a, 32, t(0.3)).unwrap();
        cache.unpin(a);
        let manifest = cache.manifest_chunks(a);
        assert_eq!(manifest.len(), 3);
        assert_eq!(manifest[0].id, chain[0]);
        assert_eq!(manifest[2].id, ChunkId::NONE);
        cache.remove_conversation(a);
        // Rehydration re-attaches the chain (still pooled) and installs
        // the private tail cold.
        let got = cache.rehydrate_session(a, &manifest, t(1.0)).unwrap();
        assert_eq!(got, 96, "64 shared re-attached + 32 cold-admitted");
        assert_eq!(cache.shared_refs(chain[0]), 1);
        assert_eq!(cache.conversation_tokens(a), 96);
        assert_eq!(cache.plan_restore(a).recompute_tokens, 0);
    }

    #[test]
    fn export_releases_and_import_reattaches_shared_chain() {
        let mut src = lru_cache(4096, 4096);
        let mut dst = lru_cache(4096, 4096);
        let preamble = synthetic_preamble(9, 64);
        let chain = src.register_shared(&preamble, t(0.0));
        // The destination knows the same preamble (content addressing
        // derives identical ids).
        assert_eq!(dst.register_shared(&preamble, t(0.0)), chain);
        let a = SessionId(1);
        src.attach_shared(a, &chain, t(0.1)).unwrap();
        src.commit_restore(a, t(0.2)).unwrap();
        src.append_tokens(a, 32, t(0.3)).unwrap();
        src.unpin(a);
        let export = src.export_session(a).unwrap();
        assert_eq!(src.shared_refs(chain[0]), 0, "export releases the ref");
        assert_eq!(export.shared.len(), 2);
        dst.import_session(export, t(1.0)).unwrap();
        assert_eq!(dst.shared_refs(chain[0]), 1);
        assert_eq!(dst.conversation_tokens(a), 96);
        // The chain was never materialized at dst, so it recomputes once
        // — but the private tail transferred as bytes.
        let plan = dst.plan_restore(a);
        assert_eq!(plan.swap_in_tokens, 32);
        assert_eq!(plan.recompute_tokens, 64);
    }
}
