//! A functional (real-math) serving engine for end-to-end validation.
//!
//! [`FunctionalEngine`] serves multi-turn conversations with the tiny
//! transformer from `pensieve-kernels`, exercising every *data-path*
//! mechanism of the paper for real: KV-tokens are retained across turns in
//! the paged GPU pool, evicted block-by-block (leading end first, LRU
//! across conversations) into a host-memory stash, swapped back in on
//! return, and — when the stash overflows — dropped and later *recomputed*
//! from raw tokens as a leading sub-request (paper Figure 8).
//!
//! Because every step does real arithmetic, the integration tests can
//! assert the strongest property the design must preserve: **a stateful
//! engine's output tokens are identical to stateless recomputation from
//! scratch**, no matter how the cache shuffled the data in between.

use std::collections::BTreeMap;

use pensieve_kernels::model::{SegmentInput, SeqInput, TinyModel};
use pensieve_kernels::ops::argmax;
use pensieve_kernels::paged::{BlockId, BlockTable, PagedKvCache};
use pensieve_kvcache::{CacheError, SessionId, TokenChunkStore};
use pensieve_model::ModelConfig;
use pensieve_sim::{FaultCounters, FaultInjector, FaultKind};

/// KV data of one evicted block, for all layers.
struct HostBlock {
    /// Per layer: (K rows, V rows), each `block_size * kv_width` floats.
    layers: Vec<(Vec<f32>, Vec<f32>)>,
    /// FNV-1a over the f32 bit patterns, taken at swap-out. Verified on
    /// swap-in so silent host-memory corruption downgrades to a recompute
    /// instead of poisoning the KV state.
    checksum: u64,
}

/// FNV-1a over the bit patterns of every float in the block.
fn kv_checksum(layers: &[(Vec<f32>, Vec<f32>)]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |xs: &[f32]| {
        for x in xs {
            for b in x.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    };
    for (k, v) in layers {
        eat(k);
        eat(v);
    }
    h
}

struct ConvState {
    table: BlockTable,
    /// Logical clock of last activity, for LRU eviction.
    last_active: u64,
}

/// Configuration of the functional engine's memory system.
#[derive(Debug, Clone)]
pub struct FunctionalConfig {
    /// Tokens per KV block.
    pub block_size: usize,
    /// Physical GPU-pool blocks.
    pub pool_blocks: usize,
    /// Host-stash capacity in blocks (0 disables the CPU tier).
    pub stash_blocks: usize,
    /// Evict when free pool blocks fall below this count.
    pub free_watermark: usize,
}

impl Default for FunctionalConfig {
    fn default() -> Self {
        FunctionalConfig {
            block_size: 4,
            pool_blocks: 64,
            stash_blocks: 64,
            free_watermark: 8,
        }
    }
}

/// The functional serving engine.
pub struct FunctionalEngine {
    model: TinyModel,
    pool: PagedKvCache,
    cfg: FunctionalConfig,
    convs: BTreeMap<SessionId, ConvState>,
    /// Evicted block data keyed by (conversation, logical block index).
    stash: BTreeMap<(SessionId, usize), HostBlock>,
    /// Insertion order of stash entries, for drop-from-front decisions.
    stash_order: Vec<(SessionId, usize)>,
    store: TokenChunkStore,
    clock: u64,
    /// Counters: (swapped_out, swapped_in, dropped, recomputed) blocks.
    swap_out_blocks: u64,
    swap_in_blocks: u64,
    dropped_blocks: u64,
    recomputed_tokens: u64,
    /// Optional deterministic fault source targeting the host stash.
    faults: Option<FaultInjector>,
    /// Stashed blocks destroyed by injected loss.
    lost_blocks: u64,
    /// Stashed blocks whose checksum failed on swap-in.
    corrupt_blocks: u64,
}

impl FunctionalEngine {
    /// Builds an engine with deterministic random weights.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` has a zero block size or pool.
    #[must_use]
    pub fn new(model_cfg: &ModelConfig, seed: u64, cfg: FunctionalConfig) -> Self {
        assert!(cfg.block_size > 0 && cfg.pool_blocks > 0);
        let model = TinyModel::new_random(model_cfg, seed);
        let pool = PagedKvCache::new(
            model.kv_layout(cfg.block_size),
            model_cfg.num_layers,
            cfg.pool_blocks,
        );
        let store = TokenChunkStore::new(cfg.block_size);
        FunctionalEngine {
            model,
            pool,
            cfg,
            convs: BTreeMap::new(),
            stash: BTreeMap::new(),
            stash_order: Vec::new(),
            store,
            clock: 0,
            swap_out_blocks: 0,
            swap_in_blocks: 0,
            dropped_blocks: 0,
            recomputed_tokens: 0,
            faults: None,
            lost_blocks: 0,
            corrupt_blocks: 0,
        }
    }

    /// Installs a deterministic fault injector. Each turn it may destroy a
    /// stashed block (loss) or flip a bit in one (corruption, caught by
    /// the checksum on swap-in); both downgrade to recomputation, so
    /// outputs stay bit-identical to the fault-free run.
    pub fn set_fault_injector(&mut self, faults: FaultInjector) {
        self.faults = Some(faults);
    }

    /// Faults injected so far, if an injector is installed.
    #[must_use]
    pub fn fault_counters(&self) -> Option<&FaultCounters> {
        self.faults.as_ref().map(FaultInjector::counters)
    }

    /// Stashed blocks (destroyed by injected loss, rejected by checksum).
    #[must_use]
    pub fn fault_activity(&self) -> (u64, u64) {
        (self.lost_blocks, self.corrupt_blocks)
    }

    /// The underlying model (for building stateless references).
    #[must_use]
    pub fn model(&self) -> &TinyModel {
        &self.model
    }

    /// Sets the number of worker threads used by the model's batched
    /// compute kernels (see
    /// [`TinyModel::set_threads`]). Served tokens are bit-identical at
    /// every setting, so this is purely a latency knob.
    pub fn set_compute_threads(&mut self, threads: usize) {
        self.model.set_threads(threads);
    }

    /// Full raw history of a conversation, composed back into logical
    /// order from the store's shared chunk chain and private tail.
    #[must_use]
    pub fn history(&self, conv: SessionId) -> Vec<u32> {
        self.store
            .view(conv)
            .map(|v| v.to_vec())
            .unwrap_or_default()
    }

    /// Forks `parent` into a new conversation `child`. The raw-token
    /// history is shared by reference in the chunked store (no tokens
    /// are copied); the child starts with no resident KV and recomputes
    /// lazily on its first turn, so serving it is bit-identical to
    /// serving a fresh conversation fed the parent's full history.
    ///
    /// # Errors
    ///
    /// [`CacheError::UnknownConversation`] if `parent` was never served;
    /// [`CacheError::SessionExists`] if `child` already has history.
    pub fn fork_conversation(
        &mut self,
        parent: SessionId,
        child: SessionId,
    ) -> Result<(), CacheError> {
        self.store.fork(parent, child)
    }

    /// `(physical, logical)` raw-token counts in the chunked store; the
    /// ratio is the store's dedup factor across forked conversations.
    #[must_use]
    pub fn store_dedup(&self) -> (usize, usize) {
        (self.store.physical_tokens(), self.store.logical_tokens())
    }

    /// Blocks swapped out / swapped in / dropped, and tokens recomputed.
    #[must_use]
    pub fn cache_activity(&self) -> (u64, u64, u64, u64) {
        (
            self.swap_out_blocks,
            self.swap_in_blocks,
            self.dropped_blocks,
            self.recomputed_tokens,
        )
    }

    /// Serves one conversation turn: processes `prompt` on top of the
    /// conversation's cached context and greedily decodes `max_new`
    /// tokens. Returns the generated tokens.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty, `max_new` is zero, or the GPU pool is
    /// too small to hold a single turn's working set.
    pub fn serve_turn(&mut self, conv: SessionId, prompt: &[u32], max_new: usize) -> Vec<u32> {
        assert!(!prompt.is_empty() && max_new > 0);
        self.clock += 1;
        self.fault_tick();
        let clock = self.clock;
        let block_size = self.cfg.block_size;
        self.convs.entry(conv).or_insert_with(|| ConvState {
            table: BlockTable::new(block_size),
            last_active: clock,
        });

        // --- Restore phase: swap in or schedule recompute for holes. ---
        let cached_len = self.convs[&conv].table.len();
        let nb = cached_len.div_ceil(self.cfg.block_size);
        let mut recompute_blocks = Vec::new();
        for bi in 0..nb {
            if self.convs[&conv].table.get_block(bi).is_none() {
                recompute_blocks.push(bi);
            }
        }
        // Allocate backing for every hole (evicting others if needed).
        self.make_room(conv, recompute_blocks.len() + 2);
        let mut recompute_ranges: Vec<std::ops::Range<usize>> = Vec::new();
        for bi in recompute_blocks {
            // lint:allow(r1-panic): entry inserted at turn start.
            let state = self.convs.get_mut(&conv).expect("created above");
            let filled = state
                .table
                .refill(&mut self.pool, bi..bi + 1)
                // lint:allow(r1-panic): make_room reserved one block per
                // hole plus slack; serve_turn documents panic semantics.
                .expect("make_room reserved space");
            let (_, phys) = filled[0];
            let stashed = self.stash.remove(&(conv, bi)).and_then(|hb| {
                self.stash_order.retain(|k| *k != (conv, bi));
                if kv_checksum(&hb.layers) == hb.checksum {
                    Some(hb)
                } else {
                    // Corrupted in host memory: discard and recompute.
                    self.corrupt_blocks += 1;
                    None
                }
            });
            if let Some(hb) = stashed {
                // Swap in: copy the stashed data back.
                self.write_host_block(phys, &hb);
                self.swap_in_blocks += 1;
            } else {
                // Dropped: recompute from raw tokens.
                let start = bi * self.cfg.block_size;
                let end = (start + self.cfg.block_size).min(cached_len);
                match recompute_ranges.last_mut() {
                    Some(r) if r.end == start => r.end = end,
                    _ => recompute_ranges.push(start..end),
                }
                self.recomputed_tokens += (end - start) as u64;
            }
        }

        // --- Prefill: recompute segments + (history tail + prompt). ---
        let hist_len = self.store.len(conv);
        debug_assert!(cached_len <= hist_len || hist_len == 0);
        self.store.append(conv, prompt);
        let mut segments = Vec::new();
        for r in &recompute_ranges {
            segments.push(SegmentInput {
                tokens: self
                    .store
                    .view(conv)
                    .and_then(|v| v.slice(r.clone()))
                    // lint:allow(r1-panic): recompute ranges are clipped
                    // to cached_len <= hist_len above; serve_turn
                    // documents its panic semantics.
                    .expect("range clipped"),
                start_pos: r.start,
            });
        }
        // The tail covers raw history beyond the cached context (at least
        // the previous turn's final token) plus the new prompt.
        let tail: Vec<u32> = self
            .store
            .view(conv)
            .and_then(|v| v.slice(cached_len..hist_len))
            // lint:allow(r1-panic): cached_len <= hist_len is asserted
            // above and predates this turn's append; serve_turn documents
            // its panic semantics.
            .expect("tail within history");
        let mut last_seg: Vec<u32> = tail;
        last_seg.extend_from_slice(prompt);
        segments.push(SegmentInput {
            tokens: last_seg,
            start_pos: cached_len,
        });

        // Blocks for the tokens the prefill will append (tail + prompt);
        // decode growth makes room incrementally per step.
        let needed_blocks = (hist_len + prompt.len() - cached_len) / self.cfg.block_size + 2;
        self.make_room(conv, needed_blocks.min(self.cfg.pool_blocks / 2));
        let mut next = {
            // lint:allow(r1-panic): entry inserted at turn start.
            let state = self.convs.get_mut(&conv).expect("exists");
            let mut batch = [SeqInput {
                segments,
                table: &mut state.table,
            }];
            let logits = self
                .model
                .forward(&mut self.pool, &mut batch)
                // lint:allow(r1-panic): make_room reserved the prefill
                // working set; serve_turn documents panic semantics.
                .expect("make_room reserved space");
            argmax(logits.row(0)) as u32
        };

        // --- Greedy decode. ---
        let mut generated = vec![next];
        for _ in 1..max_new {
            self.make_room(conv, 2);
            // lint:allow(r1-panic): entry inserted at turn start.
            let state = self.convs.get_mut(&conv).expect("exists");
            let pos = state.table.len();
            let mut batch = [SeqInput {
                segments: vec![SegmentInput {
                    tokens: vec![next],
                    start_pos: pos,
                }],
                table: &mut state.table,
            }];
            let logits = self
                .model
                .forward(&mut self.pool, &mut batch)
                // lint:allow(r1-panic): make_room reserved two blocks for
                // this decode step; serve_turn documents panic semantics.
                .expect("make_room reserved space");
            next = argmax(logits.row(0)) as u32;
            generated.push(next);
        }
        self.store.append(conv, &generated);
        // lint:allow(r1-panic): entry inserted at turn start.
        self.convs.get_mut(&conv).expect("exists").last_active = self.clock;
        generated
    }

    /// Stateless reference: greedy decode of `max_new` tokens after
    /// `context`, recomputing everything from scratch each step.
    #[must_use]
    pub fn reference_decode(&self, context: &[u32], max_new: usize) -> Vec<u32> {
        let mut ctx = context.to_vec();
        let mut out = Vec::new();
        for _ in 0..max_new {
            let logits = self.model.forward_dense(&ctx);
            let tok = argmax(&logits) as u32;
            out.push(tok);
            ctx.push(tok);
        }
        out
    }

    /// Ensures at least `blocks` free pool blocks, evicting fully-filled
    /// blocks of inactive conversations (leading end first, least recently
    /// active conversation first).
    fn make_room(&mut self, active: SessionId, blocks: usize) {
        let target = blocks.max(self.cfg.free_watermark.min(self.cfg.pool_blocks / 4));
        while self.pool.num_free() < target {
            let Some((victim, bi)) = self.pick_victim(active) else {
                break;
            };
            self.evict_block(victim, bi);
        }
        assert!(
            self.pool.num_free() >= blocks,
            "GPU pool too small: need {blocks} free of {}",
            self.pool.num_blocks()
        );
    }

    /// The leading resident, fully-filled block of the least recently
    /// active conversation other than `active`.
    fn pick_victim(&self, active: SessionId) -> Option<(SessionId, usize)> {
        let mut best: Option<(u64, SessionId)> = None;
        for (&cid, st) in &self.convs {
            if cid == active {
                continue;
            }
            // Only fully-filled blocks are evictable.
            let full_blocks = st.table.len() / self.cfg.block_size;
            let has_resident = (0..full_blocks).any(|bi| st.table.get_block(bi).is_some());
            if !has_resident {
                continue;
            }
            if best.is_none_or(|(t, c)| (st.last_active, cid.0) < (t, c.0)) {
                best = Some((st.last_active, cid));
            }
        }
        let (_, cid) = best?;
        let st = &self.convs[&cid];
        let full_blocks = st.table.len() / self.cfg.block_size;
        (0..full_blocks)
            .find(|&bi| st.table.get_block(bi).is_some())
            .map(|bi| (cid, bi))
    }

    /// Copies one block to the stash (or drops it if the stash is full or
    /// disabled) and frees its pool backing.
    fn evict_block(&mut self, conv: SessionId, bi: usize) {
        let phys = self.convs[&conv]
            .table
            .get_block(bi)
            // lint:allow(r1-panic): pick_victim returned this (conv, bi)
            // precisely because the block is resident.
            .expect("victim is resident");
        if self.cfg.stash_blocks > 0 {
            if self.stash.len() >= self.cfg.stash_blocks {
                // Drop the oldest stashed block entirely.
                let oldest = self.stash_order.remove(0);
                self.stash.remove(&oldest);
                self.dropped_blocks += 1;
            }
            let hb = self.read_host_block(phys);
            self.stash.insert((conv, bi), hb);
            self.stash_order.push((conv, bi));
            self.swap_out_blocks += 1;
        } else {
            self.dropped_blocks += 1;
        }
        // lint:allow(r1-panic): pick_victim only returns live entries.
        let state = self.convs.get_mut(&conv).expect("exists");
        state.table.free_blocks(&mut self.pool, bi..bi + 1);
    }

    fn read_host_block(&self, phys: BlockId) -> HostBlock {
        let bs = self.cfg.block_size;
        let layers: Vec<(Vec<f32>, Vec<f32>)> = (0..self.pool.num_layers())
            .map(|li| {
                let view = self.pool.layer(li);
                let mut k = Vec::new();
                let mut v = Vec::new();
                for slot in 0..bs {
                    k.extend_from_slice(view.k_token(phys, slot));
                    v.extend_from_slice(view.v_token(phys, slot));
                }
                (k, v)
            })
            .collect();
        let checksum = kv_checksum(&layers);
        HostBlock { layers, checksum }
    }

    /// One fault opportunity per turn against the host stash: an injected
    /// loss destroys a stashed block outright (discovered as a hole on the
    /// conversation's return); an injected corruption flips one bit of a
    /// stashed K row, which the swap-in checksum rejects. Both downgrade
    /// to recomputation from raw tokens.
    fn fault_tick(&mut self) {
        let Some(f) = self.faults.as_mut() else {
            return;
        };
        if self.stash_order.is_empty() {
            return;
        }
        if f.roll(FaultKind::CpuChunkLoss) {
            let key = self.stash_order.remove(f.pick(self.stash_order.len()));
            self.stash.remove(&key);
            self.lost_blocks += 1;
        }
        if !self.stash_order.is_empty() && f.roll(FaultKind::CpuChunkCorruption) {
            let key = self.stash_order[f.pick(self.stash_order.len())];
            // lint:allow(r1-panic): stash_order and stash are mutated in
            // lockstep everywhere; a miss would be accounting corruption.
            let hb = self.stash.get_mut(&key).expect("order tracks stash keys");
            // Flip a mantissa bit in the first stored K value; the stale
            // checksum now disagrees with the data.
            if let Some(x) = hb.layers.first_mut().and_then(|(k, _)| k.first_mut()) {
                *x = f32::from_bits(x.to_bits() ^ 0x0000_0400);
            }
        }
    }

    fn write_host_block(&mut self, phys: BlockId, hb: &HostBlock) {
        let bs = self.cfg.block_size;
        let tf = self.pool.layout().token_floats();
        for (li, (k, v)) in hb.layers.iter().enumerate() {
            for slot in 0..bs {
                self.pool.write_token(
                    li,
                    phys,
                    slot,
                    &k[slot * tf..(slot + 1) * tf],
                    &v[slot * tf..(slot + 1) * tf],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prompt(seed: u32, len: usize, vocab: u32) -> Vec<u32> {
        (0..len as u32)
            .map(|i| (seed * 31 + i * 7) % vocab)
            .collect()
    }

    #[test]
    fn single_turn_matches_stateless() {
        let cfg = ModelConfig::tiny_llama();
        let mut e = FunctionalEngine::new(&cfg, 11, FunctionalConfig::default());
        let conv = SessionId(1);
        let p = prompt(1, 6, cfg.vocab_size as u32);
        let got = e.serve_turn(conv, &p, 4);
        let expect = e.reference_decode(&p, 4);
        assert_eq!(got, expect);
    }

    #[test]
    fn multi_turn_stateful_matches_stateless() {
        let cfg = ModelConfig::tiny_llama();
        let mut e = FunctionalEngine::new(&cfg, 12, FunctionalConfig::default());
        let conv = SessionId(1);
        let mut full: Vec<u32> = Vec::new();
        for turn in 0..3 {
            let p = prompt(turn + 1, 5, cfg.vocab_size as u32);
            let got = e.serve_turn(conv, &p, 3);
            full.extend_from_slice(&p);
            let expect = e.reference_decode(&full, 3);
            assert_eq!(got, expect, "turn {turn}");
            full.extend_from_slice(&got);
        }
        assert_eq!(e.history(conv), full);
    }

    #[test]
    fn eviction_and_swap_in_preserve_outputs() {
        let cfg = ModelConfig::tiny_llama();
        // Tiny pool: two conversations cannot both stay resident.
        let mut e = FunctionalEngine::new(
            &cfg,
            13,
            FunctionalConfig {
                block_size: 4,
                pool_blocks: 12,
                stash_blocks: 64,
                free_watermark: 2,
            },
        );
        let (a, b) = (SessionId(1), SessionId(2));
        let mut full_a: Vec<u32> = Vec::new();
        let mut full_b: Vec<u32> = Vec::new();
        for turn in 0..3 {
            let pa = prompt(10 + turn, 6, cfg.vocab_size as u32);
            let ga = e.serve_turn(a, &pa, 4);
            full_a.extend_from_slice(&pa);
            assert_eq!(ga, e.reference_decode(&full_a, 4), "conv a turn {turn}");
            full_a.extend_from_slice(&ga);

            let pb = prompt(20 + turn, 6, cfg.vocab_size as u32);
            let gb = e.serve_turn(b, &pb, 4);
            full_b.extend_from_slice(&pb);
            assert_eq!(gb, e.reference_decode(&full_b, 4), "conv b turn {turn}");
            full_b.extend_from_slice(&gb);
        }
        let (out, inn, _, _) = e.cache_activity();
        assert!(out > 0, "pool pressure must have caused eviction");
        assert!(inn > 0, "returning conversations must have swapped in");
    }

    #[test]
    fn dropped_blocks_are_recomputed_correctly() {
        let cfg = ModelConfig::tiny_llama();
        // No stash: every eviction is a drop -> recompute on return.
        let mut e = FunctionalEngine::new(
            &cfg,
            14,
            FunctionalConfig {
                block_size: 4,
                pool_blocks: 12,
                stash_blocks: 0,
                free_watermark: 2,
            },
        );
        let (a, b) = (SessionId(1), SessionId(2));
        let mut full_a: Vec<u32> = Vec::new();
        for turn in 0..2 {
            let pa = prompt(30 + turn, 8, cfg.vocab_size as u32);
            let ga = e.serve_turn(a, &pa, 3);
            full_a.extend_from_slice(&pa);
            assert_eq!(ga, e.reference_decode(&full_a, 3), "conv a turn {turn}");
            full_a.extend_from_slice(&ga);
            // Interleave a competing conversation to force eviction.
            let pb = prompt(40 + turn, 8, cfg.vocab_size as u32);
            e.serve_turn(b, &pb, 3);
        }
        // A returns after B's growth evicted (and dropped) A's prefix.
        let pa = prompt(50, 8, cfg.vocab_size as u32);
        let ga = e.serve_turn(a, &pa, 3);
        full_a.extend_from_slice(&pa);
        assert_eq!(ga, e.reference_decode(&full_a, 3), "final returning turn");
        let (_, _, dropped, recomputed) = e.cache_activity();
        assert!(dropped > 0, "evictions must drop without a stash");
        assert!(recomputed > 0, "returning conversation recomputed a prefix");
    }

    #[test]
    fn stash_faults_keep_outputs_bit_identical() {
        use pensieve_sim::FaultConfig;
        let cfg = ModelConfig::tiny_llama();
        let small = FunctionalConfig {
            block_size: 4,
            pool_blocks: 16,
            stash_blocks: 64,
            free_watermark: 2,
        };
        // Clean engine and faulty engine run the same workload; loss and
        // corruption fire aggressively against the stash.
        let mut clean = FunctionalEngine::new(&cfg, 17, small.clone());
        let mut faulty = FunctionalEngine::new(&cfg, 17, small);
        let mut fc = FaultConfig::disabled(99);
        fc.cpu_chunk_loss = 0.7;
        fc.cpu_chunk_corruption = 0.7;
        faulty.set_fault_injector(FaultInjector::new(fc));
        let (a, b) = (SessionId(1), SessionId(2));
        for turn in 0..4 {
            for &conv in &[a, b] {
                let p = prompt(60 + turn * 2 + conv.0 as u32, 6, cfg.vocab_size as u32);
                let want = clean.serve_turn(conv, &p, 4);
                let got = faulty.serve_turn(conv, &p, 4);
                assert_eq!(got, want, "conv {} turn {turn}", conv.0);
            }
        }
        let (lost, corrupt) = faulty.fault_activity();
        assert!(lost > 0, "injected losses must have destroyed stash blocks");
        assert!(corrupt > 0, "checksum must have caught a corrupted block");
        let ctrs = faulty.fault_counters().expect("injector installed");
        assert_eq!(ctrs.cpu_chunk_losses, lost);
        let (_, _, _, recomputed) = faulty.cache_activity();
        assert!(recomputed > 0, "faults must have forced recomputation");
        assert_eq!(clean.fault_activity(), (0, 0));
    }

    /// The compute-thread knob is a pure latency knob: served tokens are
    /// bit-identical at every setting.
    #[test]
    fn compute_threads_do_not_change_tokens() {
        let cfg = ModelConfig::tiny_llama();
        let mut serial = FunctionalEngine::new(&cfg, 18, FunctionalConfig::default());
        let mut par = FunctionalEngine::new(&cfg, 18, FunctionalConfig::default());
        par.set_compute_threads(4);
        let conv = SessionId(1);
        for turn in 0..2 {
            let p = prompt(70 + turn, 6, cfg.vocab_size as u32);
            assert_eq!(
                par.serve_turn(conv, &p, 3),
                serial.serve_turn(conv, &p, 3),
                "turn {turn}"
            );
        }
    }

    #[test]
    fn forked_conversation_matches_fresh_history_replay() {
        let cfg = ModelConfig::tiny_llama();
        let mut e = FunctionalEngine::new(&cfg, 16, FunctionalConfig::default());
        let (parent, child) = (SessionId(1), SessionId(2));
        for turn in 0..2 {
            let p = prompt(80 + turn, 6, cfg.vocab_size as u32);
            e.serve_turn(parent, &p, 3);
        }
        e.fork_conversation(parent, child)
            .expect("parent exists, child fresh");
        assert_eq!(
            e.fork_conversation(parent, child),
            Err(CacheError::SessionExists(child)),
            "double fork must be rejected"
        );
        let (physical, logical) = e.store_dedup();
        assert!(
            physical < logical,
            "fork must share sealed chunks: physical {physical} logical {logical}"
        );
        // The forked branch serves exactly like a fresh conversation
        // whose context is the parent's full history.
        let base = e.history(parent);
        let p = prompt(90, 6, cfg.vocab_size as u32);
        let got = e.serve_turn(child, &p, 4);
        let mut full = base.clone();
        full.extend_from_slice(&p);
        assert_eq!(got, e.reference_decode(&full, 4), "forked branch");
        // The parent's own continuation is unaffected by the fork.
        let pp = prompt(91, 6, cfg.vocab_size as u32);
        let gp = e.serve_turn(parent, &pp, 4);
        let mut full_p = base;
        full_p.extend_from_slice(&pp);
        assert_eq!(gp, e.reference_decode(&full_p, 4), "parent after fork");
    }

    #[test]
    fn opt_family_also_served_correctly() {
        let cfg = ModelConfig::tiny_opt();
        let mut e = FunctionalEngine::new(&cfg, 15, FunctionalConfig::default());
        let conv = SessionId(1);
        let p1 = prompt(3, 5, cfg.vocab_size as u32);
        let g1 = e.serve_turn(conv, &p1, 3);
        let mut full = p1.clone();
        assert_eq!(g1, e.reference_decode(&full, 3));
        full.extend_from_slice(&g1);
        let p2 = prompt(4, 4, cfg.vocab_size as u32);
        let g2 = e.serve_turn(conv, &p2, 3);
        full.extend_from_slice(&p2);
        assert_eq!(g2, e.reference_decode(&full, 3));
    }
}
