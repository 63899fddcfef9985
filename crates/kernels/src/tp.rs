//! Tensor-parallel execution of the functional transformer (§4.4.2).
//!
//! The paper partitions large models Megatron-style: Q/K/V projections
//! are column-parallel (each worker owns a slice of the attention heads),
//! output and MLP-down projections are row-parallel, and two all-reduces
//! per layer combine the partial sums. Crucially for Pensieve, **the KV
//! cache partitions along the head dimension with the model** — each
//! worker stores its own shard of every KV-token in its own paged pool
//! and follows the same migration plan, so eviction decisions are
//! worker-agnostic.
//!
//! This module implements that partitioning for [`TinyModel`]:
//!
//! * [`ShardRunner`] — one worker's state: its weight slices, its paged KV
//!   pool, and its block tables. Exposes exactly the per-layer operations
//!   a worker executes between all-reduces.
//! * [`TpModel`] — a single-threaded orchestrator running all shards in
//!   sequence with explicit all-reduce summation; used to validate that
//!   sharded execution is numerically equivalent to the unsharded model.
//!
//! `pensieve-core`'s threaded engine drives the same [`ShardRunner`]s
//! from real worker threads over channels (paper Figure 7).

use std::collections::HashMap;

use crossbeam::pool::Pool;
use pensieve_model::{ModelConfig, Norm, PositionEmbedding};

use crate::attention::multi::paged_multi_token_pool;
use crate::attention::{AttnConfig, AttnSeq};
use crate::model::{mlp_forward, project_qkv, SegmentInput, TinyModel};
use crate::ops::{add_rows, layernorm, matmul_pool, rmsnorm};
use crate::paged::{BlockTable, KvLayout, OutOfBlocks, PagedKvCache};
use crate::tensor::Matrix;

/// Copies columns `lo..hi` of `m` into a new matrix.
fn slice_cols(m: &Matrix, lo: usize, hi: usize) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), hi - lo);
    for r in 0..m.rows() {
        out.row_mut(r).copy_from_slice(&m.row(r)[lo..hi]);
    }
    out
}

/// Copies rows `lo..hi` of `m` into a new matrix.
fn slice_rows(m: &Matrix, lo: usize, hi: usize) -> Matrix {
    let mut out = Matrix::zeros(hi - lo, m.cols());
    for r in lo..hi {
        out.row_mut(r - lo).copy_from_slice(m.row(r));
    }
    out
}

/// One worker's slice of every layer's weights.
struct ShardLayer {
    wq: Matrix,
    wk: Matrix,
    wv: Matrix,
    /// Row-parallel output projection: `[heads_per_shard * d, hidden]`.
    wo: Matrix,
    /// Column-parallel MLP matrices and the row-parallel down projection.
    mlp: Vec<Matrix>,
}

/// One layer's norm parameters: `(norm1, norm1_bias, norm2, norm2_bias)`.
type LayerNorms = (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>);

/// The replicated (non-sharded) weights every worker and the scheduler
/// share: embeddings, norms, and the model configuration.
pub struct ReplicatedWeights {
    cfg: ModelConfig,
    embed: Matrix,
    pos_embed: Option<Matrix>,
    norms: Vec<LayerNorms>,
    final_norm: Vec<f32>,
    final_norm_bias: Vec<f32>,
}

impl ReplicatedWeights {
    /// The model configuration.
    #[must_use]
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Embeds one token at an absolute position.
    ///
    /// # Panics
    ///
    /// Panics if the position exceeds the learned-position table.
    #[must_use]
    pub fn embed_token(&self, token: u32, pos: usize) -> Vec<f32> {
        let mut row = self.embed.row(token as usize).to_vec();
        if let Some(pe) = &self.pos_embed {
            for (r, p) in row.iter_mut().zip(pe.row(pos)) {
                *r += p;
            }
        }
        row
    }

    fn normalize(&self, x: &mut [f32], weight: &[f32], bias: &[f32]) {
        match self.cfg.norm {
            Norm::LayerNorm => layernorm(x, weight, bias, 1e-5),
            Norm::RmsNorm => rmsnorm(x, weight, 1e-5),
        }
    }

    /// Applies layer `l`'s pre-attention norm to every row of a copy.
    #[must_use]
    pub fn norm1(&self, l: usize, x: &Matrix) -> Matrix {
        let mut out = x.clone();
        let (w, b, _, _) = &self.norms[l];
        for r in 0..out.rows() {
            self.normalize(out.row_mut(r), w, b);
        }
        out
    }

    /// Applies layer `l`'s pre-MLP norm to every row of a copy.
    #[must_use]
    pub fn norm2(&self, l: usize, x: &Matrix) -> Matrix {
        let mut out = x.clone();
        let (_, _, w, b) = &self.norms[l];
        for r in 0..out.rows() {
            self.normalize(out.row_mut(r), w, b);
        }
        out
    }

    /// Applies the final norm to one hidden row.
    #[must_use]
    pub fn final_norm(&self, h: &[f32]) -> Vec<f32> {
        let mut row = h.to_vec();
        self.normalize(&mut row, &self.final_norm, &self.final_norm_bias);
        row
    }
}

/// One tensor-parallel worker: weight slices + its KV-cache partition.
pub struct ShardRunner {
    cfg: ModelConfig,
    attn: AttnConfig,
    layers: Vec<ShardLayer>,
    /// Column slice of the LM head: `[hidden, vocab / num_shards]`.
    lm_head: Matrix,
    cache: PagedKvCache,
    tables: HashMap<u64, BlockTable>,
    /// Pass-local state: the (block, slot) of each query row, the query
    /// positions, and the attention segments.
    slots: Vec<(usize, usize)>,
    positions: Vec<usize>,
    pass_conv: u64,
    pass_segments: Vec<(usize, usize)>,
    /// Persistent worker pool for this shard's intra-operator math
    /// (serial pool = serial).
    pool: Pool,
}

impl ShardRunner {
    /// This worker's query-head count.
    #[must_use]
    pub fn heads_per_shard(&self) -> usize {
        self.attn.num_heads
    }

    /// Sets the number of worker threads used *inside* this shard's
    /// operators (blocked GEMM row partitions and attention per-sequence
    /// partitions).
    ///
    /// Orthogonal to tensor-parallel sharding: shards split the model,
    /// intra-shard threads split each shard's math. Results are
    /// bit-identical at every setting; `0` is clamped to `1`.
    pub fn set_threads(&mut self, threads: usize) {
        self.pool = Pool::global(threads);
    }

    /// Allocates KV slots for a pass over `conv` with the given query
    /// `segments` (`(start_pos, len)` pairs, ascending; the last ends at
    /// the sequence's new context length).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfBlocks`] if this shard's pool is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if segments are malformed or required blocks are holes.
    pub fn begin_pass(
        &mut self,
        conv: u64,
        segments: &[(usize, usize)],
    ) -> Result<(), OutOfBlocks> {
        let block_size = self.cache.layout().block_size;
        let table = self
            .tables
            .entry(conv)
            .or_insert_with(|| BlockTable::new(block_size));
        self.slots.clear();
        self.positions.clear();
        for &(start, len) in segments {
            assert!(len > 0, "empty segment");
            for pos in start..start + len {
                let slot = if pos < table.len() {
                    table.position(pos)
                } else {
                    debug_assert_eq!(pos, table.len());
                    table.append_token(&mut self.cache)?
                };
                self.slots.push(slot);
                self.positions.push(pos);
            }
        }
        self.pass_conv = conv;
        self.pass_segments = segments.to_vec();
        Ok(())
    }

    /// Computes this shard's attention partial for layer `l`: QKV over its
    /// heads, KV-cache update, paged multi-token attention, and the
    /// row-parallel output projection. The returned `[tokens, hidden]`
    /// matrix is summed across shards by the caller (all-reduce).
    #[must_use]
    pub fn attn_partial(&mut self, l: usize, xn: &Matrix) -> Matrix {
        let lw = &self.layers[l];
        let rope = (self.cfg.position_embedding == PositionEmbedding::Rotary)
            .then_some(self.positions.as_slice());
        let (q, k, v) = project_qkv(xn, &lw.wq, &lw.wk, &lw.wv, &self.attn, rope, &self.pool);
        for (r, &(b, s)) in self.slots.iter().enumerate() {
            self.cache.write_token(l, b, s, k.row(r), v.row(r));
        }
        let table = &self.tables[&self.pass_conv];
        let mut seqs = Vec::new();
        let mut q_start = 0;
        for &(start, len) in &self.pass_segments {
            seqs.push(AttnSeq {
                q_start,
                q_len: len,
                context_len: start + len,
                table,
            });
            q_start += len;
        }
        let attn_out =
            paged_multi_token_pool(&self.attn, &q, &self.cache.layer(l), &seqs, &self.pool);
        matmul_pool(&attn_out, &lw.wo, &self.pool)
    }

    /// Computes this shard's MLP partial for layer `l` (column-parallel up
    /// / gate, row-parallel down). Summed across shards by the caller.
    #[must_use]
    pub fn mlp_partial(&self, l: usize, xn: &Matrix) -> Matrix {
        mlp_forward(self.cfg.activation, xn, &self.layers[l].mlp, &self.pool)
    }

    /// This shard's slice of the output logits (all-gathered by the
    /// caller).
    #[must_use]
    pub fn lm_head_partial(&self, h: &[f32]) -> Vec<f32> {
        let h = Matrix::from_vec(1, h.len(), h.to_vec());
        matmul_pool(&h, &self.lm_head, &self.pool).row(0).to_vec()
    }
}

/// Single-threaded tensor-parallel orchestrator over `n` shards.
pub struct TpModel {
    replicated: ReplicatedWeights,
    shards: Vec<ShardRunner>,
}

impl TpModel {
    /// Shards `model` across `num_shards` workers, each with its own paged
    /// KV pool of `blocks_per_shard` blocks of `block_size` tokens.
    ///
    /// # Panics
    ///
    /// Panics if heads, KV heads, FFN width, or vocabulary are not
    /// divisible by `num_shards`.
    #[must_use]
    pub fn new(
        model: &TinyModel,
        num_shards: usize,
        block_size: usize,
        blocks_per_shard: usize,
    ) -> Self {
        let cfg = &model.cfg;
        assert!(num_shards > 0);
        assert_eq!(cfg.num_heads % num_shards, 0, "heads must divide");
        assert_eq!(cfg.num_kv_heads % num_shards, 0, "kv heads must divide");
        assert_eq!(cfg.ffn_hidden % num_shards, 0, "ffn must divide");
        assert_eq!(cfg.vocab_size % num_shards, 0, "vocab must divide");
        let d = cfg.head_dim;
        let hpw = cfg.num_heads / num_shards;
        let kvpw = cfg.num_kv_heads / num_shards;
        let fpw = cfg.ffn_hidden / num_shards;
        let vpw = cfg.vocab_size / num_shards;

        let shards = (0..num_shards)
            .map(|w| {
                let layers = model
                    .layers
                    .iter()
                    .map(|lw| {
                        let mlp = match cfg.family {
                            pensieve_model::ModelFamily::Opt => vec![
                                slice_cols(&lw.mlp[0], w * fpw, (w + 1) * fpw),
                                slice_rows(&lw.mlp[1], w * fpw, (w + 1) * fpw),
                            ],
                            pensieve_model::ModelFamily::Llama2 => vec![
                                slice_cols(&lw.mlp[0], w * fpw, (w + 1) * fpw),
                                slice_cols(&lw.mlp[1], w * fpw, (w + 1) * fpw),
                                slice_rows(&lw.mlp[2], w * fpw, (w + 1) * fpw),
                            ],
                        };
                        ShardLayer {
                            wq: slice_cols(&lw.wq, w * hpw * d, (w + 1) * hpw * d),
                            wk: slice_cols(&lw.wk, w * kvpw * d, (w + 1) * kvpw * d),
                            wv: slice_cols(&lw.wv, w * kvpw * d, (w + 1) * kvpw * d),
                            wo: slice_rows(&lw.wo, w * hpw * d, (w + 1) * hpw * d),
                            mlp,
                        }
                    })
                    .collect();
                ShardRunner {
                    cfg: cfg.clone(),
                    attn: AttnConfig::new(hpw, kvpw, d),
                    layers,
                    lm_head: slice_cols(&model.lm_head, w * vpw, (w + 1) * vpw),
                    cache: PagedKvCache::new(
                        KvLayout {
                            num_kv_heads: kvpw,
                            head_dim: d,
                            block_size,
                        },
                        cfg.num_layers,
                        blocks_per_shard,
                    ),
                    tables: HashMap::new(),
                    slots: Vec::new(),
                    positions: Vec::new(),
                    pass_conv: 0,
                    pass_segments: Vec::new(),
                    pool: Pool::serial(),
                }
            })
            .collect();
        TpModel {
            replicated: ReplicatedWeights {
                cfg: cfg.clone(),
                embed: model.embed.clone(),
                pos_embed: model.pos_embed.clone(),
                norms: model
                    .layers
                    .iter()
                    .map(|lw| {
                        (
                            lw.norm1.clone(),
                            lw.norm1_bias.clone(),
                            lw.norm2.clone(),
                            lw.norm2_bias.clone(),
                        )
                    })
                    .collect(),
                final_norm: model.final_norm.clone(),
                final_norm_bias: model.final_norm_bias.clone(),
            },
            shards,
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Sets the intra-shard worker thread count on every shard (see
    /// [`ShardRunner::set_threads`]). Bit-identical at every setting.
    pub fn set_threads(&mut self, threads: usize) {
        for shard in &mut self.shards {
            shard.set_threads(threads);
        }
    }

    /// Splits the model into its replicated weights and shard runners, for
    /// drivers that move each shard onto its own worker thread.
    #[must_use]
    pub fn into_parts(self) -> (ReplicatedWeights, Vec<ShardRunner>) {
        (self.replicated, self.shards)
    }

    /// One tensor-parallel forward pass for a single sequence, returning
    /// the last token's logits. Segment semantics match
    /// [`TinyModel::forward`].
    ///
    /// # Errors
    ///
    /// Returns [`OutOfBlocks`] if any shard's pool is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty or malformed.
    pub fn forward_seq(
        &mut self,
        conv: u64,
        segments: &[SegmentInput],
    ) -> Result<Vec<f32>, OutOfBlocks> {
        assert!(!segments.is_empty());
        let rep = &self.replicated;
        let h = rep.cfg.hidden_size;
        let seg_shapes: Vec<(usize, usize)> = segments
            .iter()
            .map(|s| (s.start_pos, s.tokens.len()))
            .collect();
        for shard in &mut self.shards {
            shard.begin_pass(conv, &seg_shapes)?;
        }
        let total_q: usize = segments.iter().map(|s| s.tokens.len()).sum();
        let mut x = Matrix::zeros(total_q, h);
        let mut row = 0;
        for seg in segments {
            for (j, &tok) in seg.tokens.iter().enumerate() {
                x.row_mut(row)
                    .copy_from_slice(&rep.embed_token(tok, seg.start_pos + j));
                row += 1;
            }
        }
        for l in 0..rep.cfg.num_layers {
            let xn = rep.norm1(l, &x);
            // The first all-reduce: sum attention partials across shards.
            let mut acc = Matrix::zeros(total_q, h);
            for shard in &mut self.shards {
                add_rows(&mut acc, &shard.attn_partial(l, &xn));
            }
            add_rows(&mut x, &acc);
            let xn = rep.norm2(l, &x);
            // The second all-reduce: sum MLP partials.
            let mut acc = Matrix::zeros(total_q, h);
            for shard in &self.shards {
                add_rows(&mut acc, &shard.mlp_partial(l, &xn));
            }
            add_rows(&mut x, &acc);
        }
        // All-gather the vocabulary-sharded logits of the last token.
        let hrow = rep.final_norm(x.row(total_q - 1));
        let mut logits = Vec::with_capacity(rep.cfg.vocab_size);
        for shard in &self.shards {
            logits.extend(shard.lm_head_partial(&hrow));
        }
        Ok(logits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::argmax;

    fn max_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    fn check_tp_matches_dense(cfg: &ModelConfig, shards: usize) {
        let model = TinyModel::new_random(cfg, 55);
        let mut tp = TpModel::new(&model, shards, 4, 64);
        let prompt: Vec<u32> = vec![9, 27, 4, 81, 33, 2];
        let logits = tp
            .forward_seq(
                1,
                &[SegmentInput {
                    tokens: prompt.clone(),
                    start_pos: 0,
                }],
            )
            .unwrap();
        let dense = model.forward_dense(&prompt);
        assert!(
            max_diff(&logits, &dense) < 1e-3,
            "{} x{shards}: diff {}",
            cfg.name,
            max_diff(&logits, &dense)
        );
        // Decode continues from the sharded caches.
        let tok = argmax(&logits) as u32;
        let logits2 = tp
            .forward_seq(
                1,
                &[SegmentInput {
                    tokens: vec![tok],
                    start_pos: prompt.len(),
                }],
            )
            .unwrap();
        let mut full = prompt;
        full.push(tok);
        let dense2 = model.forward_dense(&full);
        assert!(max_diff(&logits2, &dense2) < 1e-3);
    }

    #[test]
    fn llama_two_shards_match_dense() {
        check_tp_matches_dense(&ModelConfig::tiny_llama(), 2);
    }

    #[test]
    fn opt_four_shards_match_dense() {
        check_tp_matches_dense(&ModelConfig::tiny_opt(), 4);
    }

    #[test]
    fn single_shard_is_identity_partition() {
        check_tp_matches_dense(&ModelConfig::tiny_llama(), 1);
    }

    /// Each shard stores only its KV-head slice: pool usage shrinks with
    /// the shard count while results stay exact (the property that lets
    /// Pensieve shard its cache with the model, §4.4.2).
    #[test]
    fn kv_partition_splits_storage() {
        let cfg = ModelConfig::tiny_llama();
        let model = TinyModel::new_random(&cfg, 56);
        let mut tp = TpModel::new(&model, 2, 4, 64);
        let prompt: Vec<u32> = (0..10).collect();
        tp.forward_seq(
            7,
            &[SegmentInput {
                tokens: prompt,
                start_pos: 0,
            }],
        )
        .unwrap();
        for shard in &tp.shards {
            // 10 tokens at block size 4 -> 3 blocks per shard, regardless
            // of shard count (each block holds kv_heads/n heads).
            assert_eq!(shard.cache.num_blocks() - shard.cache.num_free(), 3);
            assert_eq!(shard.cache.layout().num_kv_heads, 1);
        }
    }

    #[test]
    #[should_panic(expected = "kv heads must divide")]
    fn rejects_indivisible_kv_heads() {
        let cfg = ModelConfig::tiny_llama(); // 2 KV heads.
        let model = TinyModel::new_random(&cfg, 57);
        let _ = TpModel::new(&model, 4, 4, 16);
    }
}
