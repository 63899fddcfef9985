//! Attention kernels over contiguous and paged (non-contiguous) KV caches.
//!
//! This module reproduces the four implementations compared in the paper's
//! Figure 12, plus a naive ground-truth reference:
//!
//! | Kernel | KV layout | Queries/request | Paper role |
//! |---|---|---|---|
//! | [`naive::naive_attention`] | contiguous | multi | ground truth for tests |
//! | [`contiguous::fused_contiguous`] | contiguous | multi | "Ideal" (blue bar) |
//! | [`copyout::copyout_attention`] | paged → copied | multi | "CopyOut+Attention" (orange) |
//! | [`multiround::multi_round_single_token`] | paged | 1 per round | "Multi-round PagedAttention" (green) |
//! | [`multi::paged_multi_token_pool`] | paged | multi | **Pensieve's kernel** |
//!
//! All kernels implement *causal* attention for a query chunk positioned at
//! the **end** of its context: query token `j` (0-based within a chunk of
//! `q_len`) attends to context positions `0 ..= context_len - q_len + j`.
//! Setting `q_len == context_len` gives standard self-attention prefill;
//! `q_len == 1` gives the generation step. The paper's "sub-request" trick
//! for recomputed dropped tokens (§4.3.4, Figure 8) maps onto this rule by
//! issuing two [`AttnSeq`] entries that share one block table with
//! different `context_len`s.
//!
//! Grouped-Query Attention is supported throughout: query head `h` reads
//! KV head `h / (num_heads / num_kv_heads)`.

pub mod contiguous;
pub mod copyout;
pub mod multi;
pub mod multiround;
pub mod naive;
pub mod single;

use crate::paged::BlockTable;

/// Head geometry shared by all attention kernels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttnConfig {
    /// Number of query heads.
    pub num_heads: usize,
    /// Number of KV heads (`<= num_heads`, divides it).
    pub num_kv_heads: usize,
    /// Per-head dimension.
    pub head_dim: usize,
    /// Score scale, conventionally `1 / sqrt(head_dim)`.
    pub scale: f32,
}

impl AttnConfig {
    /// Creates a config with the conventional `1/sqrt(head_dim)` scale.
    ///
    /// # Panics
    ///
    /// Panics if `num_kv_heads` does not divide `num_heads`.
    #[must_use]
    pub fn new(num_heads: usize, num_kv_heads: usize, head_dim: usize) -> Self {
        assert!(
            num_kv_heads > 0 && num_heads.is_multiple_of(num_kv_heads),
            "kv heads must divide query heads"
        );
        AttnConfig {
            num_heads,
            num_kv_heads,
            head_dim,
            scale: 1.0 / (head_dim as f32).sqrt(),
        }
    }

    /// GQA group size (query heads per KV head).
    #[must_use]
    pub fn group_size(&self) -> usize {
        self.num_heads / self.num_kv_heads
    }

    /// KV head serving query head `h`.
    #[must_use]
    pub fn kv_head_for(&self, h: usize) -> usize {
        h / self.group_size()
    }

    /// Width of a query/output row: `num_heads * head_dim`.
    #[must_use]
    pub fn q_width(&self) -> usize {
        self.num_heads * self.head_dim
    }

    /// Width of a K/V row: `num_kv_heads * head_dim`.
    #[must_use]
    pub fn kv_width(&self) -> usize {
        self.num_kv_heads * self.head_dim
    }
}

/// One (sub-)request in a batched paged-attention invocation.
///
/// `q_start`/`q_len` locate the request's query rows inside the batch's
/// concatenated query matrix; `table` and `context_len` describe the KV
/// context it attends to. Two sub-requests may share the same `table`
/// (dropped-token recomputation, §4.3.4).
#[derive(Debug, Clone, Copy)]
pub struct AttnSeq<'a> {
    /// First row of this request inside the batch query matrix.
    pub q_start: usize,
    /// Number of query tokens (>= 1 for prefill chunks, == 1 for decode).
    pub q_len: usize,
    /// Context length visible to the *last* query token, inclusive of the
    /// query tokens themselves.
    pub context_len: usize,
    /// Logical-to-physical block mapping holding the context's KV-tokens.
    pub table: &'a BlockTable,
}

impl AttnSeq<'_> {
    /// Number of context positions visible to query token `j`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `j >= q_len`.
    #[must_use]
    pub fn visible(&self, j: usize) -> usize {
        debug_assert!(j < self.q_len);
        self.context_len - self.q_len + j + 1
    }

    /// Validates the shape invariants against a block table.
    ///
    /// # Panics
    ///
    /// Panics if `q_len` is zero, exceeds `context_len`, or the table holds
    /// fewer tokens than `context_len`.
    pub fn check(&self) {
        assert!(self.q_len > 0, "empty query range");
        assert!(
            self.q_len <= self.context_len,
            "query longer than its context"
        );
        assert!(
            self.table.len() >= self.context_len,
            "block table ({} tokens) shorter than context ({})",
            self.table.len(),
            self.context_len
        );
    }
}

/// Numerical state of one query row's online softmax.
///
/// Used by the fused kernels to process the context in a single streaming
/// pass without materializing the attention-score matrix (the paper fuses
/// causal masking into the kernel for the same reason).
#[derive(Debug, Clone)]
pub(crate) struct OnlineSoftmax {
    /// Running maximum of the scores seen so far.
    pub m: f32,
    /// Running sum of `exp(score - m)`.
    pub s: f32,
    /// Running weighted sum of V rows, scaled by `exp(-m)` implicitly.
    pub acc: Vec<f32>,
}

impl OnlineSoftmax {
    pub(crate) fn new(head_dim: usize) -> Self {
        OnlineSoftmax {
            m: f32::NEG_INFINITY,
            s: 0.0,
            acc: vec![0.0; head_dim],
        }
    }

    /// Folds one (score, value-row) pair into the state.
    #[inline]
    pub(crate) fn update(&mut self, score: f32, v: &[f32]) {
        if score > self.m {
            let corr = if self.m == f32::NEG_INFINITY {
                0.0
            } else {
                (self.m - score).exp()
            };
            self.s *= corr;
            for a in self.acc.iter_mut() {
                *a *= corr;
            }
            self.m = score;
        }
        let p = (score - self.m).exp();
        self.s += p;
        for (a, &vv) in self.acc.iter_mut().zip(v) {
            *a += p * vv;
        }
    }

    /// Writes the normalized output into `out`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if no score was folded in (division by zero).
    pub(crate) fn finish(&self, out: &mut [f32]) {
        debug_assert!(self.s > 0.0, "finish() before any update()");
        let inv = 1.0 / self.s;
        for (o, &a) in out.iter_mut().zip(&self.acc) {
            *o = a * inv;
        }
    }
}

// The shared scalar inner products live in `ops`; attention kernels use the
// same definitions so their scores are bit-comparable with the GEMM path.
pub(crate) use crate::ops::{dot, dot4};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_derives_geometry() {
        let c = AttnConfig::new(8, 2, 16);
        assert_eq!(c.group_size(), 4);
        assert_eq!(c.kv_head_for(0), 0);
        assert_eq!(c.kv_head_for(3), 0);
        assert_eq!(c.kv_head_for(4), 1);
        assert_eq!(c.q_width(), 128);
        assert_eq!(c.kv_width(), 32);
        assert!((c.scale - 0.25).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "kv heads must divide")]
    fn config_rejects_bad_group() {
        let _ = AttnConfig::new(8, 3, 16);
    }

    #[test]
    fn visibility_rule() {
        let table = BlockTable::new(4);
        let seq = AttnSeq {
            q_start: 0,
            q_len: 3,
            context_len: 10,
            table: &table,
        };
        // Last token sees everything, earlier ones progressively less.
        assert_eq!(seq.visible(2), 10);
        assert_eq!(seq.visible(1), 9);
        assert_eq!(seq.visible(0), 8);
    }

    #[test]
    fn online_softmax_matches_direct() {
        let scores = [0.5f32, -1.0, 2.0, 0.0];
        let values = [[1.0f32, 0.0], [0.0, 1.0], [2.0, 2.0], [-1.0, 3.0]];
        let mut st = OnlineSoftmax::new(2);
        for (s, v) in scores.iter().zip(values.iter()) {
            st.update(*s, v);
        }
        let mut out = [0.0f32; 2];
        st.finish(&mut out);
        // Direct softmax computation.
        let max = 2.0f32;
        let exps: Vec<f32> = scores.iter().map(|s| (s - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        let mut expect = [0.0f32; 2];
        for (e, v) in exps.iter().zip(values.iter()) {
            expect[0] += e / sum * v[0];
            expect[1] += e / sum * v[1];
        }
        assert!((out[0] - expect[0]).abs() < 1e-6);
        assert!((out[1] - expect[1]).abs() < 1e-6);
    }

    #[test]
    fn online_softmax_order_invariant() {
        let scores = [3.0f32, 1.0, -2.0, 0.5];
        let vals = [[1.0f32], [2.0], [3.0], [4.0]];
        let run = |order: &[usize]| {
            let mut st = OnlineSoftmax::new(1);
            for &i in order {
                st.update(scores[i], &vals[i]);
            }
            let mut out = [0.0f32];
            st.finish(&mut out);
            out[0]
        };
        let a = run(&[0, 1, 2, 3]);
        let b = run(&[3, 2, 1, 0]);
        assert!((a - b).abs() < 1e-6);
    }
}
