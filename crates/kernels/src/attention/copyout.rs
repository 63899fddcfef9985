//! "CopyOut+Attention" straw-man (Figure 12, orange bar).
//!
//! Gathers the paged context into freshly allocated contiguous buffers,
//! then runs the ideal fused kernel. Correct, but pays a memory-copy cost
//! proportional to the number of past KV-tokens on every invocation — the
//! overhead Pensieve's kernel exists to avoid.

use super::contiguous::fused_contiguous;
use super::{AttnConfig, AttnSeq};
use crate::paged::{gather_contiguous, KvLayerView};
use crate::tensor::Matrix;

/// Batched attention that copies each sequence's paged KV out to
/// contiguous memory before attending.
///
/// Semantics identical to
/// [`paged_multi_token_pool`](super::multi::paged_multi_token_pool).
///
/// # Panics
///
/// Panics under the same shape conditions as the fused kernels.
#[must_use]
pub fn copyout_attention(
    cfg: &AttnConfig,
    q: &Matrix,
    layer: &KvLayerView<'_>,
    seqs: &[AttnSeq<'_>],
) -> Matrix {
    assert_eq!(q.cols(), cfg.q_width());
    let mut out = Matrix::zeros(q.rows(), cfg.q_width());
    for seq in seqs {
        seq.check();
        // The copy the straw-man pays for: O(context_len) per request.
        let (k, v) = gather_contiguous(layer, seq.table, seq.context_len);
        let mut qs = Matrix::zeros(seq.q_len, cfg.q_width());
        for j in 0..seq.q_len {
            qs.row_mut(j).copy_from_slice(q.row(seq.q_start + j));
        }
        let res = fused_contiguous(cfg, &qs, &k, &v);
        for j in 0..seq.q_len {
            out.row_mut(seq.q_start + j).copy_from_slice(res.row(j));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::multi::paged_multi_token;
    use super::*;
    use crate::paged::{BlockTable, KvLayout, PagedKvCache};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn agrees_with_paged_multi_token() {
        let mut rng = StdRng::seed_from_u64(31);
        let cfg = AttnConfig::new(4, 2, 8);
        let layout = KvLayout {
            num_kv_heads: 2,
            head_dim: 8,
            block_size: 4,
        };
        let mut pool = PagedKvCache::new(layout, 1, 32);
        let mut tables: Vec<BlockTable> = Vec::new();
        let ctxs = [13usize, 6, 25];
        for &ctx in &ctxs {
            let mut table = BlockTable::new(4);
            for _ in 0..ctx {
                let (b, s) = table.append_token(&mut pool).unwrap();
                let k: Vec<f32> = (0..16).map(|_| rng.random_range(-1.0..1.0)).collect();
                let v: Vec<f32> = (0..16).map(|_| rng.random_range(-1.0..1.0)).collect();
                pool.write_token(0, b, s, &k, &v);
            }
            tables.push(table);
        }
        let q_lens = [2usize, 1, 4];
        let total_q: usize = q_lens.iter().sum();
        let q = Matrix::from_vec(
            total_q,
            cfg.q_width(),
            (0..total_q * cfg.q_width())
                .map(|_| rng.random_range(-1.0..1.0))
                .collect(),
        );
        let mut seqs = Vec::new();
        let mut start = 0;
        for i in 0..3 {
            seqs.push(AttnSeq {
                q_start: start,
                q_len: q_lens[i],
                context_len: ctxs[i],
                table: &tables[i],
            });
            start += q_lens[i];
        }
        let a = copyout_attention(&cfg, &q, &pool.layer(0), &seqs);
        let b = paged_multi_token(&cfg, &q, &pool.layer(0), &seqs);
        assert!(a.max_abs_diff(&b) < 1e-5);
    }
}
