//! "Multi-round PagedAttention" straw-man (Figure 12, green bar).
//!
//! Processes a multi-token prompt by invoking the single-token paged
//! kernel once per query token, truncating the visible context to enforce
//! causality. This is the "naive hack" the paper describes in §3.2: it is
//! correct, but gives up the parallelization/data-reuse opportunity of the
//! query dimension — the context is re-walked `q_len` times — so its cost
//! grows linearly with the number of prompt tokens.
//!
//! The straw-man is deliberately pinned to the *scalar reference*
//! single-token kernel ([`paged_single_token_ref`]) so the Figure-12
//! baseline stays fixed as the fast paths evolve; `BENCH_kernels.json`
//! speedups are measured against this implementation.

use super::single::paged_single_token_ref;
use super::{AttnConfig, AttnSeq};
use crate::paged::KvLayerView;
use crate::tensor::Matrix;

/// Batched multi-token attention implemented as repeated rounds of the
/// single-token kernel.
///
/// Semantics identical to
/// [`paged_multi_token_pool`](super::multi::paged_multi_token_pool).
///
/// # Panics
///
/// Panics under the same shape conditions as the fused kernels.
#[must_use]
pub fn multi_round_single_token(
    cfg: &AttnConfig,
    q: &Matrix,
    layer: &KvLayerView<'_>,
    seqs: &[AttnSeq<'_>],
) -> Matrix {
    assert_eq!(q.cols(), cfg.q_width());
    let mut out = Matrix::zeros(q.rows(), cfg.q_width());
    for seq in seqs {
        seq.check();
        // One full single-token invocation per prompt token: each round
        // re-walks the block table from the beginning.
        for j in 0..seq.q_len {
            let round = AttnSeq {
                q_start: seq.q_start + j,
                q_len: 1,
                context_len: seq.visible(j),
                table: seq.table,
            };
            paged_single_token_ref(
                cfg,
                q.row(seq.q_start + j),
                layer,
                &round,
                out.row_mut(seq.q_start + j),
            );
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
        let mut rng = StdRng::seed_from_u64(41);
        let cfg = AttnConfig::new(2, 1, 4);
        let layout = KvLayout {
            num_kv_heads: 1,
            head_dim: 4,
            block_size: 4,
        };
        let mut pool = PagedKvCache::new(layout, 1, 16);
        let mut table = BlockTable::new(4);
        for _ in 0..23 {
            let (b, s) = table.append_token(&mut pool).unwrap();
            let k: Vec<f32> = (0..4).map(|_| rng.random_range(-1.0..1.0)).collect();
            let v: Vec<f32> = (0..4).map(|_| rng.random_range(-1.0..1.0)).collect();
            pool.write_token(0, b, s, &k, &v);
        }
        for q_len in [1usize, 2, 7] {
            let q = Matrix::from_vec(
                q_len,
                cfg.q_width(),
                (0..q_len * cfg.q_width())
                    .map(|_| rng.random_range(-1.0..1.0))
                    .collect(),
            );
            let seq = AttnSeq {
                q_start: 0,
                q_len,
                context_len: 23,
                table: &table,
            };
            let a = multi_round_single_token(&cfg, &q, &pool.layer(0), &[seq]);
            let b = paged_multi_token(&cfg, &q, &pool.layer(0), &[seq]);
            assert!(a.max_abs_diff(&b) < 1e-5, "q_len={q_len}");
        }
    }
}
