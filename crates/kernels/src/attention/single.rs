//! Single-token paged attention — our vLLM `PagedAttention` analogue.
//!
//! Computes attention for exactly **one** query token per request over a
//! paged KV cache (paper Figure 9, left). The underlying computation is two
//! matrix-vector products, so there is no query dimension to parallelize or
//! tile over — which is precisely why the paper cannot use this kernel for
//! prefill and builds the multi-token kernel instead.
//!
//! Two implementations are provided: [`paged_single_token_ref`], the
//! per-head context walk kept as the straw-man/reference (it re-reads every
//! K/V block once per query head), and [`paged_single_token_batch`], which
//! walks each context once as contiguous `[block_size, kv_width]` slabs and
//! reuses each loaded K/V row across the whole GQA group. Their outputs are
//! **bit-identical**: every online-softmax state sees the same scores in
//! the same (ascending-`t`) order.

use super::{dot, dot4, AttnConfig, AttnSeq, OnlineSoftmax};
use crate::paged::KvLayerView;
use crate::tensor::Matrix;

fn check_single(cfg: &AttnConfig, q_row: &[f32], seq: &AttnSeq<'_>, out: &[f32]) {
    assert_eq!(q_row.len(), cfg.q_width());
    assert_eq!(out.len(), cfg.q_width());
    assert!(seq.context_len > 0, "empty context");
    assert!(
        seq.table.len() >= seq.context_len,
        "block table shorter than context"
    );
}

/// Scalar reference for one row of [`paged_single_token_batch`]: one full
/// context walk per query head, per-token `dot` calls.
///
/// This is the accumulation-order-defining implementation the blocked
/// kernel is tested against bit-for-bit, and the per-round cost model of
/// the multi-round straw-man ([`super::multiround`]).
///
/// # Panics
///
/// Panics if slice widths disagree with `cfg`, `context_len` is zero, or
/// the block table is shorter than `context_len`.
pub fn paged_single_token_ref(
    cfg: &AttnConfig,
    q_row: &[f32],
    layer: &KvLayerView<'_>,
    seq: &AttnSeq<'_>,
    out: &mut [f32],
) {
    check_single(cfg, q_row, seq, out);
    let d = cfg.head_dim;
    let block_size = layer.layout().block_size;
    let num_blocks = seq.context_len.div_ceil(block_size);

    for h in 0..cfg.num_heads {
        let kvh = cfg.kv_head_for(h);
        let qh = &q_row[h * d..(h + 1) * d];
        let mut st = OnlineSoftmax::new(d);
        let mut t = 0;
        'outer: for bi in 0..num_blocks {
            let b = seq.table.block_at(bi);
            for slot in 0..block_size {
                if t >= seq.context_len {
                    break 'outer;
                }
                let score = dot(qh, layer.k_head(b, slot, kvh)) * cfg.scale;
                st.update(score, layer.v_head(b, slot, kvh));
                t += 1;
            }
        }
        st.finish(&mut out[h * d..(h + 1) * d]);
    }
}

/// Attention for one query token (`q_row`, `[num_heads * head_dim]`) over
/// the first `context_len` tokens of a paged context — blocked fast path.
///
/// Walks the context **once**: each KV block is read as a contiguous
/// `[block_size, kv_width]` slab, each loaded K/V row is reused across
/// every query head of its GQA group, and each head scores a block's slots
/// four at a time as interleaved independent accumulator chains (see
/// [`dot4`]; f32 multiplication commutes bit-for-bit, so each lane equals
/// the reference `dot`). Bit-identical to [`paged_single_token_ref`]: each
/// head's softmax state receives the same score sequence in ascending-`t`
/// order.
///
/// Writes the result into `out` (`[num_heads * head_dim]`).
///
/// # Panics
///
/// Panics if slice widths disagree with `cfg`, `context_len` is zero, or
/// the block table is shorter than `context_len`.
fn paged_single_token(
    cfg: &AttnConfig,
    q_row: &[f32],
    layer: &KvLayerView<'_>,
    seq: &AttnSeq<'_>,
    out: &mut [f32],
) {
    check_single(cfg, q_row, seq, out);
    let d = cfg.head_dim;
    let tf = layer.layout().token_floats();
    let block_size = layer.layout().block_size;
    let num_blocks = seq.context_len.div_ceil(block_size);
    let group = cfg.group_size();

    let mut states: Vec<OnlineSoftmax> =
        (0..cfg.num_heads).map(|_| OnlineSoftmax::new(d)).collect();
    let mut scores = vec![0.0f32; block_size];

    for bi in 0..num_blocks {
        let b = seq.table.block_at(bi);
        let kslab = layer.k_block(b);
        let vslab = layer.v_block(b);
        let t0 = bi * block_size;
        let slots = block_size.min(seq.context_len - t0);
        for kvh in 0..cfg.num_kv_heads {
            let h_lo = kvh * group;
            for g in 0..group {
                let h = h_lo + g;
                let qh = &q_row[h * d..(h + 1) * d];
                // Score this head against the whole block, four slots at a
                // time: the four dot chains are independent and overlap in
                // the pipeline, and f32 multiplication is commutative
                // bit-for-bit, so `dot4(qh, k_t..)` lane `c` equals
                // `dot(qh, k_{t+c})` exactly.
                let krow = |slot: usize| &kslab[slot * tf + kvh * d..slot * tf + (kvh + 1) * d];
                let mut slot = 0;
                while slot + 4 <= slots {
                    let s4 = dot4(
                        qh,
                        krow(slot),
                        krow(slot + 1),
                        krow(slot + 2),
                        krow(slot + 3),
                    );
                    scores[slot..slot + 4].copy_from_slice(&s4);
                    slot += 4;
                }
                while slot < slots {
                    scores[slot] = dot(qh, krow(slot));
                    slot += 1;
                }
                // Fold in ascending-t order — the same score sequence the
                // reference's per-head context walk produces.
                for (slot, &s) in scores[..slots].iter().enumerate() {
                    let vrow = &vslab[slot * tf + kvh * d..slot * tf + (kvh + 1) * d];
                    states[h].update(s * cfg.scale, vrow);
                }
            }
        }
    }
    for h in 0..cfg.num_heads {
        states[h].finish(&mut out[h * d..(h + 1) * d]);
    }
}

/// Batched single-token attention: one query row per request, each
/// computed by the blocked single-context walk.
///
/// `q` holds one row per sequence in `seqs` order; each sequence must have
/// `q_len == 1`. Returns `[seqs.len(), num_heads * head_dim]`.
///
/// # Panics
///
/// Panics if any sequence has `q_len != 1` or shapes are inconsistent.
#[must_use]
pub fn paged_single_token_batch(
    cfg: &AttnConfig,
    q: &Matrix,
    layer: &KvLayerView<'_>,
    seqs: &[AttnSeq<'_>],
) -> Matrix {
    assert_eq!(q.rows(), seqs.len());
    let mut out = Matrix::zeros(seqs.len(), cfg.q_width());
    for (i, seq) in seqs.iter().enumerate() {
        assert_eq!(seq.q_len, 1, "single-token kernel requires q_len == 1");
        paged_single_token(cfg, q.row(i), layer, seq, out.row_mut(i));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::naive::naive_attention;
    use super::*;
    use crate::paged::{gather_contiguous, BlockTable, KvLayout, PagedKvCache};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Fills a paged context with random KV and returns the table.
    fn build_context(rng: &mut StdRng, pool: &mut PagedKvCache, tokens: usize) -> BlockTable {
        let mut table = BlockTable::new(pool.layout().block_size);
        let tf = pool.layout().token_floats();
        for _ in 0..tokens {
            let (b, s) = table.append_token(pool).unwrap();
            let k: Vec<f32> = (0..tf).map(|_| rng.random_range(-1.0..1.0)).collect();
            let v: Vec<f32> = (0..tf).map(|_| rng.random_range(-1.0..1.0)).collect();
            pool.write_token(0, b, s, &k, &v);
        }
        table
    }

    #[test]
    fn matches_naive_for_one_query_token() {
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = AttnConfig::new(4, 2, 8);
        let layout = KvLayout {
            num_kv_heads: 2,
            head_dim: 8,
            block_size: 4,
        };
        for ctx in [1usize, 3, 4, 5, 17, 64] {
            let mut pool = PagedKvCache::new(layout, 1, 32);
            let table = build_context(&mut rng, &mut pool, ctx);
            let q = Matrix::from_vec(
                1,
                cfg.q_width(),
                (0..cfg.q_width())
                    .map(|_| rng.random_range(-1.0..1.0))
                    .collect(),
            );
            let seq = AttnSeq {
                q_start: 0,
                q_len: 1,
                context_len: ctx,
                table: &table,
            };
            let got = paged_single_token_batch(&cfg, &q, &pool.layer(0), &[seq]);
            let (k, v) = gather_contiguous(&pool.layer(0), &table, ctx);
            let expect = naive_attention(&cfg, &q, &k, &v);
            assert!(got.max_abs_diff(&expect) < 1e-5, "ctx={ctx}");
        }
    }

    /// Tokens beyond `context_len` in the table must be invisible.
    #[test]
    fn respects_context_len_shorter_than_table() {
        let mut rng = StdRng::seed_from_u64(12);
        let cfg = AttnConfig::new(2, 2, 4);
        let layout = KvLayout {
            num_kv_heads: 2,
            head_dim: 4,
            block_size: 4,
        };
        let mut pool = PagedKvCache::new(layout, 1, 8);
        let table = build_context(&mut rng, &mut pool, 10);
        let q = Matrix::from_vec(
            1,
            cfg.q_width(),
            (0..cfg.q_width())
                .map(|_| rng.random_range(-1.0..1.0))
                .collect(),
        );
        let seq = AttnSeq {
            q_start: 0,
            q_len: 1,
            context_len: 6,
            table: &table,
        };
        let got = paged_single_token_batch(&cfg, &q, &pool.layer(0), &[seq]);
        let (k, v) = gather_contiguous(&pool.layer(0), &table, 6);
        let expect = naive_attention(&cfg, &q, &k, &v);
        assert!(got.max_abs_diff(&expect) < 1e-5);
    }

    /// The blocked fast path must be bit-identical to the per-head
    /// reference walk for every context/geometry combination.
    #[test]
    fn blocked_bit_identical_to_ref() {
        let mut rng = StdRng::seed_from_u64(13);
        for &(heads, kv_heads, d, bs) in &[
            (4usize, 2usize, 8usize, 4usize),
            (8, 1, 16, 16),
            (6, 6, 4, 2),
            (8, 2, 32, 8),
        ] {
            let cfg = AttnConfig::new(heads, kv_heads, d);
            let layout = KvLayout {
                num_kv_heads: kv_heads,
                head_dim: d,
                block_size: bs,
            };
            for ctx in [1usize, bs - 1, bs, bs + 1, 5 * bs + 3] {
                let ctx = ctx.max(1);
                let mut pool = PagedKvCache::new(layout, 1, 64);
                let table = build_context(&mut rng, &mut pool, ctx);
                let q: Vec<f32> = (0..cfg.q_width())
                    .map(|_| rng.random_range(-1.0..1.0))
                    .collect();
                let seq = AttnSeq {
                    q_start: 0,
                    q_len: 1,
                    context_len: ctx,
                    table: &table,
                };
                let mut fast = vec![0.0f32; cfg.q_width()];
                let mut reference = vec![0.0f32; cfg.q_width()];
                paged_single_token(&cfg, &q, &pool.layer(0), &seq, &mut fast);
                paged_single_token_ref(&cfg, &q, &pool.layer(0), &seq, &mut reference);
                assert_eq!(fast, reference, "h={heads}/{kv_heads} d={d} ctx={ctx}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "q_len == 1")]
    fn rejects_multi_token_queries() {
        let cfg = AttnConfig::new(1, 1, 2);
        let layout = KvLayout {
            num_kv_heads: 1,
            head_dim: 2,
            block_size: 2,
        };
        let mut pool = PagedKvCache::new(layout, 1, 2);
        let mut rng = StdRng::seed_from_u64(0);
        let table = build_context(&mut rng, &mut pool, 2);
        let q = Matrix::zeros(1, 2);
        let seq = AttnSeq {
            q_start: 0,
            q_len: 2,
            context_len: 2,
            table: &table,
        };
        let _ = paged_single_token_batch(&cfg, &q, &pool.layer(0), &[seq]);
    }
}
