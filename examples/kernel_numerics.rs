//! Kernel numerics: the four Figure-12 attention kernels agree bitwise-ish.
//!
//! Builds a paged KV context spread across non-contiguous blocks, runs a
//! ragged batch (one decode request + one prefill request + one
//! sub-request pair sharing a context) through all four kernel
//! implementations, and prints the maximum pairwise deviation.
//!
//! Run with: `cargo run --release --example kernel_numerics`

use pensieve_kernels::attention::contiguous::fused_contiguous;
use pensieve_kernels::attention::copyout::copyout_attention;
use pensieve_kernels::attention::multi::paged_multi_token_pool;
use pensieve_kernels::attention::multiround::multi_round_single_token;
use pensieve_kernels::paged::gather_contiguous;
use pensieve_kernels::{AttnConfig, AttnSeq, BlockTable, KvLayout, Matrix, PagedKvCache, Pool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(12);
    let cfg = AttnConfig::new(8, 2, 16); // GQA group size 4.
    let layout = KvLayout {
        num_kv_heads: 2,
        head_dim: 16,
        block_size: 8,
    };
    let mut pool = PagedKvCache::new(layout, 1, 64);
    let tf = layout.token_floats();
    let mut fill = |pool: &mut PagedKvCache, tokens: usize| {
        let mut t = BlockTable::new(8);
        for _ in 0..tokens {
            let (b, s) = t.append_token(pool).expect("pool sized");
            let k: Vec<f32> = (0..tf).map(|_| rng.random_range(-1.0..1.0)).collect();
            let v: Vec<f32> = (0..tf).map(|_| rng.random_range(-1.0..1.0)).collect();
            pool.write_token(0, b, s, &k, &v);
        }
        t
    };
    let decode_ctx = fill(&mut pool, 37);
    let prefill_ctx = fill(&mut pool, 52);
    let shared_ctx = fill(&mut pool, 30);

    let mut rng = StdRng::seed_from_u64(13);
    // Query rows: 1 decode + 12 prefill + (6 recompute + 4 prompt).
    let total_q = 1 + 12 + 6 + 4;
    let q = Matrix::from_vec(
        total_q,
        cfg.q_width(),
        (0..total_q * cfg.q_width())
            .map(|_| rng.random_range(-1.0..1.0))
            .collect(),
    );
    let seqs = [
        AttnSeq {
            q_start: 0,
            q_len: 1,
            context_len: 37,
            table: &decode_ctx,
        },
        AttnSeq {
            q_start: 1,
            q_len: 12,
            context_len: 52,
            table: &prefill_ctx,
        },
        // Sub-request pair (paper Figure 8d): a recomputed leading range
        // attending to itself, and the new prompt attending to everything.
        AttnSeq {
            q_start: 13,
            q_len: 6,
            context_len: 6,
            table: &shared_ctx,
        },
        AttnSeq {
            q_start: 19,
            q_len: 4,
            context_len: 30,
            table: &shared_ctx,
        },
    ];

    let layer = pool.layer(0);
    let pensieve = paged_multi_token_pool(&cfg, &q, &layer, &seqs, &Pool::serial());
    let copyout = copyout_attention(&cfg, &q, &layer, &seqs);
    let multiround = multi_round_single_token(&cfg, &q, &layer, &seqs);

    // Ideal contiguous reference, sequence by sequence.
    let mut ideal = Matrix::zeros(total_q, cfg.q_width());
    for seq in &seqs {
        let (k, v) = gather_contiguous(&layer, seq.table, seq.context_len);
        let mut qs = Matrix::zeros(seq.q_len, cfg.q_width());
        for j in 0..seq.q_len {
            qs.row_mut(j).copy_from_slice(q.row(seq.q_start + j));
        }
        let out = fused_contiguous(&cfg, &qs, &k, &v);
        for j in 0..seq.q_len {
            ideal.row_mut(seq.q_start + j).copy_from_slice(out.row(j));
        }
    }

    println!("ragged batch: decode(q=1,ctx=37) + prefill(q=12,ctx=52) + sub-requests(6@6, 4@30)");
    println!(
        "max |pensieve - ideal|      = {:.2e}",
        pensieve.max_abs_diff(&ideal)
    );
    println!(
        "max |copyout  - ideal|      = {:.2e}",
        copyout.max_abs_diff(&ideal)
    );
    println!(
        "max |multiround - ideal|    = {:.2e}",
        multiround.max_abs_diff(&ideal)
    );
    assert!(pensieve.max_abs_diff(&ideal) < 1e-5);
    assert!(copyout.max_abs_diff(&ideal) < 1e-5);
    assert!(multiround.max_abs_diff(&ideal) < 1e-5);
    println!("\nAll four kernels agree on a ragged mixed prefill/decode batch with");
    println!("GQA and shared sub-request contexts over non-contiguous KV blocks.");
}
