//! Figure 12: multi-token attention kernel microbenchmark (real compute).
//!
//! Batch of 32 requests, 8 query tokens each, over paged KV contexts of
//! varying size, comparing (as in the paper):
//!
//! * **Ideal** — fused attention over contiguous KV (performance ceiling);
//! * **CopyOut+Attention** — gather paged KV to contiguous, then fuse;
//! * **Multi-round PagedAttention** — one single-token paged call per
//!   prompt token;
//! * **Pensieve** — the multi-token paged kernel.
//!
//! These are the actual CPU kernels from `pensieve-kernels` (f32), scaled
//! to 8 heads x 64 dims so a sweep finishes in seconds; the *relative*
//! behaviour (copy cost linear in context, multi-round cost linear in
//! query length) is platform-independent.

use std::time::Instant;

use pensieve_bench::{print_table, write_json};
use pensieve_kernels::attention::contiguous::fused_contiguous;
use pensieve_kernels::attention::copyout::copyout_attention;
use pensieve_kernels::attention::multi::paged_multi_token_pool;
use pensieve_kernels::attention::multiround::multi_round_single_token;
use pensieve_kernels::paged::gather_contiguous;
use pensieve_kernels::{AttnConfig, AttnSeq, BlockTable, KvLayout, Matrix, PagedKvCache, Pool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

const BATCH: usize = 32;
const QUERY: usize = 8;
const HEADS: usize = 8;
const HEAD_DIM: usize = 64;
const BLOCK: usize = 16;

#[derive(Serialize)]
struct Row {
    context: usize,
    ideal_ms: f64,
    copyout_ms: f64,
    multiround_ms: f64,
    pensieve_ms: f64,
}

struct Setup {
    cfg: AttnConfig,
    pool: PagedKvCache,
    tables: Vec<BlockTable>,
    q: Matrix,
    context: usize,
}

impl Setup {
    fn new(context: usize, rng: &mut StdRng) -> Self {
        let cfg = AttnConfig::new(HEADS, HEADS, HEAD_DIM);
        let layout = KvLayout {
            num_kv_heads: HEADS,
            head_dim: HEAD_DIM,
            block_size: BLOCK,
        };
        let blocks_needed = BATCH * context.div_ceil(BLOCK) + 1;
        let mut pool = PagedKvCache::new(layout, 1, blocks_needed);
        let tf = layout.token_floats();
        let mut tables = Vec::with_capacity(BATCH);
        for _ in 0..BATCH {
            let mut t = BlockTable::new(BLOCK);
            for _ in 0..context {
                let (b, s) = t.append_token(&mut pool).expect("sized pool");
                let k: Vec<f32> = (0..tf).map(|_| rng.random_range(-1.0..1.0)).collect();
                let v: Vec<f32> = (0..tf).map(|_| rng.random_range(-1.0..1.0)).collect();
                pool.write_token(0, b, s, &k, &v);
            }
            tables.push(t);
        }
        let q = Matrix::from_vec(
            BATCH * QUERY,
            cfg.q_width(),
            (0..BATCH * QUERY * cfg.q_width())
                .map(|_| rng.random_range(-1.0..1.0))
                .collect(),
        );
        Setup {
            cfg,
            pool,
            tables,
            q,
            context,
        }
    }

    fn seqs(&self) -> Vec<AttnSeq<'_>> {
        (0..BATCH)
            .map(|i| AttnSeq {
                q_start: i * QUERY,
                q_len: QUERY,
                context_len: self.context,
                table: &self.tables[i],
            })
            .collect()
    }
}

fn time_ms(mut f: impl FnMut()) -> f64 {
    // One warmup, then best of 3 (stable on a noisy CPU).
    f();
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    println!(
        "Figure 12: multi-token attention over non-contiguous KV\n(batch {BATCH}, query {QUERY}, {HEADS} heads x {HEAD_DIM} dims, real CPU kernels)\n"
    );
    let mut rng = StdRng::seed_from_u64(99);
    let serial = Pool::serial();
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for context in [128usize, 256, 512, 1024, 2048] {
        let s = Setup::new(context, &mut rng);
        let layer = s.pool.layer(0);
        let seqs = s.seqs();

        // Ideal: contiguous KV pre-gathered outside the timed region.
        let gathered: Vec<(Matrix, Matrix)> = s
            .tables
            .iter()
            .map(|t| gather_contiguous(&layer, t, context))
            .collect();
        let qs: Vec<Matrix> = (0..BATCH)
            .map(|i| {
                let mut m = Matrix::zeros(QUERY, s.cfg.q_width());
                for j in 0..QUERY {
                    m.row_mut(j).copy_from_slice(s.q.row(i * QUERY + j));
                }
                m
            })
            .collect();
        let ideal = time_ms(|| {
            for i in 0..BATCH {
                std::hint::black_box(fused_contiguous(
                    &s.cfg,
                    &qs[i],
                    &gathered[i].0,
                    &gathered[i].1,
                ));
            }
        });
        let copyout = time_ms(|| {
            std::hint::black_box(copyout_attention(&s.cfg, &s.q, &layer, &seqs));
        });
        let multiround = time_ms(|| {
            std::hint::black_box(multi_round_single_token(&s.cfg, &s.q, &layer, &seqs));
        });
        let pensieve = time_ms(|| {
            std::hint::black_box(paged_multi_token_pool(&s.cfg, &s.q, &layer, &seqs, &serial));
        });
        rows.push(vec![
            context.to_string(),
            format!("{ideal:.2}"),
            format!("{copyout:.2}"),
            format!("{multiround:.2}"),
            format!("{pensieve:.2}"),
        ]);
        json.push(Row {
            context,
            ideal_ms: ideal,
            copyout_ms: copyout,
            multiround_ms: multiround,
            pensieve_ms: pensieve,
        });
        eprintln!("  context {context}: done");
    }
    print_table(
        &[
            "context",
            "ideal (ms)",
            "copyout (ms)",
            "multi-round (ms)",
            "Pensieve (ms)",
        ],
        &rows,
    );
    let last = json.last().expect("rows");
    println!(
        "\nAt context {}: Pensieve = {:.2}x ideal; copy-out overhead {:.2}x; multi-round {:.2}x.",
        last.context,
        last.pensieve_ms / last.ideal_ms,
        last.copyout_ms / last.ideal_ms,
        last.multiround_ms / last.ideal_ms,
    );
    write_json("fig12", &json);

    query_sweep(&mut rng);
}

/// §3.2's claim, isolated: multi-round single-token attention "gives up
/// the parallelization opportunity brought by the extra query token
/// dimension", so its *per-token* cost stays flat while the multi-token
/// kernel amortizes each loaded KV block across all query rows.
fn query_sweep(rng: &mut StdRng) {
    #[derive(Serialize)]
    struct QRow {
        query_len: usize,
        pensieve_ms: f64,
        multiround_ms: f64,
    }
    println!("\nQuery-length sweep at context 1024 (batch {BATCH}):\n");
    let context = 1024usize;
    let serial = Pool::serial();
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for q_len in [1usize, 2, 4, 8, 16] {
        let cfg = AttnConfig::new(HEADS, HEADS, HEAD_DIM);
        let layout = KvLayout {
            num_kv_heads: HEADS,
            head_dim: HEAD_DIM,
            block_size: BLOCK,
        };
        let mut pool = PagedKvCache::new(layout, 1, BATCH * context.div_ceil(BLOCK) + 1);
        let tf = layout.token_floats();
        let mut tables = Vec::with_capacity(BATCH);
        for _ in 0..BATCH {
            let mut t = BlockTable::new(BLOCK);
            for _ in 0..context {
                let (b, s) = t.append_token(&mut pool).expect("sized pool");
                let k: Vec<f32> = (0..tf).map(|_| rng.random_range(-1.0..1.0)).collect();
                let v: Vec<f32> = (0..tf).map(|_| rng.random_range(-1.0..1.0)).collect();
                pool.write_token(0, b, s, &k, &v);
            }
            tables.push(t);
        }
        let q = Matrix::from_vec(
            BATCH * q_len,
            cfg.q_width(),
            (0..BATCH * q_len * cfg.q_width())
                .map(|_| rng.random_range(-1.0..1.0))
                .collect(),
        );
        let seqs: Vec<AttnSeq<'_>> = (0..BATCH)
            .map(|i| AttnSeq {
                q_start: i * q_len,
                q_len,
                context_len: context,
                table: &tables[i],
            })
            .collect();
        let layer = pool.layer(0);
        let pensieve = time_ms(|| {
            std::hint::black_box(paged_multi_token_pool(&cfg, &q, &layer, &seqs, &serial));
        });
        let multiround = time_ms(|| {
            std::hint::black_box(multi_round_single_token(&cfg, &q, &layer, &seqs));
        });
        rows.push(vec![
            q_len.to_string(),
            format!("{pensieve:.2}"),
            format!("{multiround:.2}"),
            format!("{:.2}x", multiround / pensieve),
        ]);
        json.push(QRow {
            query_len: q_len,
            pensieve_ms: pensieve,
            multiround_ms: multiround,
        });
    }
    print_table(
        &["query len", "Pensieve (ms)", "multi-round (ms)", "ratio"],
        &rows,
    );
    write_json("fig12_query_sweep", &json);
}
