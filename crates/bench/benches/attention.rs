//! Criterion microbenchmarks of the four Figure-12 attention kernels.
//!
//! Run with `cargo bench -p pensieve-bench --bench attention`.

// Criterion's entry-point macro generates undocumented items.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pensieve_kernels::attention::contiguous::fused_contiguous;
use pensieve_kernels::attention::copyout::copyout_attention;
use pensieve_kernels::attention::multi::paged_multi_token_pool;
use pensieve_kernels::attention::multiround::multi_round_single_token;
use pensieve_kernels::paged::gather_contiguous;
use pensieve_kernels::{AttnConfig, AttnSeq, BlockTable, KvLayout, Matrix, PagedKvCache, Pool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const BATCH: usize = 8;
const QUERY: usize = 8;
const HEADS: usize = 4;
const HEAD_DIM: usize = 64;
const BLOCK: usize = 16;

struct Setup {
    cfg: AttnConfig,
    pool: PagedKvCache,
    tables: Vec<BlockTable>,
    q: Matrix,
    context: usize,
}

fn setup(context: usize) -> Setup {
    let mut rng = StdRng::seed_from_u64(5);
    let cfg = AttnConfig::new(HEADS, HEADS, HEAD_DIM);
    let layout = KvLayout {
        num_kv_heads: HEADS,
        head_dim: HEAD_DIM,
        block_size: BLOCK,
    };
    let mut pool = PagedKvCache::new(layout, 1, BATCH * context.div_ceil(BLOCK) + 1);
    let tf = layout.token_floats();
    let mut tables = Vec::new();
    for _ in 0..BATCH {
        let mut t = BlockTable::new(BLOCK);
        for _ in 0..context {
            let (b, s) = t.append_token(&mut pool).unwrap();
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

fn seqs(s: &Setup) -> Vec<AttnSeq<'_>> {
    (0..BATCH)
        .map(|i| AttnSeq {
            q_start: i * QUERY,
            q_len: QUERY,
            context_len: s.context,
            table: &s.tables[i],
        })
        .collect()
}

/// Benchmarks the four Figure-12 kernels at short and long (>= 2k token)
/// contexts.
fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig12_attention");
    let serial = Pool::serial();
    for context in [256usize, 1024, 2048] {
        let s = setup(context);
        let layer = s.pool.layer(0);
        let sq = seqs(&s);
        group.bench_with_input(BenchmarkId::new("pensieve", context), &context, |b, _| {
            b.iter(|| black_box(paged_multi_token_pool(&s.cfg, &s.q, &layer, &sq, &serial)));
        });
        group.bench_with_input(BenchmarkId::new("copyout", context), &context, |b, _| {
            b.iter(|| black_box(copyout_attention(&s.cfg, &s.q, &layer, &sq)));
        });
        group.bench_with_input(BenchmarkId::new("multiround", context), &context, |b, _| {
            b.iter(|| black_box(multi_round_single_token(&s.cfg, &s.q, &layer, &sq)));
        });
        // Ideal: contiguous KV prepared outside the measurement.
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
        group.bench_with_input(BenchmarkId::new("ideal", context), &context, |b, _| {
            b.iter(|| {
                for i in 0..BATCH {
                    black_box(fused_contiguous(
                        &s.cfg,
                        &qs[i],
                        &gathered[i].0,
                        &gathered[i].1,
                    ));
                }
            });
        });
    }
    group.finish();
}

/// Benchmarks the blocked, parallel, and multi-round kernels on a ragged
/// unified batch mixing decode (q_len 1), chunked prefill (8), and long
/// prefill (32) sub-requests — the §4.3 batch shape the multi-token
/// kernel exists for.
fn bench_ragged(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let cfg = AttnConfig::new(HEADS, HEADS, HEAD_DIM);
    let layout = KvLayout {
        num_kv_heads: HEADS,
        head_dim: HEAD_DIM,
        block_size: BLOCK,
    };
    let q_lens: Vec<usize> = [1usize, 8, 32].iter().copied().cycle().take(9).collect();
    let context = 512usize;
    let mut pool = PagedKvCache::new(layout, 1, q_lens.len() * context.div_ceil(BLOCK) + 1);
    let tf = layout.token_floats();
    let mut tables = Vec::new();
    for _ in &q_lens {
        let mut t = BlockTable::new(BLOCK);
        for _ in 0..context {
            let (b, s) = t.append_token(&mut pool).unwrap();
            let k: Vec<f32> = (0..tf).map(|_| rng.random_range(-1.0..1.0)).collect();
            let v: Vec<f32> = (0..tf).map(|_| rng.random_range(-1.0..1.0)).collect();
            pool.write_token(0, b, s, &k, &v);
        }
        tables.push(t);
    }
    let rows: usize = q_lens.iter().sum();
    let q = Matrix::from_vec(
        rows,
        cfg.q_width(),
        (0..rows * cfg.q_width())
            .map(|_| rng.random_range(-1.0..1.0))
            .collect(),
    );
    let mut start = 0;
    let sq: Vec<AttnSeq<'_>> = q_lens
        .iter()
        .zip(&tables)
        .map(|(&q_len, table)| {
            let s = AttnSeq {
                q_start: start,
                q_len,
                context_len: context,
                table,
            };
            start += q_len;
            s
        })
        .collect();
    let layer = pool.layer(0);

    let mut group = c.benchmark_group("ragged_attention");
    let serial = Pool::serial();
    group.bench_with_input(BenchmarkId::new("pensieve", 1), &1usize, |b, _| {
        b.iter(|| black_box(paged_multi_token_pool(&cfg, &q, &layer, &sq, &serial)));
    });
    for threads in [2usize, 4] {
        let pool = Pool::global(threads);
        group.bench_with_input(
            BenchmarkId::new("pensieve_pool", threads),
            &threads,
            |b, _| {
                b.iter(|| black_box(paged_multi_token_pool(&cfg, &q, &layer, &sq, &pool)));
            },
        );
    }
    group.bench_with_input(BenchmarkId::new("multiround", 1), &1usize, |b, _| {
        b.iter(|| black_box(multi_round_single_token(&cfg, &q, &layer, &sq)));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_kernels, bench_ragged
}
criterion_main!(benches);
