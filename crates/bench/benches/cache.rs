//! Criterion benchmarks of the tiered cache manager's hot paths.

// Criterion's entry-point macro generates undocumented items.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, Criterion};
use pensieve_kvcache::{CacheConfig, LruPolicy, SessionId, TieredKvCache};
use pensieve_model::SimTime;
use std::hint::black_box;

/// A cache populated with `n` conversations of 256 tokens each.
fn populated(n: usize) -> TieredKvCache {
    let mut cache = TieredKvCache::builder(CacheConfig::for_test(32, n * 512, n * 512))
        .policy(Box::new(LruPolicy))
        .build();
    for i in 0..n {
        let conv = SessionId(i as u64);
        cache
            .append_tokens(conv, 256, SimTime::from_secs(i as f64))
            .unwrap();
        cache.unpin(conv);
    }
    cache
}

/// Benchmarks append, restore planning, and the swap-out pass.
fn bench_cache(c: &mut Criterion) {
    c.bench_function("append_decode_token", |b| {
        // Effectively unbounded capacity: criterion's warmup performs
        // millions of appends and must never exhaust the pool.
        let mut cache =
            TieredKvCache::builder(CacheConfig::for_test(32, usize::MAX / 2, usize::MAX / 2))
                .policy(Box::new(LruPolicy))
                .build();
        let conv = SessionId(0);
        cache
            .append_tokens(conv, 256, SimTime::from_secs(0.0))
            .unwrap();
        b.iter(|| {
            cache
                .append_tokens(black_box(conv), 1, SimTime::from_secs(1000.0))
                .unwrap();
        });
    });

    c.bench_function("plan_restore_256_convs", |b| {
        let cache = populated(256);
        b.iter(|| black_box(cache.plan_restore(SessionId(17))));
    });

    c.bench_function("swap_out_pass_256_convs", |b| {
        b.iter_with_setup(
            || {
                let mut cache =
                    TieredKvCache::builder(CacheConfig::for_test(32, 256 * 260, 256 * 512))
                        .policy(Box::new(LruPolicy))
                        .build();
                for i in 0..256usize {
                    let conv = SessionId(i as u64);
                    cache
                        .append_tokens(conv, 256, SimTime::from_secs(i as f64))
                        .unwrap();
                    cache.unpin(conv);
                }
                cache
            },
            |mut cache| {
                black_box(cache.maybe_swap_out(SimTime::from_secs(1e4)));
            },
        );
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_cache
}
criterion_main!(benches);
