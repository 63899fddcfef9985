//! Behaviour pin for the tiered cache's tier transitions.
//!
//! A fixed, seeded op script drives one [`TieredKvCache`] — retention-value
//! eviction, SSD and cold tiers enabled, capacities small enough that every
//! tier overflows — through every operation that moves a chunk between
//! tiers: appends and restores, ahead-of-time and forced swap-out,
//! suspension, shared-prefix registration/attachment/materialization,
//! explicit acquire/release, forks, export→import handoffs, manifest
//! rehydration, injected CPU-copy loss/corruption, and the two recompute
//! fallbacks.
//!
//! The constants below were produced by the cache *before* its transition
//! bookkeeping was consolidated and are never regenerated: the trace hash
//! pins every eviction, demotion, drop and restore decision event by
//! event, the result hash pins every operation's return value, and the
//! final [`CacheStats`] and occupancy accessors pin the bookkeeping. Any
//! refactor of the cache's internals must leave all of them unchanged.

use std::collections::BTreeSet;

use pensieve_kvcache::{
    synthetic_preamble, CacheConfig, CacheStats, ChunkHandle, RetentionValuePolicy, SessionId,
    TieredKvCache,
};
use pensieve_model::{CostModel, HardwareSpec, ModelConfig, ProfiledCostTable, SimTime};
use pensieve_obs::{trace_hash, DropReason, SharedRecorder, StorageTier, TraceEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0x5EED_7135;
const OPS: usize = 3000;
const CONVS: u64 = 10;

/// FNV-1a fold of one operation's outcome into the running result hash.
fn fold(h: u64, outcome: &str) -> u64 {
    outcome
        .bytes()
        .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

struct Run {
    cache: TieredKvCache,
    events: Vec<TraceEvent>,
    results: u64,
}

fn run_script() -> Run {
    let cost = CostModel::new(ModelConfig::opt_13b(), HardwareSpec::azure_nc_a100(1));
    let policy = RetentionValuePolicy::new(ProfiledCostTable::profile(&cost, 32, 16384));
    let recorder = SharedRecorder::new();
    let mut cache = TieredKvCache::builder(CacheConfig::for_test(32, 640, 256))
        .deep_tiers(192, 160)
        .policy(Box::new(policy))
        .recorder(recorder.clone())
        .build();
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut results = 0xcbf2_9ce4_8422_2325u64;
    let mut handles: Vec<ChunkHandle> = Vec::new();
    // Sessions that ever forked are never removed: fork ids derive from
    // (parent, position, length), so a removed and recreated parent that
    // forks again at the same shape would re-derive ids its earlier
    // children still hold.
    let mut fork_parents: BTreeSet<SessionId> = BTreeSet::new();

    // Two shareable prefixes: one deployment-wide global preamble and one
    // ordinary shared document that sharers attach to and evict.
    let global = cache.register_shared(&synthetic_preamble(1, 64), SimTime::ZERO);
    let doc = cache.register_shared(&synthetic_preamble(2, 96), SimTime::ZERO);
    handles.extend(
        cache
            .materialize_global(&global, SimTime::ZERO)
            .expect("the empty GPU tier holds the preamble"),
    );

    let mut t = 0.0f64;
    for _ in 0..OPS {
        t += rng.random_range(0.05..3.0);
        let now = SimTime::from_secs(t);
        let conv = SessionId(rng.random_range(0..CONVS));
        let n: usize = rng.random_range(1..120);
        let op: u32 = rng.random_range(0..20);
        let outcome = match op {
            0..=4 => {
                let plan = cache.commit_restore(conv, now);
                let appended = plan.is_ok() && cache.append_tokens(conv, n, now).is_ok();
                format!("restore+append {plan:?} {appended}")
            }
            5 | 6 => {
                cache.unpin(conv);
                String::from("unpin")
            }
            7 => format!("swap {:?}", cache.maybe_swap_out(now)),
            8 => format!(
                "swap_for {:?}",
                cache.swap_out_until_for(n * 3, Some(conv), now)
            ),
            9 => format!("suspend {}", cache.suspend(conv, now)),
            10 => {
                let chain = if n.is_multiple_of(2) { &doc } else { &global };
                let attached = if cache.contains(conv) {
                    Err(None)
                } else {
                    cache
                        .attach_shared(conv, &chain[..1 + n % chain.len()], now)
                        .map_err(Some)
                };
                format!("attach {attached:?}")
            }
            11 => {
                let child = SessionId(rng.random_range(0..CONVS));
                let forked = cache.fork_session(conv, child, now);
                if forked.is_ok() {
                    fork_parents.insert(conv);
                }
                format!("fork {forked:?}")
            }
            12 => match cache.export_session(conv) {
                Some(mut export) => {
                    let lost = export.mark_lost(n % (export.chunks.len() + 1));
                    let imported = cache.import_session(export, now);
                    format!("export+import {lost} {imported:?}")
                }
                None => String::from("export refused"),
            },
            13 => {
                let manifest = cache.manifest_chunks(conv);
                if manifest.is_empty() || cache.export_session(conv).is_none() {
                    String::from("rehydrate skipped")
                } else {
                    let back = cache.rehydrate_session(conv, &manifest, now);
                    format!("rehydrate {manifest:?} {back:?}")
                }
            }
            14 => {
                let targets = cache.cpu_resident_chunks();
                if targets.is_empty() {
                    String::from("no cpu copy")
                } else {
                    let (c, idx, _) = targets[n % targets.len()];
                    if n.is_multiple_of(2) {
                        format!("lost {:?}", cache.mark_chunk_lost(c, idx))
                    } else {
                        format!("corrupt {:?}", cache.mark_chunk_corrupt(c, idx))
                    }
                }
            }
            15 => format!("drop_cpu {}", cache.drop_cpu_chunks(conv, now)),
            16 => format!("drop_deep {}", cache.drop_deep_chunks(conv, now)),
            17 => {
                if n.is_multiple_of(3) && handles.len() > global.len() {
                    let h = handles.pop().expect("checked non-empty");
                    format!("release {:?}", cache.release(h))
                } else {
                    let id = doc[n % doc.len()];
                    let acquired = cache.acquire(id);
                    let out = format!("acquire {:?}", acquired.as_ref().map(ChunkHandle::id));
                    handles.extend(acquired);
                    out
                }
            }
            18 if !fork_parents.contains(&conv) => {
                cache.remove_conversation(conv);
                String::from("remove")
            }
            _ => format!("plan {:?}", cache.plan_restore(conv)),
        };
        results = fold(results, &outcome);
        results = fold(
            results,
            &format!(
                "{} {} {} {} {} {}",
                cache.gpu_slots_used(),
                cache.gpu_free_effective(),
                cache.cpu_used(),
                cache.ssd_used(),
                cache.cold_used(),
                cache.physical_resident_tokens(),
            ),
        );
    }
    for h in handles {
        cache
            .release(h)
            .expect("every handle is released exactly once");
    }
    Run {
        cache,
        events: recorder.events(),
        results,
    }
}

/// The script reaches every transition the pin is meant to cover — a
/// guard against a retuned script silently exercising less.
#[test]
fn script_covers_every_transition() {
    let run = run_script();
    let count = |f: &dyn Fn(&TraceEvent) -> bool| run.events.iter().filter(|e| f(e)).count();
    let checks: [(&str, usize); 15] = [
        (
            "gpu->cpu lazy copy",
            count(&|e| matches!(e, TraceEvent::ChunkEvicted { dropped: false, .. })),
        ),
        (
            "gpu drop (no cpu room)",
            count(&|e| matches!(e, TraceEvent::ChunkEvicted { dropped: true, .. })),
        ),
        (
            "cpu-pressure drop",
            count(&|e| {
                matches!(
                    e,
                    TraceEvent::ChunkDropped {
                        reason: DropReason::CpuPressure,
                        ..
                    }
                )
            }),
        ),
        (
            "cpu->ssd demotion",
            count(&|e| {
                matches!(
                    e,
                    TraceEvent::ChunkDemoted {
                        from: StorageTier::Cpu,
                        to: StorageTier::Ssd,
                        ..
                    }
                )
            }),
        ),
        (
            "ssd->cold demotion",
            count(&|e| {
                matches!(
                    e,
                    TraceEvent::ChunkDemoted {
                        from: StorageTier::Ssd,
                        to: StorageTier::Cold,
                        ..
                    }
                )
            }),
        ),
        (
            "cold-pressure drop",
            count(&|e| {
                matches!(
                    e,
                    TraceEvent::ChunkDropped {
                        reason: DropReason::ColdPressure,
                        ..
                    }
                )
            }),
        ),
        (
            "shared chunk eviction",
            count(&|e| matches!(e, TraceEvent::SharedChunkEvicted { dropped: false, .. })),
        ),
        (
            "shared chunk drop",
            count(&|e| matches!(e, TraceEvent::SharedChunkEvicted { dropped: true, .. })),
        ),
        (
            "revalidation",
            count(&|e| matches!(e, TraceEvent::Revalidated { .. })),
        ),
        (
            "cpu swap-in",
            count(&|e| matches!(e, TraceEvent::SwapInCommitted { .. })),
        ),
        (
            "ssd read",
            count(&|e| {
                matches!(
                    e,
                    TraceEvent::TierReadCommitted {
                        tier: StorageTier::Ssd,
                        ..
                    }
                )
            }),
        ),
        (
            "cold read",
            count(&|e| {
                matches!(
                    e,
                    TraceEvent::TierReadCommitted {
                        tier: StorageTier::Cold,
                        ..
                    }
                )
            }),
        ),
        (
            "recompute",
            count(&|e| matches!(e, TraceEvent::RecomputeCommitted { .. })),
        ),
        (
            "swap-in fault drop",
            count(&|e| {
                matches!(
                    e,
                    TraceEvent::ChunkDropped {
                        reason: DropReason::SwapInFault,
                        ..
                    }
                )
            }),
        ),
        (
            "cold-read fault drop",
            count(&|e| {
                matches!(
                    e,
                    TraceEvent::ChunkDropped {
                        reason: DropReason::ColdReadFault,
                        ..
                    }
                )
            }),
        ),
    ];
    for (name, n) in checks {
        assert!(n > 0, "the script never exercised: {name}");
    }
    let s = run.cache.stats();
    assert!(s.lost_chunk_tokens > 0 && s.corrupted_chunk_tokens > 0);
    assert!(s.rehydrated_tokens > 0 && s.shared_hit_tokens > 0);
}

#[test]
fn transitions_match_the_pinned_behaviour() {
    let run = run_script();
    let c = &run.cache;
    assert_eq!(
        (
            run.events.len(),
            format!("{:016x}", trace_hash(&run.events))
        ),
        (969, String::from("9556d5d1e5ef8f5e")),
        "trace of cache decisions changed"
    );
    assert_eq!(
        format!("{:016x}", run.results),
        "31c67d1ef1081884",
        "an operation's return value or the occupancy after it changed"
    );
    assert_eq!(
        (
            c.gpu_slots_used(),
            c.gpu_free_strict(),
            c.gpu_free_effective(),
            c.cpu_used(),
            c.ssd_used(),
            c.cold_used(),
            c.physical_resident_tokens(),
            c.logical_resident_tokens(),
        ),
        (458, 182, 182, 240, 183, 159, 1040, 1240),
        "final occupancy changed"
    );
    let expected = CacheStats {
        gpu_hit_tokens: 32223,
        cpu_hit_tokens: 2241,
        recomputed_tokens: 4591,
        swapped_out_tokens: 10569,
        swapped_in_tokens: 2241,
        dropped_tokens: 4621,
        revalidated_tokens: 587,
        full_gpu_hits: 189,
        partial_hits: 71,
        lost_chunk_tokens: 611,
        corrupted_chunk_tokens: 619,
        swap_in_fault_tokens: 576,
        ssd_hit_tokens: 566,
        cold_hit_tokens: 495,
        demoted_tokens: 3649,
        rehydrated_tokens: 15586,
        cold_read_fault_tokens: 948,
        shared_hit_tokens: 16518,
    };
    assert_eq!(c.stats(), &expected, "final cache statistics changed");
}
