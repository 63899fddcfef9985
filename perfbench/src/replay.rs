//! Timed kvcache replay: drives a [`TieredKvCache`] through its public
//! API with a run's turn sequence, in the order the engine issues the
//! calls for one turn (attach → plan → make room → commit → append
//! prefill → append each decode token → ahead-of-time swap-out → unpin).
//!
//! Turns replay one at a time in arrival order, so the cache sees the
//! run's sessions, lengths and clock but not its batching: the replay
//! measures what each call costs at the residency the turn sequence
//! builds up, not the engine's exact interleaving.

use std::time::Instant;

use pensieve_core::config::PolicyKind;
use pensieve_core::EngineConfig;
use pensieve_kvcache::{
    synthetic_preamble, CacheConfig, CacheError, ChunkHandle, ChunkId, RetentionValuePolicy,
    SessionId, TieredKvCache,
};
use pensieve_model::{CostModel, HardwareSpec, ModelConfig, ProfiledCostTable, SimTime};

use crate::trace::Tracer;

/// Seed of the replay's stand-in for the shared system preamble.
const PREAMBLE_SEED: u64 = 0x5245_504c; // "REPL"

/// One turn to replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayTurn {
    /// Request id (orders turns that arrive together).
    pub id: u64,
    /// Owning session.
    pub session: SessionId,
    /// Arrival time: the clock for the restore and prefill calls.
    pub arrival: SimTime,
    /// Finish time: the clock for the completion calls.
    pub finish: SimTime,
    /// History tokens the request carried.
    pub history: usize,
    /// Prompt tokens.
    pub prompt: usize,
    /// Output tokens.
    pub output: usize,
}

/// Cost of one kind of cache call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpTime {
    /// Calls issued.
    pub calls: u64,
    /// Summed wall time, seconds.
    pub total_s: f64,
}

impl OpTime {
    fn add(&mut self, calls: u64, secs: f64) {
        self.calls += calls;
        self.total_s += secs;
    }

    /// Mean microseconds per call (0 when never called).
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_s * 1e6 / self.calls as f64
        }
    }
}

/// What one replay measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayResult {
    /// `attach_shared`.
    pub attach_shared: OpTime,
    /// `plan_restore`.
    pub plan_restore: OpTime,
    /// `commit_restore`.
    pub commit_restore: OpTime,
    /// `append_tokens` (prefill and per-token decode appends).
    pub append: OpTime,
    /// `swap_out_until_for` and `maybe_swap_out`.
    pub swap_out: OpTime,
    /// FNV-1a over every call issued (kind, session, arguments) and its
    /// outcome: identical across reruns of one turn sequence.
    pub call_hash: u64,
    /// Cache calls issued.
    pub calls: u64,
    /// Calls that returned an error the engine would not have seen.
    pub errors: u64,
}

/// Builds the cache exactly as `SimServingEngine` does for `engine`:
/// [`CacheConfig::from_model`] with the engine's chunking, watermark and
/// tier knobs, and the retention-value policy over the profiled cost
/// table.
///
/// # Panics
///
/// Panics unless `engine` uses the retention-value policy.
#[must_use]
pub fn engine_cache(
    engine: &EngineConfig,
    model: &ModelConfig,
    hw: &HardwareSpec,
) -> TieredKvCache {
    assert_eq!(
        engine.policy,
        PolicyKind::RetentionValue,
        "replay mirrors Pensieve's policy"
    );
    let cost = CostModel::new(model.clone(), hw.clone());
    let mut cfg = CacheConfig::from_model(model, &cost);
    cfg.chunk_tokens = engine.chunk_tokens;
    cfg.swap_watermark = engine.swap_watermark;
    cfg.decode_reserve = engine.decode_reserve;
    if !engine.cpu_cache || !engine.stateful {
        cfg.cpu_capacity_tokens = 0;
    } else {
        cfg.ssd_capacity_tokens = engine.ssd_capacity_tokens;
        cfg.cold_capacity_tokens = engine.cold_capacity_tokens;
    }
    let policy =
        RetentionValuePolicy::new(ProfiledCostTable::profile(&cost, cfg.chunk_tokens, 16384));
    TieredKvCache::builder(cfg).policy(Box::new(policy)).build()
}

struct Replayer<'a> {
    cache: TieredKvCache,
    tracer: Option<&'a Tracer>,
    out: ReplayResult,
}

impl Replayer<'_> {
    fn note(&mut self, kind: u64, session: SessionId, arg: u64, outcome: u64) {
        let mut h = if self.out.calls == 0 {
            0xCBF2_9CE4_8422_2325
        } else {
            self.out.call_hash
        };
        for word in [kind, session.0, arg, outcome] {
            for b in word.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        self.out.call_hash = h;
        self.out.calls += 1;
    }

    /// Times `f`, under a span named `name` when one is given (the
    /// per-token decode appends go without, or they would flood the
    /// trace); returns its value and seconds.
    fn timed<T>(
        &mut self,
        name: Option<&'static str>,
        f: impl FnOnce(&mut TieredKvCache) -> T,
    ) -> (T, f64) {
        let span = self.tracer.zip(name).map(|(t, n)| t.enter(n, None));
        let t = Instant::now();
        let v = f(&mut self.cache);
        let secs = t.elapsed().as_secs_f64();
        if let (Some(tr), Some(s)) = (self.tracer, span) {
            tr.exit(s);
        }
        (v, secs)
    }

    fn swap_out(&mut self, target: usize, for_conv: SessionId, now: SimTime) {
        let (ops, secs) = self.timed(Some("kvcache.swap_out"), |c| {
            c.swap_out_until_for(target, Some(for_conv), now)
        });
        self.out.swap_out.add(1, secs);
        self.note(4, for_conv, target as u64, ops.len() as u64);
    }

    fn append(&mut self, s: SessionId, n: usize, now: SimTime, span: Option<&'static str>) {
        let (r, secs) = self.timed(span, |c| c.append_tokens(s, n, now));
        self.out.append.add(1, secs);
        self.note(6, s, n as u64, u64::from(r.is_err()));
        if let Err(CacheError::OutOfGpu { needed, .. }) = r {
            self.swap_out(needed, s, now);
            let (r, secs) = self.timed(span, |c| c.append_tokens(s, n, now));
            self.out.append.add(1, secs);
            self.note(6, s, n as u64, u64::from(r.is_err()));
            self.out.errors += u64::from(r.is_err());
        }
    }

    fn turn(&mut self, t: &ReplayTurn, chain: &[ChunkId]) {
        let s = t.session;
        if !chain.is_empty()
            && !self.cache.contains(s)
            && t.history >= self.cache.config().chunk_tokens * chain.len()
        {
            let (r, secs) = self.timed(Some("kvcache.attach_shared"), |c| {
                c.attach_shared(s, chain, t.arrival)
            });
            self.out.attach_shared.add(1, secs);
            self.note(
                1,
                s,
                chain.len() as u64,
                r.as_ref().map_or(u64::MAX, |n| *n as u64),
            );
            self.out.errors += u64::from(r.is_err());
        }
        let (plan, secs) = self.timed(Some("kvcache.plan_restore"), |c| c.plan_restore(s));
        self.out.plan_restore.add(1, secs);
        let need = plan.new_gpu_slots() + t.prompt + 1;
        self.note(2, s, need as u64, plan.recompute_tokens as u64);
        if self.cache.gpu_free_effective_for(s) < need {
            self.swap_out(need, s, t.arrival);
        }
        let (r, secs) = self.timed(Some("kvcache.commit_restore"), |c| {
            c.commit_restore(s, t.arrival)
        });
        self.out.commit_restore.add(1, secs);
        self.note(
            3,
            s,
            0,
            r.as_ref().map_or(u64::MAX, |p| p.swap_in_tokens as u64),
        );
        let Ok(plan) = r else {
            self.out.errors += 1;
            return;
        };
        let cached = plan.gpu_hit_tokens
            + plan.revalidate_tokens
            + plan.swap_in_tokens
            + plan.deep_read_tokens()
            + plan.recompute_tokens;
        self.append(
            s,
            t.history.saturating_sub(cached) + t.prompt,
            t.arrival,
            Some("kvcache.append"),
        );
        let decode = self
            .tracer
            .map(|tr| tr.enter("kvcache.decode_appends", None));
        for _ in 0..t.output {
            self.append(s, 1, t.finish, None);
        }
        if let (Some(tr), Some(d)) = (self.tracer, decode) {
            tr.exit(d);
        }
        let (ops, secs) = self.timed(Some("kvcache.swap_out"), |c| c.maybe_swap_out(t.finish));
        self.out.swap_out.add(1, secs);
        self.note(5, s, 0, ops.len() as u64);
        self.cache.unpin(s);
        self.cache.touch(s, t.finish);
    }
}

/// Replays `turns` (sorted here by arrival, then id) against a fresh
/// engine-built cache. A shared prefix of `shared_prefix_tokens` is
/// registered and pinned on the GPU first, as the engine does, and every
/// new session whose history covers it attaches to it.
#[must_use]
pub fn replay(
    engine: &EngineConfig,
    model: &ModelConfig,
    hw: &HardwareSpec,
    turns: &[ReplayTurn],
    tracer: Option<&Tracer>,
) -> ReplayResult {
    let mut order: Vec<&ReplayTurn> = turns.iter().collect();
    order.sort_by(|a, b| {
        a.arrival
            .as_secs()
            .total_cmp(&b.arrival.as_secs())
            .then(a.id.cmp(&b.id))
    });
    let mut r = Replayer {
        cache: engine_cache(engine, model, hw),
        tracer,
        out: ReplayResult::default(),
    };
    let mut handles: Vec<ChunkHandle> = Vec::new();
    let mut chain = Vec::new();
    if engine.stateful && engine.shared_prefix_tokens > 0 {
        let preamble = synthetic_preamble(PREAMBLE_SEED, engine.shared_prefix_tokens);
        chain = r.cache.register_shared(&preamble, SimTime::ZERO);
        match r.cache.materialize_global(&chain, SimTime::ZERO) {
            Ok(h) => handles = h,
            Err(_) => r.out.errors += 1,
        }
    }
    let span = tracer.map(|t| t.enter("kvcache.replay", None));
    for t in order {
        r.turn(t, &chain);
    }
    if let (Some(tr), Some(s)) = (tracer, span) {
        tr.exit(s);
    }
    for h in handles {
        if r.cache.release(h).is_err() {
            r.out.errors += 1;
        }
    }
    r.out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn turns() -> Vec<ReplayTurn> {
        // Three sessions, four turns each, with growing history.
        let mut out = Vec::new();
        let mut id = 0;
        for turn in 0..4usize {
            for s in 0..3u64 {
                let history = turn * 300 + if s == 1 { 2048 } else { 0 };
                out.push(ReplayTurn {
                    id,
                    session: SessionId(s),
                    arrival: SimTime::from_secs((turn * 10 + s as usize) as f64),
                    finish: SimTime::from_secs((turn * 10 + s as usize) as f64 + 5.0),
                    history,
                    prompt: 100,
                    output: 200,
                });
                id += 1;
            }
        }
        out
    }

    fn tiny_gpu() -> HardwareSpec {
        let mut hw = HardwareSpec::azure_nc_a100(1);
        // Shrink the GPU KV budget so the replay has to evict.
        hw.gpu_kv_budget_bytes = 5000 * ModelConfig::llama2_13b().kv_bytes_per_token();
        hw
    }

    #[test]
    fn reruns_issue_an_identical_call_sequence() {
        let engine = EngineConfig::pensieve_shared_prefix(2048);
        let model = ModelConfig::llama2_13b();
        let hw = tiny_gpu();
        let a = replay(&engine, &model, &hw, &turns(), None);
        let b = replay(&engine, &model, &hw, &turns(), Some(&Tracer::default()));
        assert_eq!(a.errors, 0);
        assert!(a.calls > 12 * 200, "every decode token is appended");
        assert_eq!((a.call_hash, a.calls), (b.call_hash, b.calls));
        assert_eq!(a.append.calls, b.append.calls);
        assert!(a.swap_out.calls > 0 && a.attach_shared.calls > 0);
        // Input order does not matter: turns are sorted before replay.
        let mut rev = turns();
        rev.reverse();
        let c = replay(&engine, &model, &hw, &rev, None);
        assert_eq!(c.call_hash, a.call_hash);
    }

    #[test]
    fn different_turns_change_the_call_hash() {
        let engine = EngineConfig::pensieve();
        let model = ModelConfig::llama2_13b();
        let hw = tiny_gpu();
        let a = replay(&engine, &model, &hw, &turns(), None);
        let mut t = turns();
        t[5].output += 1;
        let b = replay(&engine, &model, &hw, &t, None);
        assert_ne!(a.call_hash, b.call_hash);
    }
}
