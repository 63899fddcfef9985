//! The two simulated-time workloads: `chat-pressure` (one replica, GPU
//! tier full) and `agentic-fleet` (four replicas behind the cache-aware
//! router, shared tool preamble).

use std::collections::BTreeMap;
use std::time::Instant;

use pensieve_cluster::{Router, RouterConfig, RouterPolicy};
use pensieve_core::{EngineConfig, Response, ServingBackend, SimServingEngine};
use pensieve_kvcache::{CacheStats, SessionId};
use pensieve_model::{HardwareSpec, ModelConfig};
use pensieve_workload::dataset::{Conversation, DatasetSpec};
use pensieve_workload::driver::{run_closed_loop, DriverConfig};
use pensieve_workload::metrics::LatencySummary;

use crate::harness::{take_outputs, Metrics, Outcome, Plan, SETUP_SAMPLES};
use crate::replay::{replay, ReplayResult, ReplayTurn};
use crate::stats::{median, percentile, Dist};
use crate::timed::{CallLog, Submissions, Timed, ENGINE, ROUTER};
use crate::trace::{self, Span, Tracer};

/// One simulated-time workload.
#[derive(Debug, Clone)]
pub struct SimSpec {
    /// Engine behaviour of every replica.
    pub engine: EngineConfig,
    /// Replicas (1 = a bare engine, no router).
    pub replicas: usize,
    /// Conversation shapes.
    pub dataset: DatasetSpec,
    /// Offered request rate, requests per second.
    pub rate: f64,
    /// Mean think time between turns, seconds.
    pub think_s: f64,
    /// Seconds of conversation starts.
    pub duration_s: f64,
    /// Shared system-prompt tokens every conversation starts with.
    pub system_prompt: usize,
}

impl SimSpec {
    /// Paper-default Pensieve serving ShareGPT on one A100, loaded until
    /// the GPU tier stays full.
    #[must_use]
    pub fn chat_pressure() -> Self {
        SimSpec {
            engine: EngineConfig::pensieve(),
            replicas: 1,
            dataset: DatasetSpec::sharegpt(),
            rate: 16.0,
            think_s: 60.0,
            duration_s: 200.0,
            system_prompt: 0,
        }
    }

    /// Four shared-prefix replicas behind the cache-aware router serving
    /// agentic tool-call traffic.
    #[must_use]
    pub fn agentic_fleet() -> Self {
        SimSpec {
            engine: EngineConfig::pensieve_shared_prefix(2048),
            replicas: 4,
            dataset: DatasetSpec::agentic(2048),
            rate: 16.0,
            think_s: 20.0,
            duration_s: 600.0,
            system_prompt: 2048,
        }
    }

    fn model() -> ModelConfig {
        ModelConfig::llama2_13b()
    }

    fn hardware() -> HardwareSpec {
        HardwareSpec::azure_nc_a100(1)
    }

    /// Conversations and driver settings for `seed`. Conversations are
    /// taken from the seeded stream until their outputs total what the
    /// offered load asks for in `duration_s` on average, so every seed
    /// generates the same number of tokens.
    fn inputs(&self, seed: u64) -> (Vec<Conversation>, DriverConfig) {
        let ds = &self.dataset;
        let n = self.rate / ds.mean_turns * self.duration_s;
        let budget = (n * ds.mean_turns * ds.mean_output) as usize;
        let convs = take_outputs(ds.generate(4 * n as usize, seed), budget);
        let drv = DriverConfig {
            request_rate: self.rate,
            mean_think_time: self.think_s,
            seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
            system_prompt_tokens: self.system_prompt,
        };
        (convs, drv)
    }

    fn engine(&self) -> SimServingEngine {
        SimServingEngine::builder(self.engine.clone(), Self::model(), Self::hardware()).build()
    }

    fn router<B: ServingBackend>(fleet: Vec<B>) -> Router<B> {
        Router::new(fleet, RouterPolicy::CacheAware, RouterConfig::default())
    }
}

/// What one repetition produced.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    responses: Vec<Response>,
    submitted: BTreeMap<u64, u32>,
    convs: Vec<Conversation>,
    system_prompt: usize,
}

/// Per-replica state read after a traced repetition.
struct EngineView {
    log: CallLog,
    iterations: u64,
    prefill_tokens: u64,
    decode_tokens: u64,
    suspensions: u64,
    busy_s: f64,
    now_s: f64,
    physical: usize,
    logical: usize,
}

impl EngineView {
    fn of(t: &Timed<SimServingEngine>) -> Self {
        let e = &t.inner;
        let c = e.counters();
        EngineView {
            log: t.log.clone(),
            iterations: c.iterations,
            prefill_tokens: c.prefill_tokens,
            decode_tokens: c.decode_tokens,
            suspensions: c.suspensions,
            busy_s: c.busy_time.as_secs(),
            now_s: e.now().as_secs(),
            physical: e.physical_resident_tokens(),
            logical: e.logical_resident_tokens(),
        }
    }
}

/// Router state read after a traced repetition.
struct RouterView {
    log: CallLog,
    migrations: u64,
    migrated_tokens: u64,
}

/// What a traced repetition adds to a [`Rep`].
struct TracedRep {
    rep: Rep,
    tracer: Tracer,
    engines: Vec<EngineView>,
    router: Option<RouterView>,
    cache: CacheStats,
}

fn iterations(e: &SimServingEngine) -> u64 {
    e.counters().iterations
}

fn drive<B: ServingBackend>(
    backend: B,
    convs: Vec<Conversation>,
    drv: &DriverConfig,
    setup_s: f64,
    tracer: Option<&Tracer>,
) -> (Rep, B) {
    let mut clock = Submissions::new(backend);
    let t = Instant::now();
    let result = match tracer {
        Some(tr) => tr.scope("workload.run", || run_closed_loop(&mut clock, &convs, drv)),
        None => run_closed_loop(&mut clock, &convs, drv),
    };
    let wall_s = t.elapsed().as_secs_f64();
    let rep = Rep {
        setup_s,
        wall_s,
        responses: result.responses,
        submitted: std::mem::take(&mut clock.submitted),
        convs,
        system_prompt: drv.system_prompt_tokens,
    };
    (rep, clock.inner)
}

/// A fresh backend for one repetition (moved into the run right away, so
/// the variants' size difference costs nothing).
#[allow(clippy::large_enum_variant)]
enum Backend {
    One(SimServingEngine),
    Fleet(Router<SimServingEngine>),
}

/// One set-up: the seed's inputs and a fresh backend, with its seconds.
fn setup(spec: &SimSpec, seed: u64) -> (Vec<Conversation>, DriverConfig, Backend, f64) {
    let t = Instant::now();
    let (convs, drv) = spec.inputs(seed);
    let backend = if spec.replicas == 1 {
        Backend::One(spec.engine())
    } else {
        Backend::Fleet(SimSpec::router(
            (0..spec.replicas).map(|_| spec.engine()).collect(),
        ))
    };
    (convs, drv, backend, t.elapsed().as_secs_f64())
}

fn plain_rep(spec: &SimSpec, seed: u64) -> Rep {
    let (convs, drv, backend, setup_s) = setup(spec, seed);
    match backend {
        Backend::One(e) => drive(e, convs, &drv, setup_s, None).0,
        Backend::Fleet(r) => drive(r, convs, &drv, setup_s, None).0,
    }
}

fn traced_rep(spec: &SimSpec, seed: u64) -> TracedRep {
    let tracer = Tracer::default();
    let t = Instant::now();
    let (convs, drv) = spec.inputs(seed);
    let timed = |e| Timed::new(e, &ENGINE, tracer.clone(), iterations);
    if spec.replicas == 1 {
        let e = timed(spec.engine());
        let setup_s = t.elapsed().as_secs_f64();
        let (rep, e) = drive(e, convs, &drv, setup_s, Some(&tracer));
        TracedRep {
            rep,
            tracer,
            cache: e.inner.cache_stats().clone(),
            engines: vec![EngineView::of(&e)],
            router: None,
        }
    } else {
        let fleet = (0..spec.replicas).map(|_| timed(spec.engine())).collect();
        let r = Timed::new(SimSpec::router(fleet), &ROUTER, tracer.clone(), |_| 0);
        let setup_s = t.elapsed().as_secs_f64();
        let (rep, r) = drive(r, convs, &drv, setup_s, Some(&tracer));
        let router = &r.inner;
        let cache = router.cache_stats();
        let engines = (0..router.replica_count())
            .map(|i| EngineView::of(router.replica(i)))
            .collect();
        let router = Some(RouterView {
            log: r.log.clone(),
            migrations: router.migrations(),
            migrated_tokens: router.migrated_tokens(),
        });
        TracedRep {
            rep,
            tracer,
            cache,
            engines,
            router,
        }
    }
}

/// FNV-1a over the response log in completion order.
fn response_hash(responses: &[Response]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for r in responses {
        for w in [
            r.id.0,
            r.conv.0,
            r.arrival.as_secs().to_bits(),
            r.first_token.as_secs().to_bits(),
            r.finish.as_secs().to_bits(),
            r.output_tokens as u64,
            r.prefill_tokens as u64,
            r.cached_history_tokens as u64,
        ] {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    h
}

/// Checks one repetition: every turn of the workload submitted and
/// completed exactly once, timestamps ordered, and the response log
/// identical to the first repetition's. Returns the failed-turn count.
fn check_rep(rep: &Rep, first_hash: u64, problems: &mut Vec<String>) -> u64 {
    let expected: usize = rep.convs.iter().map(|c| c.turns.len()).sum();
    let mut failed = 0u64;
    let mut seen: BTreeMap<u64, u32> = BTreeMap::new();
    for r in &rep.responses {
        *seen.entry(r.id.0).or_default() += 1;
        if !(r.arrival <= r.first_token && r.first_token <= r.finish) {
            failed += 1;
            problems.push(format!("request {} timestamps out of order", r.id.0));
        }
    }
    for (id, n) in &rep.submitted {
        if *n != 1 || seen.get(id) != Some(&1) {
            failed += 1;
            problems.push(format!(
                "request {id} submitted {n}x, completed {:?}x",
                seen.get(id)
            ));
        }
    }
    let extra = seen
        .keys()
        .filter(|id| !rep.submitted.contains_key(id))
        .count();
    let missing = expected.saturating_sub(rep.submitted.len());
    if extra + missing > 0 {
        problems.push(format!(
            "{missing} turns never submitted, {extra} unknown responses"
        ));
    }
    let h = response_hash(&rep.responses);
    if h != first_hash {
        failed += rep.responses.len() as u64;
        problems.push(format!(
            "response log hash {h:016x} differs from first repetition {first_hash:016x}"
        ));
    }
    failed + (extra + missing) as u64
}

/// Steady-window (arrivals between p10 and p90) TTFT, seconds.
fn steady_ttft(responses: &[Response]) -> Vec<f64> {
    let mut arrivals: Vec<f64> = responses.iter().map(|r| r.arrival.as_secs()).collect();
    arrivals.sort_by(f64::total_cmp);
    let (lo, hi) = (percentile(&arrivals, 0.1), percentile(&arrivals, 0.9));
    let mut ttft: Vec<f64> = responses
        .iter()
        .filter(|r| (lo..=hi).contains(&r.arrival.as_secs()))
        .map(|r| r.ttft().as_secs())
        .collect();
    ttft.sort_by(f64::total_cmp);
    ttft
}

/// The run's turns with their history and prompt lengths, rebuilt from
/// the conversations the driver submitted.
fn replay_turns(rep: &Rep) -> Vec<ReplayTurn> {
    let mut by_conv: BTreeMap<u64, Vec<&Response>> = BTreeMap::new();
    for r in &rep.responses {
        by_conv.entry(r.conv.0).or_default().push(r);
    }
    let mut out = Vec::new();
    for (conv, mut rs) in by_conv {
        rs.sort_by(|a, b| a.arrival.as_secs().total_cmp(&b.arrival.as_secs()));
        let mut history = rep.system_prompt;
        for (r, turn) in rs.iter().zip(&rep.convs[conv as usize].turns) {
            out.push(ReplayTurn {
                id: r.id.0,
                session: SessionId(conv),
                arrival: r.arrival,
                finish: r.finish,
                history,
                prompt: turn.input_tokens,
                output: turn.output_tokens,
            });
            history += turn.input_tokens + turn.output_tokens;
        }
    }
    out
}

/// Per-iteration wall cost (µs) of the calls that ended in the first and
/// in the last quarter of the offered-load window (simulated `0..window_s`,
/// while conversations still start), pooled across replicas. The drain
/// tail after the last conversation start is in neither quarter.
fn quarter_us_per_iter(engines: &[EngineView], window_s: f64) -> (f64, f64) {
    let (mut first, mut last) = ((0.0, 0u64), (0.0, 0u64));
    for s in engines.iter().flat_map(|e| &e.log.steps) {
        let q = if s.sim_s < window_s / 4.0 {
            &mut first
        } else if (window_s * 0.75..window_s).contains(&s.sim_s) {
            &mut last
        } else {
            continue;
        };
        q.0 += s.wall_s;
        q.1 += s.iterations;
    }
    let per = |(s, n): (f64, u64)| if n == 0 { 0.0 } else { s * 1e6 / n as f64 };
    (per(first), per(last))
}

fn layer_metrics(
    spec: &SimSpec,
    t: &TracedRep,
    spans: &[Span],
    rp: &ReplayResult,
    m: &mut Metrics,
    report: &mut String,
) {
    let names = trace::by_name(spans);
    let total = |n: &str| names.get(n).map_or(0.0, |x| x.total_s);
    m.set(
        "workload.driver_self_s",
        trace::self_s_with_prefix(spans, "workload."),
    );
    let engine_step_s: f64 = t.engines.iter().map(|e| e.log.step_s()).sum();
    if let Some(r) = &t.router {
        m.set(
            "cluster.router_self_s",
            trace::self_s_with_prefix(spans, "cluster."),
        );
        let router_step_s = r.log.step_s();
        m.set(
            "cluster.step_parallelism",
            if router_step_s > 0.0 {
                engine_step_s / router_step_s
            } else {
                0.0
            },
        );
        let (cached, hist) = t.engines.iter().fold((0, 0), |(c, h), e| {
            (c + e.log.cached_tokens, h + e.log.history_tokens)
        });
        m.set(
            "cluster.affinity_token_frac",
            if hist == 0 {
                0.0
            } else {
                cached as f64 / hist as f64
            },
        );
        m.set("cluster.migrations", r.migrations as f64);
        m.set("cluster.migrated_tokens", r.migrated_tokens as f64);
    }
    let iters: u64 = t.engines.iter().map(|e| e.iterations).sum();
    m.set("engine.poll_s", engine_step_s);
    m.set("engine.iterations", iters as f64);
    m.set(
        "engine.us_per_iter",
        if iters == 0 {
            0.0
        } else {
            engine_step_s * 1e6 / iters as f64
        },
    );
    let (first_q, last_q) = quarter_us_per_iter(&t.engines, spec.duration_s);
    m.set("engine.us_per_iter_first_q", first_q);
    m.set("engine.us_per_iter_last_q", last_q);
    let submits: Vec<f64> = t
        .engines
        .iter()
        .flat_map(|e| e.log.submit_s.iter().copied())
        .collect();
    m.set(
        "engine.submit_us",
        submits.iter().sum::<f64>() * 1e6 / submits.len().max(1) as f64,
    );
    let depths: Vec<usize> = t
        .engines
        .iter()
        .flat_map(|e| e.log.queue_depths.iter().copied())
        .collect();
    m.set(
        "engine.queue_depth_mean",
        depths.iter().sum::<usize>() as f64 / depths.len().max(1) as f64,
    );
    let prefill: u64 = t.engines.iter().map(|e| e.prefill_tokens).sum();
    let decode: u64 = t.engines.iter().map(|e| e.decode_tokens).sum();
    m.set("engine.prefill_tokens", prefill as f64);
    m.set(
        "engine.suspensions",
        t.engines.iter().map(|e| e.suspensions).sum::<u64>() as f64,
    );
    m.set(
        "engine.batch_tokens_mean",
        if iters == 0 {
            0.0
        } else {
            (prefill + decode) as f64 / iters as f64
        },
    );
    let busy: f64 = t.engines.iter().map(|e| e.busy_s).sum();
    let span: f64 = t.engines.iter().map(|e| e.now_s).sum();
    m.set(
        "engine.gpu_busy_frac",
        if span > 0.0 { busy / span } else { 0.0 },
    );

    let c = &t.cache;
    m.set("kvcache.hit_token_frac", c.hit_rate());
    m.set("kvcache.cpu_hit_frac", c.cpu_hit_rate());
    m.set("kvcache.swapped_out_tokens", c.swapped_out_tokens as f64);
    m.set("kvcache.swapped_in_tokens", c.swapped_in_tokens as f64);
    m.set("kvcache.recomputed_tokens", c.recomputed_tokens as f64);
    m.set("kvcache.shared_hit_tokens", c.shared_hit_tokens as f64);
    let (phys, logical) = t
        .engines
        .iter()
        .fold((0, 0), |(p, l), e| (p + e.physical, l + e.logical));
    m.set(
        "kvcache.dedup_ratio",
        if logical == 0 {
            1.0
        } else {
            phys as f64 / logical as f64
        },
    );
    m.set("kvcache.swap_out_us", rp.swap_out.mean_us());
    m.set("kvcache.plan_restore_us", rp.plan_restore.mean_us());
    m.set("kvcache.commit_restore_us", rp.commit_restore.mean_us());
    m.set("kvcache.append_us", rp.append.mean_us());
    m.set("kvcache.attach_shared_us", rp.attach_shared.mean_us());

    let polls: Vec<f64> = t
        .engines
        .iter()
        .flat_map(|e| e.log.steps.iter().map(|s| s.wall_s))
        .collect();
    if !polls.is_empty() {
        report.push_str(&format!(
            "engine poll call, ms: {}\n",
            Dist::of(&polls).render(1e3)
        ));
    }
    if !submits.is_empty() {
        report.push_str(&format!(
            "engine submit call, us: {}\n",
            Dist::of(&submits).render(1e6)
        ));
    }
    report.push_str(&format!(
        "run wall {:.3}s: engine poll {:.3}s ({:.1}%), router calls {:.3}s\n",
        total("workload.run"),
        engine_step_s,
        100.0 * engine_step_s / total("workload.run").max(1e-12),
        total("cluster.poll") + total("cluster.submit") + total("cluster.drain"),
    ));
    report.push_str(&format!(
        "kvcache replay: {} calls, hash {:016x}, errors {}; mean us: plan {:.2} commit {:.2} append {:.3} swap_out {:.2} attach {:.2}\n",
        rp.calls,
        rp.call_hash,
        rp.errors,
        rp.plan_restore.mean_us(),
        rp.commit_restore.mean_us(),
        rp.append.mean_us(),
        rp.swap_out.mean_us(),
        rp.attach_shared.mean_us()
    ));
}

/// Runs a simulated-time workload under `plan`.
#[must_use]
pub fn run(spec: &SimSpec, plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    let mut reps: Vec<Rep> = Vec::new();
    let mut traced: Vec<TracedRep> = Vec::new();
    let start = Instant::now();
    let mut last_s = 0.0;
    while plan.another_rep(reps.len(), start, last_s) {
        // The traced run alternates plain and traced repetitions, so the
        // tracing overhead is measured under the same conditions.
        if plan.trace && reps.len() > traced.len() {
            traced.push(traced_rep(spec, plan.seed));
            last_s = traced.last().map_or(0.0, |t| t.rep.setup_s + t.rep.wall_s);
        } else {
            reps.push(plain_rep(spec, plan.seed));
            last_s = reps.last().map_or(0.0, |r| r.setup_s + r.wall_s);
        }
    }
    out.setup_samples = reps.iter().map(|r| r.setup_s).collect();
    while out.setup_samples.len() < SETUP_SAMPLES {
        out.setup_samples
            .push(std::hint::black_box(setup(spec, plan.seed)).3);
    }
    out.pools = vec![("engine", 1), ("router", 1)];
    out.peak_rss_mb = crate::harness::peak_rss_mb();

    // Correctness: exactly-once completion, ordered timestamps, and one
    // response log for every repetition, traced or not.
    let first_hash = response_hash(&reps[0].responses);
    for rep in reps.iter().chain(traced.iter().map(|t| &t.rep)) {
        let expected = rep.convs.iter().map(|c| c.turns.len()).sum::<usize>() as u64;
        let failed = check_rep(rep, first_hash, &mut out.problems);
        out.attempted += expected;
        out.failed += failed.min(expected);
    }

    let first = &reps[0];
    let summary = LatencySummary::steady_state(&first.responses);
    let ttft = steady_ttft(&first.responses);
    let e = &mut out.e2e;
    e.set("sim_ttft_p50_ms", percentile(&ttft, 0.5) * 1e3);
    e.set("sim_ttft_p99_ms", percentile(&ttft, 0.99) * 1e3);
    e.set("sim_norm_lat_p50_ms", summary.p50_normalized * 1e3);
    e.set("sim_norm_lat_p90_ms", summary.p90_normalized * 1e3);
    e.set("sim_tput_tps", summary.throughput_tps);
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    e.set("wall_s", median(&walls));
    let out_tokens: usize = first.responses.iter().map(|r| r.output_tokens).sum();
    e.set("out_tok_per_s", out_tokens as f64 / median(&walls));

    out.report.push_str(&format!(
        "repetition wall s: {:?}\n",
        walls
            .iter()
            .map(|w| (w * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    ));
    out.report.push_str(&format!(
        "repetitions {} plain + {} traced, {} turns each, response log hash {first_hash:016x}\n\
         sim TTFT ms: {}\n",
        reps.len(),
        traced.len(),
        first.responses.len(),
        Dist::of(&ttft).render(1e3),
    ));

    if let Some(t) = traced.first() {
        let rp = replay(
            &spec.engine,
            &SimSpec::model(),
            &SimSpec::hardware(),
            &replay_turns(&t.rep),
            Some(&t.tracer),
        );
        if rp.errors > 0 {
            out.problems
                .push(format!("kvcache replay: {} calls failed", rp.errors));
            out.failed += 1;
        }
        let spans = t.tracer.spans();
        let mut report = String::new();
        layer_metrics(spec, t, &spans, &rp, &mut out.layers, &mut report);
        out.report.push_str(&report);
        let traced_walls: Vec<f64> = traced.iter().map(|t| t.rep.wall_s).collect();
        out.layers.set(
            "obs.trace_overhead_frac",
            median(&traced_walls) / median(&walls) - 1.0,
        );
        out.spans = spans;
    }
    out
}
