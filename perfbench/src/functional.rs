//! `functional-chat`: real math on [`FunctionalEngine`], plus the kernel
//! probes of the traced run.

use std::time::Instant;

use pensieve_core::{FunctionalConfig, FunctionalEngine};
use pensieve_kernels::attention::multi::paged_multi_token_pool;
use pensieve_kernels::attention::single::paged_single_token_batch;
use pensieve_kernels::model::{SegmentInput, SeqInput, TinyModel};
use pensieve_kernels::ops::matmul_pool;
use pensieve_kernels::{AttnConfig, AttnSeq, BlockTable, Matrix, PagedKvCache, Pool};
use pensieve_kvcache::SessionId;
use pensieve_model::{
    Activation, CostModel, HardwareSpec, ModelConfig, ModelFamily, Norm, PositionEmbedding,
};
use pensieve_workload::dataset::DatasetSpec;

use crate::harness::{take_outputs, Metrics, Outcome, Plan, SETUP_SAMPLES};
use crate::stats::{median, percentile, Dist, Tally};
use crate::trace::Tracer;

/// Shape of the `functional-chat` workload.
#[derive(Debug, Clone)]
pub struct FuncSpec {
    /// Output tokens the script asks for, exactly: conversations are
    /// added until their outputs reach this, so every seed does similar
    /// work.
    pub output_budget: usize,
    /// ShareGPT turn lengths are divided by this (the real-math engine
    /// serves a tiny model on a CPU).
    pub len_div: usize,
    /// Context cap per conversation, tokens.
    pub max_context: usize,
    /// Tokens per KV block.
    pub block_size: usize,
    /// GPU-pool size of the pressured engine, as a share of the script's
    /// working set (every conversation's final context, in blocks).
    pub pool_share: f64,
    /// Host-stash size, as a share of the working set.
    pub stash_share: f64,
    /// Compute pool width.
    pub threads: usize,
}

impl FuncSpec {
    /// The benchmark's configuration: the pool and stash are sized so
    /// GPU hits, swap-ins and dropped-token recomputes each serve a
    /// sizeable share of turns.
    #[must_use]
    pub fn chat() -> Self {
        FuncSpec {
            output_budget: 11200,
            len_div: 8,
            max_context: 512,
            block_size: 16,
            pool_share: 0.3,
            stash_share: 0.12,
            threads: 1,
        }
    }

    /// A Llama-style GQA model: 4 layers, hidden 128, 8 query / 2 KV
    /// heads, vocabulary 1024.
    #[must_use]
    pub fn model() -> ModelConfig {
        ModelConfig {
            name: "Bench-Llama".to_owned(),
            family: ModelFamily::Llama2,
            num_layers: 4,
            hidden_size: 128,
            num_heads: 8,
            num_kv_heads: 2,
            head_dim: 16,
            ffn_hidden: 344,
            vocab_size: 1024,
            dtype_bytes: 4,
            position_embedding: PositionEmbedding::Rotary,
            norm: Norm::RmsNorm,
            activation: Activation::Silu,
            default_num_gpus: 1,
        }
    }

    /// `(pool, stash)` blocks of the pressured engine for `script`. The
    /// pool always holds two of the longest conversations, so any one turn
    /// fits.
    fn sizes(&self, script: &[ScriptTurn]) -> (usize, usize) {
        let mut ctx: Vec<usize> = Vec::new();
        for t in script {
            let c = t.conv as usize;
            if ctx.len() <= c {
                ctx.resize(c + 1, 0);
            }
            ctx[c] += t.prompt.len() + t.max_new;
        }
        let blocks: usize = ctx.iter().map(|c| c.div_ceil(self.block_size)).sum();
        let floor = 2 * self.max_context.div_ceil(self.block_size) + 8;
        let pool = ((blocks as f64 * self.pool_share) as usize).max(floor);
        (pool, (blocks as f64 * self.stash_share) as usize)
    }

    fn engine(&self, seed: u64, pool_blocks: usize, stash_blocks: usize) -> FunctionalEngine {
        let mut e = FunctionalEngine::new(
            &Self::model(),
            seed,
            FunctionalConfig {
                block_size: self.block_size,
                pool_blocks,
                stash_blocks,
                free_watermark: 2,
            },
        );
        e.set_compute_threads(self.threads);
        e
    }
}

/// SplitMix64: the benchmark's own seeded stream for token ids and the
/// interleaving order.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One scripted turn.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptTurn {
    /// Conversation.
    pub conv: u64,
    /// Prompt token ids.
    pub prompt: Vec<u32>,
    /// Tokens to generate.
    pub max_new: usize,
}

/// The whole client script for `seed`: ShareGPT-shaped conversations
/// (lengths scaled by `len_div`) up to the output budget, turns
/// interleaved by a seeded pick of the next conversation with turns left.
#[must_use]
pub fn script(spec: &FuncSpec, seed: u64) -> Vec<ScriptTurn> {
    let mut ds = DatasetSpec::sharegpt();
    ds.mean_input /= spec.len_div as f64;
    ds.mean_output /= spec.len_div as f64;
    ds.max_context = spec.max_context;
    // Scaled ShareGPT conversations average over 100 output tokens, so
    // budget / 8 of them are far more than the budget needs.
    let convs = take_outputs(
        ds.generate(spec.output_budget / 8, seed),
        spec.output_budget,
    );
    let vocab = FuncSpec::model().vocab_size;
    let mut rng = SplitMix(seed ^ 0x5EED_70CE);
    let mut next_turn = vec![0usize; convs.len()];
    let mut out = Vec::new();
    loop {
        let open: Vec<usize> = (0..convs.len())
            .filter(|&c| next_turn[c] < convs[c].turns.len())
            .collect();
        if open.is_empty() {
            break;
        }
        let c = open[rng.below(open.len())];
        let t = convs[c].turns[next_turn[c]];
        next_turn[c] += 1;
        out.push(ScriptTurn {
            conv: c as u64,
            prompt: (0..t.input_tokens)
                .map(|_| rng.below(vocab) as u32)
                .collect(),
            max_new: t.output_tokens,
        });
    }
    out
}

/// How the cache served a turn, from the engine's `cache_activity` delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TurnKind {
    /// First turn of a conversation: nothing to restore.
    Cold,
    /// All history resident in the GPU pool.
    Hit,
    /// Some history swapped in from the host stash, none recomputed.
    SwapIn,
    /// Some dropped history recomputed from raw tokens.
    Recompute,
}

/// One served turn.
#[derive(Debug, Clone)]
struct TurnRec {
    kind: TurnKind,
    wall_s: f64,
    /// Context before the turn (history tokens).
    history: usize,
    /// Prompt tokens.
    prompt: usize,
    /// Query tokens of the prefill (prompt, history tail, recomputes).
    query: usize,
    swapped_in_blocks: u64,
    output: Vec<u32>,
}

struct FRep {
    setup_s: f64,
    wall_s: f64,
    turns: Vec<TurnRec>,
    activity: (u64, u64, u64, u64),
}

fn serve(
    engine: &mut FunctionalEngine,
    script: &[ScriptTurn],
    tracer: Option<&Tracer>,
) -> (f64, Vec<TurnRec>) {
    let mut history = vec![
        0usize;
        script
            .iter()
            .map(|t| t.conv as usize + 1)
            .max()
            .unwrap_or(0)
    ];
    let mut recs = Vec::with_capacity(script.len());
    let root = tracer.map(|t| t.enter("workload.run", None));
    let start = Instant::now();
    for (i, st) in script.iter().enumerate() {
        let before = engine.cache_activity();
        let span = tracer.map(|t| t.enter("functional.serve_turn", Some(i as u64)));
        let t = Instant::now();
        let output = engine.serve_turn(SessionId(st.conv), &st.prompt, st.max_new);
        let wall_s = t.elapsed().as_secs_f64();
        if let (Some(tr), Some(s)) = (tracer, span) {
            tr.exit(s);
        }
        let after = engine.cache_activity();
        let h = &mut history[st.conv as usize];
        let context = *h;
        *h += st.prompt.len() + output.len();
        let recomputed = (after.3 - before.3) as usize;
        let kind = if context == 0 {
            TurnKind::Cold
        } else if recomputed > 0 {
            TurnKind::Recompute
        } else if after.1 > before.1 {
            TurnKind::SwapIn
        } else {
            TurnKind::Hit
        };
        recs.push(TurnRec {
            kind,
            wall_s,
            history: context,
            prompt: st.prompt.len(),
            query: st.prompt.len() + usize::from(context > 0) + recomputed,
            swapped_in_blocks: after.1 - before.1,
            output,
        });
    }
    let wall = start.elapsed().as_secs_f64();
    if let (Some(tr), Some(s)) = (tracer, root) {
        tr.exit(s);
    }
    (wall, recs)
}

/// One set-up: the seed's script and a fresh pressured engine, with its
/// seconds.
fn setup(spec: &FuncSpec, seed: u64) -> (Vec<ScriptTurn>, FunctionalEngine, f64) {
    let t = Instant::now();
    let sc = script(spec, seed);
    let (pool, stash) = spec.sizes(&sc);
    let e = spec.engine(seed, pool, stash);
    (sc, e, t.elapsed().as_secs_f64())
}

fn rep(spec: &FuncSpec, seed: u64, tracer: Option<&Tracer>) -> FRep {
    let (sc, mut e, setup_s) = setup(spec, seed);
    let (wall_s, turns) = serve(&mut e, &sc, tracer);
    FRep {
        setup_s,
        wall_s,
        turns,
        activity: e.cache_activity(),
    }
}

/// Modeled latency of each turn on the repo's roofline cost model (this
/// model on one A100): TTFT is the prefill of the turn's query tokens
/// plus the host-to-GPU copy of its swapped-in blocks; the rest is one
/// decode step per further token. Returns `(ttft_s, total_s)` per turn.
fn priced(spec: &FuncSpec, turns: &[TurnRec]) -> Vec<(f64, f64)> {
    let hw = HardwareSpec::azure_nc_a100(1);
    let cost = CostModel::new(FuncSpec::model(), hw.clone());
    let block_bytes = (spec.block_size * FuncSpec::model().kv_bytes_per_token()) as f64;
    turns
        .iter()
        .map(|t| {
            let ctx = t.history + t.prompt;
            let ttft = cost
                .prefill_time(t.query, ctx.saturating_sub(t.query))
                .as_secs()
                + t.swapped_in_blocks as f64 * block_bytes / hw.pcie.bandwidth;
            let decode: f64 = (1..t.output.len())
                .map(|i| cost.decode_step_time(&[ctx + i]).as_secs())
                .sum();
            (ttft, ttft + decode)
        })
        .collect()
}

/// Checks the first repetition against an unpressured engine (pool large
/// enough that nothing is evicted) turn by turn, and a seeded sample of
/// turns against stateless `reference_decode`. Returns per-turn pass.
fn check(
    spec: &FuncSpec,
    seed: u64,
    sc: &[ScriptTurn],
    turns: &[TurnRec],
    problems: &mut Vec<String>,
) -> Vec<bool> {
    let total_tokens: usize = sc.iter().map(|t| t.prompt.len() + t.max_new).sum();
    let convs = sc
        .iter()
        .map(|t| t.conv)
        .max()
        .map_or(0, |c| c as usize + 1);
    let pool = total_tokens / spec.block_size + 2 * convs + 16;
    let mut reference = spec.engine(seed, pool, 0);
    let (_, want) = serve(&mut reference, sc, None);
    if reference.cache_activity() != (0, 0, 0, 0) {
        problems.push("the unpressured reference engine evicted".to_owned());
    }
    let mut ok: Vec<bool> = turns
        .iter()
        .zip(&want)
        .map(|(a, b)| a.output == b.output)
        .collect();
    let mut rng = SplitMix(seed ^ 0xC4EC);
    for _ in 0..3 {
        let i = rng.below(sc.len());
        let st = &sc[i];
        let mut ctx = Vec::new();
        for (j, prev) in sc[..i].iter().enumerate() {
            if prev.conv == st.conv {
                ctx.extend_from_slice(&prev.prompt);
                ctx.extend_from_slice(&turns[j].output);
            }
        }
        ctx.extend_from_slice(&st.prompt);
        let k = st.max_new.min(6);
        if reference.reference_decode(&ctx, k) != turns[i].output[..k] {
            ok[i] = false;
            problems.push(format!("turn {i} differs from stateless reference_decode"));
        }
    }
    for (i, good) in ok.iter().enumerate() {
        if !good {
            problems.push(format!("turn {i} differs from the unpressured engine"));
        }
    }
    ok
}

/// Median wall seconds per call of `f` over `n` calls, each under a
/// span named `name`.
fn probe(tracer: &Tracer, name: &'static str, n: usize, mut f: impl FnMut()) -> Dist {
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let s = tracer.enter(name, None);
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
        tracer.exit(s);
    }
    Dist::of(&samples)
}

fn fill(
    model: &TinyModel,
    cache: &mut PagedKvCache,
    table: &mut BlockTable,
    tokens: usize,
    start: usize,
) {
    let seg = SegmentInput {
        tokens: (0..tokens)
            .map(|i| ((start + i) * 7 % 1000) as u32)
            .collect(),
        start_pos: start,
    };
    let mut batch = [SeqInput {
        segments: vec![seg],
        table,
    }];
    model
        .forward(cache, &mut batch)
        .expect("probe cache sized for the context");
}

fn rand_matrix(rng: &mut SplitMix, rows: usize, cols: usize) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| (rng.below(2001) as f32 - 1000.0) / 1000.0)
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Kernel entry points called directly at the shapes the workload
/// visited: decode at the median decode context, prefill at the median
/// query length on top of the median history.
fn kernel_probes(
    spec: &FuncSpec,
    seed: u64,
    turns: &[TurnRec],
    tracer: &Tracer,
    m: &mut Metrics,
    report: &mut String,
) {
    let cfg = FuncSpec::model();
    let ctxs: Vec<f64> = turns
        .iter()
        .map(|t| (t.history + t.query + t.output.len() / 2) as f64)
        .collect();
    let l = median(&ctxs) as usize;
    let p = median(&turns.iter().map(|t| t.query as f64).collect::<Vec<_>>()) as usize;
    let h = median(&turns.iter().map(|t| t.history as f64).collect::<Vec<_>>()) as usize;
    let mut model = TinyModel::new_random(&cfg, seed);
    model.set_threads(spec.threads);
    let pool = Pool::new(spec.threads);
    let bs = spec.block_size;
    let steps = 200;
    let blocks = (l + h + p + steps) / bs + 8;

    let mut cache = PagedKvCache::new(model.kv_layout(bs), cfg.num_layers, blocks);
    let mut table = BlockTable::new(bs);
    fill(&model, &mut cache, &mut table, l, 0);
    let mut next = 1u32;
    let decode = probe(tracer, "kernels.decode_step", steps, || {
        let pos = table.len();
        let mut batch = [SeqInput {
            segments: vec![SegmentInput {
                tokens: vec![next],
                start_pos: pos,
            }],
            table: &mut table,
        }];
        let logits = model
            .forward(&mut cache, &mut batch)
            .expect("probe cache sized for decode");
        next = pensieve_kernels::ops::argmax(logits.row(0)) as u32;
    });

    let attn = AttnConfig::new(cfg.num_heads, cfg.num_kv_heads, cfg.head_dim);
    let mut rng = SplitMix(seed ^ 0xA77E);
    let q = rand_matrix(&mut rng, 1, attn.q_width());
    let seqs = [AttnSeq {
        q_start: 0,
        q_len: 1,
        context_len: table.len(),
        table: &table,
    }];
    let view = cache.layer(0);
    let multi = probe(tracer, "kernels.attn_decode", 400, || {
        std::hint::black_box(paged_multi_token_pool(&attn, &q, &view, &seqs, &pool));
    });
    let single = probe(tracer, "kernels.attn_decode_single", 400, || {
        std::hint::black_box(paged_single_token_batch(&attn, &q, &view, &seqs));
    });
    let qkv_cols = attn.q_width() + 2 * attn.kv_width();
    let w = rand_matrix(&mut rng, cfg.hidden_size, qkv_cols);
    let x1 = rand_matrix(&mut rng, 1, cfg.hidden_size);
    let gemm_dec = probe(tracer, "kernels.gemm_decode", 400, || {
        std::hint::black_box(matmul_pool(&x1, &w, &pool));
    });
    let xp = rand_matrix(&mut rng, p.max(1), cfg.hidden_size);
    let gemm_pre = probe(tracer, "kernels.gemm_prefill", 100, || {
        std::hint::black_box(matmul_pool(&xp, &w, &pool));
    });

    let mut prefill_samples = Vec::new();
    for _ in 0..20 {
        let mut cache = PagedKvCache::new(model.kv_layout(bs), cfg.num_layers, (h + p) / bs + 8);
        let mut table = BlockTable::new(bs);
        if h > 0 {
            fill(&model, &mut cache, &mut table, h, 0);
        }
        let s = tracer.enter("kernels.prefill", None);
        let t = Instant::now();
        fill(&model, &mut cache, &mut table, p.max(1), h);
        prefill_samples.push(t.elapsed().as_secs_f64() / p.max(1) as f64);
        tracer.exit(s);
    }
    let prefill = Dist::of(&prefill_samples);

    // Computed (not measured) work of one decode step at context `l`.
    let (hd, f, kv) = (
        cfg.hidden_size as f64,
        cfg.ffn_hidden as f64,
        attn.kv_width() as f64,
    );
    let qw = attn.q_width() as f64;
    let weights = cfg.num_layers as f64 * (hd * (qw + 2.0 * kv) + qw * hd + 3.0 * hd * f)
        + hd * cfg.vocab_size as f64;
    let flops = 2.0 * weights + cfg.num_layers as f64 * 4.0 * l as f64 * qw;
    let bytes = 4.0 * (weights + cfg.num_layers as f64 * 2.0 * kv * l as f64);

    m.set("kernels.decode_step_us", decode.p50 * 1e6);
    m.set("kernels.attn_decode_us", multi.p50 * 1e6);
    m.set("kernels.attn_decode_single_us", single.p50 * 1e6);
    m.set("kernels.gemm_decode_us", gemm_dec.p50 * 1e6);
    m.set("kernels.prefill_us_per_tok", prefill.p50 * 1e6);
    m.set("kernels.gemm_prefill_us", gemm_pre.p50 * 1e6);
    m.set("kernels.decode_flops", flops);
    m.set("kernels.decode_bytes", bytes);
    report.push_str(&format!(
        "kernel shapes: decode context {l}, prefill {p} tokens on {h} history, pool width {}\n\
         decode step us: {}\nattn decode (multi-token kernel) us: {}\nattn decode (single-token kernel) us: {}\n\
         gemm 1x{}x{qkv_cols} us: {}\ngemm {p}x{}x{qkv_cols} us: {}\nprefill us/token: {}\n\
         decode step work (computed from shapes): {flops:.0} flop, {bytes:.0} bytes\n",
        spec.threads,
        decode.render(1e6),
        multi.render(1e6),
        single.render(1e6),
        cfg.hidden_size,
        gemm_dec.render(1e6),
        cfg.hidden_size,
        gemm_pre.render(1e6),
        prefill.render(1e6),
    ));
}

/// Runs `functional-chat` under `plan`.
#[must_use]
pub fn run(spec: &FuncSpec, plan: &Plan) -> Outcome {
    let mut out = Outcome {
        pools: vec![
            ("functional.compute", spec.threads),
            ("kernels.probe", spec.threads),
        ],
        ..Outcome::default()
    };
    let mut reps: Vec<FRep> = Vec::new();
    let mut traced: Vec<(FRep, Tracer)> = Vec::new();
    let start = Instant::now();
    let mut last_s = 0.0;
    while plan.another_rep(reps.len(), start, last_s) {
        let t = Instant::now();
        if plan.trace && reps.len() > traced.len() {
            let tr = Tracer::default();
            traced.push((rep(spec, plan.seed, Some(&tr)), tr));
        } else {
            reps.push(rep(spec, plan.seed, None));
        }
        last_s = t.elapsed().as_secs_f64();
    }
    out.setup_samples = reps.iter().map(|r| r.setup_s).collect();
    while out.setup_samples.len() < SETUP_SAMPLES {
        out.setup_samples
            .push(std::hint::black_box(setup(spec, plan.seed)).2);
    }
    out.peak_rss_mb = crate::harness::peak_rss_mb();

    let sc = script(spec, plan.seed);
    let first = &reps[0];
    let ok = check(spec, plan.seed, &sc, &first.turns, &mut out.problems);
    let mut tally = Tally::default();
    for (t, good) in first.turns.iter().zip(&ok) {
        tally.record(*good, t.kind == TurnKind::Hit);
    }
    for r in reps.iter().skip(1).chain(traced.iter().map(|(r, _)| r)) {
        for (t, want) in r.turns.iter().zip(&first.turns) {
            tally.record(t.output == want.output, t.kind == TurnKind::Hit);
        }
    }
    out.attempted = tally.attempted;
    out.failed = tally.failed;

    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let out_tokens: usize = first.turns.iter().map(|t| t.output.len()).sum();
    let norm: Vec<f64> = first
        .turns
        .iter()
        .map(|t| t.wall_s * 1e3 / t.output.len() as f64)
        .collect();
    let prices = priced(spec, &first.turns);
    let mut ttft: Vec<f64> = prices.iter().map(|p| p.0).collect();
    ttft.sort_by(f64::total_cmp);
    let mut sim_norm: Vec<f64> = prices
        .iter()
        .zip(&first.turns)
        .map(|(p, t)| p.1 / t.output.len() as f64)
        .collect();
    sim_norm.sort_by(f64::total_cmp);
    let e = &mut out.e2e;
    e.set("wall_s", median(&walls));
    e.set("out_tok_per_s", out_tokens as f64 / median(&walls));
    e.set("sim_ttft_p50_ms", percentile(&ttft, 0.5) * 1e3);
    e.set("sim_ttft_p99_ms", percentile(&ttft, 0.99) * 1e3);
    e.set("sim_norm_lat_p50_ms", percentile(&sim_norm, 0.5) * 1e3);
    e.set("sim_norm_lat_p90_ms", percentile(&sim_norm, 0.9) * 1e3);
    e.set(
        "sim_tput_tps",
        out_tokens as f64 / prices.iter().map(|p| p.1).sum::<f64>(),
    );

    let share = |k: TurnKind| {
        first.turns.iter().filter(|t| t.kind == k).count() as f64 / first.turns.len() as f64
    };
    out.report.push_str(&format!(
        "repetitions {} plain + {} traced, {} turns, {out_tokens} output tokens each\n\
         turn kinds: cold {:.2} hit {:.2} swap-in {:.2} recompute {:.2}; correct GPU hits {:.2}\n\
         cache activity (swap-out, swap-in, dropped blocks; recomputed tokens): {:?}\n\
         serve_turn wall ms/token: {}\n",
        reps.len(),
        traced.len(),
        first.turns.len(),
        share(TurnKind::Cold),
        share(TurnKind::Hit),
        share(TurnKind::SwapIn),
        share(TurnKind::Recompute),
        tally.hit_frac(),
        first.activity,
        Dist::of(&norm).render(1.0),
    ));

    if let Some((t, tracer)) = traced.first() {
        let m = &mut out.layers;
        let ms = |k: &[TurnKind]| {
            let v: Vec<f64> = t
                .turns
                .iter()
                .filter(|x| k.contains(&x.kind))
                .map(|x| x.wall_s * 1e3)
                .collect();
            if v.is_empty() {
                0.0
            } else {
                median(&v)
            }
        };
        m.set("functional.hit_turn_ms", ms(&[TurnKind::Hit]));
        m.set(
            "functional.restore_turn_ms",
            ms(&[TurnKind::SwapIn, TurnKind::Recompute]),
        );
        let (so, si, dropped, recomputed) = t.activity;
        m.set("functional.swap_out_blocks", so as f64);
        m.set("functional.swap_in_blocks", si as f64);
        m.set("functional.dropped_blocks", dropped as f64);
        m.set("functional.recomputed_tokens", recomputed as f64);
        m.set("functional.recompute_frac", share(TurnKind::Recompute));
        let mut report = String::new();
        kernel_probes(spec, plan.seed, &t.turns, tracer, m, &mut report);
        out.report.push_str(&report);
        let traced_walls: Vec<f64> = traced.iter().map(|(r, _)| r.wall_s).collect();
        m.set(
            "obs.trace_overhead_frac",
            median(&traced_walls) / median(&walls) - 1.0,
        );
        out.spans = tracer.spans();
    }
    out
}
