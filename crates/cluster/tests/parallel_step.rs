//! Parallel cluster stepping determinism: the merged event trace of a
//! 64-replica chaos run hashes identically at every worker-pool width.
//!
//! Replicas advance independently only between scheduling barriers
//! (failure injections and router pumps), and the router drains each
//! replica's private recorder into the merged stream in replica-index
//! order at every barrier — so partitioning the replica walk across a
//! pool must not move a single byte of the trace. CI runs this test
//! under `PENSIEVE_THREADS` 1/2/4; each run asserts equality against an
//! in-process serial (width-1) run, which makes the hash transitively
//! identical across the whole matrix. The serial hash itself is pinned
//! per CI fault seed, so a behaviour change cannot pass unnoticed.

use crossbeam::pool::Pool;
use pensieve_cluster::{ReplicationConfig, ReplicationMode, Router, RouterConfig, RouterPolicy};
use pensieve_core::{EngineConfig, Request, RequestId, Response, ServingBackend, SimServingEngine};
use pensieve_kvcache::SessionId;
use pensieve_model::{HardwareSpec, ModelConfig, SimDuration, SimTime};
use pensieve_obs::{trace_hash, SharedRecorder};
use pensieve_sim::{FaultSchedule, NodeLinkSpec};

const REPLICAS: usize = 64;
const CONVS: usize = 48;

/// Serial trace hash and event count for each CI fault seed, recorded
/// once and never regenerated: width invariance alone would let a
/// behaviour change through as long as every width changed alike.
const PINNED: [(u64, &str, usize); 3] = [
    (1, "94db6e98ea95b8a9", 4713),
    (2, "e564af57d8391112", 4711),
    (3, "b7103bdf9c394eb8", 4708),
];

/// Pool width under test: `PENSIEVE_THREADS`, default 4.
fn env_threads() -> usize {
    std::env::var("PENSIEVE_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

/// Fault-stream seed: `PENSIEVE_FAULT_SEED`, default 1 (CI sweeps it).
fn fault_seed() -> u64 {
    std::env::var("PENSIEVE_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

fn req(id: u64, conv: u64, at: SimTime, prompt: usize, out: usize, hist: usize) -> Request {
    Request::builder()
        .id(RequestId(id))
        .session(SessionId(conv))
        .arrival(at)
        .prompt_tokens(prompt)
        .output_tokens(out)
        .history_tokens(hist)
        .build()
        .expect("test turns are non-empty")
}

fn drain_all<B: ServingBackend>(b: &mut B) -> Vec<Response> {
    let mut out = Vec::new();
    for _ in 0..1000 {
        b.run_until(b.now() + SimDuration::from_secs(1000.0));
        out.extend(b.drain_responses());
        if b.is_idle() {
            break;
        }
    }
    out
}

/// `(request id, conversation, output tokens, finish-time bits)` — the
/// observable outcome of one turn.
type TurnOutput = (u64, u64, usize, u64);

/// One full chaos run at the given pool width: 64 replicas with private
/// recorders, a seeded fault schedule (crashes + a link partition), and
/// a two-phase conversation script. Returns the FNV-1a hash of the
/// merged JSONL trace, the per-request outputs, and the event count.
fn run_at_width(width: usize) -> (u64, Vec<TurnOutput>, usize) {
    let recorders: Vec<SharedRecorder> = (0..REPLICAS).map(|_| SharedRecorder::new()).collect();
    let sink = SharedRecorder::new();
    let engines: Vec<SimServingEngine> = recorders
        .iter()
        .map(|rec| {
            SimServingEngine::builder(
                EngineConfig::pensieve(),
                ModelConfig::opt_13b(),
                HardwareSpec::azure_nc_a100(1),
            )
            .recorder(rec.clone())
            .build()
        })
        .collect();
    let cfg = RouterConfig {
        replication: ReplicationConfig {
            mode: ReplicationMode::Async,
            flush_threshold_tokens: 64,
            link: NodeLinkSpec::datacenter_25g(),
        },
        ..RouterConfig::default()
    };
    let mut router = Router::new(engines, RouterPolicy::CacheAware, cfg)
        .recorder(sink.clone())
        .replica_recorders(recorders)
        .pool(Pool::new(width));
    let schedule = FaultSchedule::generate(
        fault_seed(),
        REPLICAS,
        SimDuration::from_secs(60.0),
        6,
        1,
        SimDuration::from_secs(2.0),
    );
    router.apply_fault_schedule(&schedule);

    // Phase 1: every conversation builds KV state on its affine replica.
    let mut responses = Vec::new();
    for c in 0..CONVS {
        let prompt = 192 + 8 * (c % 7);
        router.submit(req(c as u64, c as u64, router.now(), prompt, 12 + c % 5, 0));
    }
    responses.extend(drain_all(&mut router));

    // Phase 2: follow-up burst landing inside the chaos window.
    let burst = router.now() + SimDuration::from_secs(1.0);
    for c in 0..CONVS {
        let prompt = 192 + 8 * (c % 7);
        let hist = prompt + 12 + c % 5;
        router.submit(req(1000 + c as u64, c as u64, burst, 48, 16, hist));
    }
    responses.extend(drain_all(&mut router));

    let mut outputs: Vec<(u64, u64, usize, u64)> = responses
        .into_iter()
        .map(|r| {
            (
                r.id.0,
                r.conv.0,
                r.output_tokens,
                r.finish.as_secs().to_bits(),
            )
        })
        .collect();
    outputs.sort_unstable();

    let events = sink.events();
    (trace_hash(&events), outputs, events.len())
}

/// The headline pin: a wide pool reproduces the serial trace and the
/// serial responses byte-for-byte.
#[test]
fn trace_hash_is_identical_across_pool_widths() {
    let width = env_threads();
    let (serial_hash, serial_out, serial_events) = run_at_width(1);
    assert!(serial_events > 0, "the chaos run must record events");
    assert_eq!(serial_out.len(), 2 * CONVS, "every turn must complete");
    let seed = fault_seed();
    if let Some(&(_, hash, events)) = PINNED.iter().find(|(s, ..)| *s == seed) {
        assert_eq!(
            (format!("{serial_hash:016x}"), serial_events),
            (String::from(hash), events),
            "serial chaos trace changed for fault seed {seed}"
        );
    }

    let (wide_hash, wide_out, wide_events) = run_at_width(width);
    assert_eq!(
        (wide_hash, wide_events),
        (serial_hash, serial_events),
        "merged trace must be bit-identical at pool width {width}"
    );
    assert_eq!(
        wide_out, serial_out,
        "per-request outputs must be bit-identical at pool width {width}"
    );
}
