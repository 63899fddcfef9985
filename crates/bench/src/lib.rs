//! Shared experiment harness for the paper's tables and figures.
//!
//! Each figure/table has a binary under `src/bin/` (run with
//! `cargo run --release -p pensieve-bench --bin <id>`); this library holds
//! the sweep machinery they share. Every binary prints a human-readable
//! table and writes machine-readable rows to `results/<id>.json`.
//!
//! Scale knobs (environment variables):
//!
//! * `PENSIEVE_DURATION` — seconds of simulated conversation arrivals per
//!   sweep point (default 400; larger = closer to steady state).
//! * `PENSIEVE_THREADS` — sweep-point parallelism (default: available
//!   cores).

use crossbeam::pool::Pool;
use pensieve_cluster::{Router, RouterConfig, RouterPolicy};
use pensieve_core::{EngineBuilder, EngineConfig, ServingBackend, SimServingEngine};
use pensieve_kvcache::CacheStats;
use pensieve_model::{HardwareSpec, ModelConfig};
use pensieve_obs::SharedRecorder;
use pensieve_workload::dataset::{Conversation, DatasetSpec};
use pensieve_workload::driver::{run_closed_loop, DriverConfig};
use pensieve_workload::metrics::LatencySummary;
use serde::Serialize;

/// One serving-sweep measurement point.
#[derive(Debug, Clone, Serialize)]
pub struct SweepPoint {
    /// Engine name.
    pub system: String,
    /// Model name.
    pub model: String,
    /// Dataset name.
    pub dataset: String,
    /// Offered request rate (requests/s).
    pub request_rate: f64,
    /// Mean user think time (s).
    pub think_time: f64,
    /// Steady-state summary.
    pub summary: LatencySummary,
    /// Cache hit statistics at the end of the run.
    pub cache: CacheRow,
}

/// Serializable extract of [`CacheStats`].
#[derive(Debug, Clone, Serialize)]
pub struct CacheRow {
    /// Overall history hit rate.
    pub hit_rate: f64,
    /// CPU-tier hit rate over non-GPU-resident tokens.
    pub cpu_hit_rate: f64,
    /// Tokens recomputed due to drops.
    pub recomputed_tokens: u64,
    /// Tokens swapped GPU->CPU.
    pub swapped_out_tokens: u64,
    /// Tokens swapped CPU->GPU.
    pub swapped_in_tokens: u64,
}

impl From<&CacheStats> for CacheRow {
    fn from(s: &CacheStats) -> Self {
        CacheRow {
            hit_rate: s.hit_rate(),
            cpu_hit_rate: s.cpu_hit_rate(),
            recomputed_tokens: s.recomputed_tokens,
            swapped_out_tokens: s.swapped_out_tokens,
            swapped_in_tokens: s.swapped_in_tokens,
        }
    }
}

/// Parameters for one serving sweep point.
#[derive(Debug, Clone)]
pub struct PointSpec {
    /// Engine behaviour.
    pub engine: EngineConfig,
    /// Served model.
    pub model: ModelConfig,
    /// Hardware (GPU count etc.).
    pub hardware: HardwareSpec,
    /// Workload dataset.
    pub dataset: DatasetSpec,
    /// Offered request rate.
    pub request_rate: f64,
    /// Mean think time seconds.
    pub think_time: f64,
    /// Seed for workload + arrivals.
    pub seed: u64,
    /// System prompt length shared by every conversation (0 = none).
    pub system_prompt_tokens: usize,
}

/// Seconds of conversation arrivals simulated per point
/// (`PENSIEVE_DURATION`, default 400).
#[must_use]
pub fn sim_duration() -> f64 {
    std::env::var("PENSIEVE_DURATION")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(400.0)
}

/// Number of worker threads for sweeps (`PENSIEVE_THREADS`).
#[must_use]
pub fn sweep_threads() -> usize {
    std::env::var("PENSIEVE_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, std::num::NonZero::get))
}

/// Generates the workload for a point: enough conversations to sustain the
/// offered rate for [`sim_duration`] seconds.
#[must_use]
pub fn workload_for(spec: &PointSpec) -> Vec<Conversation> {
    let conv_rate = spec.request_rate / spec.dataset.mean_turns;
    let n = (conv_rate * sim_duration()).ceil() as usize;
    spec.dataset.generate(n.max(50), spec.seed)
}

/// Builds the engine a sweep point runs on. Callers that need to attach
/// a trace recorder (`serve_sim --trace-out`) use [`engine_builder_for`]
/// instead and hand the result to [`run_point_on`].
#[must_use]
pub fn engine_for(spec: &PointSpec) -> SimServingEngine {
    engine_builder_for(spec).build()
}

/// The [`EngineBuilder`] for a sweep point, for callers that decorate
/// the engine (recorder, fault injector) before building.
#[must_use]
pub fn engine_builder_for(spec: &PointSpec) -> EngineBuilder {
    SimServingEngine::builder(
        spec.engine.clone(),
        spec.model.clone(),
        spec.hardware.clone(),
    )
}

/// Runs one sweep point to completion.
#[must_use]
pub fn run_point(spec: &PointSpec) -> SweepPoint {
    let mut engine = engine_for(spec);
    run_point_on(spec, &mut engine)
}

/// Builds an N-replica cluster router for a sweep point. When a recorder
/// is given, the router and every replica share it, producing one merged
/// event trace for the whole cluster.
#[must_use]
pub fn cluster_for(
    spec: &PointSpec,
    replicas: usize,
    policy: RouterPolicy,
    recorder: Option<SharedRecorder>,
) -> Router<SimServingEngine> {
    let fleet: Vec<SimServingEngine> = (0..replicas)
        .map(|_| {
            let mut b = engine_builder_for(spec);
            if let Some(rec) = recorder.clone() {
                b = b.recorder(rec);
            }
            b.build()
        })
        .collect();
    let mut router = Router::new(fleet, policy, RouterConfig::default());
    if let Some(rec) = recorder {
        router = router.recorder(rec);
    }
    router
}

/// The closed-loop driver configuration a sweep point runs under (the
/// arrival seed is decorrelated from the workload-generation seed).
#[must_use]
pub fn driver_for(spec: &PointSpec) -> DriverConfig {
    DriverConfig {
        request_rate: spec.request_rate,
        mean_think_time: spec.think_time,
        seed: spec.seed.wrapping_mul(2654435761).wrapping_add(1),
        system_prompt_tokens: spec.system_prompt_tokens,
    }
}

/// Runs one sweep point on a caller-provided backend (which must have
/// been built from the same spec for the labels to be honest) — a single
/// engine or a whole cluster router.
#[must_use]
pub fn run_point_on<B: ServingBackend>(spec: &PointSpec, engine: &mut B) -> SweepPoint {
    let convs = workload_for(spec);
    let result = run_closed_loop(engine, &convs, &driver_for(spec));
    SweepPoint {
        system: spec.engine.name.clone(),
        model: spec.model.name.clone(),
        dataset: spec.dataset.name.clone(),
        request_rate: spec.request_rate,
        think_time: spec.think_time,
        summary: result.summary(),
        cache: CacheRow::from(&engine.cache_stats()),
    }
}

/// Runs many points in parallel (deterministic per point) on the
/// process-wide persistent pool, preserving input order in the output.
#[must_use]
pub fn run_sweep(specs: Vec<PointSpec>) -> Vec<SweepPoint> {
    let threads = sweep_threads().min(specs.len().max(1));
    let pool = Pool::global(threads);
    pool.map_partitions(specs.len(), |idx| {
        let point = run_point(&specs[idx]);
        eprintln!(
            "  [{}] {} {} {} rate={:.1}: p90={:.1}ms tp={:.2} req/s",
            idx,
            point.system,
            point.model,
            point.dataset,
            point.request_rate,
            point.summary.p90_normalized * 1e3,
            point.summary.throughput_rps
        );
        point
    })
}

/// Writes experiment rows as pretty JSON to `results/<name>.json`.
///
/// # Panics
///
/// Panics if the results directory cannot be created or written.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    write_json_to(&format!("results/{name}.json"), value);
}

/// Writes a report as pretty JSON to `path`, creating its directory.
///
/// # Panics
///
/// Panics if the directory cannot be created or the file written.
pub fn write_json_to<T: Serialize>(path: &str, value: &T) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    let data = serde_json::to_string_pretty(value).expect("serialize results");
    std::fs::write(path, data).expect("write results file");
    println!("\nwrote {path}");
}

/// Prints a simple fixed-width table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
            .collect();
        println!("  {}", padded.join("  "));
    };
    line(&headers.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_preserves_order_and_is_deterministic() {
        let spec = |rate: f64| PointSpec {
            engine: EngineConfig::pensieve(),
            model: ModelConfig::opt_13b(),
            hardware: HardwareSpec::azure_nc_a100(1),
            dataset: DatasetSpec::sharegpt(),
            request_rate: rate,
            think_time: 10.0,
            seed: 1,
            system_prompt_tokens: 0,
        };
        // Tiny duration for test speed.
        std::env::set_var("PENSIEVE_DURATION", "30");
        let a = run_sweep(vec![spec(0.5), spec(1.0)]);
        let b = run_sweep(vec![spec(0.5), spec(1.0)]);
        std::env::remove_var("PENSIEVE_DURATION");
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].request_rate, 0.5);
        assert_eq!(a[1].request_rate, 1.0);
        assert_eq!(a[0].summary, b[0].summary);
        assert_eq!(a[1].summary, b[1].summary);
    }
}
