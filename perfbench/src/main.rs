//! `perfbench` — the repo's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload chat-pressure --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Runs one workload made from `--seed` for `--seconds` of whole
//! repetitions, checks every output, and prints one JSON object as the
//! last line of standard output: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
//! A readable report (environment, distributions, self-time table) goes
//! to standard error and to `perfbench/out/`; the traced run also writes
//! its spans there as Chrome `trace_event` JSON. See `perfbench/README.md`.

mod functional;
mod harness;
mod replay;
mod sim;
mod stats;
mod timed;
mod trace;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use harness::{Outcome, Plan};

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["chat-pressure", "agentic-fleet", "functional-chat"];

/// End-to-end metrics: every workload reports every one.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("out_tok_per_s", "tok/s"),
    ("sim_ttft_p50_ms", "ms"),
    ("sim_ttft_p99_ms", "ms"),
    ("sim_norm_lat_p50_ms", "ms"),
    ("sim_norm_lat_p90_ms", "ms"),
    ("sim_tput_tps", "tok/s"),
];

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise reports 0.
const PER_LAYER: [(&str, &str); 45] = [
    ("workload.driver_self_s", "s"),
    ("cluster.router_self_s", "s"),
    ("cluster.step_parallelism", "ratio"),
    ("cluster.affinity_token_frac", "ratio"),
    ("cluster.migrations", "count"),
    ("cluster.migrated_tokens", "tokens"),
    ("engine.poll_s", "s"),
    ("engine.iterations", "count"),
    ("engine.us_per_iter", "us"),
    ("engine.us_per_iter_first_q", "us"),
    ("engine.us_per_iter_last_q", "us"),
    ("engine.submit_us", "us"),
    ("engine.queue_depth_mean", "requests"),
    ("engine.prefill_tokens", "tokens"),
    ("engine.suspensions", "count"),
    ("engine.batch_tokens_mean", "tokens"),
    ("engine.gpu_busy_frac", "ratio"),
    ("kvcache.hit_token_frac", "ratio"),
    ("kvcache.cpu_hit_frac", "ratio"),
    ("kvcache.swapped_out_tokens", "tokens"),
    ("kvcache.swapped_in_tokens", "tokens"),
    ("kvcache.recomputed_tokens", "tokens"),
    ("kvcache.shared_hit_tokens", "tokens"),
    ("kvcache.dedup_ratio", "ratio"),
    ("kvcache.swap_out_us", "us"),
    ("kvcache.plan_restore_us", "us"),
    ("kvcache.commit_restore_us", "us"),
    ("kvcache.append_us", "us"),
    ("kvcache.attach_shared_us", "us"),
    ("functional.hit_turn_ms", "ms"),
    ("functional.restore_turn_ms", "ms"),
    ("functional.swap_in_blocks", "blocks"),
    ("functional.swap_out_blocks", "blocks"),
    ("functional.dropped_blocks", "blocks"),
    ("functional.recomputed_tokens", "tokens"),
    ("functional.recompute_frac", "ratio"),
    ("kernels.decode_step_us", "us"),
    ("kernels.attn_decode_us", "us"),
    ("kernels.attn_decode_single_us", "us"),
    ("kernels.gemm_decode_us", "us"),
    ("kernels.prefill_us_per_tok", "us"),
    ("kernels.gemm_prefill_us", "us"),
    ("kernels.decode_flops", "flop"),
    ("kernels.decode_bytes", "B"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// Repetitions of the timed phase at least, so every run can compare
/// repetitions against each other.
const MIN_REPS: usize = 2;

const USAGE: &str = "usage: perfbench --workload <chat-pressure|agentic-fleet|functional-chat> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l.split(' ').next().unwrap_or_default().to_owned())
            })
            .unwrap_or_default(),
        None => head.to_owned(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".to_owned()
    } else {
        rev.to_owned()
    }
}

/// Whether a per-layer metric is a share that must lie in `[0, 1]`.
fn is_fraction(name: &str) -> bool {
    (name.ends_with("_frac") && name != "obs.trace_overhead_frac") || name == "kvcache.dedup_ratio"
}

/// The metric object of the result line.
fn metrics_json(names: &[(&str, &str)], values: &harness::Metrics) -> String {
    let mut s = String::from("{");
    for (i, (name, unit)) in names.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let v = values.get(name).unwrap_or(0.0);
        let _ = write!(s, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    s.push('}');
    s
}

/// Validates the metrics a run is about to report; every finding is a
/// failed check.
fn validate(args: &Args, out: &mut Outcome, values: &harness::Metrics) {
    if args.trace {
        for (name, _) in PER_LAYER {
            let v = values.get(name).unwrap_or(0.0);
            if !v.is_finite() || (is_fraction(name) && !(0.0..=1.0).contains(&v)) {
                out.problems.push(format!("{name} = {v} is out of range"));
            }
        }
    } else {
        for (name, _) in END_TO_END {
            match values.get(name) {
                Some(v) if v.is_finite() && v > 0.0 => {}
                v => out.problems.push(format!(
                    "{name} = {v:?}: end-to-end metrics are finite and positive"
                )),
            }
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to report from a debug build; use --release");
        return ExitCode::from(3);
    }
    let plan = Plan {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        min_reps: MIN_REPS,
    };
    let mut out = match args.workload.as_str() {
        "chat-pressure" => sim::run(&sim::SimSpec::chat_pressure(), &plan),
        "agentic-fleet" => sim::run(&sim::SimSpec::agentic_fleet(), &plan),
        _ => functional::run(&functional::FuncSpec::chat(), &plan),
    };

    let mut values = if args.trace {
        out.layers.clone()
    } else {
        out.e2e.clone()
    };
    if !args.trace {
        values.set("setup_s", stats::median(&out.setup_samples));
        values.set("peak_rss_mb", out.peak_rss_mb);
    }
    validate(&args, &mut out, &values);
    if !out.problems.is_empty() && out.failed == 0 {
        out.failed = 1;
    }
    let correct = out.problems.is_empty() && out.failed == 0;

    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut report = format!(
        "perfbench {} seed {} seconds {} trace {}\nenvironment: nproc {nproc}, build release, git {}, pools:",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_rev(),
    );
    for (pool, width) in &out.pools {
        let _ = write!(report, " {pool}={width}");
    }
    let _ = writeln!(
        report,
        "\nturns attempted {}, failed {}, correct {correct}\nset-up s: {}",
        out.attempted,
        out.failed,
        stats::Dist::of(&out.setup_samples).render(1.0)
    );
    report.push_str(&out.report);
    for p in out.problems.iter().take(20) {
        let _ = writeln!(report, "CHECK FAILED: {p}");
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in names {
        let _ = writeln!(
            report,
            "  {name:<32} {:>16.6} {unit}",
            values.get(name).unwrap_or(0.0)
        );
    }
    if args.trace {
        report.push_str("\nself time by span:\n");
        report.push_str(&trace::self_time_table(&out.spans));
    }
    eprint!("{report}");

    let dir = Path::new("perfbench/out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        std::fs::write(dir.join(format!("{stem}.txt")), &report)?;
        if args.trace {
            std::fs::write(
                dir.join(format!("{stem}.json")),
                trace::chrome_json(&out.spans),
            )?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!(
            "perfbench: cannot write the report under {}: {e}",
            dir.display()
        );
    }

    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        metrics_json(names, &values)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repo root names exactly the workloads and
    /// metrics this binary reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let compact: String = text.split_whitespace().collect();
        for w in WORKLOADS {
            assert!(
                compact.contains(&format!("\"name\":\"{w}\"")),
                "workload {w}"
            );
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                compact.contains(&format!("\"name\":\"{name}\",\"unit\":\"{unit}\"")),
                "metric {name} [{unit}]"
            );
        }
        let listed = compact.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "no extra metrics"
        );
    }

    #[test]
    fn fractions_are_range_checked() {
        assert!(is_fraction("kvcache.hit_token_frac"));
        assert!(is_fraction("kvcache.dedup_ratio"));
        assert!(!is_fraction("obs.trace_overhead_frac"));
        assert!(!is_fraction("cluster.step_parallelism"));
    }
}
