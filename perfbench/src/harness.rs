//! What every workload returns, and the run-wide helpers they share.

use std::collections::BTreeMap;
use std::time::Instant;

use pensieve_workload::dataset::Conversation;

use crate::trace::Span;

/// Set-ups timed per run at least; `setup_s` is their median.
pub const SETUP_SAMPLES: usize = 9;

/// How one benchmark run is to be made.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Seed every input is made from.
    pub seed: u64,
    /// Seconds the timed phase lasts (whole repetitions; at least
    /// `min_reps` of them).
    pub seconds: f64,
    /// Make the traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Repetitions of the timed phase at least.
    pub min_reps: usize,
}

impl Plan {
    /// Whether to start another repetition: until `min_reps` are done,
    /// then only while one more of the last one's length still ends
    /// within `seconds` of `start`, so a run measures for about
    /// `seconds` and never much longer.
    #[must_use]
    pub fn another_rep(&self, done: usize, start: Instant, last_rep_s: f64) -> bool {
        done < self.min_reps || start.elapsed().as_secs_f64() + last_rep_s <= self.seconds
    }
}

/// Named metric values.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The value of `name`, if set.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Turns attempted, over every repetition.
    pub attempted: u64,
    /// Turns that failed a check.
    pub failed: u64,
    /// End-to-end metrics (all but `setup_s` and `peak_rss_mb`).
    pub e2e: Metrics,
    /// Per-layer metrics (traced run only).
    pub layers: Metrics,
    /// Seconds of every set-up performed.
    pub setup_samples: Vec<f64>,
    /// Peak resident memory at the end of the timed phase, MiB.
    pub peak_rss_mb: f64,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
    /// Human-readable detail for the run report.
    pub report: String,
    /// Spans of the traced repetition (traced run only).
    pub spans: Vec<Span>,
    /// Pool widths the workload ran at, by pool.
    pub pools: Vec<(&'static str, usize)>,
}

/// Takes conversations in order until their output tokens total exactly
/// `budget`, cutting the last one short, so every seed asks for the same
/// number of output tokens.
#[must_use]
pub fn take_outputs(convs: Vec<Conversation>, budget: usize) -> Vec<Conversation> {
    let mut left = budget;
    let mut out = Vec::new();
    for mut c in convs {
        c.turns.retain_mut(|t| {
            t.output_tokens = t.output_tokens.min(left);
            left -= t.output_tokens;
            t.output_tokens > 0
        });
        if c.turns.is_empty() {
            break;
        }
        out.push(c);
    }
    out
}

/// Peak resident set size of this process so far (`VmHWM`), MiB; 0 when
/// the platform does not report it.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pensieve_workload::dataset::DatasetSpec;

    #[test]
    fn take_outputs_meets_the_budget_exactly() {
        let convs = DatasetSpec::sharegpt().generate(200, 3);
        let out = take_outputs(convs.clone(), 5000);
        let total: usize = out
            .iter()
            .flat_map(|c| &c.turns)
            .map(|t| t.output_tokens)
            .sum();
        assert_eq!(total, 5000);
        // Only the last conversation is cut; the others are taken whole.
        assert_eq!(out[..out.len() - 1], convs[..out.len() - 1]);
    }
}
