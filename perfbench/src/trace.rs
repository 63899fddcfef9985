//! Wall-clock span recording for the traced run.
//!
//! Spans nest by a call stack: a span opened while another is open
//! becomes its child. The benchmark drives every layer from one thread
//! (the router steps its replicas serially), so the stack is exact.
//! Self time is a span's duration minus its direct children's.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Static span name, `layer.operation`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span served, if it served one.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A shareable span recorder. Cloning shares the recording.
#[derive(Debug, Clone)]
pub struct Tracer(Arc<Mutex<Inner>>);

/// Handle to an open span; pass it back to [`Tracer::exit`].
#[derive(Debug)]
#[must_use]
pub struct Open(usize);

impl Default for Tracer {
    fn default() -> Self {
        Tracer(Arc::new(Mutex::new(Inner {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })))
    }
}

impl Tracer {
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.0
            .lock()
            .expect("tracer lock poisoned: a thread panicked while recording a span")
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&self, name: &'static str, request: Option<u64>) -> Open {
        let mut g = self.lock();
        let now = g.epoch.elapsed().as_nanos() as u64;
        let idx = g.spans.len();
        let parent = g.open.last().copied();
        g.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        g.open.push(idx);
        Open(idx)
    }

    /// Closes `span`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order.
    pub fn exit(&self, span: Open) {
        let mut g = self.lock();
        let now = g.epoch.elapsed().as_nanos() as u64;
        assert_eq!(g.open.pop(), Some(span.0), "spans closed out of order");
        g.spans[span.0].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.enter(name, None);
        let out = f();
        self.exit(s);
        out
    }

    /// The spans recorded so far (all closed spans, and any open ones
    /// with `end_ns == start_ns`).
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, seconds.
    pub total_s: f64,
    /// Summed self time (duration minus direct children), seconds.
    pub self_s: f64,
}

/// Self time of every span: its duration minus its direct children's.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Totals and self times grouped by span name.
#[must_use]
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_s += s.dur_ns() as f64 * 1e-9;
        e.self_s += self_ns as f64 * 1e-9;
    }
    out
}

/// Self time summed over every span whose name starts with `prefix`.
#[must_use]
pub fn self_s_with_prefix(spans: &[Span], prefix: &str) -> f64 {
    by_name(spans)
        .iter()
        .filter(|(n, _)| n.starts_with(prefix))
        .map(|(_, t)| t.self_s)
        .sum()
}

/// Fixed-width self-time table, one row per span name.
#[must_use]
pub fn self_time_table(spans: &[Span]) -> String {
    let mut out = format!(
        "{:<28} {:>9} {:>12} {:>12}\n",
        "span", "count", "total_s", "self_s"
    );
    for (name, t) in by_name(spans) {
        let _ = writeln!(
            out,
            "{name:<28} {:>9} {:>12.6} {:>12.6}",
            t.count, t.total_s, t.self_s
        );
    }
    out
}

/// Chrome `trace_event` JSON (load in Perfetto or `chrome://tracing`):
/// one complete (`"ph":"X"`) event per span, timestamps in microseconds,
/// with the span index, parent index and request id as arguments.
#[must_use]
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{i}",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
        );
        if let Some(p) = s.parent {
            let _ = write!(out, ",\"parent\":{p}");
        }
        if let Some(r) = s.request {
            let _ = write!(out, ",\"request\":{r}");
        }
        out.push_str("}}");
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // run [0,100) > poll [10,60) > engine [20,50) ; submit [70,80)
        let spans = vec![
            span("workload.run", 0, 100, None),
            span("cluster.poll", 10, 60, Some(0)),
            span("engine.poll", 20, 50, Some(1)),
            span("cluster.submit", 70, 80, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 10]);
        let t = by_name(&spans);
        assert_eq!(t["cluster.poll"].count, 1);
        assert!((t["cluster.poll"].self_s - 20e-9).abs() < 1e-15);
        assert!((self_s_with_prefix(&spans, "cluster.") - 30e-9).abs() < 1e-15);
        // Self times partition the root's duration exactly.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_by_call_stack() {
        let t = Tracer::default();
        t.scope("a.outer", || {
            let inner = t.enter("b.inner", Some(7));
            t.exit(inner);
        });
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].request, Some(7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let json = chrome_json(&s);
        assert!(json.contains("\"name\":\"b.inner\""));
        assert!(json.contains("\"parent\":0,\"request\":7"));
    }
}
