//! [`ServingBackend`] wrappers that time a layer from outside.
//!
//! [`Timed`] wraps one layer — a `SimServingEngine`, or the `Router` in
//! front of a fleet of timed engines — and records a span plus a call
//! sample for every work-flow call. [`Submissions`] is the outermost
//! wrapper of every run, traced or not: it keeps the submitted ids for
//! the exactly-once check.

use std::collections::BTreeMap;
use std::time::Instant;

use pensieve_core::{Request, Response, ServingBackend};
use pensieve_kvcache::{CacheStats, SessionExport, SessionId, SessionManifest};
use pensieve_model::SimTime;

use crate::trace::Tracer;

/// Span names of one wrapped layer.
#[derive(Debug)]
pub struct Layer {
    /// Span of a `submit` call.
    pub submit: &'static str,
    /// Span of a `poll` call.
    pub poll: &'static str,
    /// Span of a `run_until` call.
    pub run_until: &'static str,
    /// Span of a `drain_responses` call.
    pub drain: &'static str,
}

/// A single simulated replica.
pub const ENGINE: Layer = Layer {
    submit: "engine.submit",
    poll: "engine.poll",
    run_until: "engine.run_until",
    drain: "engine.drain",
};

/// The cluster router.
pub const ROUTER: Layer = Layer {
    submit: "cluster.submit",
    poll: "cluster.poll",
    run_until: "cluster.run_until",
    drain: "cluster.drain",
};

/// One timed `poll` or `run_until` call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepSample {
    /// Wall time of the call, seconds.
    pub wall_s: f64,
    /// Scheduler iterations the call executed.
    pub iterations: u64,
    /// Simulated time when the call returned, seconds.
    pub sim_s: f64,
}

/// What a [`Timed`] layer saw.
#[derive(Debug, Clone, Default)]
pub struct CallLog {
    /// Every `poll` / `run_until` call, in call order.
    pub steps: Vec<StepSample>,
    /// Wall time of every `submit` call, seconds.
    pub submit_s: Vec<f64>,
    /// Queue depth sampled before every `poll` call.
    pub queue_depths: Vec<usize>,
    /// History tokens of submitted requests.
    pub history_tokens: u64,
    /// Of those, tokens already cached on this backend at submit.
    pub cached_tokens: u64,
}

impl CallLog {
    /// Wall seconds spent in `poll` / `run_until`.
    #[must_use]
    pub fn step_s(&self) -> f64 {
        self.steps.iter().map(|s| s.wall_s).sum()
    }
}

/// A layer timed from outside; forwards every call to `inner`.
#[derive(Debug)]
pub struct Timed<B> {
    /// The wrapped backend.
    pub inner: B,
    /// Calls observed so far.
    pub log: CallLog,
    layer: &'static Layer,
    tracer: Tracer,
    iterations: fn(&B) -> u64,
}

impl<B: ServingBackend> Timed<B> {
    /// Wraps `inner`; `iterations` reads its scheduler-iteration counter
    /// (return 0 for layers without one).
    pub fn new(inner: B, layer: &'static Layer, tracer: Tracer, iterations: fn(&B) -> u64) -> Self {
        Timed {
            inner,
            log: CallLog::default(),
            layer,
            tracer,
            iterations,
        }
    }

    fn step<T>(&mut self, name: &'static str, f: impl FnOnce(&mut B) -> T) -> T {
        let iters = (self.iterations)(&self.inner);
        let span = self.tracer.enter(name, None);
        let t = Instant::now();
        let out = f(&mut self.inner);
        let wall_s = t.elapsed().as_secs_f64();
        self.tracer.exit(span);
        self.log.steps.push(StepSample {
            wall_s,
            iterations: (self.iterations)(&self.inner) - iters,
            sim_s: self.inner.now().as_secs(),
        });
        out
    }
}

impl<B: ServingBackend> ServingBackend for Timed<B> {
    fn submit(&mut self, req: Request) {
        self.log.history_tokens += req.history_tokens as u64;
        self.log.cached_tokens += self.inner.cached_tokens(req.conv).min(req.history_tokens) as u64;
        let span = self.tracer.enter(self.layer.submit, Some(req.id.0));
        let t = Instant::now();
        self.inner.submit(req);
        self.log.submit_s.push(t.elapsed().as_secs_f64());
        self.tracer.exit(span);
    }

    fn poll(&mut self, deadline: Option<SimTime>) -> bool {
        self.log.queue_depths.push(self.inner.queue_depth());
        self.step(self.layer.poll, |b| b.poll(deadline))
    }

    fn responses_ready(&self) -> bool {
        self.inner.responses_ready()
    }

    fn drain_responses(&mut self) -> Vec<Response> {
        let span = self.tracer.enter(self.layer.drain, None);
        let out = self.inner.drain_responses();
        self.tracer.exit(span);
        out
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn run_until(&mut self, t: SimTime) {
        self.step(self.layer.run_until, |b| b.run_until(t));
    }

    fn is_idle(&self) -> bool {
        self.inner.is_idle()
    }

    fn running_requests(&self) -> usize {
        self.inner.running_requests()
    }

    fn waiting_requests(&self) -> usize {
        self.inner.waiting_requests()
    }

    fn gpu_slots_used(&self) -> usize {
        self.inner.gpu_slots_used()
    }

    fn gpu_capacity_tokens(&self) -> usize {
        self.inner.gpu_capacity_tokens()
    }

    fn cpu_tokens_used(&self) -> usize {
        self.inner.cpu_tokens_used()
    }

    fn kv_bytes_per_token(&self) -> usize {
        self.inner.kv_bytes_per_token()
    }

    fn cached_tokens(&self, session: SessionId) -> usize {
        self.inner.cached_tokens(session)
    }

    fn cache_stats(&self) -> CacheStats {
        self.inner.cache_stats()
    }

    fn export_session(&mut self, session: SessionId) -> Option<SessionExport> {
        self.inner.export_session(session)
    }

    fn import_session(&mut self, export: SessionExport) -> usize {
        self.inner.import_session(export)
    }

    fn fail_stop(&mut self) -> Vec<Request> {
        self.inner.fail_stop()
    }

    fn take_committed_kv(&mut self) -> Vec<(SessionId, usize)> {
        self.inner.take_committed_kv()
    }

    fn manifest_sessions(&self) -> Vec<SessionId> {
        self.inner.manifest_sessions()
    }

    fn session_manifest(&self, session: SessionId) -> Option<SessionManifest> {
        self.inner.session_manifest(session)
    }

    fn rehydrate_session(&mut self, manifest: &SessionManifest) -> usize {
        self.inner.rehydrate_session(manifest)
    }
}

/// Outermost wrapper: counts the submissions of every request id, for
/// the exactly-once check.
#[derive(Debug)]
pub struct Submissions<B> {
    /// The wrapped backend.
    pub inner: B,
    /// Submit count per request id.
    pub submitted: BTreeMap<u64, u32>,
}

impl<B> Submissions<B> {
    /// Wraps `inner`.
    pub fn new(inner: B) -> Self {
        Submissions {
            inner,
            submitted: BTreeMap::new(),
        }
    }
}

impl<B: ServingBackend> ServingBackend for Submissions<B> {
    fn submit(&mut self, req: Request) {
        *self.submitted.entry(req.id.0).or_default() += 1;
        self.inner.submit(req);
    }

    fn poll(&mut self, deadline: Option<SimTime>) -> bool {
        self.inner.poll(deadline)
    }

    fn responses_ready(&self) -> bool {
        self.inner.responses_ready()
    }

    fn drain_responses(&mut self) -> Vec<Response> {
        self.inner.drain_responses()
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn run_until(&mut self, t: SimTime) {
        self.inner.run_until(t);
    }

    fn is_idle(&self) -> bool {
        self.inner.is_idle()
    }

    fn running_requests(&self) -> usize {
        self.inner.running_requests()
    }

    fn waiting_requests(&self) -> usize {
        self.inner.waiting_requests()
    }

    fn gpu_slots_used(&self) -> usize {
        self.inner.gpu_slots_used()
    }

    fn gpu_capacity_tokens(&self) -> usize {
        self.inner.gpu_capacity_tokens()
    }

    fn cpu_tokens_used(&self) -> usize {
        self.inner.cpu_tokens_used()
    }

    fn kv_bytes_per_token(&self) -> usize {
        self.inner.kv_bytes_per_token()
    }

    fn cached_tokens(&self, session: SessionId) -> usize {
        self.inner.cached_tokens(session)
    }

    fn cache_stats(&self) -> CacheStats {
        self.inner.cache_stats()
    }

    fn export_session(&mut self, session: SessionId) -> Option<SessionExport> {
        self.inner.export_session(session)
    }

    fn import_session(&mut self, export: SessionExport) -> usize {
        self.inner.import_session(export)
    }

    fn fail_stop(&mut self) -> Vec<Request> {
        self.inner.fail_stop()
    }
}
