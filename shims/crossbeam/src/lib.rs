//! Offline drop-in replacement for the subset of `crossbeam` used by this
//! workspace: a persistent worker pool for data-parallel kernels and
//! multi-producer multi-consumer unbounded channels with disconnect
//! detection.
//!
//! The build environment cannot reach a crates.io registry, so the
//! workspace vendors an equivalent built on [`std::sync::Mutex`] +
//! [`std::sync::Condvar`]. Semantics match `crossbeam-channel` where this
//! repository relies on them:
//!
//! * [`channel::Sender::send`] fails with [`channel::SendError`] once every
//!   receiver is gone.
//! * [`channel::Receiver::recv`] blocks until a message arrives and fails
//!   with [`channel::RecvError`] once every sender is gone **and** the
//!   queue is drained — the disconnect signal the engine uses to detect
//!   dead tensor-parallel workers.

pub mod model;

/// A **persistent** worker pool for data-parallel kernels.
///
/// Earlier revisions spawned and joined OS threads on every
/// [`pool::Pool::map_partitions`] call (`std::thread::scope` fork/join), which
/// cost hundreds of microseconds per kernel invocation and erased the
/// parallel path's gains — generation batches actually ran *slower* with
/// more threads. A [`pool::Pool`] instead owns long-lived workers that
/// park on a condvar between batches; dispatching a batch is one mutex
/// push plus a wakeup, so the per-call overhead is a few microseconds and
/// amortizes across every scheduler iteration of a serving run.
///
/// Determinism contract (unchanged from the scoped pool): partition
/// indices are assigned in fixed contiguous ranges, every partition is
/// computed independently, and the caller receives results in index order
/// regardless of thread interleaving. Callers that combine partition
/// outputs must do so sequentially in that order (see `pensieve-kernels`),
/// which keeps multi-threaded results bit-identical to the
/// single-threaded path.
///
/// Soundness: batch closures borrow the caller's stack (weights, KV
/// pools, query matrices). The pool erases those lifetimes behind raw
/// pointers to hand work to its `'static` workers, which is sound because
/// the dispatching call **always blocks until every partition of its
/// batch has completed** — including when a partition panics (the payload
/// is captured, the latch still counts down, and the panic resumes on the
/// caller after the barrier). No borrow outlives the call.
pub mod pool {
    use std::any::Any;
    use std::collections::{BTreeMap, VecDeque};
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    /// A lifetime-erased unit of work: one partition of one batch.
    type Job = Box<dyn FnOnce() + Send>;

    /// Locks a mutex, riding through poisoning: pool state stays
    /// consistent under panicking jobs because jobs run inside
    /// `catch_unwind`, so a poisoned lock only means a *caller* panicked
    /// between operations and the protected data was not mid-mutation.
    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    struct Queue {
        jobs: VecDeque<Job>,
        shutdown: bool,
    }

    /// State shared between the pool handle(s) and the workers.
    struct Shared {
        queue: Mutex<Queue>,
        ready: Condvar,
        /// Partition tasks executed over the pool's lifetime (inline
        /// serial runs count as one task).
        tasks_total: AtomicU64,
        /// Cumulative nanoseconds workers spent executing jobs (excludes
        /// the caller's own inline partition and queue-draining help).
        busy_ns: AtomicU64,
        /// Per batch, the *sum* of partition durations: what the batch
        /// would have cost on one thread.
        modeled_serial_ns: AtomicU64,
        /// Per batch, the *max* of partition durations: the critical
        /// path a machine with >= `threads` cores would observe. The
        /// ratio serial/critical is the modeled speedup, meaningful even
        /// on boxes with fewer cores than partitions (where wall-clock
        /// cannot show scaling because partitions time-share one core).
        modeled_critical_ns: AtomicU64,
    }

    /// Counters sampled by observability ([`Pool::stats`]).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct PoolStats {
        /// Partition width of the pool (1 = serial).
        pub threads: usize,
        /// Partition tasks executed over the pool's lifetime.
        pub tasks_total: u64,
        /// Jobs currently queued and not yet picked up.
        pub queue_depth: usize,
        /// Cumulative time parked workers spent executing jobs.
        pub busy: Duration,
        /// Summed per-partition durations across every batch: the
        /// modeled one-thread cost of all dispatched work.
        pub modeled_serial: Duration,
        /// Summed per-batch critical paths (max partition duration):
        /// the modeled elapsed cost with one core per partition.
        /// `modeled_serial / modeled_critical` is the modeled speedup.
        pub modeled_critical: Duration,
    }

    /// Completion latch for one batch: counts outstanding enqueued
    /// partitions and stashes the first panic payload.
    struct Batch {
        remaining: Mutex<usize>,
        done: Condvar,
        panic: Mutex<Option<Box<dyn Any + Send>>>,
        /// Wall-clock duration of each partition, for the modeled
        /// serial/critical-path accounting.
        durs: Mutex<Vec<Duration>>,
    }

    impl Batch {
        fn complete(&self, payload: Option<Box<dyn Any + Send>>) {
            if let Some(p) = payload {
                let mut slot = lock(&self.panic);
                slot.get_or_insert(p);
            }
            let mut rem = lock(&self.remaining);
            *rem -= 1;
            if *rem == 0 {
                drop(rem);
                self.done.notify_all();
            }
        }
    }

    struct Inner {
        shared: Arc<Shared>,
        threads: usize,
        workers: Vec<JoinHandle<()>>,
    }

    impl Drop for Inner {
        fn drop(&mut self) {
            {
                let mut q = lock(&self.shared.queue);
                q.shutdown = true;
            }
            self.shared.ready.notify_all();
            for h in self.workers.drain(..) {
                // A worker that panicked outside a job cannot exist (jobs
                // run under catch_unwind); a join error is ignored rather
                // than double-panicking in drop.
                let _ = h.join();
            }
        }
    }

    /// A cheaply cloneable handle to a set of persistent parked workers.
    /// All clones share the workers; the workers shut down and join when
    /// the last handle drops.
    #[derive(Clone)]
    pub struct Pool {
        inner: Arc<Inner>,
    }

    // A panicking partition leaves the pool fully consistent: jobs run
    // under `catch_unwind`, the latch still counts down, and the payload
    // is re-raised on the dispatching caller — so observing the pool
    // after a caught panic is safe.
    impl std::panic::UnwindSafe for Pool {}
    impl std::panic::RefUnwindSafe for Pool {}

    impl std::fmt::Debug for Pool {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Pool")
                .field("threads", &self.inner.threads)
                .finish()
        }
    }

    impl Default for Pool {
        fn default() -> Self {
            Pool::serial()
        }
    }

    /// Trampoline that recovers the concrete partition closure from its
    /// erased pointer. Monomorphized per closure type so the erased
    /// pointer is a thin `*const ()`.
    ///
    /// # Safety
    ///
    /// `data` must point to a live `F` for the duration of the call; the
    /// dispatching batch guarantees this by blocking until every
    /// partition completes.
    unsafe fn call_task<F: Fn(usize) + Sync>(data: *const (), t: usize) {
        // SAFETY: see function contract — `data` was created from a live
        // `&F` by `run_batch`, which outlives this call.
        let f = unsafe { &*data.cast::<F>() };
        f(t);
    }

    /// A raw pointer blessed to cross threads. Every use site bounds the
    /// pointee's lifetime by a batch barrier and writes only disjoint
    /// ranges, so the usual `Send`/`Sync` auto-trait caution does not
    /// apply.
    #[derive(Clone, Copy)]
    struct SendPtr<T: ?Sized>(*const T);

    impl<T: ?Sized> SendPtr<T> {
        /// Accessor (rather than field access) so closures capture the
        /// whole `Send + Sync` wrapper under RFC 2229 disjoint capture,
        /// not the bare raw-pointer field.
        fn get(&self) -> *const T {
            self.0
        }
    }

    // SAFETY: `SendPtr` is only constructed in `run_batch` from borrows
    // that remain live (and unmutated, for shared data) until the batch
    // barrier; partition tasks touch disjoint data.
    unsafe impl<T: ?Sized> Send for SendPtr<T> {}
    // SAFETY: as above — shared access is read-only, mutable access is
    // range-disjoint per partition.
    unsafe impl<T: ?Sized> Sync for SendPtr<T> {}

    impl Pool {
        /// Creates a pool that partitions work `threads` ways: the caller
        /// participates as one worker, so `threads - 1` OS threads are
        /// spawned and parked. `threads <= 1` spawns nothing and runs
        /// everything inline.
        #[must_use]
        pub fn new(threads: usize) -> Self {
            let threads = threads.max(1);
            let shared = Arc::new(Shared {
                queue: Mutex::new(Queue {
                    jobs: VecDeque::new(),
                    shutdown: false,
                }),
                ready: Condvar::new(),
                tasks_total: AtomicU64::new(0),
                busy_ns: AtomicU64::new(0),
                modeled_serial_ns: AtomicU64::new(0),
                modeled_critical_ns: AtomicU64::new(0),
            });
            let workers = (1..threads)
                .map(|i| {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("pensieve-pool-{i}"))
                        .spawn(move || worker_loop(&shared))
                        .expect("spawn pool worker")
                })
                .collect();
            Pool {
                inner: Arc::new(Inner {
                    shared,
                    threads,
                    workers,
                }),
            }
        }

        /// The inline pool: partition width 1, no workers, zero dispatch
        /// cost. The default for engines until a wider pool is installed.
        #[must_use]
        pub fn serial() -> Self {
            Pool::new(1)
        }

        /// A process-wide shared pool of the given width, created on
        /// first use and kept alive for the process lifetime, for owners
        /// configured by a thread count rather than a pool handle (the
        /// model's and shard runners' `set_threads`, the bench sweep):
        /// they share persistent workers without plumbing one through.
        #[must_use]
        pub fn global(threads: usize) -> Pool {
            static POOLS: OnceLock<Mutex<BTreeMap<usize, Pool>>> = OnceLock::new();
            let pools = POOLS.get_or_init(|| Mutex::new(BTreeMap::new()));
            lock(pools)
                .entry(threads.max(1))
                .or_insert_with(|| Pool::new(threads))
                .clone()
        }

        /// Partition width (1 = serial).
        #[must_use]
        pub fn threads(&self) -> usize {
            self.inner.threads
        }

        /// Counter snapshot for observability.
        #[must_use]
        pub fn stats(&self) -> PoolStats {
            PoolStats {
                threads: self.inner.threads,
                tasks_total: self.inner.shared.tasks_total.load(Ordering::Relaxed),
                queue_depth: lock(&self.inner.shared.queue).jobs.len(),
                busy: Duration::from_nanos(self.inner.shared.busy_ns.load(Ordering::Relaxed)),
                modeled_serial: Duration::from_nanos(
                    self.inner.shared.modeled_serial_ns.load(Ordering::Relaxed),
                ),
                modeled_critical: Duration::from_nanos(
                    self.inner
                        .shared
                        .modeled_critical_ns
                        .load(Ordering::Relaxed),
                ),
            }
        }

        /// Maps `f` over indices `0..n`, split into at most
        /// [`Pool::threads`] contiguous partitions, and returns the
        /// outputs in index order. With a serial pool (or `n <= 1`) the
        /// map runs inline — same results, no dispatch cost.
        ///
        /// # Panics
        ///
        /// Propagates a panic from any partition (after every partition
        /// of the batch has finished, so no borrow escapes).
        pub fn map_partitions<T, F>(&self, n: usize, f: F) -> Vec<T>
        where
            T: Send,
            F: Fn(usize) -> T + Sync,
        {
            let parts = self.inner.threads.min(n);
            if parts <= 1 {
                if n == 0 {
                    return Vec::new();
                }
                let t0 = Instant::now();
                let out: Vec<T> = (0..n).map(f).collect();
                self.record_inline(t0.elapsed());
                return out;
            }
            let per = n.div_ceil(parts);
            let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
            let optr = SendPtr(out.as_mut_ptr().cast_const());
            let f = &f;
            let task = move |t: usize| {
                let lo = t * per;
                let hi = n.min(lo + per);
                for i in lo..hi {
                    let v = f(i);
                    // SAFETY: partitions cover disjoint index ranges of a
                    // buffer that outlives the batch barrier; overwriting
                    // the pre-initialized `None` drops nothing.
                    unsafe {
                        optr.get().cast_mut().add(i).write(Some(v));
                    }
                }
            };
            self.run_batch(parts, &task);
            out.into_iter()
                .map(|v| v.expect("every partition filled"))
                .collect()
        }

        /// Runs `f(i, &mut items[i])` for every item, split into at most
        /// [`Pool::threads`] contiguous partitions, and returns each
        /// partition's wall-clock duration (empty partitions report
        /// zero). The durations let callers compute a critical-path
        /// (modeled) speedup — `sum(durations) / max(durations)` — that
        /// is meaningful even on machines with fewer cores than
        /// partitions.
        ///
        /// Items are disjoint, so this is deterministic for any `f` whose
        /// effect on item `i` depends only on item `i`.
        ///
        /// # Panics
        ///
        /// Propagates a panic from any partition (after the batch
        /// barrier).
        pub fn for_each_mut<T, F>(&self, items: &mut [T], f: F) -> Vec<Duration>
        where
            T: Send,
            F: Fn(usize, &mut T) + Sync,
        {
            let n = items.len();
            let parts = self.inner.threads.min(n).max(1);
            let mut durs = vec![Duration::ZERO; parts];
            if parts <= 1 {
                let t0 = Instant::now();
                for (i, item) in items.iter_mut().enumerate() {
                    f(i, item);
                }
                if n > 0 {
                    let took = t0.elapsed();
                    if let Some(slot) = durs.first_mut() {
                        *slot = took;
                    }
                    self.record_inline(took);
                }
                return durs;
            }
            let per = n.div_ceil(parts);
            let base = SendPtr(items.as_mut_ptr().cast_const());
            let dptr = SendPtr(durs.as_mut_ptr().cast_const());
            let f = &f;
            let task = move |t: usize| {
                let lo = t * per;
                let hi = n.min(lo + per);
                let t0 = Instant::now();
                for i in lo..hi {
                    // SAFETY: partitions cover disjoint index ranges of a
                    // slice that outlives the batch barrier.
                    let item = unsafe { &mut *base.get().cast_mut().add(i) };
                    f(i, item);
                }
                // SAFETY: slot `t` is written only by partition `t`.
                unsafe {
                    dptr.get().cast_mut().add(t).write(t0.elapsed());
                }
            };
            self.run_batch(parts, &task);
            durs
        }

        /// Accounts a one-partition inline run: one task, and a batch
        /// whose serial and critical-path costs coincide.
        fn record_inline(&self, elapsed: Duration) {
            let shared = &self.inner.shared;
            shared.tasks_total.fetch_add(1, Ordering::Relaxed);
            let ns = elapsed.as_nanos() as u64;
            shared.modeled_serial_ns.fetch_add(ns, Ordering::Relaxed);
            shared.modeled_critical_ns.fetch_add(ns, Ordering::Relaxed);
        }

        /// Dispatches one batch of `parts >= 2` partition tasks:
        /// partitions `1..parts` are enqueued for the workers, the caller
        /// runs partition 0 itself, then helps drain the queue, and
        /// finally blocks on the batch latch. Returns only once every
        /// partition has completed; a panic from any partition resumes on
        /// the caller *after* the barrier.
        fn run_batch<F: Fn(usize) + Sync>(&self, parts: usize, task: &F) {
            debug_assert!(parts >= 2);
            let shared = &self.inner.shared;
            let batch = Arc::new(Batch {
                remaining: Mutex::new(parts - 1),
                done: Condvar::new(),
                panic: Mutex::new(None),
                durs: Mutex::new(vec![Duration::ZERO; parts]),
            });
            let data = SendPtr(std::ptr::from_ref(task).cast::<()>());
            let call: unsafe fn(*const (), usize) = call_task::<F>;
            {
                let mut q = lock(&shared.queue);
                for t in 1..parts {
                    let b = Arc::clone(&batch);
                    q.jobs.push_back(Box::new(move || {
                        let t0 = Instant::now();
                        // SAFETY: `data` points at `task` on the
                        // dispatching frame, which blocks until this
                        // batch's latch reaches zero — the borrow is
                        // live for the whole call.
                        let r = catch_unwind(AssertUnwindSafe(|| unsafe { call(data.get(), t) }));
                        if let Some(slot) = lock(&b.durs).get_mut(t) {
                            *slot = t0.elapsed();
                        }
                        b.complete(r.err());
                    }));
                }
            }
            shared.ready.notify_all();
            shared
                .tasks_total
                .fetch_add(parts as u64, Ordering::Relaxed);
            // The caller is worker 0.
            let t0 = Instant::now();
            let mine = catch_unwind(AssertUnwindSafe(|| task(0)));
            if let Some(slot) = lock(&batch.durs).first_mut() {
                *slot = t0.elapsed();
            }
            // Help drain the queue instead of blocking: on machines with
            // fewer cores than partitions the caller does most of the
            // work itself, and nested dispatch from inside a worker can
            // never deadlock because the dispatcher executes its own
            // sub-batch when nobody else does.
            loop {
                let job = lock(&shared.queue).jobs.pop_front();
                let Some(job) = job else { break };
                job();
            }
            let mut rem = lock(&batch.remaining);
            while *rem > 0 {
                rem = batch
                    .done
                    .wait(rem)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            drop(rem);
            {
                let durs = lock(&batch.durs);
                let sum: Duration = durs.iter().sum();
                let max = durs.iter().copied().max().unwrap_or(Duration::ZERO);
                shared
                    .modeled_serial_ns
                    .fetch_add(sum.as_nanos() as u64, Ordering::Relaxed);
                shared
                    .modeled_critical_ns
                    .fetch_add(max.as_nanos() as u64, Ordering::Relaxed);
            }
            if let Some(payload) = lock(&batch.panic).take() {
                resume_unwind(payload);
            }
            if let Err(payload) = mine {
                resume_unwind(payload);
            }
        }
    }

    fn worker_loop(shared: &Shared) {
        loop {
            let job = {
                let mut q = lock(&shared.queue);
                loop {
                    if let Some(j) = q.jobs.pop_front() {
                        break j;
                    }
                    if q.shutdown {
                        return;
                    }
                    q = shared
                        .ready
                        .wait(q)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            let t0 = Instant::now();
            job();
            shared
                .busy_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

/// Unbounded MPMC channels with disconnect semantics.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Inner<T> {
        state: Mutex<State<T>>,
        ready: Condvar,
    }

    /// The sending half of an unbounded channel. Cloneable.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// The receiving half of an unbounded channel. Cloneable.
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// Error returned by [`Sender::send`] when every receiver has been
    /// dropped; carries the unsent message.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// every sender has been dropped.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty but senders remain.
        Empty,
        /// The channel is empty and every sender has been dropped.
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for TryRecvError {}

    /// Creates an unbounded channel.
    #[must_use]
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            ready: Condvar::new(),
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    impl<T> Sender<T> {
        /// Enqueues `msg`, waking one blocked receiver.
        ///
        /// # Errors
        ///
        /// Returns the message if every receiver has been dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            if st.receivers == 0 {
                return Err(SendError(msg));
            }
            st.queue.push_back(msg);
            drop(st);
            self.inner.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            st.senders += 1;
            drop(st);
            Sender {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            st.senders -= 1;
            let disconnected = st.senders == 0;
            drop(st);
            if disconnected {
                // Wake every blocked receiver so it can observe disconnect.
                self.inner.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives.
        ///
        /// # Errors
        ///
        /// Returns [`RecvError`] if the channel is empty and every sender
        /// has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(msg) = st.queue.pop_front() {
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.inner.ready.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Dequeues a message if one is immediately available.
        ///
        /// # Errors
        ///
        /// [`TryRecvError::Empty`] if no message is queued;
        /// [`TryRecvError::Disconnected`] if additionally every sender is
        /// gone.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(msg) = st.queue.pop_front() {
                return Ok(msg);
            }
            if st.senders == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            st.receivers += 1;
            drop(st);
            Receiver {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            st.receivers -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, RecvError, TryRecvError};
    use super::pool::Pool;

    #[test]
    fn pool_results_in_partition_order() {
        for threads in [1usize, 2, 3, 4, 9] {
            let got = Pool::new(threads).map_partitions(7, |i| i * i);
            assert_eq!(got, vec![0, 1, 4, 9, 16, 25, 36], "threads={threads}");
        }
    }

    #[test]
    fn pool_handles_empty_and_singleton() {
        for threads in [1usize, 4] {
            let p = Pool::new(threads);
            assert_eq!(p.map_partitions(0, |i| i), Vec::<usize>::new());
            assert_eq!(p.map_partitions(1, |i| i + 10), vec![10]);
        }
    }

    #[test]
    fn pool_shares_borrowed_data() {
        let data: Vec<u64> = (0..100).collect();
        let sums =
            Pool::new(3).map_partitions(4, |p| data[p * 25..(p + 1) * 25].iter().sum::<u64>());
        assert_eq!(sums.iter().sum::<u64>(), (0..100).sum());
    }

    #[test]
    fn pool_propagates_worker_panic() {
        let r = std::panic::catch_unwind(|| {
            Pool::new(2).map_partitions(4, |i| {
                assert!(i != 3, "boom");
                i
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn persistent_pool_matches_inline_results() {
        let pool = Pool::new(4);
        for n in [0usize, 1, 2, 7, 64, 100] {
            let serial: Vec<usize> = (0..n).map(|i| i * 3 + 1).collect();
            assert_eq!(pool.map_partitions(n, |i| i * 3 + 1), serial, "n={n}");
        }
    }

    #[test]
    fn persistent_pool_amortizes_across_batches() {
        let pool = Pool::new(3);
        let data: Vec<u64> = (0..999).collect();
        for _ in 0..50 {
            let sums = pool.map_partitions(9, |p| data[p * 111..(p + 1) * 111].iter().sum::<u64>());
            assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
        }
        assert!(pool.stats().tasks_total >= 150, "tasks were counted");
    }

    #[test]
    fn pool_drop_joins_workers_cleanly() {
        // `drop` blocks on every worker's JoinHandle, so this test hangs
        // (and the suite times out) if shutdown were broken.
        let pool = Pool::new(8);
        let _ = pool.map_partitions(32, |i| i);
        let clone = pool.clone();
        drop(pool);
        // Clones keep the workers alive.
        assert_eq!(clone.map_partitions(3, |i| i), vec![0, 1, 2]);
        drop(clone);
    }

    #[test]
    fn pool_panic_propagates_and_pool_survives() {
        let pool = Pool::new(4);
        let r = std::panic::catch_unwind(|| {
            pool.map_partitions(8, |i| {
                assert!(i != 6, "boom");
                i
            })
        });
        assert!(r.is_err(), "partition panic must propagate to the caller");
        // The workers stayed parked and healthy: the same pool still
        // computes correct batches afterwards.
        let got = pool.map_partitions(8, |i| i + 1);
        assert_eq!(got, (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn pool_caller_partition_panic_propagates() {
        let pool = Pool::new(2);
        let r = std::panic::catch_unwind(|| {
            pool.map_partitions(4, |i| {
                assert!(i != 0, "boom on the caller's own partition");
                i
            })
        });
        assert!(r.is_err());
        assert_eq!(pool.map_partitions(2, |i| i), vec![0, 1]);
    }

    #[test]
    fn nested_dispatch_does_not_deadlock() {
        let pool = Pool::new(2);
        let inner = pool.clone();
        let got = pool.map_partitions(2, |i| inner.map_partitions(2, move |j| i * 10 + j));
        assert_eq!(got, vec![vec![0, 1], vec![10, 11]]);
    }

    #[test]
    fn for_each_mut_updates_disjoint_items_in_order() {
        let pool = Pool::new(4);
        let mut items: Vec<u64> = (0..10).collect();
        let durs = pool.for_each_mut(&mut items, |i, v| *v += i as u64);
        assert_eq!(items, (0..10).map(|i| 2 * i).collect::<Vec<_>>());
        assert_eq!(durs.len(), 4, "one duration per partition");
        // Serial pool: one partition, same results.
        let serial = Pool::serial();
        let mut again: Vec<u64> = (0..10).collect();
        let durs = serial.for_each_mut(&mut again, |i, v| *v += i as u64);
        assert_eq!(again, items);
        assert_eq!(durs.len(), 1);
    }

    #[test]
    fn stats_report_queue_and_busy() {
        let pool = Pool::new(2);
        let before = pool.stats();
        assert_eq!(before.threads, 2);
        let _ = pool.map_partitions(4, |i| i * i);
        let after = pool.stats();
        assert!(after.tasks_total > before.tasks_total);
        assert_eq!(after.queue_depth, 0, "queue drains at the batch barrier");
    }

    #[test]
    fn stats_model_serial_and_critical_path() {
        let pool = Pool::new(4);
        let _ = pool.map_partitions(8, |i| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            i
        });
        let s = pool.stats();
        assert!(s.modeled_critical > std::time::Duration::ZERO);
        assert!(
            s.modeled_serial >= s.modeled_critical,
            "sum of partitions bounds the critical path from above"
        );
        // Four partitions sleeping ~2 ms each: the serial model must see
        // roughly the whole 8 ms even though this box may have one core.
        assert!(s.modeled_serial >= std::time::Duration::from_millis(6));
    }

    #[test]
    fn global_pools_are_shared_per_width() {
        let a = Pool::global(3);
        let b = Pool::global(3);
        let t0 = a.stats().tasks_total;
        let _ = b.map_partitions(6, |i| i);
        assert!(a.stats().tasks_total > t0, "handles share one pool");
    }

    #[test]
    fn send_recv_fifo() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn recv_detects_disconnect_after_drain() {
        let (tx, rx) = unbounded();
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_fails_without_receivers() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn blocking_recv_wakes_on_sender_drop() {
        let (tx, rx) = unbounded::<u32>();
        let h = std::thread::spawn(move || rx.recv());
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(tx);
        assert_eq!(h.join().unwrap(), Err(RecvError));
    }

    #[test]
    fn cross_thread_delivery() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        let h = std::thread::spawn(move || {
            for i in 0..100 {
                tx2.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        for _ in 0..100 {
            got.push(rx.recv().unwrap());
        }
        h.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }
}
