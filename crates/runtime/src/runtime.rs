//! The HiPER runtime handle and its task-creation APIs (paper §II-B4).

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hiper_deque::Worker;
use hiper_platform::{PlaceId, PlaceKind, PlatformConfig};
use hiper_trace::EventKind;
use parking_lot::{Mutex, RwLock};

use crate::copy::CopyRegistry;
use crate::event::{Wake, WakeHub};
use crate::module::{ModuleError, SchedulerModule};
use crate::promise::{Future, Join, OutputOf, Promise, TaskError};
use crate::scheduler::Scheduler;
use crate::stats::{ModuleStats, SchedStatsSnapshot};
use crate::task::{BodyKind, FinishScope, Task, TaskBody};

/// Maximum depth of nested help-first blocking before a worker falls back to
/// parking (bounds stack growth; see DESIGN.md §2.1).
const MAX_HELP_DEPTH: usize = 64;

/// Failed full searches a worker burns with a CPU relax hint before it
/// starts yielding. Work often arrives within a task's lifetime.
const SPIN_SEARCHES: u32 = 4;

/// Additional failed searches spent on `yield_now` (letting producers run on
/// oversubscribed cores) before the worker actually parks.
const YIELD_SEARCHES: u32 = 16;

/// Worker park timeout. A safety net only: every wake source signals the
/// parker it needs (see event.rs), so this fires only if there is nothing
/// to do; an expiry that finds work or its predicate already true is
/// counted in `backstop_wakes`.
const WORKER_PARK_TIMEOUT: Duration = Duration::from_millis(20);

pub(crate) struct RuntimeInner {
    pub sched: Arc<Scheduler>,
    pub config: PlatformConfig,
    pub modules: RwLock<Vec<Arc<dyn SchedulerModule>>>,
    pub copy_registry: CopyRegistry,
    pub module_stats: ModuleStats,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    stopped: AtomicBool,
    /// Keeps this runtime's scheduler-state section in watchdog flight
    /// records for the runtime's lifetime (deregisters on drop).
    _watchdog_info: Mutex<Option<crate::watchdog::InfoHandle>>,
}

/// A cheaply-cloneable handle to a HiPER runtime instance.
///
/// One process may host several runtimes (the cluster simulator runs one per
/// simulated rank); tasks belong to the runtime that spawned them and every
/// handle routes work to its own runtime only.
#[derive(Clone)]
pub struct Runtime {
    pub(crate) inner: Arc<RuntimeInner>,
}

struct WorkerTls {
    id: usize,
    /// Owner handles of this worker's deques, indexed by place id.
    owned: Vec<Worker<Task>>,
}

struct Tls {
    rt: Runtime,
    worker: Option<WorkerTls>,
    scope: Option<Arc<FinishScope>>,
    help_depth: usize,
}

thread_local! {
    static TLS: RefCell<Option<Tls>> = const { RefCell::new(None) };
}

/// Cached `'static` handles for the runtime's metric instruments; resolved
/// from the registry once and then read lock-free.
pub(crate) mod met {
    use hiper_metrics::{Gauge, Histogram};
    use std::sync::OnceLock;

    /// Traced task spans currently executing across every runtime in the
    /// process (gauge, with peak tracking). Only touched for tasks that
    /// carry a nonzero trace id, so the untraced path pays nothing.
    pub(crate) fn spans_active() -> &'static Gauge {
        static G: OnceLock<&'static Gauge> = OnceLock::new();
        G.get_or_init(|| hiper_metrics::gauge("hiper_spans_active"))
    }

    macro_rules! cached_histogram {
        ($fn_name:ident, $metric:literal) => {
            pub(crate) fn $fn_name() -> &'static Histogram {
                static H: OnceLock<&'static Histogram> = OnceLock::new();
                H.get_or_init(|| hiper_metrics::histogram($metric))
            }
        };
    }

    cached_histogram!(queue_latency, "hiper_task_queue_latency_ns");
    cached_histogram!(task_run, "hiper_task_run_ns");
    cached_histogram!(steal_latency, "hiper_steal_latency_ns");
    cached_histogram!(finish_scope, "hiper_finish_scope_ns");
}

/// Builds a task, assigning it a trace id and emitting its spawn event
/// (with the spawning task as parent) when tracing is enabled, and stamping
/// its spawn time when metrics are enabled. One relaxed atomic load per
/// subsystem when both are off.
fn make_task(body: TaskBody, place: PlaceId, scope: Option<Arc<FinishScope>>) -> Task {
    let trace_id = hiper_trace::fresh_task_id();
    if trace_id != 0 {
        hiper_trace::emit(
            EventKind::TaskSpawn,
            trace_id,
            hiper_trace::current_task(),
            place.index() as u64,
        );
    }
    let spawn_ns = if hiper_metrics::enabled() {
        hiper_trace::clock::now_ns().max(1)
    } else {
        0
    };
    Task {
        body,
        place,
        scope,
        trace_id,
        spawn_ns,
    }
}

/// Settles a predicated task, already checked into `scope`, whose
/// dependency was poisoned with `err`: its body has been dropped unrun.
/// Fails the scope before checking out (see `FinishScope::fail`).
fn fail_dependent(scope: Option<Arc<FinishScope>>, err: TaskError) {
    if let Some(scope) = scope {
        scope.fail(TaskError::new(format!("dependency poisoned: {}", err)));
        scope.check_out();
    }
}

/// Builder configuring a runtime before its workers start.
pub struct RuntimeBuilder {
    config: PlatformConfig,
    modules: Vec<Arc<dyn SchedulerModule>>,
}

impl RuntimeBuilder {
    /// Starts a builder from a platform configuration.
    pub fn new(config: PlatformConfig) -> RuntimeBuilder {
        RuntimeBuilder {
            config,
            modules: Vec::new(),
        }
    }

    /// Registers a pluggable module (paper §II-C). Modules are initialized
    /// in registration order once the worker pool is up, and finalized in
    /// reverse order at shutdown.
    pub fn module(mut self, module: Arc<dyn SchedulerModule>) -> RuntimeBuilder {
        self.modules.push(module);
        self
    }

    /// Starts the persistent worker pool and initializes modules.
    pub fn build(self) -> Result<Runtime, ModuleError> {
        crate::watchdog::init_from_env();
        let (sched, owned_sets) = Scheduler::new(&self.config);
        let inner = Arc::new(RuntimeInner {
            sched,
            config: self.config,
            modules: RwLock::new(Vec::new()),
            copy_registry: CopyRegistry::new(),
            module_stats: ModuleStats::default(),
            handles: Mutex::new(Vec::new()),
            stopped: AtomicBool::new(false),
            _watchdog_info: Mutex::new(None),
        });
        let rt = Runtime { inner };

        // Workers belong to the same simulated rank as the thread building
        // the runtime (thread-locals do not cross `spawn`, so the tag must
        // be re-applied inside each worker before its first trace emit).
        let rank = hiper_trace::ambient_rank();
        let mut handles = Vec::new();
        for (id, owned) in owned_sets.into_iter().enumerate() {
            let rt = rt.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("hiper-worker-{}", id))
                    .spawn(move || {
                        if let Some(r) = rank {
                            hiper_trace::set_ambient_rank(r);
                        }
                        worker_main(rt, id, owned)
                    })
                    .expect("failed to spawn worker thread"),
            );
        }
        *rt.inner.handles.lock() = handles;

        if crate::watchdog::armed() {
            let weak = Arc::downgrade(&rt.inner);
            let name = match rank {
                Some(r) => format!("runtime[rank {}] {}", r, rt.inner.config.name),
                None => format!("runtime {}", rt.inner.config.name),
            };
            let handle = crate::watchdog::register_info(name, move || match weak.upgrade() {
                Some(inner) => format!(
                    "workers={} idle={} stopped={} stats={:?}",
                    inner.sched.workers,
                    inner.sched.hub.idle_count(),
                    inner.stopped.load(Ordering::Relaxed),
                    inner.sched.stats.snapshot()
                ),
                None => "dropped".to_string(),
            });
            *rt.inner._watchdog_info.lock() = Some(handle);
        }

        // Default host<->host copy handler; modules may override kinds.
        crate::copy::register_default_handlers(&rt);

        for module in self.modules {
            if let Err(e) = module.initialize(&rt) {
                // Finalize the modules already up and join the workers: a
                // failed build leaves no thread behind.
                rt.shutdown();
                return Err(e);
            }
            module.register_copy_handlers(&rt);
            rt.inner.modules.write().push(module);
        }
        Ok(rt)
    }
}

fn worker_main(rt: Runtime, id: usize, owned: Vec<Worker<Task>>) {
    TLS.with(|tls| {
        *tls.borrow_mut() = Some(Tls {
            rt: rt.clone(),
            worker: Some(WorkerTls { id, owned }),
            scope: None,
            help_depth: 0,
        });
    });
    let sched = Arc::clone(&rt.inner.sched);
    rt.work_until(id, false, &mut || sched.is_shutdown());
    TLS.with(|tls| *tls.borrow_mut() = None);
}

/// Runs `f` on the calling worker's deque owner handles.
fn with_owned<R>(f: impl FnOnce(&[Worker<Task>]) -> R) -> R {
    TLS.with(|tls| {
        let tls = tls.borrow();
        f(&tls.as_ref().unwrap().worker.as_ref().unwrap().owned)
    })
}

impl Runtime {
    /// Creates a runtime with no modules.
    pub fn new(config: PlatformConfig) -> Runtime {
        RuntimeBuilder::new(config)
            .build()
            .expect("runtime with no modules cannot fail initialization")
    }

    /// The runtime owning the current task, if the calling thread is inside
    /// one (or is a worker thread).
    pub fn current() -> Option<Runtime> {
        TLS.with(|tls| tls.borrow().as_ref().map(|t| t.rt.clone()))
    }

    /// The platform configuration this runtime was built from.
    pub fn config(&self) -> &PlatformConfig {
        &self.inner.config
    }

    /// The first place of `kind` in the platform model, if any. Modules use
    /// this to locate e.g. the Interconnect place (paper §II-C1).
    pub fn place_of_kind(&self, kind: &PlaceKind) -> Option<PlaceId> {
        self.inner.config.graph.first_of_kind(kind)
    }

    /// Per-module statistics hooks (paper §V).
    pub fn module_stats(&self) -> &ModuleStats {
        &self.inner.module_stats
    }

    /// Scheduler counters snapshot.
    pub fn sched_stats(&self) -> SchedStatsSnapshot {
        self.inner.sched.stats.snapshot()
    }

    /// The live scheduler counters. External recovery drivers (the
    /// simulated cluster's supervisor harness) bump the recovery counters
    /// through this.
    pub fn stats(&self) -> &crate::stats::SchedStats {
        &self.inner.sched.stats
    }

    /// True when at least one worker is parked or registering idle — i.e.
    /// publishing more work right now would actually recruit parallelism.
    /// One relaxed load; `forasync` polls this to decide whether to split
    /// (publish its untouched half) or keep iterating sequentially.
    pub(crate) fn split_demand(&self) -> bool {
        self.inner.sched.hub.idle_count() > 0
    }

    /// Credits `n` elided forasync splits to the calling thread's shard.
    /// Called once per `split_run` frame, not per elision.
    pub(crate) fn note_splits_elided(&self, n: u64) {
        self.inner
            .sched
            .stats
            .splits_elided_n(self.current_shard(), n);
    }

    // ------------------------------------------------------------------
    // Task creation (paper §II-B4)
    // ------------------------------------------------------------------

    /// `async`: creates a task at the place closest to the current thread
    /// (its home place on a worker; the first worker home otherwise).
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        let (body, kind) = TaskBody::new(f);
        self.spawn_body(None, body, kind);
    }

    /// `async_at`: creates a task at a specific place.
    pub fn spawn_at(&self, place: PlaceId, f: impl FnOnce() + Send + 'static) {
        let (body, kind) = TaskBody::new(f);
        self.spawn_body(Some(place), body, kind);
    }

    /// Like [`spawn_at`](Self::spawn_at) but enqueues FIFO (to the place's
    /// injector) even from a worker thread. Used to *yield*: a task that
    /// re-spawns itself this way lets every other eligible task at the place
    /// run first (the paper's polling tasks, §II-C1 step 3).
    pub fn spawn_at_yield(&self, place: PlaceId, f: impl FnOnce() + Send + 'static) {
        let (body, kind) = TaskBody::new(f);
        let scope = self.current_scope_checked_in();
        self.inner.sched.stats.task_body(usize::MAX, kind);
        self.inner
            .sched
            .spawn_external(make_task(body, place, scope));
    }

    /// `async_future`: creates a task and returns a future satisfied with
    /// the task's result when it completes.
    pub fn spawn_future<T: Send + 'static>(
        &self,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> Future<T> {
        self.spawn_future_at(self.here(), f)
    }

    /// `async_future` at a specific place.
    pub fn spawn_future_at<T: Send + 'static>(
        &self,
        place: PlaceId,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> Future<T> {
        let promise = Promise::new();
        let future = promise.future();
        self.spawn_at(place, move || promise.put(f()));
        future
    }

    /// `async_await`: creates a task whose execution is predicated on the
    /// satisfaction of `dep`. The task is registered with the *current*
    /// finish scope immediately (so an enclosing `finish` waits for it even
    /// though it only becomes eligible later).
    pub fn spawn_await<D: Send + 'static>(
        &self,
        dep: &Future<D>,
        f: impl FnOnce() + Send + 'static,
    ) {
        self.spawn_await_at(self.here(), dep, f);
    }

    /// `async_await` at a specific place.
    ///
    /// Fail-fast: if `dep` is poisoned rather than satisfied, the predicated
    /// task body never runs — the poison propagates to the enclosing finish
    /// scope instead.
    pub fn spawn_await_at<D: Send + 'static>(
        &self,
        place: PlaceId,
        dep: &Future<D>,
        f: impl FnOnce() + Send + 'static,
    ) {
        let scope = self.current_scope_checked_in();
        // Wrapped now, so the continuation fits in 48 bytes and stays inline in
        // the dependency's waiter slot.
        let (body, kind) = TaskBody::new(f);
        let rt = self.clone();
        let dep2 = dep.clone();
        dep.on_ready(move || match dep2.poison_error() {
            None => rt.enqueue_prechecked(make_task(body, place, scope), kind),
            Some(err) => {
                drop(body);
                fail_dependent(scope, err);
            }
        });
    }

    /// `async_future_await`: predicated on `dep`, returns a future satisfied
    /// on completion.
    pub fn spawn_future_await<D: Send + 'static, T: Send + 'static>(
        &self,
        dep: &Future<D>,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> Future<T> {
        self.spawn_future_await_at(self.here(), dep, f)
    }

    /// `async_future_await` at a specific place. Fail-fast like
    /// [`spawn_await_at`](Self::spawn_await_at); the returned future is then
    /// poisoned with `dep`'s own error.
    pub fn spawn_future_await_at<D: Send + 'static, T: Send + 'static>(
        &self,
        place: PlaceId,
        dep: &Future<D>,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> Future<T> {
        let promise = Promise::new();
        let future = promise.future();
        let out = OutputOf::new(promise, dep);
        self.spawn_await_at(place, dep, move || out.put(f()));
        future
    }

    /// Creates a task predicated on *all* of `deps`. Fail-fast like
    /// [`spawn_await_at`](Self::spawn_await_at), with the first-observed
    /// poison. One allocation: a join holding the body, whose last arrival
    /// wraps the body in a slab slot and enqueues it.
    pub fn spawn_await_all(&self, deps: &[Future<()>], f: impl FnOnce() + Send + 'static) {
        let place = self.here();
        if deps.is_empty() {
            return self.spawn_at(place, f);
        }
        let scope = self.current_scope_checked_in();
        let rt = self.clone();
        let join = Join::new(deps.len(), move |err| match err {
            None => {
                let (body, kind) = TaskBody::new(f);
                rt.enqueue_prechecked(make_task(body, place, scope), kind);
            }
            Some(err) => {
                drop(f);
                fail_dependent(scope, err);
            }
        });
        for dep in deps {
            join.arm(dep);
        }
    }

    /// `finish`: runs `f` inline and then blocks the calling *task* until
    /// every task transitively created inside `f` has completed. On a worker
    /// the block is help-first; on an external thread it parks.
    ///
    /// Returns `Err` if any task created inside the scope panicked (the
    /// first recorded failure). The scope always drains fully before the
    /// error is surfaced, so no spawned task is left running.
    pub fn finish<R>(&self, f: impl FnOnce() -> R) -> Result<R, TaskError> {
        let finish_t0 = if hiper_metrics::enabled() {
            hiper_trace::clock::now_ns().max(1)
        } else {
            0
        };
        // The scope's one waiter is this thread: record its parker (if it is
        // one of our workers) so the last check-out can unpark exactly it.
        let waiter = Some(self.current_shard()).filter(|&w| w != usize::MAX);
        let scope = FinishScope::new(Arc::clone(&self.inner.sched.hub), waiter);
        let prev = TLS.with(|tls| {
            let mut tls = tls.borrow_mut();
            match tls.as_mut() {
                Some(t) if Arc::ptr_eq(&t.rt.inner, &self.inner) => {
                    t.scope.replace(Arc::clone(&scope))
                }
                // Calling thread belongs to no runtime (or another runtime):
                // install a fresh TLS frame so spawns inside `f` still see
                // the scope.
                _ => {
                    *tls = Some(Tls {
                        rt: self.clone(),
                        worker: None,
                        scope: Some(Arc::clone(&scope)),
                        help_depth: 0,
                    });
                    None
                }
            }
        });
        let result = f();
        TLS.with(|tls| {
            let mut tls = tls.borrow_mut();
            if let Some(t) = tls.as_mut() {
                if t.worker.is_none() && prev.is_none() {
                    // Tear down the frame we installed, unless we are a
                    // worker (workers keep their frame).
                    if Arc::ptr_eq(&t.rt.inner, &self.inner)
                        && t.scope
                            .as_ref()
                            .map(|s| Arc::ptr_eq(s, &scope))
                            .unwrap_or(false)
                    {
                        *tls = None;
                        return;
                    }
                }
                t.scope = prev;
            }
        });
        scope.check_out(); // the body itself
        if !scope.is_done() && !Runtime::try_help_current(|_, _| {}, &mut || scope.is_done()) {
            let wakes = scope.cell.wait(|| scope.is_done());
            self.inner.sched.stats.completion_wakes_n(usize::MAX, wakes);
        }
        if finish_t0 != 0 {
            met::finish_scope().record(hiper_trace::clock::now_ns().saturating_sub(finish_t0));
        }
        match scope.error() {
            Some(err) => Err(err),
            None => Ok(result),
        }
    }

    /// `finish_supervised`: a resilient finish scope. Runs `body` (which
    /// receives the 1-based attempt number) under [`Runtime::finish`]; if
    /// the scope drains poisoned and `policy` classifies the failure as
    /// retryable, the whole body re-executes after the policy's backoff.
    ///
    /// The body must be *re-runnable*: any side effects it performed
    /// before the failure either are idempotent or are rolled back by the
    /// caller (the checkpoint-replay harness does the latter). The scope
    /// always drains fully before a retry starts, so no task from a failed
    /// attempt is still running when the next attempt begins.
    ///
    /// When the retry budget is exhausted (or the failure is not
    /// retryable) the last error surfaces through the existing typed error
    /// path — exactly what an unsupervised `finish` would have returned.
    pub fn finish_supervised<R>(
        &self,
        policy: &crate::supervisor::RetryPolicy,
        mut body: impl FnMut(u32) -> R,
    ) -> Result<R, TaskError> {
        let mut attempt = 1u32;
        loop {
            match self.finish(|| body(attempt)) {
                Ok(r) => return Ok(r),
                Err(err) => {
                    if !policy.should_retry(attempt, &err) {
                        return Err(err);
                    }
                    self.inner.sched.stats.task_retried(usize::MAX);
                    if hiper_trace::enabled() {
                        hiper_trace::emit(
                            hiper_trace::EventKind::TaskRetry,
                            attempt as u64,
                            policy.max_attempts as u64,
                            0,
                        );
                    }
                    let delay = policy.backoff_for(attempt);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    attempt += 1;
                }
            }
        }
    }

    /// Help-first blocking: if the current thread is a worker of *any*
    /// runtime below [`MAX_HELP_DEPTH`] (which bounds stack growth), hand
    /// `arm` its wake handle (hub + parker id, to register with whatever
    /// completes `pred`), run its worker loop until `pred` holds and return
    /// true. Otherwise return false: the caller cannot help and parks on the
    /// cell of the object it waits for.
    pub(crate) fn try_help_current(
        arm: impl FnOnce(&Arc<WakeHub>, usize),
        pred: &mut dyn FnMut() -> bool,
    ) -> bool {
        let helper = TLS.with(|tls| {
            let mut tls = tls.borrow_mut();
            let t = tls.as_mut()?;
            let id = t.worker.as_ref()?.id;
            if t.help_depth >= MAX_HELP_DEPTH {
                return None;
            }
            t.help_depth += 1;
            Some((t.rt.clone(), id))
        });
        let Some((rt, id)) = helper else {
            return false;
        };
        arm(&rt.inner.sched.hub, id);
        rt.work_until(id, true, pred);
        TLS.with(|tls| tls.borrow_mut().as_mut().unwrap().help_depth -= 1);
        true
    }

    /// The worker loop: execute eligible tasks until `pred` holds, parking
    /// when a full search finds none. `worker_main` runs it until shutdown;
    /// a worker blocked on a future or finish scope runs it nested
    /// (`helping`) until that completes, so blocking never idles the core.
    fn work_until(&self, id: usize, helping: bool, pred: &mut dyn FnMut() -> bool) {
        let sched = &*self.inner.sched;
        // Failed-search count since the last task; drives an idle worker's
        // spin -> yield -> park ladder (a helper parks at once).
        let mut misses: u32 = 0;
        // A spawn's wake claimed us and we have not searched since.
        let mut claimed = false;
        loop {
            let done = pred();
            // Captured *before* the search: if it is still unchanged at park
            // time, the failed search below is proof enough that every queue
            // is empty and `maybe_has_work` can skip its exact scan.
            let seen = sched.publish_epoch();
            // A helper leaves the moment its wait is over; `worker_main`
            // (`pred` = shutdown) first drains whatever is still queued.
            let task = if done && helping {
                None
            } else {
                with_owned(|owned| sched.find_task(id, owned))
            };
            if done && task.is_none() {
                if claimed && helping {
                    // Leaving without the search that wake asked for: hand
                    // it on.
                    sched.wake(id);
                }
                return;
            }
            claimed = false;
            if let Some(task) = task {
                if helping {
                    sched.stats.help(id);
                }
                self.execute_task(task);
                misses = 0;
                continue;
            }
            misses += 1;
            if !helping && misses <= SPIN_SEARCHES {
                std::hint::spin_loop();
                continue;
            }
            if !helping && misses <= SPIN_SEARCHES + YIELD_SEARCHES {
                std::thread::yield_now();
                continue;
            }
            // Park protocol: register idle and arm (fenced), then re-check
            // predicate and queues. A spawner or completer either sees our
            // flags or we see its state change here (Dekker, event.rs).
            sched.hub.register_idle(id);
            if pred() || with_owned(|owned| sched.maybe_has_work(id, owned, seen)) {
                claimed = sched.hub.cancel_idle(id) == Wake::Spawn;
                misses = 0;
                continue;
            }
            sched.stats.park(id);
            // Capture the flag once so the park/unpark span stays balanced
            // even if tracing is flipped while we sleep.
            let tracing = hiper_trace::enabled();
            if tracing {
                hiper_trace::emit_always(EventKind::Park, 0, 0, 0);
            }
            let woken = sched.hub.park(id, WORKER_PARK_TIMEOUT);
            // Judged while still registered and armed: a predicate already
            // true at a bare timeout was published, and nobody woke us.
            let late = !woken && pred();
            let wake = sched.hub.cancel_idle(id);
            if tracing {
                let woken = woken || wake != Wake::None;
                hiper_trace::emit_always(EventKind::Unpark, woken as u64, 0, 0);
            }
            // An explicit wake means work (or completion) very likely
            // exists: restart the ladder. After a bare timeout, go straight
            // back to parking if the next search also fails.
            misses = 0;
            match wake {
                Wake::Spawn => claimed = true,
                Wake::Completion => sched.stats.completion_wakes_n(id, 1),
                Wake::None => {
                    if late {
                        crate::event::BACKSTOP_WAKES.fetch_add(1, Ordering::Relaxed);
                    }
                    misses = SPIN_SEARCHES + YIELD_SEARCHES;
                }
            }
        }
    }

    /// Runs `f` on the pool and blocks the calling thread until it (and, via
    /// an implicit finish, everything it spawns) completes. The conventional
    /// SPMD main-function entry point.
    pub fn block_on<R: Send + 'static>(&self, f: impl FnOnce() -> R + Send + 'static) -> R {
        let rt = self.clone();
        let slot = Arc::new(Mutex::new(None));
        let out = Arc::clone(&slot);
        let fut = self.spawn_future(move || {
            let r = rt.finish(f);
            *out.lock() = Some(r);
        });
        // The caller parks on this promise alone: nothing the body does
        // wakes it until the body's own completion (or poisoning) does.
        let wakes = fut.wait_counting();
        self.inner.sched.stats.completion_wakes_n(usize::MAX, wakes);
        let result = slot.lock().take();
        match result {
            Some(Ok(r)) => r,
            Some(Err(e)) => panic!("[hiper] unhandled task failure in block_on: {}", e),
            None => {
                // The body task itself panicked before storing a result; the
                // dropped promise carries the poison.
                let err = fut
                    .poison_error()
                    .map(|e| e.to_string())
                    .unwrap_or_else(|| "body produced no value".to_string());
                panic!("[hiper] unhandled task failure in block_on: {}", err);
            }
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// The "closest" place for spawns from the current thread.
    pub fn here(&self) -> PlaceId {
        TLS.with(|tls| {
            tls.borrow()
                .as_ref()
                .filter(|t| Arc::ptr_eq(&t.rt.inner, &self.inner))
                .and_then(|t| t.worker.as_ref())
                .map(|w| self.inner.sched.homes[w.id])
        })
        .unwrap_or_else(|| self.inner.sched.homes[0])
    }

    /// If the calling thread is a worker of *this* runtime, returns its
    /// current finish scope (not checked in; may be `None` inside no scope).
    /// Returns `None` when the caller is not one of our workers. `forasync`
    /// uses this to decide whether a loop may run inline on the caller.
    pub(crate) fn worker_scope(&self) -> Option<Option<Arc<FinishScope>>> {
        TLS.with(|tls| {
            tls.borrow()
                .as_ref()
                .filter(|t| t.worker.is_some() && Arc::ptr_eq(&t.rt.inner, &self.inner))
                .map(|t| t.scope.clone())
        })
    }

    /// The stats shard for the calling thread: its worker id on one of our
    /// workers, the external shard otherwise.
    pub(crate) fn current_shard(&self) -> usize {
        TLS.with(|tls| {
            tls.borrow()
                .as_ref()
                .filter(|t| Arc::ptr_eq(&t.rt.inner, &self.inner))
                .and_then(|t| t.worker.as_ref())
                .map(|w| w.id)
                .unwrap_or(usize::MAX)
        })
    }

    /// Captures the current finish scope (if it belongs to this runtime) and
    /// checks a new task into it.
    fn current_scope_checked_in(&self) -> Option<Arc<FinishScope>> {
        TLS.with(|tls| {
            let tls = tls.borrow();
            let t = tls.as_ref()?;
            if !Arc::ptr_eq(&t.rt.inner, &self.inner) {
                return None;
            }
            let scope = t.scope.as_ref()?;
            scope.check_in();
            Some(Arc::clone(scope))
        })
    }

    /// The consolidated spawn path: one TLS pass captures the current finish
    /// scope (checking the task in), resolves the placement (`None` = the
    /// spawner's home place) and routes the task — own deque for a worker of
    /// this runtime, place injector otherwise. The old path paid three
    /// separate TLS borrows per spawn (scope capture, worker probe, deque
    /// access); this is the per-task hot path, so they are folded into one.
    fn spawn_body(&self, place: Option<PlaceId>, body: TaskBody, kind: BodyKind) {
        let sched = &self.inner.sched;
        let external = TLS.with(|tls| {
            let tls = tls.borrow();
            match tls.as_ref() {
                Some(t) if Arc::ptr_eq(&t.rt.inner, &self.inner) => {
                    let scope = t.scope.as_ref().map(|s| {
                        s.check_in();
                        Arc::clone(s)
                    });
                    match t.worker.as_ref() {
                        Some(w) => {
                            let place = place.unwrap_or(sched.homes[w.id]);
                            sched.stats.task_body(w.id, kind);
                            sched.spawn_from_worker(w.id, &w.owned, make_task(body, place, scope));
                            None
                        }
                        None => Some(make_task(body, place.unwrap_or(sched.homes[0]), scope)),
                    }
                }
                // Thread belongs to no runtime (or another runtime): no
                // scope to inherit, spawn through the injector.
                _ => Some(make_task(body, place.unwrap_or(sched.homes[0]), None)),
            }
        });
        if let Some(task) = external {
            sched.stats.task_body(usize::MAX, kind);
            sched.spawn_external(task);
        }
    }

    /// Enqueues a task whose scope check-in already happened (the
    /// continuation path of `spawn_await`).
    pub(crate) fn enqueue_prechecked(&self, task: Task, kind: BodyKind) {
        let sched = &self.inner.sched;
        let routed = TLS.with(|tls| {
            let tls = tls.borrow();
            match tls.as_ref() {
                Some(t) if Arc::ptr_eq(&t.rt.inner, &self.inner) => match t.worker.as_ref() {
                    Some(w) => {
                        sched.stats.task_body(w.id, kind);
                        sched.spawn_from_worker(w.id, &w.owned, task);
                        None
                    }
                    None => Some(task),
                },
                _ => Some(task),
            }
        });
        if let Some(task) = routed {
            sched.stats.task_body(usize::MAX, kind);
            sched.spawn_external(task);
        }
    }

    fn execute_task(&self, task: Task) {
        let Task {
            body,
            scope,
            place,
            trace_id,
            spawn_ns,
        } = task;
        let (prev, shard) = TLS.with(|tls| {
            let mut tls = tls.borrow_mut();
            let t = tls.as_mut().expect("execute_task off-runtime");
            // Stats shard: the worker id, or the external shard for
            // non-worker frames (usize::MAX clamps to it).
            let shard = t.worker.as_ref().map(|w| w.id).unwrap_or(usize::MAX);
            (std::mem::replace(&mut t.scope, scope.clone()), shard)
        });
        // Only tasks spawned under tracing carry a nonzero id; untraced
        // tasks pay nothing here (no TLS writes, no clock reads).
        let prev_trace = if trace_id != 0 {
            hiper_trace::emit(EventKind::TaskBegin, trace_id, 0, place.index() as u64);
            met::spans_active().add(1);
            Some(hiper_trace::set_current_task(trace_id))
        } else {
            None
        };
        // Tasks stamped at spawn (metrics were on) report queue latency and
        // run time; unstamped tasks pay nothing here beyond the field move.
        let begin_ns = if spawn_ns != 0 {
            let now = hiper_trace::clock::now_ns();
            met::queue_latency().record(now.saturating_sub(spawn_ns));
            now
        } else {
            0
        };
        // Counted before the body runs: the body may satisfy a future's
        // promise, and the check-out below may end a finish scope; either
        // releases a waiter that may read the count.
        self.inner.sched.stats.task_executed(shard);
        let result = catch_unwind(AssertUnwindSafe(|| body.call()));
        if spawn_ns != 0 {
            met::task_run().record(hiper_trace::clock::now_ns().saturating_sub(begin_ns));
        }
        if let Some(prev_task) = prev_trace {
            hiper_trace::set_current_task(prev_task);
            hiper_trace::emit(EventKind::TaskEnd, trace_id, 0, 0);
            met::spans_active().add(-1);
        }
        TLS.with(|tls| {
            if let Some(t) = tls.borrow_mut().as_mut() {
                t.scope = prev;
            }
        });
        if let Err(panic) = &result {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic>".to_string());
            self.inner.sched.stats.task_panic(shard);
            if trace_id != 0 {
                hiper_trace::emit(EventKind::TaskPanic, trace_id, place.index() as u64, 0);
            }
            eprintln!(
                "[hiper] task panicked (worker continues): {} (task={:#x} place={})",
                msg,
                trace_id,
                place.index()
            );
            // Poison the scope *before* checking the failed task out so the
            // finish waiter cannot observe a drained scope without the error.
            if let Some(scope) = &scope {
                scope.fail(TaskError::new(msg));
            }
        }
        if let Some(scope) = scope {
            scope.check_out();
        }
        crate::watchdog::note_progress();
    }

    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// Finalizes modules (reverse registration order), stops the worker pool
    /// and joins every worker thread. Workers first run what is already
    /// queued (each exits after a search that comes back empty); a task
    /// spawned later may be dropped, so applications should reach quiescence
    /// (e.g. with `finish`) first.
    pub fn shutdown(&self) {
        if self.inner.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        let modules: Vec<_> = self.inner.modules.write().drain(..).collect();
        for module in modules.iter().rev() {
            module.finalize(self);
        }
        self.inner.sched.request_shutdown();
        let handles: Vec<_> = self.inner.handles.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.inner.sched.workers
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("config", &self.inner.config.name)
            .field("workers", &self.inner.sched.workers)
            .finish()
    }
}
