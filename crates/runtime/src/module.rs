//! Pluggable scheduler modules (paper §II-C).
//!
//! A module extends the runtime with user-visible APIs that schedule
//! module-specific tasks on the work-stealing runtime. A complete module
//! provides: (1) an initialization function called once per process, (2) a
//! finalization function, (3) optional special-purpose registrations (e.g.
//! copy handlers for transfers touching certain place kinds), and (4) a set
//! of user-facing functions — in Rust these live in the module's own crate
//! and internally place tasks at special-purpose places in the platform
//! model, so *all* work is scheduled by one unified runtime.
//!
//! A module reaches the runtime through one [`ModuleCtx`]: it binds to the
//! module's place, funnels calls there (taskify), times ops under the
//! module's name and turns polled completions into promises through a
//! [`Poller`], the polling-task pattern of paper §II-C1 steps 1–4 (a
//! singleton task sweeps pending operations, yielding between sweeps).

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hiper_platform::{PlaceId, PlaceKind};
use parking_lot::{Mutex, RwLock};

use crate::promise::{Future, Promise};
use crate::runtime::Runtime;

/// Error raised by a pluggable module.
#[derive(Debug, Clone)]
pub enum ModuleError {
    /// Module initialization failed (e.g. a platform-model assertion like
    /// "exactly one Interconnect place" did not hold).
    Init {
        /// Name of the failing module.
        module: &'static str,
        /// What went wrong.
        message: String,
    },
    /// A communication peer exhausted its reliable-delivery retry budget
    /// (fault injection: permanently killed or partitioned rank).
    Unreachable {
        /// Name of the reporting module.
        module: &'static str,
        /// The rank that never acked.
        peer: usize,
        /// Send attempts made before giving up.
        attempts: u32,
    },
    /// A malformed or unexpected wire frame (truncated header, unknown
    /// opcode, protocol state desync). The frame is dropped and the error
    /// recorded; handlers must not panic the delivery-engine thread.
    Protocol {
        /// Name of the reporting module.
        module: &'static str,
        /// What was wrong with the frame.
        detail: String,
    },
}

impl ModuleError {
    /// Creates an initialization error for `module`.
    pub fn new(module: &'static str, message: impl Into<String>) -> ModuleError {
        ModuleError::Init {
            module,
            message: message.into(),
        }
    }

    /// Creates an unreachable-peer error for `module`.
    pub fn unreachable(module: &'static str, peer: usize, attempts: u32) -> ModuleError {
        ModuleError::Unreachable {
            module,
            peer,
            attempts,
        }
    }

    /// Creates a wire-protocol error for `module`.
    pub fn protocol(module: &'static str, detail: impl Into<String>) -> ModuleError {
        ModuleError::Protocol {
            module,
            detail: detail.into(),
        }
    }

    /// Name of the module that raised the error.
    pub fn module(&self) -> &'static str {
        match self {
            ModuleError::Init { module, .. }
            | ModuleError::Unreachable { module, .. }
            | ModuleError::Protocol { module, .. } => module,
        }
    }
}

impl fmt::Display for ModuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModuleError::Init { module, message } => {
                write!(f, "module '{}': {}", module, message)
            }
            ModuleError::Unreachable {
                module,
                peer,
                attempts,
            } => write!(
                f,
                "module '{}': rank {} unreachable after {} attempts",
                module, peer, attempts
            ),
            ModuleError::Protocol { module, detail } => {
                write!(f, "module '{}': protocol violation: {}", module, detail)
            }
        }
    }
}

impl std::error::Error for ModuleError {}

/// A pluggable HiPER module. Implementations live in third-party crates; the
/// runtime only knows this interface.
pub trait SchedulerModule: Send + Sync {
    /// Stable module name (used for statistics attribution).
    fn name(&self) -> &'static str;

    /// Called once, after the worker pool is up. Modules should assert their
    /// platform-model requirements here (paper §II-C1: "It is up to
    /// individual modules to make these assertions ... during module
    /// initialization").
    fn initialize(&self, rt: &Runtime) -> Result<(), ModuleError>;

    /// Called once at runtime shutdown, in reverse registration order.
    fn finalize(&self, _rt: &Runtime) {}

    /// Optional: register special-purpose handlers (e.g. the CUDA module
    /// registers itself for copies touching GPU places, paper §II-C3).
    fn register_copy_handlers(&self, _rt: &Runtime) {}
}

/// A module's one handle to the runtime. Bound at
/// [`SchedulerModule::initialize`] to the module's place, with any
/// module-specific state `S`; unbound at [`SchedulerModule::finalize`], which
/// breaks the module↔runtime `Arc` cycle and hands `S` back.
pub struct ModuleCtx<S = ()> {
    name: &'static str,
    poller_name: &'static str,
    binding: RwLock<Option<Binding<S>>>,
}

/// What a bound [`ModuleCtx`] holds.
pub struct Binding<S> {
    /// The runtime the module is bound to.
    pub rt: Runtime,
    /// The place the module's calls are funnelled to.
    pub place: PlaceId,
    /// Module-specific state.
    pub state: S,
    poller: Arc<Poller>,
}

impl<S> ModuleCtx<S> {
    /// An unbound context for module `name` (its stats name) whose
    /// completion poller runs under `poller_name`.
    pub fn new(name: &'static str, poller_name: &'static str) -> ModuleCtx<S> {
        ModuleCtx {
            name,
            poller_name,
            binding: RwLock::new(None),
        }
    }

    /// The first place of the first of `kinds` the platform model has, or
    /// [`ModuleError::Init`] naming the module.
    pub fn find_place(&self, rt: &Runtime, kinds: &[PlaceKind]) -> Result<PlaceId, ModuleError> {
        let found = kinds.iter().find_map(|k| rt.place_of_kind(k));
        let kinds: Vec<String> = kinds.iter().map(|k| format!("{:?}", k)).collect();
        let msg = || format!("platform model contains no {} place", kinds.join(" or "));
        found.ok_or_else(|| ModuleError::new(self.name, msg()))
    }

    /// Binds to `rt` at `place`, carrying `state`.
    pub fn bind(&self, rt: &Runtime, place: PlaceId, state: S) {
        let (rt, poller) = (rt.clone(), Poller::new(self.poller_name, place));
        *self.binding.write() = Some(Binding {
            rt,
            place,
            state,
            poller,
        });
    }

    /// Drops the runtime handle and returns the state (`None` if unbound).
    pub fn unbind(&self) -> Option<S> {
        self.binding.write().take().map(|b| b.state)
    }

    /// Runs `f` on the binding, or returns `None` when unbound.
    pub fn try_with<R>(&self, f: impl FnOnce(&Binding<S>) -> R) -> Option<R> {
        self.binding.read().as_ref().map(f)
    }

    /// Runs `f` on the binding; panics when unbound.
    pub fn with<R>(&self, f: impl FnOnce(&Binding<S>) -> R) -> R {
        let unbound = || panic!("{} module used before runtime initialization", self.name);
        self.try_with(f).unwrap_or_else(unbound)
    }

    /// Runs `f` as one op `op` of `bytes` in the module's stats and trace.
    pub fn time_op<R>(&self, op: &'static str, bytes: u64, f: impl FnOnce(&Binding<S>) -> R) -> R {
        self.with(|b| {
            let _t = b.rt.module_stats().time_op(self.name, op, bytes);
            f(b)
        })
    }

    /// Taskify (§II-C1): runs `f` as a task at the module's place and
    /// blocks the calling task (help-first) until it returns; timed as `op`.
    pub fn taskify<R, F>(&self, op: &'static str, bytes: u64, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        self.time_op(op, bytes, |b| {
            let slot = Arc::new(Mutex::new(None));
            let out = Arc::clone(&slot);
            let fut =
                b.rt.spawn_future_at(b.place, move || *out.lock() = Some(f()));
            fut.wait();
            let result = slot.lock().take();
            result.expect("taskified call produced no value")
        })
    }
}

impl<S> Binding<S> {
    /// Puts the first `Some` that `poll` returns into `promise`, polled by
    /// the module's [`Poller`] at its place (§II-C1 steps 2–4).
    pub fn complete_when<T: Send + 'static>(
        &self,
        promise: Promise<T>,
        mut poll: impl FnMut() -> Option<T> + Send + 'static,
    ) {
        let mut promise = Some(promise);
        let mut done = move || poll().map(|v| promise.take().expect("polled twice").put(v));
        self.poller
            .submit(&self.rt, Box::new(move || done().is_some()));
    }

    /// A future on the first `Some` that `poll` returns.
    pub fn poll_future<T: Send + 'static>(
        &self,
        poll: impl FnMut() -> Option<T> + Send + 'static,
    ) -> Future<T> {
        let promise = Promise::new();
        let fut = promise.future();
        self.complete_when(promise, poll);
        fut
    }
}

/// One pending asynchronous operation: returns `true` once complete (at
/// which point it is dropped; completion side effects such as satisfying a
/// promise belong inside the closure).
pub type PollFn = Box<dyn FnMut() -> bool + Send>;

/// The singleton polling task shared by asynchronous module operations
/// (paper §II-C1): operations are appended to a pending list; a polling task
/// placed at the module's place sweeps the list, retains incomplete entries,
/// and re-enqueues itself FIFO (yielding to other useful work) while entries
/// remain. A polling task is not created if one already exists.
pub struct Poller {
    name: &'static str,
    place: PlaceId,
    pending: Mutex<Vec<PollFn>>,
    running: AtomicBool,
}

impl Poller {
    /// Creates a poller whose sweep tasks run at `place`.
    pub fn new(name: &'static str, place: PlaceId) -> Arc<Poller> {
        Arc::new(Poller {
            name,
            place,
            pending: Mutex::new(Vec::new()),
            running: AtomicBool::new(false),
        })
    }

    /// Registers a pending operation and ensures the polling task is
    /// running.
    pub fn submit(self: &Arc<Self>, rt: &Runtime, poll: PollFn) {
        self.pending.lock().push(poll);
        self.ensure_running(rt);
    }

    /// Number of operations currently pending (racy; diagnostics only).
    pub fn pending_len(&self) -> usize {
        self.pending.lock().len()
    }

    fn ensure_running(self: &Arc<Self>, rt: &Runtime) {
        if self
            .running
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.schedule_sweep(rt);
        }
    }

    fn schedule_sweep(self: &Arc<Self>, rt: &Runtime) {
        let poller = Arc::clone(self);
        let rt2 = rt.clone();
        // FIFO enqueue = yield: every other eligible task at the place runs
        // before the next sweep.
        rt.spawn_at_yield(self.place, move || poller.sweep(&rt2));
    }

    fn sweep(self: &Arc<Self>, rt: &Runtime) {
        let _timer = rt.module_stats().time(self.name);
        // Poll with the lock *released*: completing an operation may run
        // continuations that re-enter submit() on this same poller.
        let mut entries = std::mem::take(&mut *self.pending.lock());
        let mut completed_any = false;
        entries.retain_mut(|poll| {
            let done = poll();
            completed_any |= done;
            !done
        });
        let empty = {
            let mut pending = self.pending.lock();
            if pending.is_empty() {
                *pending = entries;
            } else {
                // Operations submitted during the poll: keep the surviving
                // old entries first to preserve rough FIFO fairness.
                let new = std::mem::replace(&mut *pending, entries);
                pending.extend(new);
            }
            pending.is_empty()
        };
        if empty {
            self.running.store(false, Ordering::Release);
            // Submit/empty race: an operation may have been pushed after the
            // emptiness check but before the store. Re-arm if so.
            if !self.pending.lock().is_empty() {
                self.ensure_running(rt);
            }
            return;
        }
        if !completed_any {
            // Nothing progressed: give the OS (and, on a single core, the
            // threads that drive completion) a chance before re-polling.
            std::thread::yield_now();
        }
        self.schedule_sweep(rt);
    }
}

impl fmt::Debug for Poller {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Poller")
            .field("name", &self.name)
            .field("place", &self.place)
            .field("pending", &self.pending_len())
            .field("running", &self.running.load(Ordering::Relaxed))
            .finish()
    }
}
