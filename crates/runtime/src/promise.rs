//! Promises and futures (paper §II-B4).
//!
//! A promise is a single-assignment, thread-safe container for a value; a
//! future is a read-only handle on it. Together they form a point-to-point
//! synchronization channel from one source task to many sink tasks.
//!
//! Sink tasks may block on the future ([`Future::wait`] / [`Future::get`]) or
//! chain continuations ([`Future::map`] / [`Future::and_then`], and the
//! runtime's `async_await` family, all built on [`Future::on_ready`]). Every
//! chain is fail-fast: a poisoned input runs no body and hands its
//! [`TaskError`] on. Blocking on a future from inside a worker thread
//! does **not** block the core: the wait is *help-first* — the worker keeps
//! executing other eligible tasks until the promise is satisfied. This is the
//! Rust substitution for the C++ implementation's Boost.Context call-stack
//! suspension (see DESIGN.md §2.1); the paper-visible property ("blocking
//! operations do not actually block CPU threads") is preserved.
//!
//! # Lock-free state machine (DESIGN.md §2.11)
//!
//! The promise used to be a `Mutex<State>` plus a `Condvar`, with a `Vec` of
//! boxed continuations — three allocations and a lock round-trip for the
//! common one-producer/one-consumer case. It is now a single atomic state
//! word:
//!
//! ```text
//! EMPTY ──register──▶ WAITERS ──put/poison──▶ READY / POISONED
//!   │                    ▲ │
//!   └────put/poison──────┘ └─(transient LOCKED while a thread mutates
//!                              the waiter slots or writes the outcome)
//! ```
//!
//! The first continuation lands in an *inline* slot ([`SmallFn`], no
//! allocation when its captures fit); later ones go to an overflow `Vec`.
//! The outcome cell is written exactly once, while the state word is held in
//! the transient `LOCKED` state, and published by the `Release` store of the
//! terminal state; readers load the state with `Acquire` before touching the
//! cell, so the happens-before edge is state-store → state-load. Completion
//! wakes exactly the waiters registered with *this* promise (table in
//! `event.rs`): a worker in [`Future::wait`] registered a continuation that
//! unparks its own parker; a thread that cannot help parks on the promise's
//! [`WaitCell`], which completers skip unless someone is asleep in it.

use std::cell::UnsafeCell;
use std::fmt;
use std::mem;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::event::{WaitCell, WakeHub};
use crate::runtime::Runtime;
use crate::smallfn::SmallFn;

/// Continuations stored in the promise's inline slot since process start
/// (the `promise_inline_waiters` counter surfaced via
/// [`SchedStatsSnapshot`](crate::stats::SchedStatsSnapshot)). Process-global:
/// promises are not bound to a runtime instance.
static INLINE_WAITERS: AtomicU64 = AtomicU64::new(0);

/// Total continuations stored in promise inline slots, process-wide.
pub(crate) fn inline_waiters_total() -> u64 {
    INLINE_WAITERS.load(Ordering::Relaxed)
}

// State-word values.
/// No value, no waiters.
const EMPTY: usize = 0;
/// Transient: one thread is mutating the waiter slots or the outcome cell.
const LOCKED: usize = 1;
/// At least one continuation registered; no value yet.
const WAITERS: usize = 2;
/// Outcome cell holds `Ok(value)`.
const READY: usize = 3;
/// Outcome cell holds `Err(TaskError)`.
const POISONED: usize = 4;

/// Why a task (and any promise it was meant to satisfy) failed.
#[derive(Debug, Clone)]
pub struct TaskError {
    /// Human-readable failure reason (usually the panic payload).
    pub message: String,
}

impl TaskError {
    /// Creates an error with the given reason.
    pub fn new(message: impl Into<String>) -> TaskError {
        TaskError {
            message: message.into(),
        }
    }
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task failed: {}", self.message)
    }
}

impl std::error::Error for TaskError {}

struct Shared<T> {
    /// The state word; see the module docs for the transition diagram.
    state: AtomicUsize,
    /// Inline slot for the first continuation: the common single-waiter
    /// case stores its thunk here without touching the allocator.
    inline: UnsafeCell<Option<SmallFn>>,
    /// Second and later continuations. Lazily allocated by `Vec`.
    overflow: UnsafeCell<Vec<SmallFn>>,
    /// The outcome. Written exactly once while `state == LOCKED`; read only
    /// after an `Acquire` load observed `READY` or `POISONED`, and never
    /// mutated after that, so shared `&` reads are race-free.
    outcome: UnsafeCell<Option<Result<T, TaskError>>>,
    /// Where waiters that cannot help (external threads, depth-capped
    /// workers) park; usually empty, since workers help instead.
    cell: WaitCell,
    /// Watchdog registry id (0 = unregistered, i.e. the watchdog was
    /// disarmed at creation). Set once at construction, resolved on the
    /// terminal transition in [`complete`](Shared::complete).
    wd_id: u64,
}

// Same bounds the old `Mutex<State<T>>` representation had: the cells are
// only touched under the state-word protocol described on each field.
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Shared<T> {
    fn new() -> Shared<T> {
        Shared {
            state: AtomicUsize::new(EMPTY),
            inline: UnsafeCell::new(None),
            overflow: UnsafeCell::new(Vec::new()),
            outcome: UnsafeCell::new(None),
            cell: WaitCell::default(),
            // Registered with the owning span so a stall's flight record
            // can name which task's promise never resolved. The armed check
            // here keeps the disarmed path free of the TLS read.
            wd_id: if crate::watchdog::armed() {
                crate::watchdog::register_promise(hiper_trace::current_task())
            } else {
                0
            },
        }
    }

    /// Acquires the transient `LOCKED` state from `EMPTY` or `WAITERS`
    /// (spinning out any concurrent holder — critical sections are a few
    /// instructions) and returns the state transitioned *from*. Terminal
    /// states are returned as-is without locking.
    fn lock_or_terminal(&self) -> usize {
        let mut cur = self.state.load(Ordering::Acquire);
        loop {
            match cur {
                EMPTY | WAITERS => {
                    match self.state.compare_exchange_weak(
                        cur,
                        LOCKED,
                        Ordering::Acquire,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => return cur,
                        Err(seen) => cur = seen,
                    }
                }
                LOCKED => {
                    std::hint::spin_loop();
                    cur = self.state.load(Ordering::Acquire);
                }
                terminal => return terminal,
            }
        }
    }

    /// True once the state word is terminal (value or poison).
    fn is_terminal(&self) -> bool {
        matches!(self.state.load(Ordering::Acquire), READY | POISONED)
    }

    /// Reads the completed outcome. Must only be called after observing a
    /// terminal state with `Acquire` ordering.
    fn outcome(&self) -> &Result<T, TaskError> {
        debug_assert!(self.is_terminal());
        unsafe { (*self.outcome.get()).as_ref().unwrap() }
    }

    /// Moves the promise to a terminal state, publishing `result` and
    /// returning the drained continuations — or `None` if the promise was
    /// already terminal (the caller decides whether that is a panic).
    fn complete(&self, result: Result<T, TaskError>) -> Option<(Option<SmallFn>, Vec<SmallFn>)> {
        let from = self.lock_or_terminal();
        match from {
            EMPTY | WAITERS => {
                let terminal = if result.is_ok() { READY } else { POISONED };
                // Exclusive access: every other thread spins on LOCKED or
                // has not observed a terminal state yet.
                unsafe { *self.outcome.get() = Some(result) };
                let inline = unsafe { (*self.inline.get()).take() };
                let overflow = unsafe { mem::take(&mut *self.overflow.get()) };
                self.state.store(terminal, Ordering::Release);
                // Parked workers are woken by the continuations they
                // registered, which the caller runs next.
                self.cell.notify();
                // The single terminal-transition point: every resolution
                // (put, poison, drop-poison) lands here exactly once.
                crate::watchdog::resolve_promise(self.wd_id);
                Some((inline, overflow))
            }
            _ => None,
        }
    }
}

/// Runs drained continuations in registration order (inline slot first).
fn run_thunks(thunks: (Option<SmallFn>, Vec<SmallFn>)) {
    if let Some(t) = thunks.0 {
        t.call();
    }
    for t in thunks.1 {
        t.call();
    }
}

/// The write end: a single-assignment container (paper's `promise_t`).
pub struct Promise<T> {
    shared: Arc<Shared<T>>,
}

/// The read end: a shareable handle on the eventual value (paper's
/// `future_t`).
pub struct Future<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for Future<T> {
    fn clone(&self) -> Self {
        Future {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Default for Promise<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Promise<T> {
    /// Creates an unsatisfied promise. One allocation: the shared `Arc`.
    pub fn new() -> Promise<T> {
        Promise {
            shared: Arc::new(Shared::new()),
        }
    }

    /// Returns a future on this promise's value (the paper's
    /// `p->get_future()`). May be called any number of times.
    pub fn future(&self) -> Future<T> {
        Future {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Satisfies the promise, releasing every waiter and running every
    /// registered continuation (in registration order). Allocation-free:
    /// the no-waiter case is a single CAS, the inline-waiter case adds one
    /// thunk call.
    ///
    /// # Panics
    /// Panics on double-put: a promise is single-assignment.
    pub fn put(self, value: T) {
        match self.shared.complete(Ok(value)) {
            Some(thunks) => run_thunks(thunks),
            None => match self.shared.state.load(Ordering::Acquire) {
                POISONED => panic!(
                    "promise satisfied after poisoning: {}",
                    self.shared.outcome().as_ref().err().unwrap()
                ),
                _ => panic!("promise satisfied twice"),
            },
        }
    }

    /// Fails the promise: waiters are released and observe the error
    /// ([`Future::poison_error`] / [`Future::result`]) instead of hanging,
    /// and continuations still run (so dependents can fail fast). Dropping
    /// an unsatisfied promise poisons it implicitly.
    pub fn poison(self, err: TaskError) {
        Self::poison_shared(&self.shared, err);
    }

    fn poison_shared(shared: &Shared<T>, err: TaskError) {
        // Already satisfied or poisoned: keep the first outcome.
        if let Some(thunks) = shared.complete(Err(err)) {
            run_thunks(thunks);
        }
    }

    /// True if [`put`](Self::put) has already happened (only possible via
    /// other handles; a `Promise` is consumed by `put`).
    pub fn is_satisfied(&self) -> bool {
        self.shared.state.load(Ordering::Acquire) == READY
    }
}

impl<T> Drop for Promise<T> {
    /// A promise dropped while still pending poisons itself: the producing
    /// task died (panicked, or was discarded at shutdown) and its value
    /// will never arrive — waiters must fail fast, not hang.
    fn drop(&mut self) {
        if !self.shared.is_terminal() {
            Self::poison_shared(
                &self.shared,
                TaskError::new("promise dropped without a value"),
            );
        }
    }
}

/// The output promise of a task predicated on `cause`. A predicated task
/// whose dependency is poisoned is dropped unrun, and with it this guard:
/// the output then carries `cause`'s own error rather than the generic
/// "promise dropped without a value".
pub(crate) struct OutputOf<T, D: Send + 'static> {
    promise: Option<Promise<T>>,
    cause: Future<D>,
}

impl<T, D: Send + 'static> OutputOf<T, D> {
    pub(crate) fn new(promise: Promise<T>, cause: &Future<D>) -> Self {
        OutputOf {
            promise: Some(promise),
            cause: cause.clone(),
        }
    }

    pub(crate) fn put(mut self, value: T) {
        self.promise.take().expect("put once").put(value);
    }
}

impl<T, D: Send + 'static> Drop for OutputOf<T, D> {
    fn drop(&mut self) {
        if let (Some(p), Some(err)) = (self.promise.take(), self.cause.poison_error()) {
            p.poison(err);
        }
    }
}

impl<T: Send + 'static> Future<T> {
    /// True if the value is available.
    pub fn is_ready(&self) -> bool {
        self.shared.state.load(Ordering::Acquire) == READY
    }

    /// True if the producing task failed and the value will never arrive.
    pub fn is_poisoned(&self) -> bool {
        self.shared.state.load(Ordering::Acquire) == POISONED
    }

    /// True once the future reached a terminal state (value or poison).
    pub fn is_complete(&self) -> bool {
        self.shared.is_terminal()
    }

    /// The poisoning error, if the future is poisoned.
    pub fn poison_error(&self) -> Option<TaskError> {
        if self.is_poisoned() {
            self.shared.outcome().as_ref().err().cloned()
        } else {
            None
        }
    }

    /// Registers a continuation to run when the future completes — on
    /// satisfaction *or* poisoning, so dependents of a failed producer can
    /// fail fast instead of leaking. If the future is already complete the
    /// thunk runs immediately on the calling thread.
    ///
    /// This is the primitive the combinators are built on; the thunk must
    /// check for poison itself. Module and application code chains with
    /// [`map`](Self::map) / [`and_then`](Self::and_then), or predicates a
    /// task with `Runtime::spawn_await_at` / `spawn_future_await_at`, all of
    /// which fail fast.
    ///
    /// The first registration on a pending future lands in the inline slot:
    /// no allocation when the thunk's captures fit in 48 bytes. Second and
    /// later registrations go to an overflow `Vec`, which allocates.
    pub fn on_ready(&self, thunk: impl FnOnce() + Send + 'static) {
        let shared = &self.shared;
        if shared.is_terminal() {
            thunk();
            return;
        }
        let (thunk, _inlined) = SmallFn::new(thunk);
        match shared.lock_or_terminal() {
            EMPTY | WAITERS => {
                let slot = unsafe { &mut *shared.inline.get() };
                if slot.is_none() {
                    *slot = Some(thunk);
                    INLINE_WAITERS.fetch_add(1, Ordering::Relaxed);
                } else {
                    unsafe { (*shared.overflow.get()).push(thunk) };
                }
                shared.state.store(WAITERS, Ordering::Release);
            }
            // Completed while we were building the thunk: run it now.
            _terminal => thunk.call(),
        }
    }

    /// A future on `f` of this future's value. Fail-fast: on poison `f`
    /// never runs and the output carries the upstream [`TaskError`] itself.
    /// `f` runs inline on the completing thread (no task, no finish-scope
    /// registration), so it must be cheap and must not block.
    pub fn map<U: Send + 'static>(&self, f: impl FnOnce(&T) -> U + Send + 'static) -> Future<U> {
        let promise = Promise::new();
        let out = promise.future();
        self.settle(promise, move |v, p| p.put(f(v)));
        out
    }

    /// A future on the future `f` returns for this future's value (an
    /// operation started once its input arrives). Fail-fast like
    /// [`map`](Self::map): on poison `f` never runs, and a poisoned inner
    /// future poisons the output with its own error. `f` runs inline on the
    /// completing thread; the inner value is cloned into the output.
    pub fn and_then<U: Clone + Send + 'static>(
        &self,
        f: impl FnOnce(&T) -> Future<U> + Send + 'static,
    ) -> Future<U> {
        let promise = Promise::new();
        let out = promise.future();
        self.settle(promise, move |v, p| {
            f(v).settle(p, |u, p| p.put(u.clone()));
        });
        out
    }

    /// Once this future completes, hands its value and `promise` to `f`;
    /// on poison `f` is skipped and `promise` is poisoned with the same
    /// error.
    fn settle<U: Send + 'static>(
        &self,
        promise: Promise<U>,
        f: impl FnOnce(&T, Promise<U>) + Send + 'static,
    ) {
        let src = self.clone();
        self.on_ready(move || match src.shared.outcome() {
            Ok(v) => f(v, promise),
            Err(e) => promise.poison(e.clone()),
        });
    }

    /// Blocks the *logical* task until the future completes (value or
    /// poison).
    ///
    /// On a worker thread this is help-first: the worker executes other
    /// eligible tasks while waiting, and parks on its own parker — which
    /// this promise's completion unparks — when there are none. Any other
    /// thread parks on the promise's cell.
    pub fn wait(&self) {
        self.wait_counting();
    }

    /// [`wait`](Self::wait), returning how many explicit wakeups the caller
    /// took on the promise's cell (`block_on` credits them to its runtime).
    pub(crate) fn wait_counting(&self) -> u64 {
        if self.is_complete() {
            return 0;
        }
        // A helping worker registers its own parker with this promise, so
        // the eventual `put` unparks exactly it — and only if it is parked.
        let arm = |hub: &Arc<WakeHub>, me: usize| {
            let hub = Arc::clone(hub);
            self.on_ready(move || {
                hub.wake_worker(me);
            });
        };
        if Runtime::try_help_current(arm, &mut || self.is_complete()) {
            return 0;
        }
        self.shared.cell.wait(|| self.shared.is_terminal())
    }

    /// Runs `f` against the value by reference, waiting first if necessary.
    ///
    /// # Panics
    /// Panics if the future is (or becomes) poisoned; use
    /// [`result`](Self::result) to observe failure as a value.
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        self.wait();
        match self.shared.outcome() {
            Ok(v) => f(v),
            Err(e) => panic!("future poisoned: {}", e),
        }
    }

    /// Returns the value if already available, without blocking.
    pub fn try_get(&self) -> Option<T>
    where
        T: Clone,
    {
        if self.is_ready() {
            self.shared.outcome().as_ref().ok().cloned()
        } else {
            None
        }
    }

    /// Waits for completion and returns the value, or the producing task's
    /// error if it was poisoned.
    pub fn result(&self) -> Result<T, TaskError>
    where
        T: Clone,
    {
        self.wait();
        self.shared.outcome().clone().map_err(|e| e.clone())
    }
}

impl<T: Clone + Send + 'static> Future<T> {
    /// Waits for and returns (a clone of) the value — the paper's
    /// `f->get()`.
    pub fn get(&self) -> T {
        self.with(T::clone)
    }
}

impl<T> fmt::Debug for Future<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ready = self.shared.state.load(Ordering::Acquire) == READY;
        f.debug_struct("Future").field("ready", &ready).finish()
    }
}

impl<T> fmt::Debug for Promise<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Promise")
            .field("satisfied", &self.is_satisfied())
            .finish()
    }
}

/// A countdown over `n` inputs sharing one allocation: the count, the
/// first-observed error (first writer wins), and the `done` action. The
/// thread whose arrival drains the count is the only one to touch `done`
/// (the forasync latch's protocol), so `done` needs no lock.
pub(crate) struct Join<F> {
    remaining: AtomicUsize,
    first_err: OnceLock<TaskError>,
    done: UnsafeCell<Option<F>>,
}

// SAFETY: `done` is moved in before the join is shared and taken only by the
// unique thread whose `AcqRel` decrement drained `remaining`.
unsafe impl<F: Send> Sync for Join<F> {}

impl<F: FnOnce(Option<TaskError>) + Send> Join<F> {
    /// A join over `n > 0` inputs.
    pub(crate) fn new(n: usize, done: F) -> Arc<Join<F>> {
        debug_assert!(n > 0);
        Arc::new(Join {
            remaining: AtomicUsize::new(n),
            first_err: OnceLock::new(),
            done: UnsafeCell::new(Some(done)),
        })
    }

    /// Registers the join on `input`: a 16-byte thunk (the join and the
    /// input), inline in the input's waiter slot when that is free.
    pub(crate) fn arm<T: Send + 'static>(self: &Arc<Self>, input: &Future<T>)
    where
        F: 'static,
    {
        let (join, input2) = (Arc::clone(self), input.clone());
        input.on_ready(move || join.arrive(input2.poison_error()));
    }

    /// One input completed, poisoned with `err` if `Some`. The last arrival
    /// runs `done` with the first-observed error.
    fn arrive(&self, err: Option<TaskError>) {
        if let Some(e) = err {
            let _ = self.first_err.set(e);
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // SAFETY: this decrement drained the count, so no other thread
            // touches `done` again, and it is ordered after every other one.
            let done = unsafe { (*self.done.get()).take() }.expect("join drained once");
            done(self.first_err.get().cloned());
        }
    }
}

/// Returns a future that completes when all input futures do (order of
/// completion is irrelevant). If any input is poisoned, the output is
/// poisoned with the first-observed error once every input completed.
///
/// Two allocations whatever the input count: the output promise and one
/// shared join. Each input carries a small thunk, stored in its inline
/// waiter slot when that is free.
pub fn when_all<T: Send + 'static>(futures: &[Future<T>]) -> Future<()> {
    let p = Promise::new();
    let f = p.future();
    if futures.is_empty() {
        p.put(());
        return f;
    }
    let join = Join::new(futures.len(), move |err| match err {
        Some(e) => p.poison(e),
        None => p.put(()),
    });
    for fut in futures {
        join.arm(fut);
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;
    use std::time::Duration;

    #[test]
    fn put_then_get() {
        let p = Promise::new();
        let f = p.future();
        p.put(42);
        assert!(f.is_ready());
        assert_eq!(f.get(), 42);
        assert_eq!(f.try_get(), Some(42));
    }

    #[test]
    fn try_get_pending() {
        let p: Promise<u32> = Promise::new();
        let f = p.future();
        assert!(!f.is_ready());
        assert_eq!(f.try_get(), None);
    }

    #[test]
    #[should_panic(expected = "satisfied twice")]
    fn double_put_panics() {
        let p = Promise::new();
        let _f = p.future();
        let p2 = Promise {
            shared: Arc::clone(&p.shared),
        };
        p.put(1);
        p2.put(2);
    }

    #[test]
    #[should_panic(expected = "after poisoning")]
    fn put_after_poison_panics() {
        let p: Promise<u32> = Promise::new();
        let _f = p.future();
        let p2 = Promise {
            shared: Arc::clone(&p.shared),
        };
        p.poison(TaskError::new("producer died"));
        p2.put(2);
    }

    #[test]
    fn continuations_run_on_put_in_order() {
        let p = Promise::new();
        let f = p.future();
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let log = Arc::clone(&log);
            f.on_ready(move || log.lock().push(i));
        }
        assert!(log.lock().is_empty());
        p.put(());
        assert_eq!(*log.lock(), vec![0, 1, 2]);
    }

    #[test]
    fn continuation_after_put_runs_immediately() {
        let p = Promise::new();
        let f = p.future();
        p.put(7u8);
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        f.on_ready(move || {
            r.store(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn inline_slot_counts_first_waiter() {
        let before = inline_waiters_total();
        let p = Promise::new();
        let f = p.future();
        f.on_ready(|| {});
        f.on_ready(|| {}); // overflow, not inline
        assert_eq!(inline_waiters_total(), before + 1);
        p.put(());
    }

    #[test]
    fn cross_thread_wait() {
        let p = Promise::new();
        let f = p.future();
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            p.put("hello".to_string());
        });
        assert_eq!(f.get(), "hello");
        t.join().unwrap();
    }

    #[test]
    fn many_waiters_released() {
        let p = Promise::new();
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let f = p.future();
                thread::spawn(move || f.get())
            })
            .collect();
        thread::sleep(Duration::from_millis(10));
        p.put(99u64);
        for w in waiters {
            assert_eq!(w.join().unwrap(), 99);
        }
    }

    #[test]
    fn when_all_waits_for_every_input() {
        let ps: Vec<Promise<()>> = (0..3).map(|_| Promise::new()).collect();
        let fs: Vec<Future<()>> = ps.iter().map(Promise::future).collect();
        let all = when_all(&fs);
        let mut ps = ps.into_iter();
        all.on_ready(|| {});
        assert!(!all.is_ready());
        ps.next().unwrap().put(());
        assert!(!all.is_ready());
        ps.next().unwrap().put(());
        assert!(!all.is_ready());
        ps.next().unwrap().put(());
        assert!(all.is_ready());
    }

    #[test]
    fn when_all_empty_is_immediately_ready() {
        let all = when_all::<()>(&[]);
        assert!(all.is_ready());
    }

    #[test]
    fn with_gives_reference_access() {
        let p = Promise::new();
        let f = p.future();
        p.put(vec![1, 2, 3]);
        let sum: i32 = f.with(|v| v.iter().sum());
        assert_eq!(sum, 6);
    }

    #[test]
    fn dropped_promise_poisons_future() {
        let p: Promise<u32> = Promise::new();
        let f = p.future();
        drop(p);
        assert!(f.is_poisoned());
        assert!(f.is_complete());
        assert!(!f.is_ready());
        assert!(f.result().is_err());
        assert_eq!(f.try_get(), None);
    }

    #[test]
    fn explicit_poison_releases_waiters_and_runs_continuations() {
        let p: Promise<u32> = Promise::new();
        let f = p.future();
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        f.on_ready(move || {
            r.store(1, Ordering::SeqCst);
        });
        let f2 = f.clone();
        let waiter = thread::spawn(move || f2.result());
        thread::sleep(Duration::from_millis(10));
        p.poison(TaskError::new("boom"));
        let err = waiter.join().unwrap().unwrap_err();
        assert!(err.message.contains("boom"));
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "future poisoned")]
    fn get_on_poisoned_future_panics() {
        let p: Promise<u32> = Promise::new();
        let f = p.future();
        p.poison(TaskError::new("dead producer"));
        let _ = f.get();
    }

    #[test]
    fn when_all_propagates_poison() {
        let ok: Promise<()> = Promise::new();
        let bad: Promise<()> = Promise::new();
        let all = when_all(&[ok.future(), bad.future()]);
        bad.poison(TaskError::new("one input failed"));
        assert!(!all.is_complete(), "waits for every input");
        ok.put(());
        assert!(all.is_poisoned());
        assert!(all
            .poison_error()
            .unwrap()
            .message
            .contains("one input failed"));
    }

    #[test]
    fn poison_after_waiters_registered_runs_each_exactly_once() {
        let p: Promise<u32> = Promise::new();
        let f = p.future();
        let counts: Vec<Arc<AtomicUsize>> = (0..5).map(|_| Arc::new(AtomicUsize::new(0))).collect();
        for c in &counts {
            let c = Arc::clone(c);
            f.on_ready(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        p.poison(TaskError::new("late failure"));
        for c in &counts {
            assert_eq!(c.load(Ordering::SeqCst), 1);
        }
        // Late registration on a poisoned future still runs immediately.
        let late = Arc::new(AtomicUsize::new(0));
        let l = Arc::clone(&late);
        f.on_ready(move || {
            l.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(late.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_registrations_race_put_none_lost_or_duplicated() {
        // Many threads register continuations while another thread puts;
        // every continuation must run exactly once whatever the interleave.
        for round in 0..50 {
            let p = Promise::new();
            let f = p.future();
            const THREADS: usize = 4;
            const PER_THREAD: usize = 8;
            let counts: Vec<Arc<AtomicUsize>> = (0..THREADS * PER_THREAD)
                .map(|_| Arc::new(AtomicUsize::new(0)))
                .collect();
            let registrars: Vec<_> = (0..THREADS)
                .map(|t| {
                    let f = f.clone();
                    let counts: Vec<_> = counts[t * PER_THREAD..(t + 1) * PER_THREAD]
                        .iter()
                        .map(Arc::clone)
                        .collect();
                    thread::spawn(move || {
                        for c in counts {
                            f.on_ready(move || {
                                c.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    })
                })
                .collect();
            let putter = thread::spawn(move || {
                if round % 2 == 0 {
                    thread::yield_now();
                }
                p.put(round);
            });
            for r in registrars {
                r.join().unwrap();
            }
            putter.join().unwrap();
            for (i, c) in counts.iter().enumerate() {
                assert_eq!(
                    c.load(Ordering::SeqCst),
                    1,
                    "continuation {} ran a wrong number of times (round {})",
                    i,
                    round
                );
            }
        }
    }
}
