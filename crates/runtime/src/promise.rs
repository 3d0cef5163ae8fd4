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
//! The first three continuations land in inline *waiter slots* ([`SmallFn`],
//! no allocation when their captures fit); later ones go to an overflow
//! `Vec`. That `Vec` and the [`WaitCell`] live in a side part allocated by
//! its first user, so a promise is no bigger than its slots, outcome and
//! state. A continuation is handed the outcome by reference when
//! it runs, so a join or a predicated task reads its input's poison from the
//! completing promise instead of holding a clone of the input's `Future`:
//! a stencil cell read by three successors allocates nothing and touches no
//! reference count of its own. The outcome cell is written exactly once,
//! while the state word is held in the transient `LOCKED` state, and
//! published by the `Release` store of the terminal state; readers load the
//! state with `Acquire` before touching the cell, so the happens-before edge
//! is state-store → state-load. From the terminal store on, registrations
//! run their thunks themselves, so the completing thread alone drains the
//! slots. Completion wakes exactly the waiters registered with *this*
//! promise (table in `event.rs`): a worker in [`Future::wait`] registered a
//! continuation that unparks its own parker; a thread that cannot help parks
//! on the promise's `WaitCell`, which completers skip unless someone is
//! asleep in it.

use std::cell::UnsafeCell;
use std::fmt;
use std::mem;
use std::ptr::NonNull;
use std::sync::atomic::{fence, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::event::{WaitCell, WakeHub};
use crate::runtime::Runtime;
use crate::smallfn::SmallFn;

/// Continuations a promise holds without allocating: enough for a stencil
/// cell read by its three successors.
const WAITER_SLOTS: usize = 3;

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
    /// The first continuations, in registration order: up to
    /// `WAITER_SLOTS` waiters store their thunks here without touching the
    /// allocator. Filled front to back, so the first `None` ends the list.
    slots: UnsafeCell<[Option<SmallFn<T>>; WAITER_SLOTS]>,
    /// What most promises never need, allocated by the first user: see
    /// [`Side`]. Null until then; freed with the promise.
    side: AtomicPtr<Side<T>>,
    /// The outcome. Written exactly once while `state == LOCKED`; read only
    /// after an `Acquire` load observed `READY` or `POISONED`, and never
    /// mutated after that, so shared `&` reads are race-free.
    outcome: UnsafeCell<Option<Result<T, TaskError>>>,
    /// Watchdog registry id (0 = unregistered, i.e. the watchdog was
    /// disarmed at creation). Set once at construction, resolved on the
    /// terminal transition in [`complete`](Shared::complete).
    wd_id: u64,
}

/// The part of a promise that most never need, kept out of line so a
/// promise costs no more than its three waiter slots and its outcome.
struct Side<T> {
    /// Continuations past the slots, in registration order. Touched under
    /// `LOCKED`, or by the completing thread after the terminal store.
    overflow: UnsafeCell<Vec<SmallFn<T>>>,
    /// Where waiters that cannot help (external threads, depth-capped
    /// workers) park; usually empty, since workers help instead.
    cell: WaitCell,
}

// Same bounds the old `Mutex<State<T>>` representation had: the cells are
// only touched under the state-word protocol described on each field.
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        let side = *self.side.get_mut();
        if !side.is_null() {
            // SAFETY: installed from a `Box` by `side`, and no handle is left.
            drop(unsafe { Box::from_raw(side) });
        }
    }
}

impl<T> Shared<T> {
    fn new() -> Shared<T> {
        Shared {
            state: AtomicUsize::new(EMPTY),
            slots: UnsafeCell::new([const { None }; WAITER_SLOTS]),
            side: AtomicPtr::new(std::ptr::null_mut()),
            outcome: UnsafeCell::new(None),
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

    /// The side part, allocated and installed by the first caller.
    fn side(&self) -> &Side<T> {
        if let Some(side) = self.side_if_any() {
            return side;
        }
        let new = Box::into_raw(Box::new(Side {
            overflow: UnsafeCell::new(Vec::new()),
            cell: WaitCell::default(),
        }));
        let side = match self.side.compare_exchange(
            std::ptr::null_mut(),
            new,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => new,
            Err(winner) => {
                // SAFETY: `new` lost the race and was never shared.
                drop(unsafe { Box::from_raw(new) });
                winner
            }
        };
        // SAFETY: installed for good; freed only with `self`.
        unsafe { &*side }
    }

    /// The side part, if anyone installed it.
    fn side_if_any(&self) -> Option<&Side<T>> {
        // SAFETY: as in `side`.
        unsafe { self.side.load(Ordering::Acquire).as_ref() }
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

    /// Moves the promise to a terminal state, publishing `result`, and runs
    /// every registered continuation in registration order. Returns false,
    /// running nothing, if the promise was already terminal (the caller
    /// decides whether that is a panic).
    fn complete(&self, result: Result<T, TaskError>) -> bool {
        if !matches!(self.lock_or_terminal(), EMPTY | WAITERS) {
            return false;
        }
        let terminal = if result.is_ok() { READY } else { POISONED };
        // Exclusive access: every other thread spins on LOCKED or has not
        // observed a terminal state yet.
        unsafe { *self.outcome.get() = Some(result) };
        self.state.store(terminal, Ordering::Release);
        // Parked workers are woken by the continuations they registered,
        // which run next. A thread that cannot help installs the side part
        // before it registers in the cell and re-checks the state (`wait`):
        // with this fence, it sees the terminal state or we see its side.
        fence(Ordering::SeqCst);
        let side = self.side_if_any();
        if let Some(side) = side {
            side.cell.notify();
        }
        // The single terminal-transition point: every resolution (put,
        // poison, drop-poison) lands here exactly once.
        crate::watchdog::resolve_promise(self.wd_id);
        // Each slot is taken out before its thunk runs; a panicking thunk
        // leaves the rest to be dropped uncalled with `self`.
        let outcome = self.outcome();
        for i in 0..WAITER_SLOTS {
            // SAFETY: terminal now, so a registration runs its thunk itself:
            // this thread alone touches the slots from here on.
            match unsafe { (*self.slots.get())[i].take() } {
                Some(thunk) => thunk.call(outcome),
                None => return true,
            }
        }
        // All slots were full, so the overflow was filled under LOCKED before
        // our own lock, and the side pointer was visible to the load above.
        if let Some(side) = side {
            // SAFETY: as for the slots.
            for thunk in mem::take(unsafe { &mut *side.overflow.get() }) {
                thunk.call(outcome);
            }
        }
        true
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
    /// the no-waiter case is a single CAS, each slotted waiter adds one
    /// thunk call.
    ///
    /// # Panics
    /// Panics on double-put: a promise is single-assignment.
    pub fn put(self, value: T) {
        if !self.shared.complete(Ok(value)) {
            match self.shared.state.load(Ordering::Acquire) {
                POISONED => panic!(
                    "promise satisfied after poisoning: {}",
                    self.shared.outcome().as_ref().err().unwrap()
                ),
                _ => panic!("promise satisfied twice"),
            }
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
        shared.complete(Err(err));
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
    /// The first three registrations on a pending future land in inline
    /// waiter slots: no allocation when the thunk's captures fit in 40
    /// bytes. Later registrations go to an overflow `Vec`, which allocates.
    pub fn on_ready(&self, thunk: impl FnOnce() + Send + 'static) {
        self.on_complete(move |_| thunk());
    }

    /// [`on_ready`](Self::on_ready) for a thunk that reads the outcome: it
    /// is handed the value or the poisoning error by reference, on the
    /// completing thread (or at once, on this one, if already complete).
    pub(crate) fn on_complete(&self, thunk: impl FnOnce(&Result<T, TaskError>) + Send + 'static) {
        let shared = &self.shared;
        if shared.is_terminal() {
            thunk(shared.outcome());
            return;
        }
        let thunk = SmallFn::new(thunk);
        match shared.lock_or_terminal() {
            EMPTY | WAITERS => {
                // SAFETY: LOCKED gives exclusive access to the slots and the
                // overflow until the store below releases it.
                let slots = unsafe { &mut *shared.slots.get() };
                match slots.iter_mut().find(|slot| slot.is_none()) {
                    Some(free) => *free = Some(thunk),
                    // SAFETY: as above.
                    None => unsafe { (*shared.side().overflow.get()).push(thunk) },
                }
                shared.state.store(WAITERS, Ordering::Release);
            }
            // Completed while we were building the thunk: run it now.
            _terminal => thunk.call(shared.outcome()),
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
        self.on_complete(move |outcome| match outcome {
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
            self.on_complete(move |_| {
                hub.wake_worker(me);
            });
        };
        if Runtime::try_help_current(arm, &mut || self.is_complete()) {
            return 0;
        }
        self.shared.side().cell.wait(|| self.shared.is_terminal())
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

/// A countdown over `n` inputs in one allocation: the count, the
/// first-observed error (first writer wins), and the `done` action. Each
/// input carries a one-word arrival thunk in its waiter slot. The arrival
/// whose `AcqRel` decrement drains the count is the only one to touch
/// `done` (the forasync latch's protocol), and it frees the join: the
/// outstanding arrivals are what keep the join alive, so it needs no
/// reference count.
pub(crate) struct Join<F> {
    remaining: AtomicUsize,
    first_err: OnceLock<TaskError>,
    done: F,
}

/// One input's handle on its join.
struct Arrival<F>(NonNull<Join<F>>);

// SAFETY: an arrival reads `remaining` and `first_err` (both `Sync`) and the
// draining one moves `done` to its own thread, hence `F: Send`.
unsafe impl<F: Send> Send for Arrival<F> {}

impl<F: FnOnce(Option<TaskError>) + Send + 'static> Join<F> {
    /// Runs `done` once every one of `inputs` (at least one) completed,
    /// with the first-observed poison, on the thread of the last arrival.
    pub(crate) fn start<T: Send + 'static>(inputs: &[Future<T>], done: F) {
        debug_assert!(!inputs.is_empty());
        let join = NonNull::from(Box::leak(Box::new(Join {
            remaining: AtomicUsize::new(inputs.len()),
            first_err: OnceLock::new(),
            done,
        })));
        for input in inputs {
            let arrival = Arrival(join);
            // SAFETY: this input's arrival is still outstanding, so the join
            // is live when it runs; each input arrives exactly once.
            input.on_complete(move |outcome| unsafe { arrival.arrive(outcome.as_ref().err()) });
        }
    }
}

impl<F: FnOnce(Option<TaskError>)> Arrival<F> {
    /// One input completed, poisoned with `err` if `Some`. The last arrival
    /// runs `done` with the first-observed error and frees the join.
    ///
    /// # Safety
    /// Called once per arrival, while the join is live (this arrival has
    /// not been counted yet).
    unsafe fn arrive(self, err: Option<&TaskError>) {
        let join = self.0.as_ref();
        if let Some(e) = err {
            join.first_err.get_or_init(|| e.clone());
        }
        if join.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // SAFETY: this decrement drained the count, so every other
            // arrival is done with the join, and ordered before this point.
            let Join {
                first_err, done, ..
            } = *Box::from_raw(self.0.as_ptr());
            done(first_err.into_inner());
        }
    }
}

/// Returns a future that completes when all input futures do (order of
/// completion is irrelevant). If any input is poisoned, the output is
/// poisoned with the first-observed error once every input completed.
///
/// Two allocations whatever the input count: the output promise and one
/// join. Each input carries a one-word thunk, stored in one of its waiter
/// slots when one is free.
pub fn when_all<T: Send + 'static>(futures: &[Future<T>]) -> Future<()> {
    let p = Promise::new();
    let f = p.future();
    if futures.is_empty() {
        p.put(());
        return f;
    }
    Join::start(futures, move |err| match err {
        Some(e) => p.poison(e),
        None => p.put(()),
    });
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
    fn fourth_waiter_overflows_in_order() {
        let p = Promise::new();
        let f = p.future();
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..WAITER_SLOTS + 2 {
            let log = Arc::clone(&log);
            f.on_ready(move || log.lock().push(i));
        }
        let side = f.shared.side_if_any().expect("overflow installs the side");
        // SAFETY: nothing else touches the pending promise meanwhile.
        assert_eq!(unsafe { (*side.overflow.get()).len() }, 2);
        p.put(());
        assert_eq!(*log.lock(), (0..WAITER_SLOTS + 2).collect::<Vec<_>>());
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
