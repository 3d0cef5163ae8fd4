//! Tasks, the task slot slab, and finish scopes.
//!
//! A HiPER task is a single-threaded stream of execution placed at a place in
//! the platform model (paper §II-B1). In this implementation a task is a
//! closure plus its placement and the finish scope it was spawned under;
//! suspension is expressed with continuations and help-first blocking rather
//! than stack swapping (DESIGN.md §2.1).
//!
//! # The check-in keeps the scope alive (DESIGN.md §2.11)
//!
//! A task refers to its finish scope through a [`ScopeRef`]: a `Copy`
//! pointer, not an `Arc`, so spawning and running a task moves no reference
//! count. The task's check-in is what keeps the scope alive: `finish` owns
//! the scope and frees it only after the count drained, and the check-out
//! that drains it holds the allocation for its own wake-up of the waiter.
//!
//! # The task slab (DESIGN.md §2.11)
//!
//! Spawning used to cost one `Box<dyn FnOnce>` per task. Fine-grained task
//! graphs — the regime the paper's generalized-runtime claim is about — hit
//! the global allocator once per spawn and once per drop, from different
//! threads (spawner allocates, executor frees), which is the worst case for
//! most allocators. [`TaskBody`] replaces the box with recycled fixed-size
//! *slots*: a spawn pops a slot from the spawning thread's free list, writes
//! the closure inline, and the executing worker returns the slot to *its
//! own* free list after the closure runs. Producers and executors are often
//! different threads, so the lists meet in a capped process-wide depot: a
//! full list hands it a magazine of slots, and an empty one takes a magazine
//! before it calls the allocator. In steady state the slots circulate and
//! the allocator is out of the loop entirely. A closure bigger than
//! [`SLOT_PAYLOAD_BYTES`] (or over-aligned) is boxed, and the box stored in
//! a slot, so a body is always one word.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::mem::{self, MaybeUninit};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use hiper_platform::PlaceId;
use parking_lot::Mutex;

use crate::event::{WaitCell, WakeHub};
use crate::promise::TaskError;

/// Inline closure budget of a task slot. 128 bytes covers the runtime's own
/// task bodies (a forasync split closure is an `Arc`, a range, a grain and a
/// latch — well under half this) and small user captures; bigger captures
/// are boxed.
pub(crate) const SLOT_PAYLOAD_BYTES: usize = 128;

const SLOT_WORDS: usize = SLOT_PAYLOAD_BYTES / mem::size_of::<usize>();

/// Free slots a thread keeps for reuse. 256 slots ≈ 36 KiB per thread.
const SLAB_MAX_FREE: usize = 256;

/// Slots moved at once between a thread's free list and the depot.
const MAGAZINE: usize = 128;

/// Hard cap on the depot: 8 192 slots ≈ 1.2 MB. Past it, slots are freed.
const DEPOT_MAX: usize = 8192;

/// A recyclable task slot: erased call/drop entry points plus word-aligned
/// inline storage for the closure.
#[repr(C)]
struct Slot {
    /// Reads the closure out of `payload` and calls it.
    call: unsafe fn(*mut u8),
    /// Drops the closure in place without calling it.
    drop_in_place: unsafe fn(*mut u8),
    payload: [MaybeUninit<usize>; SLOT_WORDS],
}

struct SlabCache {
    free: Vec<NonNull<Slot>>,
}

impl Drop for SlabCache {
    fn drop(&mut self) {
        for p in self.free.drain(..) {
            unsafe { dealloc_slot(p) };
        }
    }
}

thread_local! {
    /// Per-thread slot free list, backed by the shared depot.
    static SLAB: RefCell<SlabCache> = const {
        RefCell::new(SlabCache { free: Vec::new() })
    };
}

/// Dead slots (payload dropped or moved out) shared by every thread: a
/// thread whose free list is full hands a magazine here, and a thread whose
/// list is empty takes one before it calls the allocator, so a producer's
/// burst is fed by the slots its consumers freed. The lock is taken once
/// per magazine, and never waited for: a thread that finds it held acts as
/// if the depot were empty (or full), so a preempted holder stalls nobody.
struct Depot(Vec<NonNull<Slot>>);

// SAFETY: the slots are dead and owned by whoever holds them.
unsafe impl Send for Depot {}

static DEPOT: Mutex<Depot> = Mutex::new(Depot(Vec::new()));

fn alloc_slot() -> NonNull<Slot> {
    let layout = std::alloc::Layout::new::<Slot>();
    // SAFETY: Slot has nonzero size.
    let p = unsafe { std::alloc::alloc(layout) };
    NonNull::new(p as *mut Slot).unwrap_or_else(|| std::alloc::handle_alloc_error(layout))
}

/// SAFETY: `p` must have come from [`alloc_slot`] and its payload must
/// already be dropped (or moved out).
unsafe fn dealloc_slot(p: NonNull<Slot>) {
    std::alloc::dealloc(p.as_ptr() as *mut u8, std::alloc::Layout::new::<Slot>());
}

/// Pops a slot from the calling thread's free list, refilling an empty list
/// with a magazine from the depot, or allocates on a miss. The bool is
/// `true` on a recycle hit.
fn acquire_slot() -> (NonNull<Slot>, bool) {
    // try_with: during thread teardown the cache may already be destroyed;
    // fall back to plain allocation rather than panicking.
    let hit = SLAB.try_with(|c| {
        let free = &mut c.borrow_mut().free;
        if free.is_empty() {
            if let Some(mut depot) = DEPOT.try_lock() {
                let n = depot.0.len();
                free.extend(depot.0.drain(n.saturating_sub(MAGAZINE)..));
            }
        }
        free.pop()
    });
    match hit {
        Ok(Some(p)) => (p, true),
        _ => (alloc_slot(), false),
    }
}

/// Returns a dead slot (payload already dropped or moved out) to the calling
/// thread's free list. A full list first hands a magazine to the depot; the
/// slot is deallocated only if the depot is full too, or the list is gone.
fn release_slot(p: NonNull<Slot>) {
    let kept = SLAB
        .try_with(|c| {
            let free = &mut c.borrow_mut().free;
            if free.len() >= SLAB_MAX_FREE {
                if let Some(mut depot) = DEPOT.try_lock() {
                    if depot.0.len() + MAGAZINE <= DEPOT_MAX {
                        depot.0.extend(free.drain(free.len() - MAGAZINE..));
                    }
                }
            }
            if free.len() < SLAB_MAX_FREE {
                free.push(p);
                true
            } else {
                false
            }
        })
        .unwrap_or(false);
    if !kept {
        unsafe { dealloc_slot(p) };
    }
}

/// The closure a task executes, stored in a recycled slab slot: one word,
/// so a predicated task's continuation stays small.
pub(crate) struct TaskBody {
    slot: NonNull<Slot>,
    /// The payload is an erased `F: FnOnce() + Send`; this marker keeps the
    /// auto traits honest (`Send` but not `Sync`).
    _marker: PhantomData<Box<dyn FnOnce() + Send>>,
}

// SAFETY: the slot is exclusively owned (moved with the task between
// threads, never aliased) and the payload type is `Send` by construction.
unsafe impl Send for TaskBody {}

/// Recycles the slot once the closure has been read out of it — on normal
/// return *and* on unwind, so a panicking task body still returns its slot.
struct RecycleGuard(NonNull<Slot>);

impl Drop for RecycleGuard {
    fn drop(&mut self) {
        release_slot(self.0);
    }
}

/// How a task body was stored; drives the `tasks_inline` / `slab_hits` /
/// `slab_misses` counters on the spawn path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum BodyKind {
    /// Inline in a recycled slot (no allocation).
    SlabHit,
    /// Inline in a freshly allocated slot (first use; it will recycle).
    SlabMiss,
    /// Closure too big or over-aligned for a slot: boxed, and the box
    /// stored in a slot.
    Boxed,
}

impl TaskBody {
    /// Wraps `f`, inline in a slot when it fits, boxed otherwise.
    pub(crate) fn new<F: FnOnce() + Send + 'static>(f: F) -> (TaskBody, BodyKind) {
        match TaskBody::try_new(f) {
            Ok((t, true)) => (t, BodyKind::SlabHit),
            Ok((t, false)) => (t, BodyKind::SlabMiss),
            Err(f) => {
                let Ok((t, _)) = TaskBody::try_new(Box::new(f)) else {
                    unreachable!("a box fits a slot")
                };
                (t, BodyKind::Boxed)
            }
        }
    }

    /// Stores `f` in a slot if it fits; hands it back otherwise. The bool is
    /// `true` when the slot came off the free list (no allocation).
    fn try_new<F: FnOnce() + Send + 'static>(f: F) -> Result<(TaskBody, bool), F> {
        if mem::size_of::<F>() > SLOT_PAYLOAD_BYTES
            || mem::align_of::<F>() > mem::align_of::<usize>()
        {
            return Err(f);
        }
        unsafe fn call_impl<F: FnOnce()>(p: *mut u8) {
            ((p as *mut F).read())()
        }
        unsafe fn drop_impl<F>(p: *mut u8) {
            std::ptr::drop_in_place(p as *mut F)
        }
        let (slot, hit) = acquire_slot();
        unsafe {
            let s = slot.as_ptr();
            (*s).call = call_impl::<F>;
            (*s).drop_in_place = drop_impl::<F>;
            ((*s).payload.as_mut_ptr() as *mut F).write(f);
        }
        Ok((
            TaskBody {
                slot,
                _marker: PhantomData,
            },
            hit,
        ))
    }

    /// Runs the closure and recycles the slot (to the *executing* thread's
    /// free list — that is what makes the slab circulate: workers that burn
    /// through tasks accumulate the slots they will spawn from next).
    pub(crate) fn call(self) {
        let slot = self.slot;
        mem::forget(self); // our Drop would double-drop the payload
        let _recycle = RecycleGuard(slot);
        unsafe {
            // `call` reads the closure onto the callee's stack before running
            // user code, so the slot is dead (and recyclable) from that point
            // even if the closure panics.
            let call = (*slot.as_ptr()).call;
            call((*slot.as_ptr()).payload.as_mut_ptr() as *mut u8);
        }
    }
}

impl Drop for TaskBody {
    /// A task dropped without executing (queue drained at shutdown, or a
    /// predicated task whose dependency was poisoned): release the
    /// closure's captures, then recycle the slot.
    fn drop(&mut self) {
        unsafe {
            let s = self.slot.as_ptr();
            ((*s).drop_in_place)((*s).payload.as_mut_ptr() as *mut u8);
        }
        release_slot(self.slot);
    }
}

/// A schedulable unit of work.
pub(crate) struct Task {
    /// The body to execute.
    pub body: TaskBody,
    /// Where in the platform model this task is placed.
    pub place: PlaceId,
    /// The innermost finish scope enclosing the spawn, if any. The task has
    /// already been checked in; the executor checks it out on completion.
    pub scope: Option<ScopeRef>,
    /// Trace identity: nonzero only for tasks spawned while tracing was
    /// enabled (0 = untraced; the executor emits no events for it).
    pub trace_id: u64,
    /// Spawn timestamp (trace-clock ns), nonzero only for tasks spawned
    /// while metrics were enabled; the executor records the spawn→begin
    /// queue latency from it.
    pub spawn_ns: u64,
}

impl std::fmt::Debug for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task").field("place", &self.place).finish()
    }
}

/// A `finish` scope: blocks its creator until every task transitively
/// spawned inside it has completed (paper §II-B4).
///
/// The counter starts at 1 (the scope body itself); each spawn inside the
/// scope checks in, each completed task checks out, and the body checks out
/// when it returns. Tasks and the thread-local frame refer to the scope by
/// a `ScopeRef`, kept valid by their check-in rather than by a reference
/// count; the `finish` call owns the scope and drops it only once the
/// counter drained (a body that unwinds leaks it instead, since tasks it
/// spawned may still point to it). A scope has exactly one waiter — the
/// thread that called `finish` — so the check-out that drains the counter
/// wakes that thread and nobody else: a targeted unpark if it is a worker
/// parked between help-first searches, a notify on the scope's own cell
/// otherwise. When the waiter itself is last out (or is busy helping) that
/// costs two fences.
pub struct FinishScope {
    pending: AtomicUsize,
    /// The waiter's wake hub and its worker id there, if it is a worker.
    hub: Arc<WakeHub>,
    waiter: Option<usize>,
    /// Where a waiter that cannot help (external, depth-capped) parks.
    pub(crate) cell: WaitCell,
    /// First task failure recorded under this scope, if any; `finish`
    /// surfaces it as its `Err` once the scope drains. See `fail`.
    failed: OnceLock<TaskError>,
}

impl FinishScope {
    /// Creates a scope with the body's own check-in already counted.
    /// `waiter` is the creating thread's worker id in `hub`, if any.
    pub(crate) fn new(hub: Arc<WakeHub>, waiter: Option<usize>) -> Arc<FinishScope> {
        Arc::new(FinishScope {
            pending: AtomicUsize::new(1),
            hub,
            waiter,
            cell: WaitCell::default(),
            failed: OnceLock::new(),
        })
    }

    /// Records a task failure; the first error wins (later failures of the
    /// same scope are dropped). Must happen *before* the failing task's
    /// `check_out`: the release half of that decrement publishes the error
    /// to whichever thread observes the drained counter, so the `finish`
    /// waiter cannot see a drained scope without also seeing it.
    pub(crate) fn fail(&self, err: TaskError) {
        let _ = self.failed.set(err);
    }

    /// The first recorded failure, if any. (A failure still being written by
    /// a concurrent `fail` reads as `None`; `finish` only calls this after
    /// the scope drained, which orders it after any `fail`.)
    pub fn error(&self) -> Option<TaskError> {
        self.failed.get().cloned()
    }

    /// True once every registered task has completed.
    pub fn is_done(&self) -> bool {
        self.pending.load(Ordering::Acquire) == 0
    }

    /// Number of tasks still pending (including the body if it has not
    /// returned yet). Diagnostic only; racy by nature.
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::Relaxed)
    }
}

/// A `Copy` reference to a [`FinishScope`] that `finish` allocated in an
/// `Arc`. Whoever holds one holds a check-in (a queued or running task, a
/// registered `spawn_await` continuation, the `finish` body itself), or is
/// the thread-local frame of a thread running on such a holder's behalf;
/// that check-in keeps the scope alive until [`check_out`](Self::check_out)
/// gives it up.
#[derive(Clone, Copy)]
pub(crate) struct ScopeRef(NonNull<FinishScope>);

// SAFETY: `FinishScope` is `Sync`, and a check-in, not the thread, keeps it
// alive.
unsafe impl Send for ScopeRef {}

impl ScopeRef {
    pub(crate) fn of(scope: &Arc<FinishScope>) -> ScopeRef {
        ScopeRef(NonNull::from(&**scope))
    }

    /// The scope. Valid while the caller holds the check-in behind this
    /// reference (see the type docs).
    pub(crate) fn get(&self) -> &FinishScope {
        // SAFETY: the holder's check-in keeps the scope alive.
        unsafe { self.0.as_ref() }
    }

    /// Strong references to the scope's allocation.
    #[cfg(test)]
    pub(crate) fn strong_count(self) -> usize {
        // SAFETY: as in `get`; the borrowed `Arc` is never dropped.
        let arc = std::mem::ManuallyDrop::new(unsafe { Arc::from_raw(self.0.as_ptr()) });
        Arc::strong_count(&arc)
    }

    /// Registers one more task under this scope, on behalf of a holder.
    pub(crate) fn check_in(self) -> ScopeRef {
        let prev = self.get().pending.fetch_add(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "check_in on a completed finish scope");
        self
    }

    /// Marks one task (or the body) complete, giving up its check-in; the
    /// reference must not be used again.
    pub(crate) fn check_out(self) {
        let scope = self.get();
        let mut cur = scope.pending.load(Ordering::Acquire);
        while cur > 1 {
            match scope.pending.compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
        debug_assert_eq!(cur, 1, "check_out underflow");
        // Ours is the last check-in, and only a holder checks in, so the
        // count stays 1 until we release it. The waiter may drop the scope
        // the moment it sees 0, so first take a strong count of our own to
        // cover the wake-up below.
        // SAFETY: our check-in keeps the allocation, which came from an
        // `Arc` (`ScopeRef::of`), alive until the store below.
        let keep = unsafe {
            Arc::increment_strong_count(self.0.as_ptr());
            Arc::from_raw(self.0.as_ptr())
        };
        keep.pending.store(0, Ordering::Release);
        if let Some(w) = keep.waiter {
            keep.hub.wake_worker(w);
        }
        keep.cell.notify();
    }
}

impl std::fmt::Debug for FinishScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FinishScope")
            .field("pending", &self.pending())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scope_counts_check_ins_and_outs() {
        let hub = Arc::new(WakeHub::new(1));
        let scope = FinishScope::new(Arc::clone(&hub), Some(0));
        let body = ScopeRef::of(&scope);
        assert_eq!(scope.pending(), 1);
        assert!(!scope.is_done());
        let (a, b) = (body.check_in(), body.check_in());
        assert_eq!(scope.pending(), 3);
        a.check_out();
        b.check_out();
        assert!(!scope.is_done());
        // The waiter is parked (or about to be): the draining check-out
        // must unpark exactly it.
        hub.register_idle(0);
        body.check_out();
        assert!(scope.is_done());
        assert!(hub.park(0, std::time::Duration::from_secs(10)));
        assert_eq!(
            hub.cancel_idle(0),
            crate::event::Wake::Completion,
            "completion must wake the scope's waiter"
        );
        assert_eq!(
            Arc::strong_count(&scope),
            1,
            "the draining check-out gives its strong count back"
        );
    }

    #[test]
    fn concurrent_check_in_out_balance() {
        let scope = FinishScope::new(Arc::new(WakeHub::new(0)), None);
        let body = ScopeRef::of(&scope);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(move || {
                    for _ in 0..1000 {
                        body.check_in().check_out();
                    }
                });
            }
        });
        assert_eq!(scope.pending(), 1);
        body.check_out();
        assert!(scope.is_done());
    }

    #[test]
    fn concurrent_fails_keep_exactly_one_error() {
        let scope = FinishScope::new(Arc::new(WakeHub::new(0)), None);
        std::thread::scope(|s| {
            for i in 0..4 {
                let scope = &scope;
                s.spawn(move || scope.fail(TaskError::new(format!("t{}", i))));
            }
        });
        let err = scope.error().expect("one error must be recorded");
        assert!(err.message.starts_with('t'));
        // First-wins: a later fail never overwrites.
        scope.fail(TaskError::new("late"));
        assert_eq!(scope.error().unwrap().message, err.message);
    }

    #[test]
    fn last_check_out_outlives_a_waiter_that_drops_the_scope() {
        // The waiter drops its `Arc` the moment it sees the drain, while
        // the last check-out may still be waking it: that check-out's own
        // strong count must keep the scope allocated until it is done.
        for _ in 0..200 {
            let scope = FinishScope::new(Arc::new(WakeHub::new(0)), None);
            let task = ScopeRef::of(&scope).check_in();
            ScopeRef::of(&scope).check_out(); // the body
            let t = std::thread::spawn(move || task.check_out());
            let wakes = scope.cell.wait(|| scope.is_done());
            drop(scope);
            t.join().unwrap();
            assert!(wakes <= 1);
        }
    }

    #[test]
    fn slab_body_runs_and_recycles() {
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        let (body, kind) = TaskBody::new(move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert_ne!(kind, BodyKind::Boxed, "small closure must use the slab");
        body.call();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        // The slot went back to this thread's free list: a second wrap of a
        // same-size closure is a hit.
        let h = Arc::clone(&hits);
        let (body, kind) = TaskBody::new(move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(kind, BodyKind::SlabHit);
        body.call();
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn oversized_body_boxes() {
        let big = [3u8; SLOT_PAYLOAD_BYTES + 1];
        let total = Arc::new(AtomicU64::new(0));
        let t = Arc::clone(&total);
        let (body, kind) = TaskBody::new(move || {
            t.fetch_add(big[0] as u64, Ordering::SeqCst);
        });
        assert_eq!(kind, BodyKind::Boxed);
        assert_eq!(mem::size_of_val(&body), mem::size_of::<usize>());
        body.call();
        assert_eq!(total.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn dropped_unexecuted_body_releases_captures() {
        let payload = Arc::new(());
        let p = Arc::clone(&payload);
        let (body, kind) = TaskBody::new(move || {
            let _keep = &p;
        });
        assert_ne!(kind, BodyKind::Boxed);
        drop(body);
        assert_eq!(Arc::strong_count(&payload), 1, "capture must be dropped");
    }

    #[test]
    fn panicking_slab_body_recycles_and_drops_captures() {
        let payload = Arc::new(());
        let p = Arc::clone(&payload);
        let (body, kind) = TaskBody::new(move || {
            let _keep = &p;
            panic!("task body panic");
        });
        assert_ne!(kind, BodyKind::Boxed);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body.call()));
        assert!(r.is_err());
        assert_eq!(Arc::strong_count(&payload), 1);
        // Slot survived the panic and is reusable.
        let (body, kind) = TaskBody::new(|| {});
        assert_eq!(kind, BodyKind::SlabHit);
        body.call();
    }

    #[test]
    fn slab_roundtrip_cross_thread() {
        // Spawn-side misses (fresh thread, empty cache), executor-side
        // recycles: the executing thread's free list grows instead.
        let bodies: Vec<TaskBody> = std::thread::spawn(|| {
            (0..8)
                .map(|_| {
                    let (b, _k) = TaskBody::new(|| {});
                    b
                })
                .collect()
        })
        .join()
        .unwrap();
        for b in bodies {
            b.call();
        }
        let (_, kind) = TaskBody::new(|| {});
        assert_eq!(kind, BodyKind::SlabHit);
    }
}
