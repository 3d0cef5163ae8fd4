//! Tasks, the task slot slab, and finish scopes.
//!
//! A HiPER task is a single-threaded stream of execution placed at a place in
//! the platform model (paper §II-B1). In this implementation a task is a
//! closure plus its placement and the finish scope it was spawned under;
//! suspension is expressed with continuations and help-first blocking rather
//! than stack swapping (DESIGN.md §2.1).
//!
//! # The task slab (DESIGN.md §2.11)
//!
//! Spawning used to cost one `Box<dyn FnOnce>` per task. Fine-grained task
//! graphs — the regime the paper's generalized-runtime claim is about — hit
//! the global allocator once per spawn and once per drop, from different
//! threads (spawner allocates, executor frees), which is the worst case for
//! most allocators. [`TaskBody`] replaces the box with recycled fixed-size
//! *slots*: a spawn pops a slot from the spawning thread's free list (or
//! allocates one on a miss), writes the closure inline, and the executing
//! worker returns the slot to *its own* free list after the closure runs.
//! In steady state the slots circulate through the pool and the allocator is
//! out of the loop entirely. Closures bigger than [`SLOT_PAYLOAD_BYTES`]
//! (or over-aligned ones) fall back to plain boxing.

use std::cell::{RefCell, UnsafeCell};
use std::marker::PhantomData;
use std::mem::{self, MaybeUninit};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

use hiper_platform::PlaceId;

use crate::event::{WaitCell, WakeHub};
use crate::promise::TaskError;

/// Inline closure budget of a task slot. 128 bytes covers the runtime's own
/// task bodies (a forasync split closure is an `Arc`, a range, a grain and a
/// latch — well under half this) and small user captures; bigger captures
/// are boxed.
pub(crate) const SLOT_PAYLOAD_BYTES: usize = 128;

const SLOT_WORDS: usize = SLOT_PAYLOAD_BYTES / mem::size_of::<usize>();

/// Free slots a thread keeps for reuse before handing excess back to the
/// allocator. 256 slots ≈ 36 KiB per thread, enough to absorb a deep spawn
/// burst without unbounded growth.
const SLAB_MAX_FREE: usize = 256;

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
    /// Per-thread slot free list. Workers are the main users; external
    /// threads allocate on spawn and the executing worker recycles, so an
    /// external-heavy workload degrades to today's per-spawn allocation,
    /// never worse.
    static SLAB: RefCell<SlabCache> = const {
        RefCell::new(SlabCache { free: Vec::new() })
    };
}

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

/// Pops a slot from the calling thread's free list, or allocates on a miss.
/// The bool is `true` on a recycle hit.
fn acquire_slot() -> (NonNull<Slot>, bool) {
    // try_with: during thread teardown the cache may already be destroyed;
    // fall back to plain allocation rather than panicking.
    match SLAB.try_with(|c| c.borrow_mut().free.pop()) {
        Ok(Some(p)) => (p, true),
        _ => (alloc_slot(), false),
    }
}

/// Returns a dead slot (payload already dropped or moved out) to the calling
/// thread's free list, deallocating if the list is full or gone.
fn release_slot(p: NonNull<Slot>) {
    let kept = SLAB
        .try_with(|c| {
            let mut c = c.borrow_mut();
            if c.free.len() < SLAB_MAX_FREE {
                c.free.push(p);
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

/// A task closure stored in a recycled slab slot.
pub(crate) struct SlabTask {
    slot: NonNull<Slot>,
    /// The payload is an erased `F: FnOnce() + Send`; this marker keeps the
    /// auto traits honest (`Send` but not `Sync`).
    _marker: PhantomData<Box<dyn FnOnce() + Send>>,
}

// SAFETY: the slot is exclusively owned (moved with the task between
// threads, never aliased) and the payload type is `Send` by construction.
unsafe impl Send for SlabTask {}

/// Recycles the slot once the closure has been read out of it — on normal
/// return *and* on unwind, so a panicking task body still returns its slot.
struct RecycleGuard(NonNull<Slot>);

impl Drop for RecycleGuard {
    fn drop(&mut self) {
        release_slot(self.0);
    }
}

impl SlabTask {
    /// Stores `f` in a slot if it fits; hands it back otherwise. The bool is
    /// `true` when the slot came off the free list (no allocation).
    fn try_new<F: FnOnce() + Send + 'static>(f: F) -> Result<(SlabTask, bool), F> {
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
            SlabTask {
                slot,
                _marker: PhantomData,
            },
            hit,
        ))
    }

    /// Runs the closure and recycles the slot (to the *executing* thread's
    /// free list — that is what makes the slab circulate: workers that burn
    /// through tasks accumulate the slots they will spawn from next).
    fn call(self) {
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

impl Drop for SlabTask {
    /// A task dropped without executing (queue drained at shutdown): release
    /// the closure's captures, then recycle the slot.
    fn drop(&mut self) {
        unsafe {
            let s = self.slot.as_ptr();
            ((*s).drop_in_place)((*s).payload.as_mut_ptr() as *mut u8);
        }
        release_slot(self.slot);
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
    /// Closure too big or over-aligned for a slot: plain box.
    Boxed,
}

/// The closure a task executes: slab slot fast path, box fallback.
pub(crate) enum TaskBody {
    Slab(SlabTask),
    Boxed(Box<dyn FnOnce() + Send + 'static>),
}

impl TaskBody {
    /// Wraps `f`, preferring a slab slot.
    pub(crate) fn new<F: FnOnce() + Send + 'static>(f: F) -> (TaskBody, BodyKind) {
        match SlabTask::try_new(f) {
            Ok((t, true)) => (TaskBody::Slab(t), BodyKind::SlabHit),
            Ok((t, false)) => (TaskBody::Slab(t), BodyKind::SlabMiss),
            Err(f) => (TaskBody::Boxed(Box::new(f)), BodyKind::Boxed),
        }
    }

    /// Invokes the closure, consuming the body.
    pub(crate) fn call(self) {
        match self {
            TaskBody::Slab(t) => t.call(),
            TaskBody::Boxed(f) => f(),
        }
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
    pub scope: Option<Arc<FinishScope>>,
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

// Failure-slot states for FinishScope.
const FAIL_NONE: u8 = 0;
const FAIL_WRITING: u8 = 1;
const FAIL_SET: u8 = 2;

/// A `finish` scope: blocks its creator until every task transitively
/// spawned inside it has completed (paper §II-B4).
///
/// The counter starts at 1 (the scope body itself); each spawn inside the
/// scope checks in, each completed task checks out, and the body checks out
/// when it returns. A scope has exactly one waiter — the thread that called
/// `finish` — so the check-out that drains the counter wakes that thread
/// and nobody else: a targeted unpark if it is a worker parked between
/// help-first searches, a notify on the scope's own cell otherwise. When the
/// waiter itself is last out (or is busy helping) that costs two fences.
pub struct FinishScope {
    pending: AtomicUsize,
    hub: Arc<WakeHub>,
    /// The waiter's worker id in `hub`, if it is one of its workers.
    waiter: Option<usize>,
    /// Where a waiter that cannot help (external, depth-capped) parks.
    pub(crate) cell: WaitCell,
    /// State of the failure slot below: NONE → WRITING (one winner) → SET.
    /// Lock-free so the scope stays mutex-free end to end; see `fail`.
    fail_state: AtomicU8,
    /// First task failure recorded under this scope, if any; `finish`
    /// surfaces it as its `Err` once the scope drains. Written exactly once,
    /// while `fail_state == WRITING`; read only after observing SET.
    failed: UnsafeCell<Option<TaskError>>,
}

// SAFETY: `failed` is only written by the single thread that won the
// NONE→WRITING CAS and only read after an Acquire load observed SET.
unsafe impl Send for FinishScope {}
unsafe impl Sync for FinishScope {}

impl FinishScope {
    /// Creates a scope with the body's own check-in already counted.
    /// `waiter` is the creating thread's worker id in `hub`, if any.
    pub(crate) fn new(hub: Arc<WakeHub>, waiter: Option<usize>) -> Arc<FinishScope> {
        Arc::new(FinishScope {
            pending: AtomicUsize::new(1),
            hub,
            waiter,
            cell: WaitCell::default(),
            fail_state: AtomicU8::new(FAIL_NONE),
            failed: UnsafeCell::new(None),
        })
    }

    /// Records a task failure; the first error wins (later failures of the
    /// same scope are dropped, matching the old mutex behavior). Must happen
    /// *before* the failing task's `check_out`: the release half of that
    /// `fetch_sub` publishes the SET store to whichever thread observes the
    /// drained counter, so the `finish` waiter cannot see a drained scope
    /// without also seeing the error.
    pub(crate) fn fail(&self, err: TaskError) {
        if self
            .fail_state
            .compare_exchange(
                FAIL_NONE,
                FAIL_WRITING,
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            unsafe { *self.failed.get() = Some(err) };
            self.fail_state.store(FAIL_SET, Ordering::Release);
        }
    }

    /// The first recorded failure, if any. (A failure still being written by
    /// a concurrent `fail` reads as `None`; `finish` only calls this after
    /// the scope drained, which orders it after any `fail`.)
    pub fn error(&self) -> Option<TaskError> {
        if self.fail_state.load(Ordering::Acquire) == FAIL_SET {
            unsafe { (*self.failed.get()).clone() }
        } else {
            None
        }
    }

    /// Registers one more task under this scope.
    pub(crate) fn check_in(&self) {
        let prev = self.pending.fetch_add(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "check_in on a completed finish scope");
    }

    /// Marks one task (or the body) complete.
    pub(crate) fn check_out(&self) {
        let prev = self.pending.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "check_out underflow");
        if prev == 1 {
            if let Some(w) = self.waiter {
                self.hub.wake_worker(w);
            }
            self.cell.notify();
        }
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
        assert_eq!(scope.pending(), 1);
        assert!(!scope.is_done());
        scope.check_in();
        scope.check_in();
        assert_eq!(scope.pending(), 3);
        scope.check_out();
        scope.check_out();
        assert!(!scope.is_done());
        // The waiter is parked (or about to be): the draining check-out
        // must unpark exactly it.
        hub.register_idle(0);
        scope.check_out(); // body done
        assert!(scope.is_done());
        assert!(hub.park(0, std::time::Duration::from_secs(10)));
        assert_eq!(
            hub.cancel_idle(0),
            crate::event::Wake::Completion,
            "completion must wake the scope's waiter"
        );
    }

    #[test]
    fn concurrent_check_in_out_balance() {
        let scope = FinishScope::new(Arc::new(WakeHub::new(0)), None);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let scope = Arc::clone(&scope);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        scope.check_in();
                        scope.check_out();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(scope.pending(), 1);
        scope.check_out();
        assert!(scope.is_done());
    }

    #[test]
    fn concurrent_fails_keep_exactly_one_error() {
        let scope = FinishScope::new(Arc::new(WakeHub::new(0)), None);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let scope = Arc::clone(&scope);
                std::thread::spawn(move || scope.fail(TaskError::new(format!("t{}", i))))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let err = scope.error().expect("one error must be recorded");
        assert!(err.message.starts_with('t'));
        // First-wins: a later fail never overwrites.
        scope.fail(TaskError::new("late"));
        assert_eq!(scope.error().unwrap().message, err.message);
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
