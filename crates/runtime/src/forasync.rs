//! Parallel loops: the `forasync` family.
//!
//! `forasync` expresses data parallelism over index spaces as collections of
//! tasks on the work-stealing runtime — the HiPER equivalent of
//! `#pragma omp parallel for` bodies in the paper's examples (§II-D).
//!
//! # Split-on-demand (DESIGN.md §2.11)
//!
//! Ranges used to be split *eagerly*: every recursion level spawned the
//! upper half as a task, so a loop over `n` iterations with grain `g`
//! published `n/g` tasks even when every worker was already busy and nobody
//! could steal them. Splitting is now adaptive: a running chunk checks —
//! once per executed grain-sized chunk, a single relaxed load — whether any
//! worker is parked or going idle, and only then publishes its untouched
//! upper half as a stealable task. A saturated loop therefore collapses to
//! (almost) sequential execution with zero task churn (`splits_elided`
//! counts the skips), while an underloaded pool still fans out at
//! exponential rate: each published half re-splits on arrival if demand
//! persists. Results are unaffected — the same iterations run, only the
//! task boundaries move — which keeps the chaos grid (PR 3) bit-identical.

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hiper_platform::PlaceId;

use crate::promise::{Future, Promise, TaskError};
use crate::runtime::Runtime;

/// Completion latch shared by the chunks of one `forasync`.
///
/// Lock-free: `remaining` drains to zero and exactly one thread — the one
/// whose `complete` call observes the drain — takes the promise out of the
/// cell and satisfies it. The old `Mutex<Option<Promise>>` paid a lock
/// round-trip per completed chunk.
struct Latch {
    remaining: AtomicUsize,
    /// Taken exactly once, by the draining thread (see `complete`).
    promise: UnsafeCell<Option<Promise<()>>>,
}

// SAFETY: the cell is touched only by `Latch::new` (pre-share) and by the
// single thread whose `fetch_sub` drains `remaining` — the AcqRel RMW makes
// it the unique winner and orders the access after every other `complete`.
unsafe impl Sync for Latch {}

impl Latch {
    fn new(total: usize) -> (Arc<Latch>, Future<()>) {
        let promise = Promise::new();
        let future = promise.future();
        let latch = Arc::new(Latch {
            remaining: AtomicUsize::new(total),
            promise: UnsafeCell::new(Some(promise)),
        });
        if total == 0 {
            latch.complete(0); // degenerate empty loop
        }
        (latch, future)
    }

    fn complete(&self, n: usize) {
        // `n == 0` only for the empty-loop case, which must still fire.
        let prev = self.remaining.fetch_sub(n, Ordering::AcqRel);
        if prev == n {
            if let Some(p) = unsafe { (*self.promise.get()).take() } {
                p.put(());
            }
        }
    }
}

/// Runs `[lo, hi)` chunk by chunk, publishing the untouched upper half as a
/// stealable task whenever (a) the remaining range exceeds the grain and
/// (b) some worker is idle to take it. Completes the latch once, with the
/// iteration count this frame executed itself.
fn split_run(
    rt: &Runtime,
    place: PlaceId,
    lo: usize,
    hi: usize,
    grain: usize,
    f: &Arc<dyn Fn(usize) + Send + Sync>,
    latch: &Arc<Latch>,
) {
    debug_assert!(lo < hi);
    let mut lo = lo;
    let mut hi = hi;
    let mut executed = 0usize;
    let mut elided = 0u64;
    while lo < hi {
        if hi - lo > grain {
            if rt.split_demand() {
                let mid = lo + (hi - lo) / 2;
                let rt2 = rt.clone();
                let f2 = Arc::clone(f);
                let latch2 = Arc::clone(latch);
                rt.spawn_at(place, move || {
                    split_run(&rt2, place, mid, hi, grain, &f2, &latch2);
                });
                hi = mid;
            } else {
                elided += 1;
            }
        }
        // Always run one grain-sized chunk between split decisions, so a
        // still-parked worker cannot make us shred the whole range into
        // tasks before anyone actually steals.
        let end = hi.min(lo + grain);
        for i in lo..end {
            f(i);
        }
        executed += end - lo;
        lo = end;
    }
    if elided > 0 {
        rt.note_splits_elided(elided);
    }
    latch.complete(executed);
}

impl Runtime {
    /// `forasync_future` over `0..n` with the given grain size: returns a
    /// future satisfied when every iteration has run. Iterations run at
    /// `place` (commonly the caller's home).
    ///
    /// A loop that is one chunk or less (`n <= grain`) called from a worker
    /// thread runs *inline on the caller* instead of paying a spawn + latch
    /// round-trip: the returned future is already complete. A body panic on
    /// that path poisons the future and fails the caller's finish scope —
    /// exactly what the spawned version would have done — instead of
    /// unwinding the caller.
    pub fn forasync_future_1d(
        &self,
        place: PlaceId,
        n: usize,
        grain: usize,
        f: impl Fn(usize) + Send + Sync + 'static,
    ) -> Future<()> {
        let grain = grain.max(1);
        if n == 0 {
            let p = Promise::new();
            let future = p.future();
            p.put(());
            return future;
        }
        if n <= grain {
            if let Some(scope) = self.worker_scope() {
                let p = Promise::new();
                let future = p.future();
                match catch_unwind(AssertUnwindSafe(|| {
                    for i in 0..n {
                        f(i);
                    }
                })) {
                    Ok(()) => p.put(()),
                    Err(panic) => {
                        let msg = panic
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| panic.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "<non-string panic>".to_string());
                        if let Some(scope) = scope {
                            scope.get().fail(TaskError::new(msg.clone()));
                        }
                        p.poison(TaskError::new(msg));
                    }
                }
                return future;
            }
        }
        let (latch, future) = Latch::new(n);
        let f: Arc<dyn Fn(usize) + Send + Sync> = Arc::new(f);
        let rt = self.clone();
        let latch2 = Arc::clone(&latch);
        self.spawn_at(place, move || {
            split_run(&rt, place, 0, n, grain, &f, &latch2);
        });
        future
    }

    /// Blocking `forasync` over `0..n`: returns when every iteration has
    /// run. Help-first on workers.
    ///
    /// On a worker thread the root chunk runs inline (no wrapper task); the
    /// caller then help-waits only for whatever halves were actually stolen.
    /// A body panic in the inline chunk unwinds the caller like a direct
    /// call would (failing its enclosing scope through the normal task
    /// machinery); panics in stolen halves poison the loop's latch and fail
    /// the scope, as before.
    pub fn forasync_1d(&self, n: usize, grain: usize, f: impl Fn(usize) + Send + Sync + 'static) {
        let grain = grain.max(1);
        if n == 0 {
            return;
        }
        if self.worker_scope().is_some() {
            if n <= grain {
                // One chunk, no parallelism possible: plain loop.
                for i in 0..n {
                    f(i);
                }
                return;
            }
            let (latch, fut) = Latch::new(n);
            let f: Arc<dyn Fn(usize) + Send + Sync> = Arc::new(f);
            split_run(self, self.here(), 0, n, grain, &f, &latch);
            // Drop our latch handle *before* waiting: if a stolen half
            // panicked (and never completed its count), the promise must be
            // droppable — poisoning the future — once the remaining task
            // handles go away; holding ours here would deadlock the wait.
            drop(latch);
            fut.wait();
            return;
        }
        let fut = self.forasync_future_1d(self.here(), n, grain, f);
        fut.wait();
    }

    /// `forasync` over a 2-D index space `(0..n0) × (0..n1)`; `grain` is in
    /// units of rows (outer index).
    pub fn forasync_2d(
        &self,
        (n0, n1): (usize, usize),
        grain: usize,
        f: impl Fn(usize, usize) + Send + Sync + 'static,
    ) {
        self.forasync_1d(n0, grain, move |i| {
            for j in 0..n1 {
                f(i, j);
            }
        });
    }

    /// `forasync` over a 3-D index space; `grain` is in units of planes
    /// (outermost index).
    pub fn forasync_3d(
        &self,
        (n0, n1, n2): (usize, usize, usize),
        grain: usize,
        f: impl Fn(usize, usize, usize) + Send + Sync + 'static,
    ) {
        self.forasync_1d(n0, grain, move |i| {
            for j in 0..n1 {
                for k in 0..n2 {
                    f(i, j, k);
                }
            }
        });
    }
}
