//! Allocation-count regression tests for the lean spawn path.
//!
//! A counting `#[global_allocator]` (test-binary-only; integration tests are
//! separate binaries, so nothing else inherits it) pins the allocation
//! budget of the task path. Every row is measured after a warm-up of the
//! same operation:
//!
//! | row | budget |
//! |---|---|
//! | single-waiter promise round-trip | ≤ 1 (the promise's `Arc`) |
//! | `when_all` of 3 fresh futures | ≤ 2 (output promise, join) |
//! | `spawn_await_all` on 3 pending fresh futures | ≤ 1 (the join) |
//! | `spawn_await` of a 40-byte body on a pending future | 0 |
//! | second 1 000-task burst from one worker of `smp(2)` | ≤ 10 `slab_misses` |
//! | steady-state `forasync(20 000, grain 1)` | O(published tasks), not O(N) |
//!
//! Everything runs in ONE `#[test]` so the harness cannot interleave another
//! test's allocations into a measurement window. The windows that need a
//! runtime open on the test thread while the workers are idle, and close
//! before anything they registered can fire.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use hiper::platform::autogen;
use hiper::runtime::{when_all, Future, Promise, Runtime};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: defers entirely to `System`; the counter is a relaxed side effect.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocations `f` makes on the calling thread (and anywhere else meanwhile).
fn count<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocs();
    let r = f();
    (allocs() - before, r)
}

fn assert_budget(row: &str, made: u64, budget: u64) {
    assert!(
        made <= budget,
        "{row} made {made} allocations; the budget is {budget}"
    );
}

/// One promise round-trip with a single inline continuation.
fn promise_round_trip() -> u64 {
    static HITS: AtomicUsize = AtomicUsize::new(0);
    let seen = HITS.load(Ordering::SeqCst);
    let (made, ()) = count(|| {
        let p = Promise::<u32>::new();
        let fut = p.future();
        fut.on_ready(|| {
            HITS.fetch_add(1, Ordering::SeqCst);
        });
        p.put(9);
        assert_eq!(fut.get(), 9);
    });
    assert_eq!(HITS.load(Ordering::SeqCst), seen + 1);
    made
}

fn fresh(n: usize) -> (Vec<Promise<()>>, Vec<Future<()>>) {
    let ps: Vec<Promise<()>> = (0..n).map(|_| Promise::new()).collect();
    let fs = ps.iter().map(Promise::future).collect();
    (ps, fs)
}

/// `when_all` of three fresh futures; the window covers the call only.
fn when_all_of_three() -> u64 {
    let (ps, fs) = fresh(3);
    let (made, all) = count(|| when_all(&fs));
    for p in ps {
        p.put(());
    }
    assert!(all.is_ready());
    made
}

/// `spawn_await_all` on three pending fresh futures, from the test thread
/// inside a finish scope; the window covers the call only.
fn spawn_await_all_on_three(rt: &Runtime) -> u64 {
    let ran = Arc::new(AtomicUsize::new(0));
    let (ps, fs) = fresh(3);
    let ran2 = Arc::clone(&ran);
    let made = rt
        .finish(|| {
            let (made, ()) = count(|| {
                rt.spawn_await_all(&fs, move || {
                    ran2.fetch_add(1, Ordering::SeqCst);
                })
            });
            for p in ps {
                p.put(());
            }
            made
        })
        .expect("no task failed");
    assert_eq!(ran.load(Ordering::SeqCst), 1);
    made
}

/// `spawn_await` of a body with 40 bytes of captures on a pending future.
fn spawn_await_forty_bytes(rt: &Runtime) -> u64 {
    let sum = Arc::new(AtomicU64::new(0));
    let dep = Promise::<()>::new();
    let fut = dep.future();
    let (sum2, words) = (Arc::clone(&sum), [1u64, 2, 3, 4]);
    let body = move || {
        sum2.fetch_add(words.iter().sum::<u64>(), Ordering::SeqCst);
    };
    assert_eq!(std::mem::size_of_val(&body), 40);
    let made = rt
        .finish(|| {
            let (made, ()) = count(|| rt.spawn_await(&fut, body));
            dep.put(());
            made
        })
        .expect("no task failed");
    assert_eq!(sum.load(Ordering::SeqCst), 10);
    made
}

/// Spawns `n` empty tasks from one worker and returns the `slab_misses`
/// they (and the `block_on` around them) caused. A `gated` burst predicates
/// every task on one promise, put after the last spawn, so all `n` slots
/// are in flight at once; an ungated one runs while it is being spawned.
fn burst(rt: &Runtime, n: u64, gated: bool) -> u64 {
    let before = rt.sched_stats();
    let rt2 = rt.clone();
    rt.block_on(move || {
        rt2.finish(|| {
            let gate = Promise::<()>::new();
            let open = gate.future();
            for i in 0..n {
                let body = move || {
                    std::hint::black_box(i);
                };
                if gated {
                    rt2.spawn_await(&open, body);
                } else {
                    rt2.spawn(body);
                }
            }
            gate.put(());
        })
        .expect("no task failed")
    });
    rt.sched_stats().diff(&before).slab_misses
}

fn forasync_pass(rt: &Runtime, n: usize) {
    let rt2 = rt.clone();
    rt.block_on(move || {
        rt2.forasync_1d(n, 1, |i| {
            std::hint::black_box(i);
        })
    });
}

#[test]
fn spawn_path_allocation_budget() {
    // ---- Rows without a runtime: no worker thread can pollute these. ----
    promise_round_trip();
    assert_budget("single-waiter promise round-trip", promise_round_trip(), 1);
    when_all_of_three();
    assert_budget("when_all of 3 fresh futures", when_all_of_three(), 2);

    let rt = Runtime::new(autogen::smp(2));

    // ---- Burst: the second burst's slots come from the first's. ----
    // Up to 256 free slots per thread sit out of the producer's reach (the
    // other worker's list, and the test thread's, which `block_on` fills
    // from the depot), so the first burst puts 1 500 slots in flight at
    // once; the measured one, however it interleaves, needs at most 1 000.
    // Without the depot every slot past a thread's 256 is freed and the
    // second burst allocates again. The bursts also stock the depot the
    // test thread's rows below draw their slots from.
    burst(&rt, 1500, true);
    let misses = burst(&rt, 1000, false);
    assert!(
        misses <= 10,
        "second 1 000-task burst from one worker missed the slab {misses} times; \
         the budget is 10"
    );

    // ---- Predicated spawns from the test thread. ----
    spawn_await_all_on_three(&rt);
    assert_budget(
        "spawn_await_all on 3 pending fresh futures",
        spawn_await_all_on_three(&rt),
        1,
    );
    spawn_await_forty_bytes(&rt);
    assert_budget(
        "spawn_await of a 40-byte body on a pending future",
        spawn_await_forty_bytes(&rt),
        0,
    );

    // ---- Steady-state forasync is O(published tasks), not O(N). ----
    // The warm-up pass pays worker TLS, deque growth and lazy init.
    let n = 20_000usize;
    forasync_pass(&rt, n);
    let stats_before = rt.sched_stats();
    let (allocs_delta, ()) = count(|| forasync_pass(&rt, n));
    let stats = rt.sched_stats().diff(&stats_before);
    rt.shutdown();

    let published = stats.tasks_executed.max(1);
    // Generous per-task budget (task body, latch/promise Arcs, closure Arc
    // clones, deque slot) plus a fixed overhead allowance for the block_on
    // round-trip itself. The point is the asymptotics: with grain 1 an
    // eager-splitting runtime would be >= N allocations here.
    let budget = published * 24 + 256;
    assert!(
        allocs_delta <= budget,
        "steady-state forasync({}, grain=1) made {} allocations for {} published \
         tasks (budget {}): allocations are scaling with N, not with tasks",
        n,
        allocs_delta,
        published,
        budget
    );
    assert!(
        (allocs_delta as usize) < n / 4,
        "steady-state forasync({}, grain=1) made {} allocations — O(N) regression",
        n,
        allocs_delta
    );
}
