//! Stress tests for the per-waiter wake/park protocol.
//!
//! The invariants under test:
//!
//! 1. **No lost wakeups.** A `wake_one` that claims a registered worker, or
//!    a `wake_worker` aimed at an armed one, must actually get that worker
//!    out of `park`, no matter how the registration, the park, and the wake
//!    interleave. The hub-level parks below use a 10-second timeout and
//!    assert an *explicit* wake, so a lost signal fails the assertion
//!    rather than being papered over by the timeout. The runtime-level
//!    races cannot stretch the runtime's own 20 ms / 10 ms safety nets, so
//!    they assert `backstop_wakes == 0` instead: a lost wakeup there is
//!    exactly a safety-net expiry that finds its predicate already true.
//! 2. **Wake only the waiter.** Completions inside a `block_on` body never
//!    touch the external caller; it is woken once, by the body's own
//!    completion.
//! 3. **Silent spawn fast path.** `Scheduler::wake` on the spawn path must
//!    not take the idle mutex or signal any condvar while no worker is
//!    parked. Every wake decision is counted (`wake_signals_sent` vs
//!    `wakes_skipped`), so the counters prove which path ran.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use hiper_platform::autogen;
use hiper_runtime::{Promise, Runtime, Wake, WakeHub};

/// One spawner racing one parker on a bare hub, 100 consecutive rounds.
/// Each round the parker registers, re-checks a "work" flag, and parks; the
/// spawner publishes work and calls `wake_one`. Whatever the interleaving,
/// the parker must either see the flag on its re-check or be explicitly
/// woken — a bare 10 s timeout means a wakeup was lost.
#[test]
fn no_lost_wakeup_100_rounds() {
    for round in 0..100 {
        let hub = Arc::new(WakeHub::new(1));
        let work = Arc::new(AtomicBool::new(false));

        let parker = {
            let hub = Arc::clone(&hub);
            let work = Arc::clone(&work);
            thread::spawn(move || {
                hub.register_idle(0);
                if work.load(Ordering::Acquire) {
                    // Re-check saw the spawn: absorb any wake aimed at us.
                    hub.cancel_idle(0);
                    return true;
                }
                hub.park(0, Duration::from_secs(10));
                hub.cancel_idle(0) == Wake::Spawn
            })
        };
        let spawner = {
            let hub = Arc::clone(&hub);
            let work = Arc::clone(&work);
            thread::spawn(move || {
                work.store(true, Ordering::Release);
                hub.wake_one()
            })
        };

        let parker_ok = parker.join().unwrap();
        let woke = spawner.join().unwrap();
        assert!(
            parker_ok,
            "round {round}: parker timed out — wakeup lost (spawner woke={woke})"
        );
    }
}

/// Many spawner/parker pairs hammering one hub concurrently: every claimed
/// wake must land, and the idle set must end empty.
#[test]
fn concurrent_wake_one_claims_are_never_lost() {
    const WORKERS: usize = 4;
    const ROUNDS: usize = 50;
    for _ in 0..ROUNDS {
        let hub = Arc::new(WakeHub::new(WORKERS));
        let sleepers: Vec<_> = (0..WORKERS)
            .map(|id| {
                let hub = Arc::clone(&hub);
                thread::spawn(move || {
                    hub.register_idle(id);
                    hub.park(id, Duration::from_secs(10));
                    hub.cancel_idle(id)
                })
            })
            .collect();
        while hub.idle_count() < WORKERS {
            thread::yield_now();
        }
        let wakers: Vec<_> = (0..WORKERS)
            .map(|_| {
                let hub = Arc::clone(&hub);
                thread::spawn(move || hub.wake_one())
            })
            .collect();
        let claimed = wakers
            .into_iter()
            .map(|w| w.join().unwrap())
            .filter(|&woke| woke)
            .count();
        assert_eq!(
            claimed, WORKERS,
            "every waker had a registered sleeper to claim"
        );
        for s in sleepers {
            assert_eq!(
                s.join().unwrap(),
                Wake::Spawn,
                "registered sleeper was never woken"
            );
        }
        assert_eq!(hub.idle_count(), 0);
    }
}

/// The completion-side twin of `no_lost_wakeup_100_rounds`: a completer
/// publishes "done" and aims `wake_worker` at one specific worker while that
/// worker registers, re-checks, and parks. It must see the flag on its
/// re-check or be explicitly unparked by the completion.
#[test]
fn no_lost_completion_wakeup_100_rounds() {
    for round in 0..100 {
        let hub = Arc::new(WakeHub::new(2));
        let done = Arc::new(AtomicBool::new(false));

        let waiter = {
            let hub = Arc::clone(&hub);
            let done = Arc::clone(&done);
            thread::spawn(move || {
                hub.register_idle(1);
                if done.load(Ordering::Acquire) {
                    hub.cancel_idle(1);
                    return true;
                }
                hub.park(1, Duration::from_secs(10));
                hub.cancel_idle(1) == Wake::Completion
            })
        };
        let completer = {
            let hub = Arc::clone(&hub);
            let done = Arc::clone(&done);
            thread::spawn(move || {
                done.store(true, Ordering::Release);
                hub.wake_worker(1)
            })
        };

        let waiter_ok = waiter.join().unwrap();
        let woke = completer.join().unwrap();
        assert!(
            waiter_ok,
            "round {round}: waiter timed out — completion wakeup lost (completer woke={woke})"
        );
        assert_eq!(hub.idle_count(), 0);
    }
}

/// Safety-net expiries that rescued a lost wakeup, process-wide.
fn backstop_wakes() -> u64 {
    hiper_runtime::SchedStats::default()
        .snapshot()
        .backstop_wakes
}

/// A `block_on` body that completes 1 000 finish scopes and 1 000 awaited
/// futures never touches the external caller: it is parked on the body's
/// own promise and woken by that promise alone. (At most once rather than
/// exactly once only because a caller that has not reached its park yet
/// needs no wake at all.) Under the old broadcast every one of those 2 000
/// completions woke it.
#[test]
fn block_on_caller_is_woken_only_by_its_own_promise() {
    let rt = Runtime::new(autogen::smp(1));
    let before = rt.sched_stats();
    let sum = rt.block_on(|| {
        let rt = Runtime::current().unwrap();
        let mut sum = 0u64;
        for i in 0..1000u64 {
            rt.finish(|| rt.spawn(|| {})).expect("no task panicked");
            sum += rt.spawn_future(move || i).get();
        }
        sum
    });
    assert_eq!(sum, 999 * 1000 / 2);
    let d = rt.sched_stats().diff(&before);
    assert!(
        d.completion_wakes <= 1,
        "inner completions woke a waiter that was not theirs: {d}"
    );
    assert_eq!(d.backstop_wakes, 0, "a safety-net timer fired: {d}");
    rt.shutdown();
}

/// A worker blocked in `finish` with nothing to help with parks; the last
/// `check_out`, possibly on another worker, must unpark exactly it. 100
/// scopes whose single task is gated on a promise a foreign thread puts.
#[test]
fn finish_waiter_vs_last_check_out_100_rounds() {
    let rt = Runtime::new(autogen::smp(2));
    let before = backstop_wakes();
    rt.block_on(|| {
        let rt = Runtime::current().unwrap();
        for round in 0..100u32 {
            let gate = Promise::<()>::new();
            let open = gate.future();
            let ran = Arc::new(AtomicBool::new(false));
            let ran2 = Arc::clone(&ran);
            // The scope's one task is eligible only once the gate opens, and
            // a thread outside the pool opens it while the body returns: the
            // waiter is in (or entering) its park when the task runs and
            // checks out, on whichever worker picks it up.
            let opener = rt
                .finish(|| {
                    rt.spawn_await(&open, move || ran2.store(true, Ordering::Release));
                    thread::spawn(move || {
                        if round % 2 == 0 {
                            thread::yield_now();
                        }
                        gate.put(());
                    })
                })
                .expect("no task panicked");
            opener.join().unwrap();
            assert!(ran.load(Ordering::Acquire), "round {round}");
        }
    });
    assert_eq!(backstop_wakes(), before, "a lost wakeup hit the safety net");
    rt.shutdown();
}

/// A worker blocked in `Future::wait` with nothing to help with parks on its
/// own parker; a `put` from a thread outside the pool must unpark it.
#[test]
fn worker_future_wait_vs_foreign_put_100_rounds() {
    let rt = Runtime::new(autogen::smp(1));
    let before = backstop_wakes();
    let stats_before = rt.sched_stats();
    rt.block_on(move || {
        for round in 0..100u64 {
            let p = Promise::new();
            let f = p.future();
            let putter = thread::spawn(move || {
                if round % 2 == 0 {
                    thread::yield_now();
                }
                p.put(round);
            });
            assert_eq!(f.get(), round);
            putter.join().unwrap();
        }
    });
    let d = rt.sched_stats().diff(&stats_before);
    assert!(
        d.completion_wakes <= 101,
        "at most one wake per wait, plus the block_on caller's: {d}"
    );
    assert_eq!(backstop_wakes(), before, "a lost wakeup hit the safety net");
    rt.shutdown();
}

/// Beyond the help-depth cap a worker can no longer execute tasks while it
/// waits, so it parks on the promise's own cell like an external thread; a
/// foreign `put` must release it. Each round nests exactly the cap's 64
/// help-first waits on one worker (one more could never complete: its task
/// would sit in the deque of the only worker, which may no longer run it),
/// so the innermost wait, on the foreign promise, is the depth-capped one.
#[test]
fn depth_capped_waiter_vs_put_100_rounds() {
    const DEPTH: u32 = 64;
    fn nest(rt: &Runtime, depth: u32, innermost: hiper_runtime::Future<u64>) -> u64 {
        if depth == 0 {
            return innermost.get();
        }
        // The only eligible task is the one just spawned, so the wait
        // below runs it nested inside this frame's help loop.
        let rt2 = rt.clone();
        rt.spawn_future(move || nest(&rt2, depth - 1, innermost))
            .get()
    }
    let rt = Runtime::new(autogen::smp(1));
    let before = backstop_wakes();
    rt.block_on(move || {
        let rt = Runtime::current().unwrap();
        for round in 0..100u64 {
            let p = Promise::new();
            let f = p.future();
            let putter = thread::spawn(move || p.put(round));
            assert_eq!(nest(&rt, DEPTH, f), round);
            putter.join().unwrap();
        }
    });
    assert_eq!(backstop_wakes(), before, "a lost wakeup hit the safety net");
    rt.shutdown();
}

/// End-to-end: external spawns racing parked workers for 100 consecutive
/// finish scopes. Completion of every scope (without tripping the long-park
/// assertion windows above) is the pass condition.
#[test]
fn runtime_spawn_park_race_100_scopes() {
    let rt = Runtime::new(autogen::smp(4));
    let hits = Arc::new(AtomicU64::new(0));
    for round in 0u64..100 {
        let before = hits.load(Ordering::Relaxed);
        rt.finish(|| {
            for _ in 0..32 {
                let hits = Arc::clone(&hits);
                rt.spawn(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        })
        .expect("no task panicked");
        assert_eq!(
            hits.load(Ordering::Relaxed),
            before + 32,
            "round {round}: finish returned before all tasks ran"
        );
    }
    assert_eq!(
        rt.sched_stats().backstop_wakes,
        0,
        "a lost wakeup hit the safety net"
    );
    rt.shutdown();
}

/// Shutdown drains: detached tasks (no `finish` around them) that are still
/// queued when `shutdown` is called run before the workers exit. A worker
/// leaves only after a search that comes back empty with the flag set.
#[test]
fn shutdown_runs_every_queued_detached_task_50_rounds() {
    const TASKS: u64 = 2000;
    for round in 0..50 {
        let rt = Runtime::new(autogen::smp(2));
        let ran = Arc::new(AtomicU64::new(0));
        for _ in 0..TASKS {
            let ran = Arc::clone(&ran);
            rt.spawn(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }
        rt.shutdown();
        assert_eq!(
            ran.load(Ordering::Relaxed),
            TASKS,
            "round {round}: shutdown dropped queued tasks"
        );
    }
}

/// The spawn fast path takes no lock and signals nobody when every worker is
/// busy. A single-worker runtime spawns from its own (running) worker, so no
/// worker is ever parked at spawn time: the wake counters must show the
/// skipped path overwhelmingly, and the snapshot totals must account for
/// every wake decision.
#[test]
fn spawn_fast_path_skips_wakes_when_nobody_parked() {
    const TASKS: u64 = 2000;
    let rt = Runtime::new(autogen::smp(1));
    let ran = Arc::new(AtomicU64::new(0));
    rt.block_on({
        let ran = Arc::clone(&ran);
        move || {
            let rt = Runtime::current().unwrap();
            rt.finish(|| {
                for _ in 0..TASKS {
                    let ran = Arc::clone(&ran);
                    rt.spawn(move || {
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                }
            })
            .expect("no task panicked");
        }
    });
    assert_eq!(ran.load(Ordering::Relaxed), TASKS);
    let snap = rt.sched_stats();
    // The only worker was running the spawning task itself, so virtually
    // every one of the >= TASKS wake decisions must have found nobody parked
    // and taken the lock-free skip path. A handful of sends are legitimate
    // (the external block_on submission racing the worker's park).
    assert!(
        snap.wakes_skipped >= TASKS,
        "expected >= {TASKS} skipped wakes, got {}",
        snap.wakes_skipped
    );
    assert!(
        snap.wake_signals_sent <= 16,
        "expected almost no wakes sent with a single busy worker, got {}",
        snap.wake_signals_sent
    );
    rt.shutdown();
}

/// Batched raids show up in the counters. External spawns land in the place
/// injector; both workers are held at a gate while the calling thread fills
/// it, so the first drain after the gate opens must move more than one task
/// and bank the extras — which is exactly what `batch_steals` counts.
#[test]
fn batch_steals_are_counted() {
    const WORKERS: u64 = 2;
    const TASKS: u64 = 4000 + WORKERS;
    let rt = Runtime::new(autogen::smp(WORKERS as usize));
    let ran = Arc::new(AtomicU64::new(0));
    let open = Arc::new(AtomicBool::new(false));
    // `finish` on the test thread: every spawn inside is an external spawn
    // (injector path).
    rt.finish(|| {
        for _ in 0..WORKERS {
            let (ran, open) = (Arc::clone(&ran), Arc::clone(&open));
            rt.spawn(move || {
                ran.fetch_add(1, Ordering::Release);
                while !open.load(Ordering::Acquire) {
                    thread::yield_now();
                }
            });
        }
        while ran.load(Ordering::Acquire) < WORKERS {
            thread::yield_now();
        }
        for _ in WORKERS..TASKS {
            let ran = Arc::clone(&ran);
            rt.spawn(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }
        open.store(true, Ordering::Release);
    })
    .expect("no task panicked");
    assert_eq!(ran.load(Ordering::Relaxed), TASKS);
    let snap = rt.sched_stats();
    assert_eq!(snap.tasks_executed, TASKS);
    assert!(
        snap.batch_steals > 0,
        "flooding the injector must produce at least one batched drain: {snap}"
    );
    rt.shutdown();
}
