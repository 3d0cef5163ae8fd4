//! Finish-scope lifetime under unwinding, poisoning and foreign runtimes.
//!
//! Tasks refer to their finish scope by a plain pointer that their
//! check-in keeps valid (DESIGN.md §2.11), so these tests pin the cases
//! where a scope could be freed or a thread's frame lost under them:
//!
//! - a `finish` body that panics after spawning gated tasks: the panic
//!   surfaces at once, the tasks still run and check out once the gate
//!   opens, the calling thread's frame is put back, and the next `finish`
//!   completes;
//! - nested `finish` under `spawn_await_all` with poisoned and panicking
//!   dependencies on two workers: every body runs or is dropped exactly
//!   once, and every scope drains, 20 runtimes in a row;
//! - `finish` on runtime B from a worker of runtime A: A's worker frame
//!   survives it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hiper::platform::autogen;
use hiper::runtime::api::{async_, async_future, finish};
use hiper::runtime::{Future, Promise, Runtime};

/// Waits until `count` reaches `want`, failing after 10 s.
fn await_count(count: &AtomicUsize, want: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while count.load(Ordering::SeqCst) != want {
        assert!(
            Instant::now() < deadline,
            "stuck at {} of {want}",
            count.load(Ordering::SeqCst)
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A `finish` whose body spawns `n` tasks gated on `open`, then panics.
/// Returns the panic message.
fn finish_that_panics(rt: &Runtime, open: &Future<()>, ran: &Arc<AtomicUsize>, n: usize) -> String {
    let payload = catch_unwind(AssertUnwindSafe(|| {
        let _ = rt.finish(|| {
            for _ in 0..n {
                let ran = Arc::clone(ran);
                rt.spawn_await(open, move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
            }
            panic!("finish body fails after spawning");
        });
    }))
    .expect_err("the body's panic surfaces from finish");
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .unwrap_or_default()
}

#[test]
fn a_panicking_finish_body_leaves_its_tasks_a_live_scope() {
    const N: usize = 16;
    let rt = Runtime::new(autogen::smp(2));

    // From a thread of no runtime: `finish` installs a frame for the body.
    let gate = Promise::<()>::new();
    let open = gate.future();
    let ran = Arc::new(AtomicUsize::new(0));
    let msg = finish_that_panics(&rt, &open, &ran, N);
    assert_eq!(msg, "finish body fails after spawning");
    assert_eq!(ran.load(Ordering::SeqCst), 0, "the gate is still shut");
    assert!(
        Runtime::current().is_none(),
        "the unwinding body must take down the frame its finish installed"
    );
    gate.put(());
    await_count(&ran, N);
    let next = Arc::new(AtomicUsize::new(0));
    let n2 = Arc::clone(&next);
    rt.finish(|| {
        rt.spawn(move || {
            n2.fetch_add(1, Ordering::SeqCst);
        })
    })
    .expect("the next finish completes");
    assert_eq!(next.load(Ordering::SeqCst), 1);

    // From inside a task: the worker's frame gets its previous scope back.
    let rt2 = rt.clone();
    let (inner_ran, after) = rt.block_on(move || {
        let gate = Promise::<()>::new();
        let open = gate.future();
        let ran = Arc::new(AtomicUsize::new(0));
        let msg = finish_that_panics(&rt2, &open, &ran, N);
        assert_eq!(msg, "finish body fails after spawning");
        gate.put(());
        let after = Arc::new(AtomicUsize::new(0));
        let a2 = Arc::clone(&after);
        finish(|| {
            async_(move || {
                a2.fetch_add(1, Ordering::SeqCst);
            })
        })
        .expect("the next finish completes");
        (ran, after.load(Ordering::SeqCst))
    });
    assert_eq!(after, 1);
    await_count(&inner_ran, N);
    rt.shutdown();
}

/// Counts a body that ran, or one dropped unrun (a poisoned dependency).
struct Tally {
    ran: Arc<AtomicUsize>,
    dropped: Arc<AtomicUsize>,
    done: bool,
}

impl Tally {
    fn run(mut self) {
        self.done = true;
        self.ran.fetch_add(1, Ordering::SeqCst);
    }
}

impl Drop for Tally {
    fn drop(&mut self) {
        if !self.done {
            self.dropped.fetch_add(1, Ordering::SeqCst);
        }
    }
}

const WIDTH: usize = 12;
const ROWS: usize = 10;
const INNER: usize = 3;

/// What a cell's body does once it runs: put its promise, drop it unput
/// (poisoning it), or panic (which drops it too).
#[derive(Clone, Copy, PartialEq)]
enum Cell {
    Put,
    Drop,
    Panic,
}

fn cell(seed: usize, t: usize, x: usize) -> Cell {
    match (seed * 7919 + t * 131 + x * 31) % 41 {
        0 => Cell::Drop,
        1 => Cell::Panic,
        _ => Cell::Put,
    }
}

fn deps_of(x: usize) -> std::ops::RangeInclusive<usize> {
    x.saturating_sub(1)..=(x + 1).min(WIDTH - 1)
}

/// The outcome the grid must have: (bodies run, bodies dropped unrun,
/// bodies that panicked).
fn expected(seed: usize) -> (usize, usize, usize) {
    let (mut ran, mut dropped, mut panicked) = (0, 0, 0);
    let mut poisoned = [false; WIDTH];
    for t in 0..ROWS {
        let mut row = [false; WIDTH];
        for (x, out) in row.iter_mut().enumerate() {
            if t > 0 && deps_of(x).any(|d| poisoned[d]) {
                dropped += 1;
                *out = true;
                continue;
            }
            ran += 1;
            match cell(seed, t, x) {
                Cell::Put => {}
                Cell::Drop => *out = true,
                Cell::Panic => {
                    panicked += 1;
                    *out = true;
                }
            }
        }
        poisoned = row;
    }
    (ran, dropped, panicked)
}

#[test]
fn nested_finish_with_poisoned_joins_balances_every_count_20_runs() {
    for run in 0..20 {
        let rt = Runtime::new(autogen::smp(2));
        let rt2 = rt.clone();
        rt.block_on(move || {
            for seed in 0..4 {
                let seed = run * 4 + seed;
                let ran = Arc::new(AtomicUsize::new(0));
                let dropped = Arc::new(AtomicUsize::new(0));
                let inner = Arc::new(AtomicUsize::new(0));
                let result = finish(|| {
                    let mut prev: Vec<Future<()>> = Vec::new();
                    for t in 0..ROWS {
                        let mut cur = Vec::with_capacity(WIDTH);
                        for x in 0..WIDTH {
                            let done = Promise::<()>::new();
                            cur.push(done.future());
                            let deps: Vec<Future<()>> = if t == 0 {
                                Vec::new()
                            } else {
                                prev[deps_of(x)].to_vec()
                            };
                            let tally = Tally {
                                ran: Arc::clone(&ran),
                                dropped: Arc::clone(&dropped),
                                done: false,
                            };
                            let inner = Arc::clone(&inner);
                            rt2.spawn_await_all(&deps, move || {
                                tally.run();
                                finish(|| {
                                    for _ in 0..INNER {
                                        let inner = Arc::clone(&inner);
                                        async_(move || {
                                            inner.fetch_add(1, Ordering::SeqCst);
                                        });
                                    }
                                })
                                .expect("inner tasks do not fail");
                                match cell(seed, t, x) {
                                    Cell::Put => done.put(()),
                                    Cell::Drop => drop(done),
                                    Cell::Panic => panic!("cell ({t}, {x}) fails"),
                                }
                            });
                        }
                        prev = cur;
                    }
                });
                let (want_ran, want_dropped, want_panicked) = expected(seed);
                let (ran, dropped) = (ran.load(Ordering::SeqCst), dropped.load(Ordering::SeqCst));
                assert_eq!(ran + dropped, WIDTH * ROWS, "run {run} seed {seed}");
                assert_eq!(
                    (ran, dropped),
                    (want_ran, want_dropped),
                    "run {run} seed {seed}"
                );
                assert_eq!(inner.load(Ordering::SeqCst), INNER * ran);
                match result {
                    Ok(()) => assert_eq!((want_dropped, want_panicked), (0, 0)),
                    Err(e) => {
                        assert!(
                            want_dropped + want_panicked > 0,
                            "run {run} seed {seed}: {e}"
                        );
                        assert!(
                            e.message.starts_with("dependency poisoned")
                                || e.message.contains("fails"),
                            "{e}"
                        );
                    }
                }
            }
        });
        rt.shutdown();
    }
}

#[test]
fn finish_on_another_runtime_keeps_the_workers_frame() {
    let a = Runtime::new(autogen::smp(2));
    let b = Runtime::new(autogen::smp(1));
    let b2 = b.clone();
    let got = a.block_on(move || {
        let seven = b2
            .finish(|| async_future(|| 7).get())
            .expect("b's task does not fail");
        // Back in a's task: the free functions find a's frame again.
        async_future(move || seven * 6).get()
    });
    assert_eq!(got, 42);
    assert_eq!(a.block_on(|| async_future(|| 1).get()), 1);
    a.shutdown();
    b.shutdown();
}
