//! Property tests for the lock-free promise state machine.
//!
//! The unit tests in `promise.rs` pin specific interleavings (waiter slots
//! and their overflow, poison-after-waiters, a fixed-shape registration race). These tests
//! randomize the shape instead: how many continuations register before the
//! completion, how many threads race their registrations *against* the
//! completion, and whether the promise is satisfied or poisoned. The
//! invariant under every interleaving is the same: each continuation runs
//! exactly once — never lost, never duplicated — and the future's terminal
//! state matches the completion.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use hiper_runtime::{Promise, TaskError};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Randomized registration/completion interleavings: `pre` continuations
    /// register before the completion is even scheduled, then `racers`
    /// threads each register `per_racer` continuations while another thread
    /// concurrently puts or poisons. Every continuation must fire exactly
    /// once regardless of which side of the state transition it landed on.
    #[test]
    fn no_continuation_lost_or_duplicated(
        pre in 0usize..4,
        racers in 1usize..4,
        per_racer in 1usize..4,
        poison in proptest::strategy::any::<bool>(),
    ) {
        let total = pre + racers * per_racer;
        let fired: Arc<Vec<AtomicUsize>> =
            Arc::new((0..total).map(|_| AtomicUsize::new(0)).collect());

        let p = Promise::<u32>::new();
        let fut = p.future();

        for slot in 0..pre {
            let fired = Arc::clone(&fired);
            fut.on_ready(move || {
                fired[slot].fetch_add(1, Ordering::SeqCst);
            });
        }

        // One barrier party per racer plus the completing thread, so the
        // registrations and the put/poison are released together.
        let start = Arc::new(Barrier::new(racers + 1));
        let mut handles = Vec::new();
        for r in 0..racers {
            let fut = fut.clone();
            let fired = Arc::clone(&fired);
            let start = Arc::clone(&start);
            handles.push(std::thread::spawn(move || {
                start.wait();
                for k in 0..per_racer {
                    let slot = pre + r * per_racer + k;
                    let fired = Arc::clone(&fired);
                    fut.on_ready(move || {
                        fired[slot].fetch_add(1, Ordering::SeqCst);
                    });
                }
            }));
        }

        start.wait();
        if poison {
            p.poison(TaskError::new("interleaving test"));
        } else {
            p.put(7);
        }
        for h in handles {
            h.join().expect("racer thread panicked");
        }

        // The promise reached its terminal state before the racers joined,
        // and late registrations run synchronously — so by here every
        // continuation has fired, exactly once.
        prop_assert_eq!(fut.is_poisoned(), poison);
        prop_assert_eq!(fut.is_ready(), !poison);
        for (slot, count) in fired.iter().enumerate() {
            prop_assert_eq!(
                count.load(Ordering::SeqCst),
                1,
                "continuation {} fired {} times (pre={}, racers={}, per_racer={}, poison={})",
                slot,
                count.load(Ordering::SeqCst),
                pre,
                racers,
                per_racer,
                poison
            );
        }
    }

    /// The completion itself can race a `wait`: a blocked external waiter
    /// must always be released, whether it parked before or after the
    /// terminal transition, and must observe the terminal outcome — by the
    /// completion's own notify on the promise's cell, never by the 10 ms
    /// park timeout (`backstop_wakes` counts those rescues, process-wide).
    #[test]
    fn external_waiters_always_released(
        waiters in 1usize..4,
        poison in proptest::strategy::any::<bool>(),
    ) {
        let backstops = || hiper_runtime::SchedStats::default().snapshot().backstop_wakes;
        let before = backstops();
        let p = Promise::<u32>::new();
        let fut = p.future();
        let start = Arc::new(Barrier::new(waiters + 1));
        let mut handles = Vec::new();
        for _ in 0..waiters {
            let fut = fut.clone();
            let start = Arc::clone(&start);
            handles.push(std::thread::spawn(move || {
                start.wait();
                fut.wait();
                fut.is_poisoned()
            }));
        }
        start.wait();
        if poison {
            p.poison(TaskError::new("released test"));
        } else {
            p.put(11);
        }
        for h in handles {
            let saw_poison = h.join().expect("waiter thread panicked");
            prop_assert_eq!(saw_poison, poison);
        }
        prop_assert_eq!(backstops(), before, "a lost wakeup hit the safety net");
    }
}
