//! Sleep/wake machinery: every blocked thread parks on a handle it owns,
//! and each wake source signals exactly the handle that needs it.
//!
//! | sleeper | parks on | woken by |
//! |---|---|---|
//! | idle worker (`worker_main`) | its [`WakeHub`] parker, registered in the idle set | a spawn: [`WakeHub::wake_one`] claims *one* registered worker |
//! | worker blocked in `Future::wait` | its parker (registered idle, so it also takes spawns) | the promise's completion, through the continuation the wait registered: [`WakeHub::wake_worker`] |
//! | worker blocked in `finish` | its parker | the scope's last `check_out`: [`WakeHub::wake_worker`] on the waiter the scope recorded |
//! | external thread in `block_on` / `Future::wait` / `finish`, and a worker past the help-depth cap | the [`WaitCell`] inside the promise / scope it waits for | that object's completion: [`WaitCell::notify`] |
//! | everyone | | shutdown: [`WakeHub::signal_all`] |
//!
//! A waker never signals a running thread: a spawn that finds nobody parked,
//! or a completion whose waiter is busy helping (or is the thread that
//! completed it), costs a fence and a load — no mutex, no syscall.
//!
//! Lost wakeups are prevented by one store-buffering (Dekker) protocol on
//! every row, with a per-waiter flag standing in for "is asleep": the idle
//! count for spawns, the target parker's `armed` bit for a worker's
//! completion, the cell's `parked` count for an external waiter.
//!
//! * The waker publishes the state change (task pushed, promise terminal,
//!   scope counter at zero), executes a `SeqCst` fence, then loads the flag.
//! * The sleeper raises its flag, executes a `SeqCst` fence, and re-checks
//!   the state (queues *and* its predicate) before actually parking.
//!
//! In the seq-cst total order either the waker's load sees the flag (and
//! wakes the sleeper: parker tokens are sticky and cells notify under their
//! lock, so a wake landing between re-check and sleep is kept) or the
//! sleeper's re-check sees the state change (and cancels the park). Both
//! may be true — a spurious wake, absorbed by re-scanning — but never
//! neither. Park timeouts are therefore pure safety nets. An expiry is
//! counted in [`BACKSTOP_WAKES`] when the sleeper, still flagged, finds its
//! predicate true and no waker has touched its handle: the state change was
//! published and nobody signalled it.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

/// Safety-net park expiries that found their predicate already true with
/// no wake on its way: a wakeup was lost and a timer papered over it.
/// Process-wide (cells live in promises, which belong to no runtime); every
/// stress test pins 0.
pub(crate) static BACKSTOP_WAKES: AtomicU64 = AtomicU64::new(0);

/// Park safety net for [`WaitCell`] waiters.
const CELL_PARK_TIMEOUT: Duration = Duration::from_millis(10);

/// The parking spot of threads that cannot help while they wait, embedded
/// in the one object (promise, finish scope) they wait for. Completers skip
/// its mutex and condvar unless `parked` says someone is asleep here.
#[derive(Debug, Default)]
pub(crate) struct WaitCell {
    parked: AtomicUsize,
    /// Counts `notify` calls that signalled, so a waiter can tell a timeout
    /// that raced a notify from one nobody answered.
    notifies: Mutex<u64>,
    cond: Condvar,
}

impl WaitCell {
    /// Blocks until `done()` holds. Returns how many times the caller was
    /// explicitly woken (0 if it never slept).
    pub(crate) fn wait(&self, mut done: impl FnMut() -> bool) -> u64 {
        self.parked.fetch_add(1, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let mut wakes = 0;
        if !done() {
            // Checking under the lock closes the check-to-sleep gap:
            // `notify` takes the same lock before signalling.
            let mut notifies = self.notifies.lock();
            while !done() {
                let seen = *notifies;
                self.cond.wait_for(&mut notifies, CELL_PARK_TIMEOUT);
                if *notifies != seen {
                    wakes += 1;
                } else if done() {
                    BACKSTOP_WAKES.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.parked.fetch_sub(1, Ordering::Relaxed);
        wakes
    }

    /// Wakes the waiters parked here, if any. The caller has already
    /// published the state change their predicate reads.
    pub(crate) fn notify(&self) {
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Relaxed) != 0 {
            let mut notifies = self.notifies.lock();
            *notifies += 1;
            self.cond.notify_all();
        }
    }
}

/// One worker's private parking spot: a sticky token plus a condvar.
///
/// The token absorbs unpark/park races — an unpark delivered before the
/// worker reaches `park` is not lost, it just makes the next `park` return
/// immediately.
#[derive(Debug, Default)]
struct Parker {
    token: Mutex<bool>,
    cond: Condvar,
    /// Raised by the owner between idle registration and deregistration:
    /// "a completion I wait for must unpark me". Completions aimed at a
    /// running worker see it clear and skip the condvar.
    armed: AtomicBool,
}

impl Parker {
    /// Blocks until unparked or `timeout` elapses. Returns `true` if a token
    /// was consumed (i.e. someone unparked us).
    fn park(&self, timeout: Duration) -> bool {
        let mut token = self.token.lock();
        if !*token {
            self.cond.wait_for(&mut token, timeout);
        }
        std::mem::replace(&mut *token, false)
    }

    /// Deposits a token and wakes the parked worker, if any.
    fn unpark(&self) {
        let mut token = self.token.lock();
        *token = true;
        self.cond.notify_one();
    }

    /// Clears any pending token.
    fn take_token(&self) {
        *self.token.lock() = false;
    }
}

/// How a worker's idle registration ended ([`WakeHub::cancel_idle`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// A spawn (`wake_one`) or shutdown (`signal_all`) claimed this worker:
    /// it owes one search for work, or hands the wake on if it leaves.
    Spawn,
    /// A completion the worker waits for disarmed it (`wake_worker`).
    Completion,
    /// Nobody woke it: it deregistered itself.
    None,
}

/// Per-worker parkers plus the shared idle set. One per scheduler.
#[derive(Debug)]
pub struct WakeHub {
    parkers: Box<[Parker]>,
    /// Worker ids currently registered as idle. Entries are added by the
    /// owning worker just before it parks and removed either by a waker
    /// (which then unparks exactly that worker) or by the worker itself on
    /// park cancellation / timeout.
    idle: Mutex<Vec<usize>>,
    /// Cached `idle.len()`, written only while `idle` is locked so it can
    /// never drift from the set. Read lock-free on the spawn fast path.
    nidle: AtomicUsize,
}

impl WakeHub {
    /// Creates a hub for `workers` worker threads.
    pub fn new(workers: usize) -> WakeHub {
        WakeHub {
            parkers: (0..workers).map(|_| Parker::default()).collect(),
            idle: Mutex::new(Vec::with_capacity(workers)),
            nidle: AtomicUsize::new(0),
        }
    }

    /// Shutdown broadcast: claims and unparks every registered worker.
    pub fn signal_all(&self) {
        let drained = {
            let mut idle = self.idle.lock();
            self.nidle.store(0, Ordering::SeqCst);
            std::mem::take(&mut *idle)
        };
        for w in drained {
            self.parkers[w].unpark();
        }
    }

    /// Number of workers currently registered idle (a hint; see
    /// [`WakeHub::wake_one`] for the fenced fast path).
    pub fn idle_count(&self) -> usize {
        self.nidle.load(Ordering::Relaxed)
    }

    /// Registers worker `me` as idle and arms its parker for completion
    /// wakes. The caller MUST re-check for work (and its blocking
    /// predicate) after this returns, park if both came back empty, and
    /// then call [`WakeHub::cancel_idle`] — never simply walk away.
    pub fn register_idle(&self, me: usize) {
        self.parkers[me].armed.store(true, Ordering::Relaxed);
        {
            let mut idle = self.idle.lock();
            debug_assert!(!idle.contains(&me), "double idle registration");
            idle.push(me);
            // Under the lock so the count never disagrees with the set.
            self.nidle.fetch_add(1, Ordering::SeqCst);
        }
        // Sleeper half of the Dekker protocol: flags up before the re-check.
        fence(Ordering::SeqCst);
    }

    /// Ends the registration made by [`WakeHub::register_idle`] (the
    /// re-check found work, or [`WakeHub::park`] returned) and reports which
    /// waker, if any, had taken it. A claiming spawn's token is absorbed.
    pub fn cancel_idle(&self, me: usize) -> Wake {
        let armed = self.parkers[me].armed.swap(false, Ordering::Relaxed);
        let mut idle = self.idle.lock();
        if let Some(pos) = idle.iter().position(|&w| w == me) {
            idle.swap_remove(pos);
            self.nidle.fetch_sub(1, Ordering::SeqCst);
            if armed {
                Wake::None
            } else {
                Wake::Completion
            }
        } else {
            drop(idle);
            self.parkers[me].take_token();
            Wake::Spawn
        }
    }

    /// Parks registered worker `me` until unparked or `timeout` elapses.
    /// Returns `true` if someone unparked it. The worker stays registered
    /// and armed until it calls [`WakeHub::cancel_idle`].
    pub fn park(&self, me: usize, timeout: Duration) -> bool {
        self.parkers[me].park(timeout)
    }

    /// Wakes exactly one registered idle worker, if any. Returns `true` if
    /// a worker was unparked.
    ///
    /// Fast path: when nothing is parked this is a fence plus one relaxed
    /// load — no mutex, no condvar. The `SeqCst` fence pairs with the one in
    /// [`WakeHub::register_idle`]: the caller has already published the new
    /// task with a release store, and the fence orders that publication
    /// before our idle-count load in the seq-cst total order, so "count is
    /// zero" implies the registering worker's re-check will see the task.
    pub fn wake_one(&self) -> bool {
        fence(Ordering::SeqCst);
        if self.nidle.load(Ordering::Relaxed) == 0 {
            return false;
        }
        let target = {
            let mut idle = self.idle.lock();
            match idle.pop() {
                Some(w) => {
                    self.nidle.fetch_sub(1, Ordering::SeqCst);
                    w
                }
                None => return false,
            }
        };
        self.parkers[target].unpark();
        true
    }

    /// Completion wake aimed at worker `me`: unparks it if it is parked (or
    /// about to park) on the state change the caller just published; a fence
    /// plus a load if it is running. The worker deregisters itself.
    pub fn wake_worker(&self, me: usize) -> bool {
        fence(Ordering::SeqCst);
        let p = &self.parkers[me];
        // One unpark per arming: a second completion racing the first finds
        // the bit already taken.
        let woke = p.armed.load(Ordering::Relaxed) && p.armed.swap(false, Ordering::Relaxed);
        if woke {
            p.unpark();
        }
        woke
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    const LONG: Duration = Duration::from_secs(10);

    #[test]
    fn wake_one_with_no_sleepers_is_a_noop() {
        let hub = WakeHub::new(4);
        assert!(!hub.wake_one());
        assert_eq!(hub.idle_count(), 0);
    }

    #[test]
    fn token_before_park_is_not_lost() {
        let hub = WakeHub::new(1);
        hub.register_idle(0);
        assert!(hub.wake_one());
        // The unpark landed before the park: the sticky token makes park
        // return immediately.
        assert!(hub.park(0, LONG));
        assert_eq!(hub.idle_count(), 0, "its waker deregistered it");
        assert_eq!(hub.cancel_idle(0), Wake::Spawn);
    }

    #[test]
    fn cancel_after_being_claimed_absorbs_token() {
        let hub = WakeHub::new(1);
        hub.register_idle(0);
        // A waker claims worker 0, which then finds work on its re-check.
        assert!(hub.wake_one());
        assert_eq!(hub.cancel_idle(0), Wake::Spawn);
        // The token was absorbed: a fresh park must time out.
        hub.register_idle(0);
        assert!(!hub.park(0, Duration::from_millis(10)));
        assert_eq!(hub.cancel_idle(0), Wake::None);
    }

    #[test]
    fn wake_one_targets_a_single_worker() {
        let hub = WakeHub::new(3);
        hub.register_idle(0);
        hub.register_idle(1);
        hub.register_idle(2);
        assert_eq!(hub.idle_count(), 3);
        assert!(hub.wake_one());
        assert_eq!(hub.idle_count(), 2, "exactly one worker deregistered");
    }

    #[test]
    fn wake_worker_skips_a_running_worker_and_unparks_an_armed_one() {
        let hub = WakeHub::new(2);
        assert!(!hub.wake_worker(1), "worker 1 is not parked: no signal");
        hub.register_idle(1);
        assert!(hub.wake_worker(1));
        assert!(!hub.wake_worker(1), "one unpark per arming");
        // A completion wake leaves the idle set to the worker itself.
        assert_eq!(hub.idle_count(), 1);
        assert!(hub.park(1, LONG));
        assert_eq!(hub.cancel_idle(1), Wake::Completion);
        assert_eq!(hub.idle_count(), 0);
        assert!(!hub.wake_worker(1), "deregistering disarms");
    }

    #[test]
    fn signal_all_unparks_every_registered_worker() {
        let hub = Arc::new(WakeHub::new(2));
        let workers: Vec<_> = (0..2)
            .map(|id| {
                let hub = Arc::clone(&hub);
                thread::spawn(move || {
                    hub.register_idle(id);
                    hub.park(id, LONG);
                    hub.cancel_idle(id)
                })
            })
            .collect();
        while hub.idle_count() < 2 {
            thread::yield_now();
        }
        hub.signal_all();
        for w in workers {
            assert_eq!(
                w.join().unwrap(),
                Wake::Spawn,
                "worker not explicitly woken"
            );
        }
        assert_eq!(hub.idle_count(), 0);
    }

    #[test]
    fn cross_thread_targeted_wakeup() {
        let hub = Arc::new(WakeHub::new(1));
        let h2 = Arc::clone(&hub);
        let sleeper = thread::spawn(move || {
            h2.register_idle(0);
            h2.park(0, LONG);
            h2.cancel_idle(0)
        });
        while hub.idle_count() == 0 {
            thread::yield_now();
        }
        assert!(hub.wake_one());
        assert_eq!(sleeper.join().unwrap(), Wake::Spawn);
    }

    #[test]
    fn cell_wait_returns_without_sleeping_when_already_done() {
        let cell = WaitCell::default();
        assert_eq!(cell.wait(|| true), 0);
        cell.notify(); // nobody parked: fence + load only
    }

    #[test]
    fn cell_waiter_is_released_by_exactly_one_notify() {
        let cell = Arc::new(WaitCell::default());
        let done = Arc::new(AtomicBool::new(false));
        let waiter = {
            let (cell, done) = (Arc::clone(&cell), Arc::clone(&done));
            thread::spawn(move || cell.wait(|| done.load(Ordering::Acquire)))
        };
        while cell.parked.load(Ordering::Relaxed) == 0 {
            thread::yield_now();
        }
        done.store(true, Ordering::Release);
        cell.notify();
        assert!(
            waiter.join().unwrap() <= 1,
            "at most the one notify wakes it"
        );
    }
}
