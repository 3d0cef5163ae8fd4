//! The generalized work-stealing scheduler core (paper §II-B).
//!
//! Scheduling state is laid out exactly as the paper describes: every place
//! in the platform model holds `N` task deques (`N` = worker count) plus an
//! injector for off-pool spawns. Deque `i` at a place holds only eligible
//! tasks spawned by worker `i`, so a worker can prefer its own tasks
//! (locality, pop path) or others' tasks (load balance, steal path) purely by
//! which deque end and index it looks at.

use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::Arc;

use hiper_deque::{new_deque, Injector, Steal, Stealer, Worker};
use hiper_platform::{PlaceId, PlatformConfig, WorkerPaths};
use hiper_trace::EventKind;

use crate::event::WakeHub;
use crate::stats::SchedStats;
use crate::task::Task;

/// Maximum tasks drained from a place injector in one lock acquisition.
/// Modest so FIFO spawns keep flowing to other workers too.
const INJECTOR_BATCH: usize = 16;

/// Per-place scheduling state.
pub(crate) struct PlaceState {
    /// Thief handles for the per-worker deques at this place; index `i` is
    /// the deque owned (pushed/popped) by worker `i`.
    pub stealers: Vec<Stealer<Task>>,
    /// FIFO queue for tasks spawned by non-worker threads (network delivery
    /// engine, GPU pollers, application threads) and for explicit yields.
    pub injector: Injector<Task>,
}

/// The scheduler: shared state of one runtime instance's worker pool.
pub(crate) struct Scheduler {
    pub places: Vec<PlaceState>,
    pub workers: usize,
    pub paths: Vec<WorkerPaths>,
    pub homes: Vec<PlaceId>,
    /// Sleep/wake machinery: one claimed worker per spawn, the recorded
    /// waiter per completion, everyone only at shutdown.
    pub hub: Arc<WakeHub>,
    /// Set once by shutdown; workers drain and exit.
    pub shutdown: AtomicBool,
    pub stats: SchedStats,
}

impl Scheduler {
    /// Builds scheduler state from a validated platform configuration.
    /// Returns the shared scheduler plus, for each worker, the owner handles
    /// of its deques (indexed by place id). The owner handles move into the
    /// worker threads' TLS.
    pub fn new(config: &PlatformConfig) -> (Arc<Scheduler>, Vec<Vec<Worker<Task>>>) {
        let nplaces = config.graph.len();
        let nworkers = config.workers;
        let mut owned: Vec<Vec<Worker<Task>>> = (0..nworkers).map(|_| Vec::new()).collect();
        let mut places = Vec::with_capacity(nplaces);
        for _ in 0..nplaces {
            let mut stealers = Vec::with_capacity(nworkers);
            for per_worker in owned.iter_mut() {
                let (worker, stealer) = new_deque();
                per_worker.push(worker);
                stealers.push(stealer);
            }
            places.push(PlaceState {
                stealers,
                injector: Injector::new(),
            });
        }
        let paths = WorkerPaths::generate_all(
            &config.graph,
            &config.worker_homes,
            config.pop_policy,
            config.steal_policy,
        );
        let sched = Arc::new(Scheduler {
            places,
            workers: nworkers,
            paths,
            homes: config.worker_homes.clone(),
            hub: Arc::new(WakeHub::new(nworkers)),
            shutdown: AtomicBool::new(false),
            stats: SchedStats::new(nworkers),
        });
        (sched, owned)
    }

    /// Enqueues a task from worker `me` (the calling thread), using the
    /// worker's own deque at the task's place.
    pub fn spawn_from_worker(&self, me: usize, owned: &[Worker<Task>], task: Task) {
        owned[task.place.index()].push(task);
        self.stats.published(me);
        self.wake(me);
    }

    /// Enqueues a task from outside the worker pool (or as an explicit
    /// yield): goes to the place's FIFO injector.
    pub fn spawn_external(&self, task: Task) {
        self.places[task.place.index()].injector.push(task);
        self.stats.published(self.stats.external_shard());
        self.wake(self.stats.external_shard());
    }

    /// Wakes exactly one parked worker, if any; a no-op (fence + one relaxed
    /// load, no mutex, no condvar) when every worker is already running.
    /// `shard` attributes the wake decision in the stats. The no-lost-wakeup
    /// argument lives in the [`WakeHub`] docs: the caller just published the
    /// task, and `wake_one`'s internal SeqCst fence pairs with the parking
    /// worker's idle registration.
    pub fn wake(&self, shard: usize) {
        if self.hub.wake_one() {
            self.stats.wake_sent(shard);
        } else {
            self.stats.wake_skipped(shard);
        }
    }

    /// One full search for work on behalf of worker `me`:
    /// 1. pop path — own deques (LIFO), newest-first for locality;
    /// 2. steal path — place injectors, then other workers' deques (FIFO
    ///    from the thief end), rotating the starting victim to spread
    ///    contention.
    ///
    /// Steals are *batched*: one successful raid takes up to half the
    /// victim's visible tasks (or a bounded injector drain), returns one and
    /// parks the rest in the thief's own home deque, amortizing the steal
    /// protocol over several tasks. A thief that banks extra tasks wakes one
    /// more worker (wake chaining), so a burst of work recruits sleepers at
    /// exponential rate without any broadcast.
    pub fn find_task(&self, me: usize, owned: &[Worker<Task>]) -> Option<Task> {
        // Pop path: only this worker's own tasks (paper §II-B3).
        for &p in &self.paths[me].pop {
            if let Some(task) = owned[p.index()].pop() {
                self.stats.pop(me);
                if hiper_trace::enabled() {
                    hiper_trace::emit(EventKind::Pop, task.trace_id, p.index() as u64, 0);
                }
                return Some(task);
            }
        }
        // Batch destination: the home deque heads every pop path this worker
        // has (all built-in policies start at home), so banked tasks are
        // always reachable by `me` and stealable by everyone who could reach
        // this worker's deques before.
        let home = &owned[self.homes[me].index()];
        // Steal latency clock: started only once the pop path has missed
        // (so it measures the cost of going off-worker) and only while
        // metrics are on.
        let steal_t0 = if hiper_metrics::enabled() {
            hiper_trace::clock::now_ns().max(1)
        } else {
            0
        };
        let record_steal = |t0: u64| {
            if t0 != 0 {
                crate::runtime::met::steal_latency()
                    .record(hiper_trace::clock::now_ns().saturating_sub(t0));
            }
        };
        // Steal path: only tasks created by others.
        for &p in &self.paths[me].steal {
            let place = &self.places[p.index()];
            if let Steal::Success(task) = place.injector.steal_batch_and_pop(home, INJECTOR_BATCH) {
                self.stats.injector_hit(me);
                if hiper_trace::enabled() {
                    hiper_trace::emit(EventKind::InjectorDrain, task.trace_id, p.index() as u64, 0);
                }
                record_steal(steal_t0);
                self.after_batch(me, home);
                return Some(task);
            }
            for k in 1..self.workers {
                let victim = (me + k) % self.workers;
                loop {
                    match place.stealers[victim].steal_batch_and_pop(home) {
                        Steal::Success(task) => {
                            self.stats.steal(me);
                            if hiper_trace::enabled() {
                                hiper_trace::emit(
                                    EventKind::Steal,
                                    task.trace_id,
                                    victim as u64,
                                    p.index() as u64,
                                );
                            }
                            record_steal(steal_t0);
                            self.after_batch(me, home);
                            return Some(task);
                        }
                        Steal::Empty => break,
                        Steal::Retry => continue,
                    }
                }
            }
        }
        None
    }

    /// Bookkeeping after a successful (possibly batched) steal: if extra
    /// tasks were banked in the home deque, count the batch and chain-wake
    /// one more worker to come steal from us.
    fn after_batch(&self, me: usize, home: &Worker<Task>) {
        let banked = home.len();
        if banked > 0 {
            self.stats.batch_steal(me);
            // The banked tasks just became stealable from our deque: that is
            // a publication other workers' pre-park checks must notice.
            self.stats.published(me);
            if hiper_trace::enabled() {
                hiper_trace::emit(EventKind::BatchSteal, banked as u64, 0, 0);
            }
            self.wake(me);
        }
    }

    /// The current publish epoch; capture it *before* a full `find_task`
    /// search to make that search's failure reusable by `maybe_has_work`.
    pub fn publish_epoch(&self) -> u64 {
        self.stats.publish_epoch()
    }

    /// True if any queue this worker can reach may hold work. Used as the
    /// recheck between idle registration and parking.
    ///
    /// `seen` is the publish epoch the caller captured before its last full
    /// (and failed) `find_task` search. Fast path: if the epoch is unchanged,
    /// nothing was published anywhere since before that search proved every
    /// reachable queue empty — queues only shrink otherwise — so the worker
    /// may park on two relaxed-sum reads instead of the O(places × workers)
    /// scan. If the epoch moved, fall back to the exact scan (the publication
    /// may be at an unreachable place, already consumed, or targeted wakes
    /// may already cover it; the scan keeps spurious wakeup-loops bounded).
    ///
    /// Ordering: the caller has just done the SeqCst idle registration; the
    /// fence below orders our epoch read after it, pairing with the
    /// publisher's bump-then-fence-then-check-idle sequence in `wake_one`
    /// (same store-buffering argument as in `event.rs`, with the epoch
    /// standing in for the queues themselves).
    pub fn maybe_has_work(&self, me: usize, owned: &[Worker<Task>], seen: u64) -> bool {
        fence(Ordering::SeqCst);
        if self.stats.publish_epoch() == seen {
            return false;
        }
        self.paths[me]
            .pop
            .iter()
            .any(|p| !owned[p.index()].is_empty())
            || self.paths[me].steal.iter().any(|&p| {
                let place = &self.places[p.index()];
                !place.injector.is_empty()
                    || place
                        .stealers
                        .iter()
                        .enumerate()
                        .any(|(w, s)| w != me && !s.is_empty())
            })
    }

    /// Requests shutdown and wakes everyone.
    pub fn request_shutdown(&self) {
        // Release is enough: the flag guards no other shared data, and the
        // broadcast below (mutex + condvar in signal_all) already forces the
        // store to be visible to every worker it wakes; one racing into a
        // park re-checks the flag behind `register_idle`'s fence.
        self.shutdown.store(true, Ordering::Release);
        self.hub.signal_all();
    }

    /// True once shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        // Acquire pairs with the Release store in request_shutdown. Workers
        // poll this once per failed search, never per task, so even this is
        // off the per-task hot path.
        self.shutdown.load(Ordering::Acquire)
    }
}
