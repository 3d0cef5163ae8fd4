//! Runtime and module statistics (paper §V).
//!
//! "Like any unified scheduler, the HiPER runtime is aware of all of the work
//! executing on a system. Hooks have been added to the HiPER runtime which
//! enable programmers to gather statistics on time spent in calls to
//! different modules." This module is those hooks: scheduler-level counters
//! (pops, steals, injector hits, parks, executed tasks, wake decisions) plus
//! per-module call counts and cumulative time.
//!
//! Scheduler counters are *sharded*: each worker owns a cache-line-padded
//! block of relaxed atomics, plus one extra block shared by off-pool threads,
//! so the per-task hot path never bounces a counter line between cores.
//! Shards are summed only when a [`SchedStatsSnapshot`] is taken.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::RwLock;

/// Pads (and aligns) a value to 128 bytes so adjacent shards never share a
/// cache line (128 covers the spatial-prefetcher pair on x86 and the 128-byte
/// lines on some arm64 parts).
#[derive(Debug, Default)]
#[repr(align(128))]
struct CachePadded<T>(T);

/// One worker's private counter block. All increments are relaxed: counters
/// are monotonic event counts with no ordering obligations.
#[derive(Debug, Default)]
struct StatShard {
    tasks_executed: AtomicU64,
    pops: AtomicU64,
    steals: AtomicU64,
    batch_steals: AtomicU64,
    injector_hits: AtomicU64,
    parks: AtomicU64,
    helped: AtomicU64,
    wake_signals_sent: AtomicU64,
    wakes_skipped: AtomicU64,
    completion_wakes: AtomicU64,
    task_panics: AtomicU64,
    tasks_inline: AtomicU64,
    slab_hits: AtomicU64,
    slab_misses: AtomicU64,
    splits_elided: AtomicU64,
    /// Tasks made visible to other workers (deque push, injector push,
    /// batch-steal banking). The cross-shard sum is the *publish epoch* the
    /// pre-park check compares against; see `Scheduler::maybe_has_work`.
    tasks_published: AtomicU64,
}

/// Scheduler-level counters: one padded shard per worker plus one trailing
/// shard (index `workers`) for threads outside the pool.
#[derive(Debug)]
pub struct SchedStats {
    shards: Box<[CachePadded<StatShard>]>,
}

macro_rules! bump {
    ($field:expr) => {
        $field.fetch_add(1, Ordering::Relaxed)
    };
}

impl SchedStats {
    /// Creates counter blocks for `workers` workers (plus the external
    /// shard).
    pub fn new(workers: usize) -> SchedStats {
        SchedStats {
            shards: (0..workers + 1).map(|_| CachePadded::default()).collect(),
        }
    }

    /// The shard index off-pool threads record under.
    pub fn external_shard(&self) -> usize {
        self.shards.len() - 1
    }

    fn shard(&self, shard: usize) -> &StatShard {
        &self.shards[shard.min(self.shards.len() - 1)].0
    }

    pub(crate) fn task_executed(&self, shard: usize) {
        bump!(self.shard(shard).tasks_executed);
    }
    pub(crate) fn pop(&self, shard: usize) {
        bump!(self.shard(shard).pops);
    }
    pub(crate) fn steal(&self, shard: usize) {
        bump!(self.shard(shard).steals);
    }
    pub(crate) fn batch_steal(&self, shard: usize) {
        bump!(self.shard(shard).batch_steals);
    }
    pub(crate) fn injector_hit(&self, shard: usize) {
        bump!(self.shard(shard).injector_hits);
    }
    pub(crate) fn park(&self, shard: usize) {
        bump!(self.shard(shard).parks);
    }
    pub(crate) fn help(&self, shard: usize) {
        bump!(self.shard(shard).helped);
    }
    pub(crate) fn wake_sent(&self, shard: usize) {
        bump!(self.shard(shard).wake_signals_sent);
    }
    pub(crate) fn wake_skipped(&self, shard: usize) {
        bump!(self.shard(shard).wakes_skipped);
    }
    pub(crate) fn completion_wakes_n(&self, shard: usize, n: u64) {
        let s = self.shard(shard);
        s.completion_wakes.fetch_add(n, Ordering::Relaxed);
    }
    pub(crate) fn task_panic(&self, shard: usize) {
        bump!(self.shard(shard).task_panics);
    }
    pub(crate) fn task_inline(&self, shard: usize, recycled: bool) {
        let s = self.shard(shard);
        bump!(s.tasks_inline);
        if recycled {
            bump!(s.slab_hits);
        } else {
            bump!(s.slab_misses);
        }
    }
    /// Attributes a spawn's body storage: slab (hit or miss) counts as
    /// inline, boxed bodies count nothing here (`tasks_executed` covers
    /// volume; the gap `tasks_executed - tasks_inline` is the boxed share).
    pub(crate) fn task_body(&self, shard: usize, kind: crate::task::BodyKind) {
        match kind {
            crate::task::BodyKind::SlabHit => self.task_inline(shard, true),
            crate::task::BodyKind::SlabMiss => self.task_inline(shard, false),
            crate::task::BodyKind::Boxed => {}
        }
    }
    /// Batched: one RMW for a whole `split_run` frame's elisions.
    pub(crate) fn splits_elided_n(&self, shard: usize, n: u64) {
        self.shard(shard)
            .splits_elided
            .fetch_add(n, Ordering::Relaxed);
    }
    /// Records one task publication. Release, not relaxed: a parking worker
    /// whose Acquire epoch read observes this bump must also observe the
    /// queue push sequenced before it (see `Scheduler::maybe_has_work`).
    /// Same `lock xadd` as relaxed on x86.
    pub(crate) fn published(&self, shard: usize) {
        self.shard(shard)
            .tasks_published
            .fetch_add(1, Ordering::Release);
    }

    /// The publish epoch: total tasks ever made visible to other workers.
    /// Monotonic; a change between two reads means *something* was published
    /// in between, and (Acquire pairing with the Release bump) the publishing
    /// push itself is visible to the reader. Cold path only — workers read it
    /// once per failed search, never per task.
    pub(crate) fn publish_epoch(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.tasks_published.load(Ordering::Acquire))
            .sum()
    }

    /// A point-in-time copy of all counters, aggregated across shards.
    pub fn snapshot(&self) -> SchedStatsSnapshot {
        let mut snap = SchedStatsSnapshot::default();
        for shard in self.shards.iter() {
            let s = &shard.0;
            snap.tasks_executed += s.tasks_executed.load(Ordering::Relaxed);
            snap.pops += s.pops.load(Ordering::Relaxed);
            snap.steals += s.steals.load(Ordering::Relaxed);
            snap.batch_steals += s.batch_steals.load(Ordering::Relaxed);
            snap.injector_hits += s.injector_hits.load(Ordering::Relaxed);
            snap.parks += s.parks.load(Ordering::Relaxed);
            snap.helped += s.helped.load(Ordering::Relaxed);
            snap.wake_signals_sent += s.wake_signals_sent.load(Ordering::Relaxed);
            snap.wakes_skipped += s.wakes_skipped.load(Ordering::Relaxed);
            snap.completion_wakes += s.completion_wakes.load(Ordering::Relaxed);
            snap.task_panics += s.task_panics.load(Ordering::Relaxed);
            snap.tasks_inline += s.tasks_inline.load(Ordering::Relaxed);
            snap.slab_hits += s.slab_hits.load(Ordering::Relaxed);
            snap.slab_misses += s.slab_misses.load(Ordering::Relaxed);
            snap.splits_elided += s.splits_elided.load(Ordering::Relaxed);
        }
        snap.backstop_wakes = crate::event::BACKSTOP_WAKES.load(Ordering::Relaxed);
        snap
    }
}

impl Default for SchedStats {
    /// A single-shard instance (external shard only); real schedulers use
    /// [`SchedStats::new`] with their worker count.
    fn default() -> SchedStats {
        SchedStats::new(0)
    }
}

/// Plain-data snapshot of [`SchedStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedStatsSnapshot {
    pub tasks_executed: u64,
    pub pops: u64,
    pub steals: u64,
    /// Steals that also moved extra tasks into the thief's own deque.
    pub batch_steals: u64,
    pub injector_hits: u64,
    pub parks: u64,
    pub helped: u64,
    /// Spawn-side wakeups that unparked a worker.
    pub wake_signals_sent: u64,
    /// Spawn-side wakeups skipped because no worker was parked.
    pub wakes_skipped: u64,
    /// Blocked waiters (a worker parked in `Future::wait` / `finish`, the
    /// external caller of `block_on` / `finish`) woken by their completion.
    pub completion_wakes: u64,
    /// Safety-net park expiries (20 ms worker, 10 ms promise / scope) that
    /// found their predicate or work true: lost wakeups. Process-global.
    pub backstop_wakes: u64,
    /// Tasks whose body panicked (the panic poisons the enclosing scope).
    pub task_panics: u64,
    /// Tasks whose closure was stored inline in a slab slot (no box).
    pub tasks_inline: u64,
    /// Inline tasks whose slot came off a free list (no allocation at all).
    pub slab_hits: u64,
    /// Inline tasks that had to allocate a fresh slot (it will recycle).
    pub slab_misses: u64,
    /// forasync splits skipped because every worker was already busy.
    pub splits_elided: u64,
}

impl SchedStatsSnapshot {
    /// Steals (including injector drains) per executed task. Near 0 means
    /// work stayed local; near 1 means almost every task crossed a deque.
    pub fn steals_per_task(&self) -> f64 {
        if self.tasks_executed == 0 {
            return 0.0;
        }
        (self.steals + self.injector_hits) as f64 / self.tasks_executed as f64
    }

    /// Fraction of spawn-side wake decisions that actually unparked a
    /// worker: `sent / (sent + skipped)`. Low values mean the pool was
    /// already saturated (wakes were unnecessary); this is the targeted-
    /// wakeup efficiency the hot-path overhaul (PR 1) optimizes for.
    pub fn wake_efficiency(&self) -> f64 {
        let total = self.wake_signals_sent + self.wakes_skipped;
        if total == 0 {
            return 0.0;
        }
        self.wake_signals_sent as f64 / total as f64
    }

    /// Counter-wise difference `self - earlier`, saturating at zero.
    /// Snapshots are cumulative since runtime start; a harness diffs a
    /// snapshot pair to attribute counts to one measured region.
    pub fn diff(&self, earlier: &SchedStatsSnapshot) -> SchedStatsSnapshot {
        SchedStatsSnapshot {
            tasks_executed: self.tasks_executed.saturating_sub(earlier.tasks_executed),
            pops: self.pops.saturating_sub(earlier.pops),
            steals: self.steals.saturating_sub(earlier.steals),
            batch_steals: self.batch_steals.saturating_sub(earlier.batch_steals),
            injector_hits: self.injector_hits.saturating_sub(earlier.injector_hits),
            parks: self.parks.saturating_sub(earlier.parks),
            helped: self.helped.saturating_sub(earlier.helped),
            wake_signals_sent: self
                .wake_signals_sent
                .saturating_sub(earlier.wake_signals_sent),
            wakes_skipped: self.wakes_skipped.saturating_sub(earlier.wakes_skipped),
            completion_wakes: self
                .completion_wakes
                .saturating_sub(earlier.completion_wakes),
            backstop_wakes: self.backstop_wakes.saturating_sub(earlier.backstop_wakes),
            task_panics: self.task_panics.saturating_sub(earlier.task_panics),
            tasks_inline: self.tasks_inline.saturating_sub(earlier.tasks_inline),
            slab_hits: self.slab_hits.saturating_sub(earlier.slab_hits),
            slab_misses: self.slab_misses.saturating_sub(earlier.slab_misses),
            splits_elided: self.splits_elided.saturating_sub(earlier.splits_elided),
        }
    }
}

impl fmt::Display for SchedStatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tasks={} pops={} steals={} batch_steals={} injector={} parks={} helped={} \
             wakes_sent={} wakes_skipped={} completion_wakes={} backstop_wakes={} panics={} \
             inline={} slab_hits={} slab_misses={} splits_elided={} \
             steals/task={:.3} wake_eff={:.3}",
            self.tasks_executed,
            self.pops,
            self.steals,
            self.batch_steals,
            self.injector_hits,
            self.parks,
            self.helped,
            self.wake_signals_sent,
            self.wakes_skipped,
            self.completion_wakes,
            self.backstop_wakes,
            self.task_panics,
            self.tasks_inline,
            self.slab_hits,
            self.slab_misses,
            self.splits_elided,
            self.steals_per_task(),
            self.wake_efficiency()
        )
    }
}

/// Per-module accounting: how many API calls ran and how long they took.
#[derive(Debug, Default)]
struct ModuleCounters {
    calls: AtomicU64,
    nanos: AtomicU64,
}

/// Registry of per-module statistics, keyed by module name.
#[derive(Debug, Default)]
pub struct ModuleStats {
    modules: RwLock<BTreeMap<&'static str, ModuleCounters>>,
}

impl ModuleStats {
    /// Records one call of `dur` against `module`. Module API wrappers call
    /// this around every user-facing entry point.
    pub fn record(&self, module: &'static str, dur: Duration) {
        {
            let map = self.modules.read();
            if let Some(c) = map.get(module) {
                c.calls.fetch_add(1, Ordering::Relaxed);
                c.nanos.fetch_add(dur.as_nanos() as u64, Ordering::Relaxed);
                return;
            }
        }
        let mut map = self.modules.write();
        let c = map.entry(module).or_default();
        c.calls.fetch_add(1, Ordering::Relaxed);
        c.nanos.fetch_add(dur.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Snapshot of all modules: (name, calls, total time).
    pub fn snapshot(&self) -> Vec<(String, u64, Duration)> {
        self.modules
            .read()
            .iter()
            .map(|(name, c)| {
                (
                    name.to_string(),
                    c.calls.load(Ordering::Relaxed),
                    Duration::from_nanos(c.nanos.load(Ordering::Relaxed)),
                )
            })
            .collect()
    }
}

/// A guard that records elapsed time against a module when dropped.
/// Usage: `let _t = stats.time("mpi");`
pub struct ModuleTimer<'a> {
    stats: &'a ModuleStats,
    module: &'static str,
    /// Operation name (empty for untagged [`ModuleStats::time`] calls) and
    /// payload byte count; fed to the metrics registry on drop when metrics
    /// are enabled.
    op: &'static str,
    bytes: u64,
    start: std::time::Instant,
    /// Interned (module, op) ids when a ModuleEnter event was emitted; the
    /// Drop emits the matching ModuleExit (even if tracing was disabled in
    /// between, so spans stay balanced per track).
    traced: Option<(u64, u64)>,
}

impl ModuleStats {
    /// Starts a timer attributed to `module`.
    pub fn time(&self, module: &'static str) -> ModuleTimer<'_> {
        self.time_op(module, "", 0)
    }

    /// Starts a timer attributed to `module`, additionally tagging the trace
    /// span with the operation name and a byte count (0 when not meaningful).
    pub fn time_op(&self, module: &'static str, op: &'static str, bytes: u64) -> ModuleTimer<'_> {
        let traced = if hiper_trace::enabled() {
            let m = hiper_trace::intern(module);
            let o = if op.is_empty() {
                0
            } else {
                hiper_trace::intern(op)
            };
            hiper_trace::emit(hiper_trace::EventKind::ModuleEnter, m, o, bytes);
            Some((m, o))
        } else {
            None
        };
        ModuleTimer {
            stats: self,
            module,
            op,
            bytes,
            start: std::time::Instant::now(),
            traced,
        }
    }
}

impl Drop for ModuleTimer<'_> {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        self.stats.record(self.module, elapsed);
        if hiper_metrics::enabled() {
            let om = hiper_metrics::module_op(self.module, self.op);
            om.latency_ns.record(elapsed.as_nanos() as u64);
            if self.bytes != 0 {
                om.bytes.add(self.bytes);
            }
        }
        if let Some((m, o)) = self.traced {
            hiper_trace::emit_always(hiper_trace::EventKind::ModuleExit, m, o, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sched_counters_accumulate_across_shards() {
        let s = SchedStats::new(2);
        s.task_executed(0);
        s.task_executed(1);
        s.pop(0);
        s.steal(1);
        s.batch_steal(1);
        s.injector_hit(0);
        s.park(1);
        s.help(0);
        s.wake_sent(0);
        s.wake_skipped(s.external_shard());
        s.completion_wakes_n(1, 2);
        s.task_panic(0);
        s.task_inline(0, true);
        s.task_inline(1, false);
        s.splits_elided_n(0, 1);
        s.published(0);
        s.published(s.external_shard());
        let snap = s.snapshot();
        assert_eq!(snap.tasks_executed, 2);
        assert_eq!(snap.pops, 1);
        assert_eq!(snap.steals, 1);
        assert_eq!(snap.batch_steals, 1);
        assert_eq!(snap.injector_hits, 1);
        assert_eq!(snap.parks, 1);
        assert_eq!(snap.helped, 1);
        assert_eq!(snap.wake_signals_sent, 1);
        assert_eq!(snap.wakes_skipped, 1);
        assert_eq!(snap.completion_wakes, 2);
        assert_eq!(snap.task_panics, 1);
        assert_eq!(snap.tasks_inline, 2);
        assert_eq!(snap.slab_hits, 1);
        assert_eq!(snap.slab_misses, 1);
        assert_eq!(snap.splits_elided, 1);
        assert_eq!(s.publish_epoch(), 2);
        let shown = snap.to_string();
        assert!(shown.contains("tasks=2"));
        assert!(shown.contains("batch_steals=1"));
        assert!(shown.contains("wakes_sent=1"));
        assert!(shown.contains("wakes_skipped=1"));
        assert!(shown.contains("completion_wakes=2"));
        assert!(shown.contains("backstop_wakes="));
        assert!(shown.contains("panics=1"));
        assert!(shown.contains("inline=2"));
        assert!(shown.contains("slab_hits=1"));
        assert!(shown.contains("splits_elided=1"));
    }

    #[test]
    fn diff_covers_allocation_counters() {
        let s = SchedStats::new(1);
        let before = s.snapshot();
        s.task_inline(0, true);
        s.splits_elided_n(0, 1);
        let d = s.snapshot().diff(&before);
        assert_eq!(d.tasks_inline, 1);
        assert_eq!(d.slab_hits, 1);
        assert_eq!(d.slab_misses, 0);
        assert_eq!(d.splits_elided, 1);
    }

    #[test]
    fn shards_are_cache_line_separated() {
        assert!(std::mem::align_of::<CachePadded<StatShard>>() >= 128);
        assert_eq!(std::mem::size_of::<CachePadded<StatShard>>() % 128, 0);
    }

    #[test]
    fn module_stats_record_and_snapshot() {
        let m = ModuleStats::default();
        m.record("mpi", Duration::from_micros(5));
        m.record("mpi", Duration::from_micros(7));
        m.record("cuda", Duration::from_micros(1));
        let snap = m.snapshot();
        assert_eq!(snap.len(), 2);
        let mpi = snap.iter().find(|(n, _, _)| n == "mpi").unwrap();
        assert_eq!(mpi.1, 2);
        assert_eq!(mpi.2, Duration::from_micros(12));
    }

    #[test]
    fn timer_guard_records_on_drop() {
        let m = ModuleStats::default();
        {
            let _t = m.time("shmem");
            std::thread::sleep(Duration::from_millis(2));
        }
        let snap = m.snapshot();
        let shmem = snap.iter().find(|(n, _, _)| n == "shmem").unwrap();
        assert_eq!(shmem.1, 1);
        assert!(shmem.2 >= Duration::from_millis(1));
    }

    #[test]
    fn concurrent_recording() {
        let m = std::sync::Arc::new(ModuleStats::default());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = std::sync::Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.record("x", Duration::from_nanos(10));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = m.snapshot();
        assert_eq!(snap[0].1, 4000);
    }
}
