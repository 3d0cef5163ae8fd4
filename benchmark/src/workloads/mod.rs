//! The six workloads and the closed loop that drives them.
//!
//! Every workload is one client issuing lap *n+1* when lap *n* has validated:
//! construct once, [`WARMUP_LAPS`] untimed laps, a timed window, tear down.
//! Distributed workloads run as an SPMD program (2 ranks x 1 worker) whose
//! rank 0 is the client that keeps time; SMP workloads run 1 rank x 2
//! workers. Runnable compute threads never exceed the box's two cores.

pub mod app_hpgmg;
pub mod app_uts;
pub mod msg_flood;
pub mod msg_latency;
pub mod task_dag;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use std::sync::Arc;

use hiper_netsim::{
    FaultPlan, NetConfig, Rank, RankEnv, ReliableStatsSnapshot, SpmdBuilder, Transport,
};
use hiper_runtime::SchedulerModule;

use crate::sysinfo::{self, process_cpu_s};

pub const WARMUP_LAPS: u64 = 64;
pub const RANKS: usize = 2;
pub const WORKERS_PER_RANK: usize = 1;
pub const SMP_WORKERS: usize = 2;

pub struct WorkloadInfo {
    pub name: &'static str,
    pub sizing: &'static str,
    pub unit: &'static str,
    pub why: &'static str,
    /// The crates hold a hand-composed hybrid of the same program
    /// ([`Variant::Reference`]) to compare against.
    pub has_reference: bool,
    /// The workload this one repeats with observability switched on.
    pub twin: Option<&'static str>,
    pub run: fn(&RunCfg) -> RunResult,
}

pub fn find(name: &str) -> Option<&'static WorkloadInfo> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Names are final: later issues cite them. `why` is repeated in
/// BENCHMARK.json (`hiperbench check` compares the two).
pub const WORKLOADS: [WorkloadInfo; 6] = [
    WorkloadInfo {
        name: "task_dag",
        sizing: "1 rank x 2 workers, no netsim",
        unit: "task",
        why: "runtime and deque do all the work and netsim none: the control on which message-path changes must show nothing",
        has_reference: false,
        twin: None,
        run: |cfg| task_dag::run(cfg, task_dag::Observe::Nothing),
    },
    WorkloadInfo {
        name: "task_dag_traced",
        sizing: "1 rank x 2 workers, no netsim, hiper_trace and hiper_metrics sessions on",
        unit: "task",
        why: "the same laps with observability left on: the cost of tracing and metrics, the only workload an observability change can claim on",
        has_reference: false,
        twin: Some("task_dag"),
        run: |cfg| task_dag::run(cfg, task_dag::Observe::TraceAndMetrics),
    },
    WorkloadInfo {
        name: "msg_latency",
        sizing: "2 ranks x 1 worker, default net, no fault plan, mpi+shmem+upcxx in one runtime",
        unit: "round_trip",
        why: "dependent 8-byte round trips through mpi, shmem and upcxx on an idle link: wake path and hand-off set the time, bandwidth and coalescing cannot help",
        has_reference: false,
        twin: None,
        run: msg_latency::run,
    },
    WorkloadInfo {
        name: "msg_flood",
        sizing: "2 ranks x 1 worker, default net, reliability armed by a perturbation-free fault plan",
        unit: "message",
        why: "pipelined small sends and 64 KiB puts through armed reliable framing, ack piggyback and staging: netsim used for throughput instead of latency",
        has_reference: false,
        twin: None,
        run: msg_flood::run,
    },
    WorkloadInfo {
        name: "app_uts",
        sizing: "2 ranks x 1 worker, shmem, geometric tree b0 2.0 depth 13",
        unit: "tree_node",
        why: "the paper's composed case with runtime and shmem both on the critical path: fine tasks, remote steals, and a lap that waits for the slower rank",
        has_reference: true,
        twin: None,
        run: app_uts::run,
    },
    WorkloadInfo {
        name: "app_hpgmg",
        sizing: "2 ranks x 1 worker, mpi+upcxx, 16x16x8 slab, 4 V-cycles",
        unit: "v_cycle",
        why: "many small halo exchanges plus an allreduce per level: latency-bound at coarse levels, kernel-bound at the fine one, the only upcxx user",
        has_reference: true,
        twin: None,
        run: app_hpgmg::run,
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The workload as named.
    Main,
    /// The hand-composed hybrid the paper compares against (`uts::run_omp`,
    /// `MpiOmpBackend`); `app_*` only.
    Reference,
}

#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    pub warmup: u64,
    /// Zero runs set-up and warm-up only.
    pub window: Duration,
    pub variant: Variant,
}

/// Cumulative counters read through the crates' public snapshot accessors,
/// as name -> value so deltas and cross-rank sums are one map operation.
pub type Counters = BTreeMap<&'static str, f64>;

fn delta(later: &Counters, earlier: &Counters) -> Counters {
    later
        .iter()
        .map(|(k, v)| (*k, v - earlier.get(k).copied().unwrap_or(0.0)))
        .collect()
}

fn add_into(total: &mut Counters, part: &Counters) {
    for (k, v) in part {
        *total.entry(k).or_insert(0.0) += v;
    }
}

/// One runtime's scheduler counters and per-module call totals.
pub fn runtime_counters(rt: &hiper_runtime::Runtime) -> Counters {
    let s = rt.sched_stats();
    let mut c = Counters::from([
        ("sched.tasks_executed", s.tasks_executed as f64),
        ("sched.steals", (s.steals + s.injector_hits) as f64),
        ("sched.parks", s.parks as f64),
        ("sched.wakes", s.wake_signals_sent as f64),
        ("sched.tasks_inline", s.tasks_inline as f64),
        ("sched.slab_hits", s.slab_hits as f64),
        ("sched.slab_misses", s.slab_misses as f64),
        ("sched.splits_elided", s.splits_elided as f64),
    ]);
    for (module, calls, busy) in rt.module_stats().snapshot() {
        let keys = match module.as_str() {
            "mpi" => ("mpi.calls", "mpi.busy_ms"),
            "shmem" => ("shmem.calls", "shmem.busy_ms"),
            "upcxx" => ("upcxx.calls", "upcxx.busy_ms"),
            _ => continue,
        };
        c.insert(keys.0, calls as f64);
        c.insert(keys.1, busy.as_secs_f64() * 1e3);
    }
    c
}

/// Runs the SPMD program of a distributed workload: [`RANKS`] ranks x
/// [`WORKERS_PER_RANK`] worker on the default network, reliability armed when
/// `faults` is given, and every busy thread on a fixed core, as a job
/// launcher's `--cpu-bind` would place it: rank r's worker (the thread `main`
/// runs on, with one worker per rank) on the r-th CPU the process may use,
/// the delivery engine beside the last rank.
///
/// A 2-rank run has three busy threads (two workers and the delivery engine)
/// for two cores. Left to the OS they regroup every second or so and lap
/// times hop between modes up to 20% apart: over 8 runs the quartile spread of
/// `app_hpgmg`'s median lap was 11.9% unbound, 1.4% with only the workers
/// bound (but the roaming engine then sent a tenth of the laps into a 6.7 ms
/// mode, and the p90 spread 17.8%), and 0.3% (p90 0.7%) with all three placed.
pub fn run_spmd<T, R>(
    faults: Option<FaultPlan>,
    setup: impl Fn(Rank, Transport) -> (Vec<Arc<dyn SchedulerModule>>, T) + Send + Sync + 'static,
    main: impl Fn(RankEnv, T) -> R + Send + Sync + 'static,
) -> Vec<R>
where
    T: Send + 'static,
    R: Send + 'static,
{
    let mut builder = SpmdBuilder::new(RANKS)
        .net(NetConfig::default())
        .workers_per_rank(WORKERS_PER_RANK);
    if let Some(plan) = faults {
        builder = builder.faults(plan);
    }
    // Every thread `run` starts inherits this, the engine for good.
    sysinfo::bind_this_thread(RANKS - 1);
    let out = builder.run(setup, move |env, state| {
        sysinfo::bind_this_thread(env.rank);
        main(env, state)
    });
    sysinfo::unbind_this_thread();
    out
}

/// What one rank contributes to the run's counters: its runtime's, plus (from
/// the leader only, so they are added once) the cluster-wide traffic counters.
pub fn rank_counters(env: &RankEnv) -> Counters {
    let mut c = runtime_counters(&env.runtime);
    if env.rank == 0 {
        let n = env.transport.net_stats();
        c.extend([
            ("net.messages", n.messages as f64),
            ("net.bytes", n.bytes as f64),
            ("net.shard_contention", n.shard_contention as f64),
        ]);
    }
    c
}

pub fn reliable_counters(into: &mut Counters, s: ReliableStatsSnapshot) {
    for (k, v) in [
        ("rel.retries", s.retries),
        ("rel.frames_coalesced", s.frames_coalesced),
        ("rel.acks_piggybacked", s.acks_piggybacked),
        ("rel.acks_flushed", s.acks_flushed),
        ("rel.copies_avoided", s.payload_copies_avoided),
    ] {
        *into.entry(k).or_insert(0.0) += v as f64;
    }
}

/// Shared between the ranks of one run: the leader decides when the window
/// is over and every rank reads the decision after the lap's closing barrier.
pub struct Control {
    warmup: u64,
    window: Duration,
    /// Index of the last timed lap; `u64::MAX` until the leader sets it. A
    /// lap index rather than a flag, so a leader that runs ahead cannot stop
    /// a follower one lap early.
    stop_at: AtomicU64,
}

impl Control {
    pub fn new(cfg: &RunCfg) -> Control {
        Control {
            warmup: cfg.warmup,
            window: cfg.window,
            stop_at: AtomicU64::new(u64::MAX),
        }
    }
}

/// What one rank saw.
#[derive(Default)]
pub struct RankLaps {
    /// (lap index, milliseconds) of every timed lap; kept by the leader only.
    laps_ms: Vec<(u64, f64)>,
    /// (lap index, reason) of every lap this rank failed to validate.
    failed: Vec<(u64, String)>,
    timed_laps: u64,
    /// Construction start to first timed lap, seconds.
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    counters: Counters,
}

/// The closed loop, run by every rank. `sync` closes a lap (the module's
/// barrier; a no-op on SMP workloads) and is inside the timed interval, so a
/// lap ends when the slower rank has finished. `lap` returns `Err` when its
/// validation fails. `counters` is read at both ends of the window.
pub fn drive(
    ctl: &Control,
    leader: bool,
    constructed_from: Instant,
    sync: &dyn Fn(),
    counters: &dyn Fn() -> Counters,
    lap: &mut dyn FnMut(u64) -> Result<(), String>,
) -> RankLaps {
    let mut out = RankLaps::default();
    for n in 0..ctl.warmup {
        if let Err(why) = lap(n) {
            out.failed.push((n, why));
        }
        sync();
    }
    out.setup_s = constructed_from.elapsed().as_secs_f64();
    if ctl.window.is_zero() {
        return out;
    }
    let before = counters();
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    let mut n = ctl.warmup;
    loop {
        let _lap_span = crate::spans::enter("lap", n);
        let t0 = Instant::now();
        let verdict = lap(n);
        if leader && start.elapsed() >= ctl.window {
            ctl.stop_at.store(n, Ordering::SeqCst);
        }
        sync();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        out.timed_laps += 1;
        match verdict {
            Ok(()) if leader => out.laps_ms.push((n, ms)),
            Ok(()) => {}
            Err(why) => out.failed.push((n, why)),
        }
        if n >= ctl.stop_at.load(Ordering::SeqCst) {
            break;
        }
        n += 1;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.cpu_s = process_cpu_s() - cpu0;
    out.counters = delta(&counters(), &before);
    out
}

/// A lap's validation result. A failed check is recorded, never returned
/// early on: cutting the lap short would leave the peer rank hanging.
pub struct Verdict(Result<(), String>);

impl Verdict {
    pub fn new() -> Verdict {
        Verdict(Ok(()))
    }

    /// Keeps the first failure; `why` is only built when `ok` is false.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok && self.0.is_ok() {
            self.0 = Err(why());
        }
    }

    pub fn into_result(self) -> Result<(), String> {
        self.0
    }
}

/// One run of one workload, ranks merged.
#[derive(Default)]
pub struct RunResult {
    pub setup_s: f64,
    /// Validated timed laps, in order, milliseconds.
    pub laps_ms: Vec<f64>,
    /// Laps run, warm-up included.
    pub attempted: u64,
    /// Laps that failed validation on any rank.
    pub failed: u64,
    pub failures: Vec<String>,
    pub timed_laps: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub units_per_lap: f64,
    /// Window deltas summed over ranks.
    pub counters: Counters,
    /// Workload-specific readings (trace session statistics, MB per lap).
    pub extra: BTreeMap<&'static str, f64>,
}

/// Merges per-rank records: a lap failed if any rank failed it, and a failed
/// lap is excluded from the timings.
pub fn merge(ranks: Vec<RankLaps>, warmup: u64, units_per_lap: f64) -> RunResult {
    let mut r = RunResult {
        units_per_lap,
        ..RunResult::default()
    };
    let mut failed_laps = std::collections::BTreeSet::new();
    for (rank, laps) in ranks.iter().enumerate() {
        for (n, why) in &laps.failed {
            failed_laps.insert(*n);
            if r.failures.len() < 8 {
                r.failures.push(format!("rank {rank} lap {n}: {why}"));
            }
        }
        add_into(&mut r.counters, &laps.counters);
    }
    let leader = &ranks[0];
    r.laps_ms = leader
        .laps_ms
        .iter()
        .filter(|(n, _)| !failed_laps.contains(n))
        .map(|&(_, ms)| ms)
        .collect();
    r.failed = failed_laps.len() as u64;
    r.timed_laps = leader.timed_laps;
    r.attempted = warmup + leader.timed_laps;
    r.setup_s = leader.setup_s;
    r.wall_s = leader.wall_s;
    r.cpu_s = leader.cpu_s;
    r
}

/// splitmix64: every payload byte and tree seed the benchmark generates
/// comes from `--seed` through this.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lap_failed_on_any_rank_is_excluded_from_timings() {
        let leader = RankLaps {
            laps_ms: vec![(64, 1.0), (65, 2.0), (66, 3.0)],
            timed_laps: 3,
            ..RankLaps::default()
        };
        let follower = RankLaps {
            failed: vec![(65, "bad echo".into())],
            timed_laps: 3,
            ..RankLaps::default()
        };
        let r = merge(vec![leader, follower], 64, 100.0);
        assert_eq!(r.laps_ms, vec![1.0, 3.0]);
        assert_eq!((r.attempted, r.failed), (67, 1));
        assert_eq!(r.failures, vec!["rank 1 lap 65: bad echo".to_string()]);
    }

    #[test]
    fn the_closed_loop_times_validated_laps_until_the_window_ends() {
        let cfg = RunCfg {
            seed: 1,
            warmup: 3,
            window: Duration::from_millis(30),
            variant: Variant::Main,
        };
        let ctl = Control::new(&cfg);
        let mut calls = 0u64;
        let laps = drive(
            &ctl,
            true,
            Instant::now(),
            &|| {},
            &Counters::new,
            &mut |n| {
                calls += 1;
                std::thread::sleep(Duration::from_millis(2));
                if n == 4 {
                    Err("planted".into())
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!(calls, 3 + laps.timed_laps);
        assert_eq!(laps.failed.len(), 1);
        assert_eq!(laps.laps_ms.len() as u64, laps.timed_laps - 1);
        assert!(laps.laps_ms.iter().all(|&(n, ms)| n >= 3 && ms >= 2.0));
        assert!(laps.wall_s >= 0.03 && laps.setup_s >= 0.006);
    }
}
