//! `task_dag` / `task_dag_traced`: the scheduler with no network under it.
//!
//! One lap, inside one `block_on`: (a) 8 producers x 1000 empty tasks under
//! one finish; (b) `spawn_future`/`get` fib(21) with a sequential cutoff at
//! 10; (c) `forasync_1d(50_000, 1)`; (d) a Task-Bench 1-D stencil, 32 wide x
//! 64 steps, every task awaiting its three predecessors and running a fixed
//! 256-round integer hash.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hiper_platform::autogen;
use hiper_runtime::{api, Future, Promise, Runtime};

use super::{drive, merge, runtime_counters, splitmix64, Control, RunCfg, RunResult, SMP_WORKERS};
use crate::spans;

const PRODUCERS: u64 = 8;
const PER_PRODUCER: u64 = 1000;
const FIB_N: u64 = 21;
const FIB_CUTOFF: u64 = 10;
const FIB_21: u64 = 10946;
pub const STENCIL_WIDTH: usize = 32;
pub const STENCIL_STEPS: usize = 64;
const HASH_ROUNDS: u32 = 256;

/// Logical tasks per phase of one lap.
pub const SPAWN_TASKS: u64 = PRODUCERS + PRODUCERS * PER_PRODUCER;
pub const LOOP_ITERS: u64 = 50_000;
pub const STENCIL_TASKS: u64 = (STENCIL_WIDTH * STENCIL_STEPS) as u64;

/// `spawn_future` calls of the fib phase.
pub fn future_tasks() -> u64 {
    fib_spawns(FIB_N)
}

fn fib_seq(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib_seq(n - 1) + fib_seq(n - 2)
    }
}

fn fib(rt: &Runtime, n: u64) -> u64 {
    if n < FIB_CUTOFF {
        return fib_seq(n);
    }
    let rt2 = rt.clone();
    let upper = rt.spawn_future(move || fib(&rt2, n - 1));
    let lower = fib(rt, n - 2);
    upper.get() + lower
}

/// `spawn_future` calls one `fib(n)` makes.
fn fib_spawns(n: u64) -> u64 {
    if n < FIB_CUTOFF {
        0
    } else {
        1 + fib_spawns(n - 1) + fib_spawns(n - 2)
    }
}

/// The stencil task's grain: a dependent multiply chain the compiler cannot
/// shorten.
fn hash_grain(mut v: u64) -> u64 {
    for _ in 0..HASH_ROUNDS {
        v = (v ^ (v >> 29))
            .wrapping_mul(0xbf58_476d_1ce4_e5b9)
            .rotate_left(17);
    }
    v
}

fn stencil_cell(left: u64, centre: u64, right: u64) -> u64 {
    hash_grain(left.rotate_left(7) ^ centre ^ right.rotate_right(11))
}

fn neighbours(x: usize) -> std::ops::RangeInclusive<usize> {
    x.saturating_sub(1)..=(x + 1).min(STENCIL_WIDTH - 1)
}

fn cell_inputs(row: &[u64], x: usize) -> (u64, u64, u64) {
    let r = neighbours(x);
    (row[*r.start()], row[x], row[*r.end()])
}

/// Sequential reference: the checksum of the last stencil row.
fn stencil_reference(init: &[u64]) -> u64 {
    let mut row: Vec<u64> = init.iter().map(|&v| hash_grain(v)).collect();
    for _ in 1..STENCIL_STEPS {
        row = (0..STENCIL_WIDTH)
            .map(|x| {
                let (l, c, r) = cell_inputs(&row, x);
                stencil_cell(l, c, r)
            })
            .collect();
    }
    row.iter().fold(0, |a, &v| a.wrapping_add(v))
}

/// The stencil as a task graph: cell (t, x) awaits cells (t-1, x-1..=x+1).
/// `work` maps a cell's three inputs to its value.
pub fn stencil_tasks(
    rt: &Runtime,
    init: &Arc<Vec<u64>>,
    work: impl Fn(u64, u64, u64) -> u64 + Send + Sync + Copy + 'static,
    first_row: impl Fn(u64) -> u64 + Send + Sync + Copy + 'static,
) -> u64 {
    let grid: Arc<Vec<AtomicU64>> = Arc::new(
        (0..STENCIL_WIDTH * STENCIL_STEPS)
            .map(|_| AtomicU64::new(0))
            .collect(),
    );
    api::finish(|| {
        let mut prev: Vec<Future<()>> = Vec::new();
        for t in 0..STENCIL_STEPS {
            let mut cur = Vec::with_capacity(STENCIL_WIDTH);
            for x in 0..STENCIL_WIDTH {
                let done = Promise::new();
                cur.push(done.future());
                let deps: Vec<Future<()>> = if t == 0 {
                    Vec::new()
                } else {
                    prev[neighbours(x)].to_vec()
                };
                let (grid, init) = (Arc::clone(&grid), Arc::clone(init));
                rt.spawn_await_all(&deps, move || {
                    // Relaxed: the promise put/await pair orders the stores
                    // of row t-1 before the loads made by row t.
                    let v = if t == 0 {
                        first_row(init[x])
                    } else {
                        let at =
                            |i: usize| grid[(t - 1) * STENCIL_WIDTH + i].load(Ordering::Relaxed);
                        let r = neighbours(x);
                        work(at(*r.start()), at(x), at(*r.end()))
                    };
                    grid[t * STENCIL_WIDTH + x].store(v, Ordering::Relaxed);
                    done.put(());
                });
            }
            prev = cur;
        }
    })
    .expect("no stencil task panicked");
    grid[(STENCIL_STEPS - 1) * STENCIL_WIDTH..]
        .iter()
        .fold(0, |a, c| a.wrapping_add(c.load(Ordering::Relaxed)))
}

fn one_lap(rt: &Runtime, lap: u64, init: &Arc<Vec<u64>>, want_stencil: u64) -> Result<(), String> {
    let spawned = Arc::new(AtomicU64::new(0));
    {
        let _s = spans::enter("runtime.spawn", lap);
        let spawned = Arc::clone(&spawned);
        api::finish(move || {
            for _ in 0..PRODUCERS {
                let spawned = Arc::clone(&spawned);
                api::async_(move || {
                    for _ in 0..PER_PRODUCER {
                        let spawned = Arc::clone(&spawned);
                        api::async_(move || {
                            spawned.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        })
        .map_err(|e| format!("spawn phase: {e}"))?;
    }
    let got = spawned.load(Ordering::Relaxed);
    if got != PRODUCERS * PER_PRODUCER {
        return Err(format!("spawn phase ran {got} tasks"));
    }

    let f = {
        let _s = spans::enter("runtime.future", lap);
        fib(rt, std::hint::black_box(FIB_N))
    };
    if f != FIB_21 {
        return Err(format!("fib({FIB_N}) = {f}"));
    }

    let iters = Arc::new(AtomicU64::new(0));
    {
        let _s = spans::enter("runtime.forasync", lap);
        let iters = Arc::clone(&iters);
        rt.forasync_1d(LOOP_ITERS as usize, 1, move |_| {
            iters.fetch_add(1, Ordering::Relaxed);
        });
    }
    let got = iters.load(Ordering::Relaxed);
    if got != LOOP_ITERS {
        return Err(format!("forasync ran {got} iterations"));
    }

    let sum = {
        let _s = spans::enter("runtime.stencil", lap);
        stencil_tasks(rt, init, stencil_cell, hash_grain)
    };
    if sum != want_stencil {
        return Err(format!("stencil checksum {sum:#x}, want {want_stencil:#x}"));
    }
    Ok(())
}

/// Logical tasks per lap: every spawn call plus every `forasync` iteration.
pub fn units_per_lap() -> f64 {
    (SPAWN_TASKS + future_tasks() + LOOP_ITERS + STENCIL_TASKS) as f64
}

/// Which observability sessions a run holds open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observe {
    /// `task_dag`.
    Nothing,
    /// The `metrics.overhead_pct` probe.
    Metrics,
    /// `task_dag_traced`.
    TraceAndMetrics,
}

pub fn run(cfg: &RunCfg, observe: Observe) -> RunResult {
    let t0 = Instant::now();
    // Sessions are opened through the API (never the environment) and held
    // from construction to tear-down.
    let out = crate::out_dir();
    let trace = (observe == Observe::TraceAndMetrics).then(|| {
        let mut s = hiper_trace::TraceSession::start(out.join("task_dag_traced.trace.json"));
        s.report = false;
        s
    });
    let metrics = (observe != Observe::Nothing).then(|| {
        hiper_metrics::MetricsSession::start(Some(out.join("task_dag_traced.metrics.txt")))
    });

    let rt = Runtime::new(autogen::smp(SMP_WORKERS));
    let mut state = cfg.seed;
    let init: Arc<Vec<u64>> =
        Arc::new((0..STENCIL_WIDTH).map(|_| splitmix64(&mut state)).collect());
    let want_stencil = stencil_reference(&init);

    let ctl = Control::new(cfg);
    let rt_lap = rt.clone();
    let laps = drive(
        &ctl,
        true,
        t0,
        &|| {},
        &|| runtime_counters(&rt),
        &mut |lap| {
            let (rt2, init) = (rt_lap.clone(), Arc::clone(&init));
            let parent = spans::current();
            rt_lap.block_on(move || {
                let _under = spans::adopt(parent);
                one_lap(&rt2, lap, &init, want_stencil)
            })
        },
    );
    rt.shutdown();

    let mut result = merge(vec![laps], cfg.warmup, units_per_lap());
    drop(metrics);
    if let Some(session) = trace {
        let t = Instant::now();
        let data = session.finish().expect("write trace file");
        result
            .extra
            .insert("trace.drain_ms", t.elapsed().as_secs_f64() * 1e3);
        result.extra.insert("trace.drained", data.len() as f64);
        result.extra.insert("trace.dropped", data.dropped() as f64);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_graph_stencil_matches_the_sequential_reference() {
        let init: Arc<Vec<u64>> =
            Arc::new((0..STENCIL_WIDTH as u64).map(|v| v * 977 + 3).collect());
        let rt = Runtime::new(autogen::smp(2));
        let (rt2, init2) = (rt.clone(), Arc::clone(&init));
        let got = rt.block_on(move || stencil_tasks(&rt2, &init2, stencil_cell, hash_grain));
        rt.shutdown();
        assert_eq!(got, stencil_reference(&init));
    }

    #[test]
    fn unit_count_is_the_number_of_logical_tasks() {
        assert_eq!(fib_spawns(9), 0);
        assert_eq!(fib_spawns(11), 1 + fib_spawns(10) + fib_spawns(9));
        assert_eq!(
            units_per_lap(),
            (8 + 8000 + fib_spawns(21) + 50_000 + 2048) as f64
        );
    }
}
