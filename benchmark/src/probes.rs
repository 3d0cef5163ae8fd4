//! Layer probes: micro-measurements the benchmark makes by calling one
//! layer's public functions directly, outside any workload. They give each
//! layer's own cost (and the floor the simulator models) so that a change in
//! a workload's lap time can be set against the layer that caused it.
//!
//! Probes run one after another, each for a slice of the run's `--seconds`,
//! and report medians. No runtime or cluster outlives its probe.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use hiper_deque::{new_deque, Injector, Steal};
use hiper_forkjoin::Pool;
use hiper_mpi::{MpiModule, ReduceOp};
use hiper_netsim::{
    Channel, Cluster, FaultPlan, Message, NetConfig, ReliableTransport, RetryConfig,
};
use hiper_platform::autogen;
use hiper_runtime::{Promise, Runtime, SchedulerModule};
use hiper_shmem::{Cmp, ShmemModule, ShmemWorld};
use hiper_upcxx::{GlobalPtr, UpcxxModule, UpcxxWorld};

use crate::spans::now_ns;
use crate::stats::{median, percentile, sort};
use crate::sysinfo::process_cpu_s;
use crate::workloads::task_dag::{self, Observe};
use crate::workloads::{run_spmd, RunCfg, Variant, RANKS, SMP_WORKERS};

pub type Probes = BTreeMap<&'static str, f64>;

/// Payload of the small-message probes.
const SMALL: usize = 16;
const BULK: usize = 64 << 10;
/// Pause between idle-link sends, long enough for a delayed standalone ack
/// (100 us) to come back, so the next send really finds the link idle.
const IDLE_GAP: Duration = Duration::from_micros(250);
/// Stencil grains for the METG sweep, microseconds.
const GRAINS_US: [u64; 5] = [1, 4, 16, 64, 256];

/// Median nanoseconds per operation: `batch` calls of `op` per sample,
/// samples until `slice` is used up.
fn per_op_ns(slice: Duration, batch: u32, mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.is_empty() || start.elapsed() < slice {
        let t0 = Instant::now();
        for _ in 0..batch {
            op();
        }
        samples.push(t0.elapsed().as_nanos() as f64 / f64::from(batch));
    }
    median(&samples)
}

fn spin_for(d: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < d {
        std::hint::spin_loop();
    }
}

fn deque(slice: Duration, out: &mut Probes) {
    let (worker, stealer) = new_deque::<u64>();
    out.insert(
        "deque.push_pop_ns",
        per_op_ns(slice, 4096, || {
            worker.push(black_box(1));
            black_box(worker.pop());
        }),
    );

    // A second thread steals while the owner keeps pushing (never popping).
    let stop = &AtomicBool::new(false);
    let steal_ns = std::thread::scope(|s| {
        s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if worker.len() < 8192 {
                    for i in 0..256 {
                        worker.push(i);
                    }
                } else {
                    std::hint::spin_loop();
                }
            }
        });
        let ns = per_op_ns(slice, 1024, || loop {
            if let Steal::Success(v) = stealer.steal() {
                black_box(v);
                break;
            }
        });
        stop.store(true, Ordering::Relaxed);
        ns
    });
    out.insert("deque.steal_ns", steal_ns);

    let injector = Injector::<u64>::new();
    out.insert(
        "deque.injector_ns",
        per_op_ns(slice, 4096, || {
            injector.push(black_box(1));
            black_box(injector.steal().success());
        }),
    );
}

/// METG(50%): the smallest stencil grain at which the two workers still
/// spend half their time inside task bodies.
fn metg50_us(slice: Duration) -> f64 {
    let rt = Runtime::new(autogen::smp(SMP_WORKERS));
    let init = Arc::new(vec![0u64; task_dag::STENCIL_WIDTH]);
    let tasks = task_dag::STENCIL_TASKS as f64;
    let mut metg = 2.0 * GRAINS_US[GRAINS_US.len() - 1] as f64;
    for &grain_us in GRAINS_US.iter().rev() {
        let grain = Duration::from_micros(grain_us);
        let start = Instant::now();
        let mut laps = 0.0;
        while laps == 0.0 || start.elapsed() < slice {
            let (rt2, init) = (rt.clone(), Arc::clone(&init));
            rt.block_on(move || {
                task_dag::stencil_tasks(
                    &rt2,
                    &init,
                    move |l, c, r| {
                        spin_for(grain);
                        l ^ c ^ r
                    },
                    |v| v,
                )
            });
            laps += 1.0;
        }
        let busy = laps * tasks * grain.as_secs_f64();
        if busy / (start.elapsed().as_secs_f64() * SMP_WORKERS as f64) >= 0.5 {
            metg = grain_us as f64;
        } else {
            break;
        }
    }
    rt.shutdown();
    metg
}

fn runtime(slice: Duration, out: &mut Probes) {
    out.insert("runtime.metg50_us", metg50_us(slice));

    // `Promise::put` to the entry of an `on_ready` thunk.
    let mut samples = Vec::new();
    let start = Instant::now();
    while start.elapsed() < slice / 2 {
        for _ in 0..256 {
            let promise = Promise::<()>::new();
            let entered = Arc::new(AtomicU64::new(0));
            let e = Arc::clone(&entered);
            promise
                .future()
                .on_ready(move || e.store(now_ns(), Ordering::Relaxed));
            let t0 = now_ns();
            promise.put(());
            samples.push((entered.load(Ordering::Relaxed) - t0) as f64);
        }
    }
    out.insert("runtime.promise_put_ns", median(&samples));

    // An external thread hands a task to parked workers and gets it back.
    let rt = Runtime::new(autogen::smp(SMP_WORKERS));
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 8 || start.elapsed() < slice {
        std::thread::sleep(Duration::from_millis(2));
        let t0 = Instant::now();
        rt.block_on(|| ());
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    rt.shutdown();
    out.insert("runtime.block_on_us", median(&samples));

    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 4 || start.elapsed() < slice / 2 {
        let t0 = Instant::now();
        let rt = Runtime::new(autogen::smp(SMP_WORKERS));
        rt.shutdown();
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    out.insert("platform.runtime_build_ms", median(&samples));

    let pool = Pool::new(SMP_WORKERS);
    const ITERS: usize = 100_000;
    let ns = per_op_ns(slice / 2, 1, || {
        pool.parallel_for(ITERS, |i| {
            black_box(i);
        })
    });
    pool.shutdown();
    out.insert("forkjoin.parallel_for_iter_ns", ns / ITERS as f64);
}

/// The delay the simulator itself models for one `payload`-byte message
/// between two ranks: the floor no implementation can beat.
pub fn floor_us(cfg: &NetConfig, payload: usize) -> f64 {
    let wire = Message::new(0, 1, Channel::APP, 0, Bytes::from(vec![0u8; payload])).wire_bytes();
    cfg.delay(0, 1, wire).as_secs_f64() * 1e6
}

/// Receiving end of the one-way probes: the handler stamps its entry time
/// against the send time carried in the tag.
#[derive(Default)]
struct Sink {
    delivered: AtomicU64,
    last_oneway_ns: AtomicU64,
}

impl Sink {
    fn handler(self: &Arc<Self>) -> Box<dyn Fn(Message) + Send + Sync> {
        let sink = Arc::clone(self);
        Box::new(move |m| {
            sink.last_oneway_ns
                .store(now_ns().saturating_sub(m.tag), Ordering::Relaxed);
            // Release pairs with the sender's Acquire load: the latency
            // above is visible once the count is.
            sink.delivered.fetch_add(1, Ordering::Release);
        })
    }

    fn wait_for(&self, count: u64) {
        while self.delivered.load(Ordering::Acquire) < count {
            std::hint::spin_loop();
        }
    }
}

struct OneWay {
    /// Time inside the send call, ns, ascending.
    send_ns: Vec<f64>,
    /// Send call to handler entry, us, ascending.
    oneway_us: Vec<f64>,
}

/// One small message at a time over an idle link.
fn one_way(slice: Duration, sink: &Sink, send: &dyn Fn(u64)) -> OneWay {
    let (mut send_ns, mut oneway_us) = (Vec::new(), Vec::new());
    let base = sink.delivered.load(Ordering::Acquire);
    let start = Instant::now();
    while send_ns.len() < 16 || start.elapsed() < slice {
        spin_for(IDLE_GAP);
        let t0 = now_ns();
        send(t0);
        send_ns.push((now_ns() - t0) as f64);
        sink.wait_for(base + send_ns.len() as u64);
        oneway_us.push(sink.last_oneway_ns.load(Ordering::Relaxed) as f64 / 1e3);
    }
    sort(&mut send_ns);
    sort(&mut oneway_us);
    OneWay { send_ns, oneway_us }
}

fn netsim_and_reliable(slice: Duration, seed: u64, out: &mut Probes) {
    let cfg = NetConfig::default();
    let small = Bytes::from(vec![0x5a; SMALL]);
    let cluster = Cluster::start(RANKS, cfg);
    let sinks: Vec<Arc<Sink>> = (0..RANKS).map(|_| Arc::new(Sink::default())).collect();
    for (r, sink) in sinks.iter().enumerate() {
        cluster
            .transport(r)
            .register_handler(Channel::APP, sink.handler());
    }

    // A started, silent cluster: what the delivery engine costs when idle.
    let idle = (slice * 2).max(Duration::from_millis(100));
    let (cpu0, t0) = (process_cpu_s(), Instant::now());
    std::thread::sleep(idle);
    out.insert(
        "netsim.idle_cpu_pct",
        (process_cpu_s() - cpu0) / t0.elapsed().as_secs_f64() * 100.0,
    );

    let t = cluster.transport(0);
    let bare = one_way(slice, &sinks[1], &|tag| {
        t.send(1, Channel::APP, tag, small.clone())
    });
    let floor = floor_us(&cfg, SMALL);
    let oneway_p50 = percentile(&bare.oneway_us, 0.5);
    out.insert("netsim.send_call_ns", percentile(&bare.send_ns, 0.5));
    out.insert("netsim.oneway_us_p50", oneway_p50);
    out.insert("netsim.oneway_us_p99", percentile(&bare.oneway_us, 0.99));
    out.insert("netsim.floor_us", floor);
    out.insert("netsim.over_floor_us", oneway_p50 - floor);

    // Both directions at once, from one thread per rank.
    const ROUND: u64 = 2000;
    let mut rates = Vec::new();
    let start = Instant::now();
    while rates.is_empty() || start.elapsed() < slice {
        let targets: Vec<u64> = sinks
            .iter()
            .map(|s| s.delivered.load(Ordering::Acquire) + ROUND)
            .collect();
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for src in 0..RANKS {
                let (t, small) = (cluster.transport(src), small.clone());
                s.spawn(move || {
                    for _ in 0..ROUND {
                        t.send(1 - src, Channel::APP, u64::MAX, small.clone());
                    }
                });
            }
        });
        for (sink, target) in sinks.iter().zip(&targets) {
            sink.wait_for(*target);
        }
        rates.push((RANKS as u64 * ROUND) as f64 / t0.elapsed().as_secs_f64());
    }
    out.insert("netsim.flood_msgs_per_s", median(&rates));

    let bulk = Bytes::from(vec![0xa5; BULK]);
    const BULK_ROUND: u64 = 64;
    let mut rates = Vec::new();
    let start = Instant::now();
    while rates.is_empty() || start.elapsed() < slice {
        let target = sinks[1].delivered.load(Ordering::Acquire) + BULK_ROUND;
        let t0 = Instant::now();
        for _ in 0..BULK_ROUND {
            t.send(1, Channel::APP, u64::MAX, bulk.clone());
        }
        sinks[1].wait_for(target);
        rates.push((BULK_ROUND as usize * BULK) as f64 / 1e6 / t0.elapsed().as_secs_f64());
    }
    out.insert("netsim.bulk_mb_per_s", median(&rates));

    // The reliable layer as every figure harness sees it: unarmed.
    let sink = Arc::new(Sink::default());
    let ends: Vec<Arc<ReliableTransport>> = (0..RANKS)
        .map(|r| ReliableTransport::new(cluster.transport(r), "probe", RetryConfig::default()))
        .collect();
    ends[1].register_handler(Channel::APP, sink.handler());
    let pass = one_way(slice, &sink, &|tag| {
        ends[0].send(1, Channel::APP, tag, small.clone())
    });
    out.insert(
        "reliable.pass_cost_ns",
        percentile(&pass.send_ns, 0.5) - percentile(&bare.send_ns, 0.5),
    );
    drop(ends);
    cluster.stop();

    // And armed, by a plan that perturbs nothing.
    let cluster = Cluster::start_with_faults(RANKS, cfg, Some(FaultPlan::seeded(seed).arm()));
    let sink = Arc::new(Sink::default());
    let ends: Vec<Arc<ReliableTransport>> = (0..RANKS)
        .map(|r| ReliableTransport::new(cluster.transport(r), "probe", RetryConfig::default()))
        .collect();
    assert!(
        ends[0].enabled(),
        "an armed plan must arm the reliable layer"
    );
    ends[1].register_handler(Channel::APP, sink.handler());
    ends[0].register_handler(Channel::APP, Box::new(|_| {}));
    let armed = one_way(slice, &sink, &|tag| {
        ends[0].send(1, Channel::APP, tag, small.clone())
    });
    let armed_p50 = percentile(&armed.oneway_us, 0.5);
    out.insert("reliable.armed_oneway_us_p50", armed_p50);
    out.insert("reliable.armed_cost_us", armed_p50 - oneway_p50);
    drop(ends);
    cluster.stop();
}

/// When rank 1 issued the `put64` that releases rank 0's `async_when` task.
static PUT_ISSUED_NS: AtomicU64 = AtomicU64::new(0);

/// Module calls timed on rank 0 of a 2-rank SPMD program with all three
/// modules in one runtime. Both ranks derive the same repeat count from the
/// slice, so every collective matches.
fn modules(slice: Duration, out: &mut Probes) {
    let reps = ((slice.as_micros() / 150) as u64).clamp(8, 2000);
    let sworld = ShmemWorld::new(RANKS, 1 << 12);
    let uworld = UpcxxWorld::new(RANKS, 1 << 12);
    let per_rank = run_spmd(
        None,
        move |_rank, t| {
            let mpi = MpiModule::new(t.clone());
            let shmem = ShmemModule::new(sworld.clone(), t.clone());
            let upcxx = UpcxxModule::new(uworld.clone(), t);
            let modules: Vec<Arc<dyn SchedulerModule>> = vec![
                Arc::clone(&mpi) as _,
                Arc::clone(&shmem) as _,
                Arc::clone(&upcxx) as _,
            ];
            (modules, (mpi, shmem, upcxx))
        },
        move |env, (mpi, shmem, upcxx)| {
            let mut probes = Probes::new();
            let peer = 1 - env.rank;
            let timed_us = |f: &mut dyn FnMut()| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64() * 1e6
            };
            let mut record = |name, samples: Vec<f64>| {
                probes.insert(name, median(&samples));
            };

            mpi.barrier();
            record(
                "mpi.barrier_us",
                (0..reps).map(|_| timed_us(&mut || mpi.barrier())).collect(),
            );
            record(
                "mpi.allreduce_us",
                (0..reps)
                    .map(|i| {
                        timed_us(&mut || {
                            black_box(mpi.allreduce(&[i], ReduceOp::Sum));
                        })
                    })
                    .collect(),
            );
            record(
                "shmem.barrier_us",
                (0..reps)
                    .map(|_| timed_us(&mut || shmem.barrier_all()))
                    .collect(),
            );

            // One-sided calls: rank 1 sits in the closing barrier while
            // the delivery engine serves rank 0's requests.
            let word = shmem.malloc64(2);
            let flag = word.at64(1);
            shmem.heap().store_i64(flag, 0);
            shmem.barrier_all();
            if env.rank == 0 {
                record(
                    "shmem.get_us_p50",
                    (0..reps)
                        .map(|_| {
                            timed_us(&mut || {
                                black_box(shmem.get(peer, word.offset, 8));
                            })
                        })
                        .collect(),
                );
            }
            shmem.barrier_all();

            // Remote `put64` to the entry of the task predicated on it.
            let mut waits = Vec::new();
            for round in 1..=reps.min(200) as i64 {
                if env.rank == 0 {
                    let fired = Promise::new();
                    let entered = fired.future();
                    shmem.async_when(flag, Cmp::Eq, round, move || {
                        fired.put(now_ns());
                    });
                    shmem.barrier_all();
                    let at = entered.get();
                    waits
                        .push(at.saturating_sub(PUT_ISSUED_NS.load(Ordering::SeqCst)) as f64 / 1e3);
                } else {
                    shmem.barrier_all();
                    PUT_ISSUED_NS.store(now_ns(), Ordering::SeqCst);
                    shmem.put64(peer, flag, vec![round as u64]);
                }
                shmem.barrier_all();
            }
            if env.rank == 0 {
                record("shmem.async_when_us", waits);
            }

            // 8-byte `rput` / `rget` to the future being ready. Rank 1
            // waits help-first, as a UPC++ program's idle rank would.
            let mine = upcxx.alloc(8);
            mpi.barrier();
            if env.rank == 0 {
                let remote = GlobalPtr { rank: peer, ..mine };
                record(
                    "upcxx.rput_us_p50",
                    (0..reps)
                        .map(|i| timed_us(&mut || upcxx.rput(&i.to_le_bytes(), remote).wait()))
                        .collect(),
                );
                record(
                    "upcxx.rget_us_p50",
                    (0..reps)
                        .map(|_| {
                            timed_us(&mut || {
                                black_box(upcxx.rget(remote).get());
                            })
                        })
                        .collect(),
                );
                let _sent = mpi.isend(peer, 1, &[0u64]);
            } else {
                let _ = mpi.irecv::<u64>(Some(peer), Some(1)).get();
            }
            mpi.barrier();
            probes
        },
    );
    out.extend(per_rank.into_iter().next().expect("rank 0 result"));
}

/// `task_dag` laps with only the metrics session on, against plain laps.
fn metrics_overhead_pct(slice: Duration, seed: u64) -> f64 {
    let cfg = RunCfg {
        seed,
        warmup: 16,
        window: slice * 2,
        variant: Variant::Main,
    };
    let with_metrics = median(&task_dag::run(&cfg, Observe::Metrics).laps_ms);
    let plain = median(&task_dag::run(&cfg, Observe::Nothing).laps_ms);
    (with_metrics / plain - 1.0) * 100.0
}

/// Runs every probe; `seconds` is the run's `--seconds`.
pub fn run_all(seconds: f64, seed: u64) -> Probes {
    let slice = Duration::from_secs_f64(seconds / 20.0);
    let mut out = Probes::new();
    deque(slice, &mut out);
    runtime(slice, &mut out);
    netsim_and_reliable(slice, seed, &mut out);
    modules(slice, &mut out);
    out.insert("metrics.overhead_pct", metrics_overhead_pct(slice, seed));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_is_the_delay_the_simulator_models() {
        let cfg = NetConfig::default();
        let want = cfg.delay(0, 1, 64 + SMALL).as_secs_f64() * 1e6;
        assert_eq!(floor_us(&cfg, SMALL), want);
        assert!(
            (want - 40.02).abs() < 1e-9,
            "40 us + 80 B at 4 GB/s, got {want}"
        );
    }

    #[test]
    fn per_op_ns_is_a_median_over_batches() {
        let mut calls = 0u32;
        let ns = per_op_ns(Duration::from_millis(5), 10, || {
            calls += 1;
            spin_for(Duration::from_micros(20));
        });
        assert!(calls >= 10 && calls.is_multiple_of(10));
        assert!((20_000.0..200_000.0).contains(&ns), "{ns}");
    }
}
