//! Stress and failure-injection tests: heavy task storms, rank-skew
//! delays, repeated runtime lifecycles, task panics inside SPMD mains, and
//! backpressure through tiny mailboxes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hiper::mpi::MpiModule;
use hiper::netsim::{NetConfig, SpmdBuilder};
use hiper::prelude::*;
use hiper::shmem::{RawShmem, ShmemWorld};

#[test]
fn task_storm_with_nested_finish() {
    let rt = Runtime::new(hiper::platform::autogen::smp(3));
    let count = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&count);
    rt.block_on(move || {
        finish(|| {
            for _ in 0..50 {
                let c = Arc::clone(&c);
                async_(move || {
                    finish(|| {
                        for _ in 0..40 {
                            let c = Arc::clone(&c);
                            async_(move || {
                                c.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    })
                    .expect("no task panicked");
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        })
        .expect("no task panicked");
    });
    assert_eq!(count.load(Ordering::SeqCst), 50 * 41);
    rt.shutdown();
}

#[test]
fn repeated_runtime_lifecycle() {
    for i in 0..10 {
        let rt = Runtime::new(hiper::platform::autogen::smp(1 + i % 3));
        let v = rt.block_on(move || i * 2);
        assert_eq!(v, i * 2);
        rt.shutdown();
    }
}

#[test]
fn skewed_ranks_still_synchronize() {
    // Inject rank-dependent delays before every collective: slow ranks must
    // not break barrier/reduction semantics.
    let results = SpmdBuilder::new(4)
        .net(NetConfig::default())
        .workers_per_rank(1)
        .run(
            |_r, t| {
                let mpi = MpiModule::new(t);
                (vec![Arc::clone(&mpi) as Arc<dyn SchedulerModule>], mpi)
            },
            |env, mpi| {
                let mut total = 0u64;
                for round in 0..5 {
                    std::thread::sleep(std::time::Duration::from_millis(
                        (env.rank as u64 * 7 + round) % 13,
                    ));
                    let s = mpi.allreduce(&[env.rank as u64 + round], hiper::mpi::ReduceOp::Sum);
                    total += s[0];
                    mpi.barrier();
                }
                total
            },
        );
    // Σ_{round} Σ_{rank} (rank + round) = Σ_round (6 + 4*round) = 30 + 40.
    assert!(results.iter().all(|&t| t == 70), "{:?}", results);
}

#[test]
fn panicking_tasks_do_not_poison_the_cluster() {
    let results = SpmdBuilder::new(2)
        .net(NetConfig::default())
        .workers_per_rank(2)
        .run(
            |_r, t| {
                let mpi = MpiModule::new(t);
                (vec![Arc::clone(&mpi) as Arc<dyn SchedulerModule>], mpi)
            },
            |env, mpi| {
                // A task panics on each rank; workers survive and the
                // enclosing finish surfaces the failure as an error.
                let failed = finish(|| {
                    async_(|| panic!("injected fault"));
                });
                assert!(failed.is_err(), "finish must surface the task panic");
                assert!(
                    failed.unwrap_err().to_string().contains("injected fault"),
                    "error must carry the panic message"
                );
                // Cluster still functions afterwards.
                if env.rank == 0 {
                    mpi.send(1, 9, &[123u64]);
                    0
                } else {
                    mpi.recv::<u64>(Some(0), Some(9)).0[0]
                }
            },
        );
    assert_eq!(results[1], 123);
}

#[test]
fn message_burst_ordering_under_load() {
    message_burst_round();
}

/// The start race (a sender's main running before the receiver's set-up
/// had registered its handler) failed about one loaded run in 25; 200
/// rounds with other test binaries running alongside would catch it.
#[test]
#[ignore = "stress: run in release, next to other test binaries"]
fn message_burst_ordering_200_rounds() {
    for _ in 0..200 {
        message_burst_round();
    }
}

fn message_burst_round() {
    // 2000 messages from 3 senders to one receiver; per-source FIFO must
    // hold under heavy delivery load.
    let n = 4;
    let per = 500u64;
    let results = SpmdBuilder::new(n)
        .net(NetConfig {
            latency: std::time::Duration::from_micros(5),
            bandwidth: 1e9,
            self_latency: std::time::Duration::from_micros(1),
            ..NetConfig::default()
        })
        .workers_per_rank(1)
        .run(
            |_r, t| {
                let mpi = MpiModule::new(t);
                (vec![Arc::clone(&mpi) as Arc<dyn SchedulerModule>], mpi)
            },
            move |env, mpi| {
                let raw = mpi.raw();
                if env.rank == 0 {
                    let mut per_src_next = vec![0u64; n];
                    for _ in 0..per as usize * (n - 1) {
                        let st = raw.recv(None, Some(5));
                        let v = u64::from_le_bytes(st.data[..8].try_into().unwrap());
                        assert_eq!(v, per_src_next[st.src], "FIFO violated from {}", st.src);
                        per_src_next[st.src] += 1;
                    }
                    per_src_next.iter().skip(1).all(|&c| c == per)
                } else {
                    for i in 0..per {
                        raw.send_slice(0, 5, &[i]);
                    }
                    true
                }
            },
        );
    assert!(results.into_iter().all(|ok| ok));
}

#[test]
fn shmem_contended_atomics_across_many_ranks() {
    let n = 6;
    let world = ShmemWorld::new(n, 1 << 16);
    let results = SpmdBuilder::new(n)
        .net(NetConfig::default())
        .workers_per_rank(1)
        .run(
            move |_r, t| (Vec::new(), RawShmem::new(world.clone(), t)),
            |_env, raw| {
                let cell = raw.malloc64(1);
                raw.barrier_all();
                for _ in 0..200 {
                    raw.fadd(0, cell.offset, 1);
                }
                raw.barrier_all();
                raw.heap().load_u64(cell.offset)
            },
        );
    assert_eq!(results[0], (200 * n) as u64);
}

#[test]
fn forasync_heavy_irregular_load() {
    let rt = Runtime::new(hiper::platform::autogen::smp(3));
    let acc = Arc::new(AtomicU64::new(0));
    let a = Arc::clone(&acc);
    rt.block_on(move || {
        // Strongly skewed per-iteration cost exercises the recursive
        // splitter's stealability.
        forasync_1d(4000, 8, move |i| {
            let work = if i % 97 == 0 { 20_000 } else { 50 };
            let mut x = i as u64;
            for _ in 0..work {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            a.fetch_add(x & 1, Ordering::Relaxed);
        });
    });
    assert!(acc.load(Ordering::SeqCst) <= 4000);
    rt.shutdown();
}
