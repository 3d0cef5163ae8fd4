//! Cross-crate integration: the point of HiPER is *composition*, so this
//! test runs a single SPMD application that composes four modules — CUDA,
//! MPI, OpenSHMEM and checkpoint — on one unified runtime per rank, with
//! dependencies flowing across module boundaries through futures.
//!
//! Pipeline per rank (the §II-D pattern generalized):
//!   GPU kernel -> D2H future -> MPI ring exchange (futures) ->
//!   SHMEM flag put -> shmem_async_when task -> checkpoint future -> verify.

use std::sync::Arc;

use hiper::gpu::GpuModule;
use hiper::mpi::MpiModule;
use hiper::netsim::{NetConfig, SpmdBuilder};
use hiper::prelude::*;
use hiper::shmem::{Cmp, ShmemModule, ShmemWorld};

#[test]
fn four_modules_compose_on_one_runtime() {
    let ranks = 3;
    let world = ShmemWorld::new(ranks, 1 << 16);
    let ckpt_dir = std::env::temp_dir().join("hiper_integration_ckpt");
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    let results = SpmdBuilder::new(ranks)
        .net(NetConfig::default())
        .platform(|_| {
            // GPUs + interconnect + nvm/disk: the figure-2 model has all
            // places every module asserts on.
            hiper::platform::autogen::figure2(1)
        })
        .run(
            move |rank, transport| {
                let mpi = MpiModule::new(transport.clone());
                let gpu = GpuModule::new();
                let shmem = ShmemModule::new(world.clone(), transport);
                let ckpt = hiper::checkpoint::CheckpointModule::new(
                    ckpt_dir.join(format!("rank{}", rank)),
                );
                (
                    vec![
                        Arc::clone(&mpi) as Arc<dyn SchedulerModule>,
                        Arc::clone(&gpu) as Arc<dyn SchedulerModule>,
                        Arc::clone(&shmem) as Arc<dyn SchedulerModule>,
                        Arc::clone(&ckpt) as Arc<dyn SchedulerModule>,
                    ],
                    (mpi, gpu, shmem, ckpt),
                )
            },
            |env, (mpi, gpu, shmem, ckpt)| {
                let me = env.rank as u64;
                let n = env.nranks;

                // Stage 1: GPU kernel computes this rank's contribution.
                let stream = gpu.create_stream(0);
                let dbuf = gpu.alloc(0, 8);
                let d2 = Arc::clone(&dbuf);
                let kernel_done = gpu.launch_future(&stream, move || {
                    d2.with_mut(|bytes| {
                        bytes.copy_from_slice(&(me * me + 1).to_le_bytes());
                    });
                });

                // Stage 2: D2H predicated on the kernel, then MPI ring
                // exchange predicated on the D2H — all futures.
                let fetched = {
                    let gpu = Arc::clone(&gpu);
                    let stream = stream.clone();
                    let dbuf = Arc::clone(&dbuf);
                    kernel_done
                        .and_then(move |_| gpu.memcpy_d2h_future(&stream, &dbuf, 0, 8))
                        .map(|bytes| u64::from_le_bytes(bytes[..8].try_into().unwrap()))
                };

                // Ring: send my value right, receive from left.
                let right = (env.rank + 1) % n;
                let left = (env.rank + n - 1) % n;
                let f2 = fetched.clone();
                mpi.isend_await(right, 1, move || vec![f2.get()], &fetched);
                let recv = mpi.irecv::<u64>(Some(left), Some(1));

                // Stage 3: on receipt, set the SHMEM flag on rank 0 (one
                // atomic per rank) and let rank 0's async_when fire once
                // every rank has checked in.
                let flag = shmem.malloc64(1);
                let sum_cell = shmem.malloc64(1);
                shmem.barrier_all();
                let raw = Arc::clone(shmem.raw());
                let recv2 = recv.clone();
                let got = hiper::runtime::api::async_future_await(&recv, move || {
                    let (data, src, _) = recv2.get();
                    assert_eq!(src, left);
                    // Accumulate the received value at rank 0 and bump the
                    // check-in counter.
                    raw.fadd(0, sum_cell.offset, data[0]);
                    raw.fadd(0, flag.offset, 1);
                    data[0]
                });

                let mut final_sum = 0u64;
                if env.rank == 0 {
                    // Predicated on all ranks' check-ins.
                    let heap = Arc::clone(shmem.heap());
                    let off = sum_cell.offset;
                    let total = Arc::new(std::sync::atomic::AtomicU64::new(0));
                    let t2 = Arc::clone(&total);
                    finish(|| {
                        shmem.async_when(flag.offset, Cmp::Eq, n as i64, move || {
                            t2.store(heap.load_u64(off), std::sync::atomic::Ordering::SeqCst);
                        });
                    })
                    .expect("no task panicked");
                    final_sum = total.load(std::sync::atomic::Ordering::SeqCst);
                }
                let received = got.get();
                shmem.barrier_all();

                // Stage 4: checkpoint the received value, restore, verify.
                ckpt.checkpoint("ring", 1, received.to_le_bytes().to_vec())
                    .wait();
                let restored = ckpt.restore("ring", 1).get().unwrap();
                assert_eq!(
                    u64::from_le_bytes(restored[..8].try_into().unwrap()),
                    received
                );

                (received, final_sum)
            },
        );

    // Ring correctness: rank r received left neighbor's value l*l + 1.
    for (r, (received, _)) in results.iter().enumerate() {
        let left = (r + ranks - 1) % ranks;
        assert_eq!(*received, (left * left + 1) as u64);
    }
    // Rank 0's async_when observed the global sum of all contributions.
    let expected_sum: u64 = (0..ranks as u64).map(|r| r * r + 1).sum();
    assert_eq!(results[0].1, expected_sum);
}

#[test]
fn modules_see_consistent_stats_across_composition() {
    let results = SpmdBuilder::new(2)
        .net(NetConfig::default())
        .workers_per_rank(2)
        .run(
            |_rank, transport| {
                let mpi = MpiModule::new(transport);
                (vec![Arc::clone(&mpi) as Arc<dyn SchedulerModule>], mpi)
            },
            |env, mpi| {
                for i in 0..10 {
                    if env.rank == 0 {
                        mpi.send(1, i, &[i]);
                    } else {
                        let _ = mpi.recv::<u64>(Some(0), Some(i));
                    }
                }
                mpi.barrier();
                let sched = env.runtime.sched_stats();
                let modules = env.runtime.module_stats().snapshot();
                let mpi_calls = modules
                    .iter()
                    .find(|(n, _, _)| n == "mpi")
                    .map(|(_, c, _)| *c)
                    .unwrap_or(0);
                (sched.tasks_executed, mpi_calls)
            },
        );
    for (tasks, mpi_calls) in results {
        assert!(tasks >= 11, "taskified calls must run as tasks: {}", tasks);
        assert!(
            mpi_calls >= 11,
            "mpi stats must record calls: {}",
            mpi_calls
        );
    }
}
