//! SPMD tests for the raw library and the HiPER MPI module.

use std::sync::Arc;

use hiper_mpi::{MpiModule, RawComm, ReduceOp};
use hiper_netsim::{NetConfig, SpmdBuilder};
use hiper_runtime::SchedulerModule;

/// Runs `main` on `n` simulated ranks with an MpiModule installed.
fn with_mpi<R: Send + 'static>(
    n: usize,
    workers: usize,
    main: impl Fn(hiper_netsim::RankEnv, Arc<MpiModule>) -> R + Send + Sync + 'static,
) -> Vec<R> {
    SpmdBuilder::new(n)
        .net(NetConfig::default())
        .workers_per_rank(workers)
        .run(
            |_rank, transport| {
                let mpi = MpiModule::new(transport);
                (vec![Arc::clone(&mpi) as Arc<dyn SchedulerModule>], mpi)
            },
            main,
        )
}

#[test]
fn raw_send_recv_pair() {
    let results = with_mpi(2, 1, |env, mpi| {
        let raw = mpi.raw();
        if env.rank == 0 {
            raw.send_slice(1, 5, &[1.0f64, 2.0, 3.0]);
            0.0
        } else {
            let (data, src, tag) = raw.recv_vec::<f64>(Some(0), Some(5));
            assert_eq!(src, 0);
            assert_eq!(tag, 5);
            data.iter().sum()
        }
    });
    assert_eq!(results[1], 6.0);
}

#[test]
fn raw_wildcard_matching() {
    let results = with_mpi(3, 1, |env, mpi| {
        let raw = mpi.raw();
        if env.rank == 0 {
            // Receive two messages from anyone with any tag.
            let a = raw.recv(None, None);
            let b = raw.recv(None, None);
            let mut srcs = vec![a.src, b.src];
            srcs.sort();
            assert_eq!(srcs, vec![1, 2]);
            (a.data.len() + b.data.len()) as u64
        } else {
            raw.send(
                0,
                100 + env.rank as u64,
                bytes::Bytes::from(vec![0u8; env.rank]),
            );
            0
        }
    });
    assert_eq!(results[0], 3);
}

#[test]
fn raw_message_order_preserved_per_source() {
    let results = with_mpi(2, 1, |env, mpi| {
        let raw = mpi.raw();
        if env.rank == 0 {
            for i in 0..20u64 {
                raw.send_slice(1, 9, &[i]);
            }
            Vec::new()
        } else {
            (0..20)
                .map(|_| raw.recv_vec::<u64>(Some(0), Some(9)).0[0])
                .collect()
        }
    });
    assert_eq!(results[1], (0..20).collect::<Vec<u64>>());
}

#[test]
fn raw_unexpected_messages_buffered() {
    let results = with_mpi(2, 1, |env, mpi| {
        let raw = mpi.raw();
        if env.rank == 0 {
            raw.send_slice(1, 1, &[10u64]);
            raw.send_slice(1, 2, &[20u64]);
            0
        } else {
            // Sleep so both messages land unexpected, then receive in
            // reverse tag order.
            std::thread::sleep(std::time::Duration::from_millis(30));
            let b = raw.recv_vec::<u64>(Some(0), Some(2)).0[0];
            let a = raw.recv_vec::<u64>(Some(0), Some(1)).0[0];
            a + b * 100
        }
    });
    assert_eq!(results[1], 2010);
}

#[test]
fn barrier_synchronizes() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let arrived = Arc::new(AtomicUsize::new(0));
    let a2 = Arc::clone(&arrived);
    let results = with_mpi(4, 1, move |env, mpi| {
        let raw = mpi.raw();
        // Stagger arrival.
        std::thread::sleep(std::time::Duration::from_millis(env.rank as u64 * 10));
        a2.fetch_add(1, Ordering::SeqCst);
        raw.barrier();
        // After the barrier, everyone must have arrived.
        a2.load(Ordering::SeqCst)
    });
    assert!(results.iter().all(|&r| r == 4), "{:?}", results);
}

#[test]
fn collectives_match_serial_oracle() {
    let n = 5; // deliberately non-power-of-two
    let results = with_mpi(n, 1, move |env, mpi| {
        let raw = mpi.raw();
        let me = env.rank as u64;

        // allreduce sum of [me, me*2]
        let sum = raw.allreduce(&[me, me * 2], ReduceOp::Sum);
        let expect: u64 = (0..n as u64).sum();
        assert_eq!(sum, vec![expect, expect * 2]);

        // allreduce min/max
        let mn = raw.allreduce(&[me as i64 - 2], ReduceOp::Min);
        assert_eq!(mn, vec![-2]);
        let mx = raw.allreduce(&[me as f64], ReduceOp::Max);
        assert_eq!(mx, vec![(n - 1) as f64]);

        // bcast from rank 2
        let got = raw.bcast_vec(2, &[me * 7]);
        assert_eq!(got, vec![14]);

        // gather to 0
        let gathered = raw.gather(bytes::Bytes::from(vec![env.rank as u8; env.rank + 1]));
        if env.rank == 0 {
            let parts = gathered.unwrap();
            for (r, part) in parts.iter().enumerate() {
                assert_eq!(part.len(), r + 1);
                assert!(part.iter().all(|&b| b == r as u8));
            }
        }

        // allgather
        let all = raw.allgather_vec(&[me, me + 100]);
        for (r, part) in all.iter().enumerate() {
            assert_eq!(part, &vec![r as u64, r as u64 + 100]);
        }

        // exscan (exclusive prefix sum)
        let pre = raw.exscan(&[me], &[0u64], ReduceOp::Sum);
        assert_eq!(pre, vec![(0..me).sum::<u64>()]);

        true
    });
    assert!(results.into_iter().all(|ok| ok));
}

#[test]
fn alltoall_delivers_pairwise() {
    let n = 4;
    let results = with_mpi(n, 1, move |env, mpi| {
        let raw = mpi.raw();
        // parts[d] = [me*10 + d]
        let parts: Vec<Vec<u64>> = (0..n).map(|d| vec![(env.rank * 10 + d) as u64]).collect();
        let got = raw.alltoall_vec(parts);
        // got[s] must be [s*10 + me]
        (0..n).all(|s| got[s] == vec![(s * 10 + env.rank) as u64])
    });
    assert!(results.into_iter().all(|ok| ok));
}

#[test]
fn alltoallv_variable_sizes() {
    let n = 3;
    let results = with_mpi(n, 1, move |env, mpi| {
        let raw = mpi.raw();
        // Send (me + d + 1) copies of marker me to rank d.
        let parts: Vec<Vec<u8>> = (0..n)
            .map(|d| vec![env.rank as u8; env.rank + d + 1])
            .collect();
        let got = raw.alltoallv_vec::<u8>(parts);
        (0..n).all(|s| got[s].len() == s + env.rank + 1 && got[s].iter().all(|&b| b == s as u8))
    });
    assert!(results.into_iter().all(|ok| ok));
}

#[test]
fn module_send_recv_taskified() {
    let results = with_mpi(2, 2, |env, mpi| {
        if env.rank == 0 {
            mpi.send(1, 3, &[9.5f64, 0.5]);
            0.0
        } else {
            let (data, src, _) = mpi.recv::<f64>(Some(0), Some(3));
            assert_eq!(src, 0);
            data.iter().sum()
        }
    });
    assert_eq!(results[1], 10.0);
}

#[test]
fn module_isend_irecv_futures() {
    let results = with_mpi(2, 2, |env, mpi| {
        if env.rank == 0 {
            let f = mpi.isend(1, 7, &[42u64]);
            f.wait();
            0
        } else {
            let fut = mpi.irecv::<u64>(Some(0), Some(7));
            // Compose: a dependent task fires on message arrival (paper's
            // `async_await(body, fut)` pattern).
            let done = hiper_runtime::api::async_future_await(&fut, || 1u64);
            let (data, _, _) = fut.get();
            data[0] + done.get()
        }
    });
    assert_eq!(results[1], 43);
}

#[test]
fn module_overlaps_communication_with_computation() {
    // The heart of the paper: an irecv future lets the runtime do useful
    // work during the (real-time) network latency.
    let results = with_mpi(2, 1, |env, mpi| {
        if env.rank == 0 {
            std::thread::sleep(std::time::Duration::from_millis(20));
            mpi.send(1, 1, &[1u8]);
            0u64
        } else {
            let fut = mpi.irecv_bytes(Some(0), Some(1));
            // While the message is in flight, run 1000 small tasks.
            let mut count = 0u64;
            hiper_runtime::api::finish(|| {
                for _ in 0..1000 {
                    hiper_runtime::api::async_(|| {
                        std::hint::black_box(0u64);
                    });
                }
            })
            .expect("no task panicked");
            count += 1000;
            fut.wait();
            count
        }
    });
    assert_eq!(results[1], 1000);
}

#[test]
fn module_barrier_and_allreduce() {
    let results = with_mpi(3, 2, |env, mpi| {
        mpi.barrier();
        let s = mpi.allreduce(&[env.rank as u64 + 1], ReduceOp::Sum);
        mpi.barrier();
        s[0]
    });
    assert_eq!(results, vec![6, 6, 6]);
}

#[test]
fn module_stats_record_mpi_time() {
    let results = with_mpi(2, 1, |env, mpi| {
        if env.rank == 0 {
            mpi.send(1, 2, &[0u8]);
        } else {
            let _ = mpi.recv::<u8>(Some(0), Some(2));
        }
        let snap = env.runtime.module_stats().snapshot();
        snap.iter()
            .any(|(name, calls, _)| name == "mpi" && *calls > 0)
    });
    assert!(results.into_iter().all(|ok| ok));
}

#[test]
fn every_entry_point_records_exactly_one_mpi_call() {
    let results = with_mpi(2, 2, |env, mpi| {
        let calls = || {
            let snap = env.runtime.module_stats().snapshot();
            snap.iter()
                .find(|(name, _, _)| name == "mpi")
                .map_or(0, |(_, calls, _)| *calls)
        };
        let mut deltas: Vec<(&str, u64)> = Vec::new();
        let mut once = |op: &'static str, f: &mut dyn FnMut()| {
            let before = calls();
            f();
            deltas.push((op, calls() - before));
        };
        let (me, peer) = (env.rank, 1 - env.rank);
        once("barrier", &mut || mpi.barrier());
        once("allreduce", &mut || {
            mpi.allreduce(&[1u64], ReduceOp::Sum);
        });
        once("bcast", &mut || {
            mpi.bcast(0, &[7u32]);
        });
        once("alltoallv", &mut || {
            mpi.alltoallv(vec![vec![1u8], vec![2u8]]);
        });
        let mut waits = Vec::new();
        if me == 0 {
            once("send", &mut || mpi.send(peer, 1, &[1u8]));
            once("isend", &mut || waits.push(mpi.isend(peer, 2, &[2u8])));
            let payload = bytes::Bytes::from_static(&[3]);
            once("isend_bytes", &mut || {
                waits.push(mpi.isend_bytes(peer, 3, payload.clone()))
            });
            let dep = hiper_runtime::Promise::new();
            let ready = dep.future();
            once("isend_await", &mut || {
                waits.push(mpi.isend_await(peer, 4, || vec![4u8], &ready))
            });
            dep.put(());
        } else {
            once("recv", &mut || {
                mpi.recv::<u8>(Some(peer), Some(1));
            });
            let mut typed = None;
            once("irecv", &mut || {
                typed = Some(mpi.irecv::<u8>(Some(peer), Some(2)))
            });
            let mut raw = Vec::new();
            for tag in [3, 4] {
                once("irecv_bytes", &mut || {
                    raw.push(mpi.irecv_bytes(Some(peer), Some(tag)))
                });
            }
            assert_eq!(typed.expect("posted").get().0, vec![2u8]);
            let got: Vec<Vec<u8>> = raw.iter().map(|f| f.get().data.to_vec()).collect();
            assert_eq!(got, vec![vec![3u8], vec![4u8]]);
        }
        for w in waits {
            w.wait();
        }
        deltas
    });
    for (rank, deltas) in results.iter().enumerate() {
        for (op, delta) in deltas {
            assert_eq!(
                *delta, 1,
                "rank {} `{}` recorded {} mpi calls",
                rank, op, delta
            );
        }
    }
}

#[test]
fn many_ranks_ring() {
    // Each rank sends to (rank+1) % n and receives from (rank-1) % n.
    let n = 8;
    let results = with_mpi(n, 1, move |env, mpi| {
        let raw = mpi.raw();
        let next = (env.rank + 1) % n;
        let prev = (env.rank + n - 1) % n;
        raw.send_slice(next, 11, &[env.rank as u64]);
        let (data, src, _) = raw.recv_vec::<u64>(Some(prev), Some(11));
        assert_eq!(src, prev);
        data[0]
    });
    for (r, got) in results.iter().enumerate() {
        assert_eq!(*got, ((r + n - 1) % n) as u64);
    }
}

/// Standalone RawComm use (no HiPER runtime at all): models the paper's
/// "flat MPI" baselines.
#[test]
fn rawcomm_without_runtime() {
    let cluster = hiper_netsim::Cluster::start(2, NetConfig::default());
    let t0 = cluster.transport(0);
    let t1 = cluster.transport(1);
    let c0 = RawComm::new(t0);
    let c1 = RawComm::new(t1);
    let h = std::thread::spawn(move || {
        let (v, _, _) = c1.recv_vec::<u32>(Some(0), Some(1));
        v[0]
    });
    c0.send_slice(1, 1, &[77u32]);
    assert_eq!(h.join().unwrap(), 77);
    cluster.stop();
}
