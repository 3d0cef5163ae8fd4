//! MPI module basics: taskified blocking calls, future-returning
//! nonblocking calls, and a latency/bandwidth probe of the simulated
//! interconnect.
//!
//! Run with: `cargo run --release --example pingpong_mpi`
//!
//! Pass `--trace out.json` (or set `HIPER_TRACE=out.json`) to record a
//! Chrome-trace timeline of the run — open it at <https://ui.perfetto.dev>.

use std::sync::Arc;
use std::time::Instant;

use hiper::mpi::MpiModule;
use hiper::netsim::{NetConfig, SpmdBuilder};
use hiper::prelude::*;

fn main() {
    let _trace = hiper::trace::session_from_env_args();
    let results = SpmdBuilder::new(2)
        .net(NetConfig::default())
        .workers_per_rank(2)
        .run(
            |_rank, transport| {
                let mpi = MpiModule::new(transport);
                (vec![Arc::clone(&mpi) as Arc<dyn SchedulerModule>], mpi)
            },
            |env, mpi| {
                const ROUNDS: usize = 50;
                mpi.barrier();
                // --- latency: empty-message ping-pong ---
                let start = Instant::now();
                for _ in 0..ROUNDS {
                    if env.rank == 0 {
                        mpi.send::<u8>(1, 1, &[]);
                        let _ = mpi.recv::<u8>(Some(1), Some(2));
                    } else {
                        let _ = mpi.recv::<u8>(Some(0), Some(1));
                        mpi.send::<u8>(0, 2, &[]);
                    }
                }
                let rtt = start.elapsed() / ROUNDS as u32;

                // --- bandwidth: 1 MB one-way transfers ---
                let payload = vec![0u8; 1 << 20];
                mpi.barrier();
                let start = Instant::now();
                for _ in 0..8 {
                    if env.rank == 0 {
                        mpi.send(1, 3, &payload);
                        let _ = mpi.recv::<u8>(Some(1), Some(4)); // ack
                    } else {
                        let _ = mpi.recv::<u8>(Some(0), Some(3));
                        mpi.send::<u8>(0, 4, &[]);
                    }
                }
                let bw = 8.0 * (1 << 20) as f64 / start.elapsed().as_secs_f64();

                // --- overlap: irecv future + useful work during flight ---
                mpi.barrier();
                let overlap_work = if env.rank == 1 {
                    let fut = mpi.irecv_bytes(Some(0), Some(5));
                    let mut count = 0u64;
                    while !fut.is_ready() {
                        // "useful work" while the message is in flight
                        count += 1;
                        std::hint::black_box(count);
                    }
                    count
                } else {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    mpi.send(1, 5, &[1u8]);
                    0
                };
                mpi.barrier();
                (rtt, bw, overlap_work, env.runtime.sched_stats())
            },
        );

    let (rtt, bw, ..) = results[0];
    println!("round-trip latency : {:?}", rtt);
    println!("one-way bandwidth  : {:.2} MB/s", bw / 1e6);
    println!(
        "iterations of useful work overlapped with one in-flight recv: {}",
        results[1].2
    );
    assert!(results[1].2 > 0, "no overlap achieved");
    for (rank, r) in results.iter().enumerate() {
        println!("scheduler (rank {rank}): {}", r.3);
    }
}
