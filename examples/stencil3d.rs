//! The paper's §II-D running example: a 3-D stencil distributed in the
//! z-direction across MPI ranks, composing **MPI + CUDA + host tasks** with
//! HiPER futures.
//!
//! Each rank owns a slab of a 3-D grid. Per time step (all inside one
//! `finish`, exactly as the paper's listing):
//!
//! 1. the *ghost planes* are processed on the host with `forasync_future`,
//! 2. `MPI_Isend_await` transmits them once that future is satisfied, while
//!    `MPI_Irecv` futures await the neighbors' planes,
//! 3. the slab *interior* is processed by a CUDA kernel whose launch is
//!    **not** blocked on any of the above,
//! 4. the received planes are copied to the device by tasks predicated on
//!    the receive futures and the interior kernel (`async_await`).
//!
//! Every dependency is expressed between components (MPI ↔ CUDA ↔ host)
//! through futures; no blocking call stalls a CPU thread.
//!
//! Run with: `cargo run --release --example stencil3d`

use std::sync::Arc;

use hiper::gpu::GpuModule;
use hiper::mpi::MpiModule;
use hiper::netsim::{NetConfig, SpmdBuilder};
use hiper::prelude::*;

const NX: usize = 16;
const NY: usize = 16;
const NZ: usize = 24; // interior planes per rank
const STEPS: usize = 5;
const PLANE: usize = NX * NY;

const TAG_UP: u64 = 1;
const TAG_DOWN: u64 = 2;

fn main() {
    let ranks = 3;
    let results = SpmdBuilder::new(ranks)
        .net(NetConfig::default())
        .platform(|_| hiper::platform::autogen::smp_with_gpus(2, 1))
        .run(
            |_rank, transport| {
                let mpi = MpiModule::new(transport);
                let gpu = GpuModule::new();
                (
                    vec![
                        Arc::clone(&mpi) as Arc<dyn SchedulerModule>,
                        Arc::clone(&gpu) as Arc<dyn SchedulerModule>,
                    ],
                    (mpi, gpu),
                )
            },
            |env, (mpi, gpu)| {
                let me = env.rank;
                let up = if me + 1 < env.nranks {
                    Some(me + 1)
                } else {
                    None
                };
                let down = if me > 0 { Some(me - 1) } else { None };

                // Device slab: NZ interior planes + 2 halo planes.
                let stream = gpu.create_stream(0);
                let slab = gpu.alloc(0, (NZ + 2) * PLANE * 8);
                // Initialize: a hot plane in the middle of the global bar.
                slab.with_f64_mut(|v| {
                    for (i, x) in v.iter_mut().enumerate() {
                        let z_local = i / PLANE;
                        *x = if me == env.nranks / 2 && z_local == NZ / 2 {
                            100.0
                        } else {
                            0.0
                        };
                    }
                });

                let mut norms = Vec::new();
                for _t in 0..STEPS {
                    // Fetch the boundary interior planes the host needs for
                    // ghost processing (D2H futures).
                    let top_fut = gpu.memcpy_d2h_future(&stream, &slab, NZ * PLANE * 8, PLANE * 8);
                    let bot_fut = gpu.memcpy_d2h_future(&stream, &slab, PLANE * 8, PLANE * 8);

                    finish(|| {
                        // (1) Ghost processing on the host, asynchronously:
                        // here a simple smoothing of the outgoing planes.
                        let top2 = top_fut.clone();
                        let ghost_fut = async_future(move || {
                            let mut plane: Vec<f64> = hiper::netsim::pod::from_bytes(&top2.get());
                            smooth_plane(&mut plane);
                            plane
                        });
                        let bot2 = bot_fut.clone();
                        let ghost_fut_b = async_future(move || {
                            let mut plane: Vec<f64> = hiper::netsim::pod::from_bytes(&bot2.get());
                            smooth_plane(&mut plane);
                            plane
                        });

                        // (2) Transmit ghost planes once ready; post recvs.
                        if let Some(up) = up {
                            let g = ghost_fut.clone();
                            mpi.isend_await(up, TAG_UP, move || g.get(), &ghost_fut);
                        }
                        if let Some(down) = down {
                            let g = ghost_fut_b.clone();
                            mpi.isend_await(down, TAG_DOWN, move || g.get(), &ghost_fut_b);
                        }
                        let recv_up = up.map(|u| mpi.irecv::<f64>(Some(u), Some(TAG_DOWN)));
                        let recv_down = down.map(|d| mpi.irecv::<f64>(Some(d), Some(TAG_UP)));

                        // (3) Interior on the CUDA device, independent of
                        // the communication above.
                        let s2 = Arc::clone(&slab);
                        let interior = gpu.launch_future(&stream, move || {
                            s2.with_f64_mut(jacobi_interior);
                        });

                        // (4) Received planes to the device, predicated on
                        // (recv, interior-kernel) futures.
                        for (recv, halo_plane) in [
                            (recv_up, NZ + 1), // from up goes into top halo
                            (recv_down, 0),    // from down goes into bottom halo
                        ] {
                            if let Some(recv) = recv {
                                let deps = [recv.map(|_| ()), interior.clone()];
                                let all = hiper::runtime::when_all(&deps);
                                let gpu = Arc::clone(&gpu);
                                let slab = Arc::clone(&slab);
                                let stream = stream.clone();
                                let recv2 = recv.clone();
                                async_await(&all, move || {
                                    let (plane, _, _) = recv2.get();
                                    gpu.memcpy_h2d_future(
                                        &stream,
                                        &slab,
                                        halo_plane * PLANE * 8,
                                        bytes_of(&plane).to_vec(),
                                    )
                                    .wait();
                                });
                            }
                        }
                    })
                    .expect("no task panicked");

                    gpu.device_synchronize(0);
                    let norm = slab.with_f64(|v| v.iter().map(|x| x * x).sum::<f64>());
                    norms.push(norm);
                }

                // Global norm via MPI allreduce: the diffused bar must keep
                // finite, decreasing energy.
                let global: Vec<f64> =
                    mpi.allreduce(&[*norms.last().unwrap()], hiper::mpi::ReduceOp::Sum);
                if me == 0 {
                    println!("final global squared norm: {:.4}", global[0]);
                }
                norms
            },
        );

    println!("per-rank norm trajectories:");
    for (rank, norms) in results.iter().enumerate() {
        let pretty: Vec<String> = norms.iter().map(|n| format!("{:.2}", n)).collect();
        println!("  rank {}: {}", rank, pretty.join(" -> "));
        assert!(norms.iter().all(|n| n.is_finite()), "diverged");
    }
    // Energy decreases monotonically on the hot rank (pure diffusion).
    let hot = &results[1];
    assert!(
        hot.windows(2).all(|w| w[1] <= w[0] + 1e-9),
        "norm must decay"
    );
    println!("stencil3d OK");
}

fn bytes_of(plane: &[f64]) -> Vec<u8> {
    plane.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn smooth_plane(plane: &mut [f64]) {
    for v in plane.iter_mut() {
        *v *= 0.99;
    }
}

/// One Jacobi relaxation sweep over the interior planes (halos read-only).
fn jacobi_interior(v: &mut [f64]) {
    let old = v.to_vec();
    let idx = |x: usize, y: usize, z: usize| z * PLANE + y * NX + x;
    for z in 1..=NZ {
        for y in 1..NY - 1 {
            for x in 1..NX - 1 {
                v[idx(x, y, z)] = old[idx(x, y, z)]
                    + 0.1
                        * (old[idx(x - 1, y, z)]
                            + old[idx(x + 1, y, z)]
                            + old[idx(x, y - 1, z)]
                            + old[idx(x, y + 1, z)]
                            + old[idx(x, y, z - 1)]
                            + old[idx(x, y, z + 1)]
                            - 6.0 * old[idx(x, y, z)]);
            }
        }
    }
}
