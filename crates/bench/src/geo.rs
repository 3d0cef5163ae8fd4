//! GEO — the 3-D geophysical subsurface-imaging stencil (paper Fig. 6,
//! weak scaling; uses the CUDA and MPI modules).
//!
//! A damped 7-point Jacobi wave-smoothing kernel over a 3-D grid
//! distributed in the z-direction: each rank owns `nz` interior planes plus
//! two halo planes on the (simulated) GPU, exchanging boundary planes with
//! its neighbors every time step.
//!
//! * [`run_reference`] — the hand-optimized MPI+CUDA baseline: blocking
//!   `cudaMemcpy` of the boundary planes, blocking send/recv, blocking copy
//!   of the received halos, then the full kernel. Every phase stalls the
//!   host thread (the paper's "blocking CUDA operations").
//! * [`run_hiper`] — the HiPER version: D2H copies return futures,
//!   `MPI_Isend_await` / `MPI_Irecv` compose with them, the *inner* kernel
//!   (which needs no halo) launches immediately and overlaps the exchange,
//!   and the two *boundary-plane* kernels are predicated on the halo
//!   arrival futures. Numerically identical to the reference.
//!
//! The two implementations produce bit-identical grids (Jacobi reads only
//! the old buffer, so per-cell operation order is fixed), which the tests
//! verify along with agreement against a single-rank serial oracle.

use std::sync::Arc;

use hiper_gpu::{DeviceBuffer, GpuModule, Stream};
use hiper_mpi::MpiModule;
use hiper_runtime::api;

/// Workload parameters (per-rank slab: weak scaling keeps these fixed as
/// ranks grow).
#[derive(Debug, Clone, Copy)]
pub struct GeoParams {
    /// Plane dimensions.
    pub nx: usize,
    /// Plane dimensions.
    pub ny: usize,
    /// Interior planes per rank.
    pub nz: usize,
    /// Time steps.
    pub steps: usize,
}

impl Default for GeoParams {
    fn default() -> Self {
        GeoParams {
            nx: 24,
            ny: 24,
            nz: 24,
            steps: 8,
        }
    }
}

impl GeoParams {
    fn plane(&self) -> usize {
        self.nx * self.ny
    }

    fn slab_elems(&self) -> usize {
        (self.nz + 2) * self.plane()
    }
}

const TAG_UP: u64 = 11;
const TAG_DOWN: u64 = 12;
const DAMP: f64 = 0.08;

/// Initial condition: a source plane in the global center (deterministic,
/// same for every decomposition).
pub fn init_slab(params: &GeoParams, rank: usize, nranks: usize) -> Vec<f64> {
    let plane = params.plane();
    let mut slab = vec![0.0; params.slab_elems()];
    let global_mid = (params.nz * nranks) / 2;
    for zl in 1..=params.nz {
        let zg = rank * params.nz + (zl - 1);
        if zg == global_mid {
            for i in 0..plane {
                let x = i % params.nx;
                let y = i / params.nx;
                slab[zl * plane + i] = ((x as f64 * 0.7).sin() + (y as f64 * 0.3).cos()) * 50.0;
            }
        }
    }
    slab
}

/// One Jacobi update of planes `zlo..=zhi` (1-based interior indices),
/// reading `old` and writing `new` (halos in `old` are read-only inputs).
pub fn kernel(params: &GeoParams, old: &[f64], new: &mut [f64], zlo: usize, zhi: usize) {
    let nx = params.nx;
    let plane = params.plane();
    let idx = |x: usize, y: usize, z: usize| z * plane + y * nx + x;
    for z in zlo..=zhi {
        for y in 0..params.ny {
            for x in 0..nx {
                let c = old[idx(x, y, z)];
                let xm = if x > 0 { old[idx(x - 1, y, z)] } else { 0.0 };
                let xp = if x + 1 < nx {
                    old[idx(x + 1, y, z)]
                } else {
                    0.0
                };
                let ym = if y > 0 { old[idx(x, y - 1, z)] } else { 0.0 };
                let yp = if y + 1 < params.ny {
                    old[idx(x, y + 1, z)]
                } else {
                    0.0
                };
                let zm = old[idx(x, y, z - 1)];
                let zp = old[idx(x, y, z + 1)];
                new[idx(x, y, z)] = c + DAMP * (xm + xp + ym + yp + zm + zp - 6.0 * c);
            }
        }
    }
}

/// Serial oracle: the whole global grid on one "rank" (halo planes are the
/// zero Dirichlet boundary).
pub fn serial_oracle(params: &GeoParams, nranks: usize) -> Vec<f64> {
    let global = GeoParams {
        nz: params.nz * nranks,
        ..*params
    };
    let mut old = init_slab(&global, 0, 1);
    let mut new = old.clone();
    for _ in 0..params.steps {
        kernel(&global, &old, &mut new, 1, global.nz);
        std::mem::swap(&mut old, &mut new);
    }
    old
}

/// The per-rank device-resident state: double-buffered slabs plus the
/// stream their operations are ordered on.
pub struct DeviceSlabs {
    old: Arc<DeviceBuffer>,
    new: Arc<DeviceBuffer>,
    stream: Stream,
}

fn upload(gpu: &Arc<GpuModule>, params: &GeoParams, rank: usize, nranks: usize) -> DeviceSlabs {
    let stream = gpu.create_stream(0);
    let bytes = params.slab_elems() * 8;
    let old = gpu.alloc(0, bytes);
    let new = gpu.alloc(0, bytes);
    let init = init_slab(params, rank, nranks);
    let raw: Vec<u8> = init.iter().flat_map(|v| v.to_le_bytes()).collect();
    gpu.memcpy_h2d_blocking(&stream, &old, 0, raw.clone());
    gpu.memcpy_h2d_blocking(&stream, &new, 0, raw);
    DeviceSlabs { old, new, stream }
}

fn device_kernel(
    params: &GeoParams,
    slabs: &DeviceSlabs,
    zlo: usize,
    zhi: usize,
) -> impl FnOnce() + Send + 'static {
    let params = *params;
    let old = Arc::clone(&slabs.old);
    let new = Arc::clone(&slabs.new);
    move || {
        // Work on exactly the plane range this launch updates (plus its
        // read halo): planes zlo-1 ..= zhi+1 of `old`, writing zlo ..= zhi
        // of `new`. Cell arithmetic is identical regardless of the split,
        // so the full kernel and the inner/boundary decomposition produce
        // bit-identical grids.
        let plane = params.plane();
        let nzr = zhi - zlo + 1;
        let rdims = GeoParams { nz: nzr, ..params };
        let mut old_region = vec![0.0f64; (nzr + 2) * plane];
        old.with(|bytes| {
            let base = (zlo - 1) * plane * 8;
            for (i, v) in old_region.iter_mut().enumerate() {
                *v = f64::from_le_bytes(bytes[base + i * 8..base + i * 8 + 8].try_into().unwrap());
            }
        });
        let mut new_region = vec![0.0f64; (nzr + 2) * plane];
        kernel(&rdims, &old_region, &mut new_region, 1, nzr);
        new.with_mut(|bytes| {
            let base = zlo * plane * 8;
            for i in 0..nzr * plane {
                let v = new_region[plane + i];
                bytes[base + i * 8..base + i * 8 + 8].copy_from_slice(&v.to_le_bytes());
            }
        });
    }
}

fn plane_bytes(params: &GeoParams) -> usize {
    params.plane() * 8
}

/// Downloads the final slab (interior planes only) for validation.
pub fn download_interior(
    gpu: &Arc<GpuModule>,
    params: &GeoParams,
    slabs: &DeviceSlabs,
) -> Vec<f64> {
    let bytes = gpu.memcpy_d2h_blocking(
        &slabs.stream,
        &slabs.old,
        plane_bytes(params),
        params.nz * plane_bytes(params),
    );
    hiper_netsim::pod::from_bytes(&bytes)
}

/// The hand-optimized blocking MPI+CUDA reference.
pub fn run_reference(
    mpi: &Arc<MpiModule>,
    gpu: &Arc<GpuModule>,
    params: &GeoParams,
    rank: usize,
    nranks: usize,
) -> (DeviceSlabs, Vec<f64>) {
    let raw = Arc::clone(mpi.raw());
    let mut slabs = upload(gpu, params, rank, nranks);
    let up = if rank + 1 < nranks {
        Some(rank + 1)
    } else {
        None
    };
    let down = if rank > 0 { Some(rank - 1) } else { None };
    let pb = plane_bytes(params);

    for _step in 0..params.steps {
        // (1) Blocking D2H of the outgoing boundary planes.
        let top = gpu.memcpy_d2h_blocking(&slabs.stream, &slabs.old, params.nz * pb, pb);
        let bottom = gpu.memcpy_d2h_blocking(&slabs.stream, &slabs.old, pb, pb);
        // (2) Blocking halo exchange through the raw MPI library.
        if let Some(up) = up {
            raw.send(up, TAG_UP, bytes::Bytes::from(top));
        }
        if let Some(down) = down {
            raw.send(down, TAG_DOWN, bytes::Bytes::from(bottom));
        }
        if let Some(up) = up {
            let status = raw.recv(Some(up), Some(TAG_DOWN));
            // (3) Blocking H2D into the top halo plane.
            gpu.memcpy_h2d_blocking(
                &slabs.stream,
                &slabs.old,
                (params.nz + 1) * pb,
                status.data.to_vec(),
            );
        }
        if let Some(down) = down {
            let status = raw.recv(Some(down), Some(TAG_UP));
            gpu.memcpy_h2d_blocking(&slabs.stream, &slabs.old, 0, status.data.to_vec());
        }
        // (4) The full kernel, then swap.
        let done = gpu.launch_future(&slabs.stream, device_kernel(params, &slabs, 1, params.nz));
        done.wait();
        std::mem::swap(&mut slabs.old, &mut slabs.new);
    }
    let interior = download_interior(gpu, params, &slabs);
    (slabs, interior)
}

/// The HiPER version: future-composed MPI + CUDA + host scheduling (the
/// paper's §II-D listing as a benchmark).
pub fn run_hiper(
    mpi: &Arc<MpiModule>,
    gpu: &Arc<GpuModule>,
    params: &GeoParams,
    rank: usize,
    nranks: usize,
) -> (DeviceSlabs, Vec<f64>) {
    let mut slabs = upload(gpu, params, rank, nranks);
    let up = if rank + 1 < nranks {
        Some(rank + 1)
    } else {
        None
    };
    let down = if rank > 0 { Some(rank - 1) } else { None };
    let pb = plane_bytes(params);

    for _step in 0..params.steps {
        api::finish(|| {
            // (1) Asynchronous D2H of the boundary planes.
            let top_fut = gpu.memcpy_d2h_future(&slabs.stream, &slabs.old, params.nz * pb, pb);
            let bot_fut = gpu.memcpy_d2h_future(&slabs.stream, &slabs.old, pb, pb);

            // (2) Sends predicated on the D2H futures; receives posted now.
            if let Some(up) = up {
                let t = top_fut.clone();
                mpi.isend_await(
                    up,
                    TAG_UP,
                    move || hiper_netsim::pod::from_bytes::<f64>(&t.get()),
                    &top_fut,
                );
            }
            if let Some(down) = down {
                let b = bot_fut.clone();
                mpi.isend_await(
                    down,
                    TAG_DOWN,
                    move || hiper_netsim::pod::from_bytes::<f64>(&b.get()),
                    &bot_fut,
                );
            }
            let recv_up = up.map(|u| mpi.irecv_bytes(Some(u), Some(TAG_DOWN)));
            let recv_down = down.map(|d| mpi.irecv_bytes(Some(d), Some(TAG_UP)));

            // (3) The inner kernel needs no halo: launch immediately,
            // overlapping the exchange. (Planes 2..nz-1; boundary planes
            // wait for the halos.)
            let inner = if params.nz > 2 {
                Some(gpu.launch_future(
                    &slabs.stream,
                    device_kernel(params, &slabs, 2, params.nz - 1),
                ))
            } else {
                None
            };

            // (4) Halo H2D copies predicated on arrival; boundary-plane
            // kernels predicated on the copies (and ordered by the stream).
            let mut boundary_deps: Vec<hiper_runtime::Future<()>> = Vec::new();
            if let Some(recv) = recv_up {
                let gpu2 = Arc::clone(gpu);
                let stream = slabs.stream.clone();
                let dst = Arc::clone(&slabs.old);
                let halo_off = (params.nz + 1) * pb;
                boundary_deps.push(recv.and_then(move |got| {
                    gpu2.memcpy_h2d_future(&stream, &dst, halo_off, got.data.to_vec())
                }));
            }
            if let Some(recv) = recv_down {
                let gpu2 = Arc::clone(gpu);
                let stream = slabs.stream.clone();
                let dst = Arc::clone(&slabs.old);
                boundary_deps.push(recv.and_then(move |got| {
                    gpu2.memcpy_h2d_future(&stream, &dst, 0, got.data.to_vec())
                }));
            }
            if let Some(inner) = &inner {
                boundary_deps.push(inner.clone());
            }
            // Boundary planes: z = 1 and z = nz.
            let k1 = gpu.launch_await(
                &slabs.stream,
                &boundary_deps,
                device_kernel(params, &slabs, 1, 1),
            );
            let k2 = if params.nz > 1 {
                Some(gpu.launch_await(
                    &slabs.stream,
                    &boundary_deps,
                    device_kernel(params, &slabs, params.nz, params.nz),
                ))
            } else {
                None
            };

            // Block the step on everything (inside the finish).
            k1.wait();
            if let Some(k2) = k2 {
                k2.wait();
            }
            if let Some(inner) = inner {
                inner.wait();
            }
        })
        .expect("no task panicked");
        std::mem::swap(&mut slabs.old, &mut slabs.new);
    }
    let interior = download_interior(gpu, params, &slabs);
    (slabs, interior)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiper_netsim::{NetConfig, SpmdBuilder};
    use hiper_runtime::SchedulerModule;

    fn tiny() -> GeoParams {
        GeoParams {
            nx: 8,
            ny: 8,
            nz: 6,
            steps: 3,
        }
    }

    fn gather_and_check(results: Vec<(usize, Vec<f64>)>, params: &GeoParams, nranks: usize) {
        let oracle = serial_oracle(params, nranks);
        let plane = params.plane();
        let mut combined = vec![0.0; oracle.len()];
        for (rank, interior) in results {
            let base = (1 + rank * params.nz) * plane;
            combined[base..base + interior.len()].copy_from_slice(&interior);
        }
        // Oracle includes its own halo planes; compare interiors.
        let oracle_interior = &oracle[plane..oracle.len() - plane];
        let combined_interior = &combined[plane..combined.len() - plane];
        for (i, (a, b)) in oracle_interior.iter().zip(combined_interior).enumerate() {
            assert!(
                (a - b).abs() < 1e-12,
                "cell {} differs: oracle {} vs distributed {}",
                i,
                a,
                b
            );
        }
    }

    fn spmd_geo(nranks: usize, run_hiper_impl: bool) -> Vec<(usize, Vec<f64>)> {
        let params = tiny();
        SpmdBuilder::new(nranks)
            .net(NetConfig::default())
            .platform(|_| hiper_platform::autogen::smp_with_gpus(2, 1))
            .run(
                |_r, t| {
                    let mpi = MpiModule::new(t);
                    let gpu = GpuModule::with_pcie(hiper_gpu::PcieModel {
                        bandwidth: 1e11,
                        overhead: std::time::Duration::from_micros(2),
                    });
                    (
                        vec![
                            Arc::clone(&mpi) as Arc<dyn SchedulerModule>,
                            Arc::clone(&gpu) as Arc<dyn SchedulerModule>,
                        ],
                        (mpi, gpu),
                    )
                },
                move |env, (mpi, gpu)| {
                    let (_slabs, interior) = if run_hiper_impl {
                        run_hiper(&mpi, &gpu, &params, env.rank, env.nranks)
                    } else {
                        run_reference(&mpi, &gpu, &params, env.rank, env.nranks)
                    };
                    (env.rank, interior)
                },
            )
    }

    #[test]
    fn serial_oracle_conserves_shape() {
        let params = tiny();
        let grid = serial_oracle(&params, 2);
        assert!(grid.iter().all(|v| v.is_finite()));
        assert!(grid.iter().any(|v| v.abs() > 1e-9), "wave vanished");
    }

    #[test]
    fn reference_matches_serial_oracle() {
        let params = tiny();
        gather_and_check(spmd_geo(3, false), &params, 3);
    }

    #[test]
    fn hiper_matches_serial_oracle() {
        let params = tiny();
        gather_and_check(spmd_geo(3, true), &params, 3);
    }

    #[test]
    fn single_rank_no_neighbors() {
        let params = tiny();
        gather_and_check(spmd_geo(1, true), &params, 1);
    }
}
