//! Figure 6: GEO weak scaling — blocking MPI+CUDA reference vs HiPER.
//!
//! Weak scaling: each rank keeps a fixed slab of the 3-D stencil grid on
//! its (simulated) GPU. The paper reports HiPER "consistently improves
//! performance by ~2% on average by reducing blocking CUDA operations
//! through future-based programming"; here the same effect appears as the
//! gap between the blocking reference and the future-composed version.
//!
//! ```text
//! cargo run --release -p hiper-bench --bin fig6_geo
//! env: HIPER_NODES_MAX (default 8), HIPER_GEO_N (default 24, plane side),
//!      HIPER_GEO_STEPS (default 8), HIPER_REPS (default 3)
//! ```

use std::sync::Arc;

use hiper_bench::geo::{self, GeoParams};
use hiper_bench::util::{
    env_param, metrics_session, print_rank_stats, print_table, reject_unknown_args, stats_enabled,
    summarize, trace_session, Timing,
};
use hiper_gpu::GpuModule;
use hiper_mpi::MpiModule;
use hiper_netsim::{NetConfig, SpmdBuilder};
use hiper_runtime::SchedulerModule;

/// GEO models a bandwidth-hungry production fabric: latency is scaled up
/// relative to the default so that blocking-communication cost dominates
/// single-host scheduling noise (the paper's Titan interconnect is likewise
/// slow relative to its CPUs). Identical for both implementations.
fn geo_net() -> NetConfig {
    NetConfig {
        latency: std::time::Duration::from_micros(250),
        bandwidth: 2.0e9,
        self_latency: std::time::Duration::from_micros(2),
        ..NetConfig::default()
    }
}

fn run_geo(nodes: usize, params: GeoParams, hiper: bool, reps: usize) -> (Timing, f64) {
    let results = SpmdBuilder::new(nodes)
        .net(geo_net())
        .platform(|_| hiper_platform::autogen::smp_with_gpus(2, 1))
        .run(
            |_r, t| {
                let mpi = MpiModule::new(t);
                let gpu = GpuModule::new();
                (
                    vec![
                        Arc::clone(&mpi) as Arc<dyn SchedulerModule>,
                        Arc::clone(&gpu) as Arc<dyn SchedulerModule>,
                    ],
                    (mpi, gpu),
                )
            },
            move |env, (mpi, gpu)| {
                let mut samples = Vec::new();
                let mut checksum = 0.0f64;
                for rep in 0..reps + 1 {
                    mpi.barrier();
                    let t0 = std::time::Instant::now();
                    let (_slabs, interior) = if hiper {
                        geo::run_hiper(&mpi, &gpu, &params, env.rank, env.nranks)
                    } else {
                        geo::run_reference(&mpi, &gpu, &params, env.rank, env.nranks)
                    };
                    mpi.barrier();
                    let dt = t0.elapsed().as_secs_f64();
                    let local: f64 = interior.iter().map(|v| v * v).sum();
                    checksum = mpi.allreduce(&[local], hiper_mpi::ReduceOp::Sum)[0];
                    if rep > 0 {
                        samples.push(dt);
                    }
                }
                if stats_enabled() {
                    print_rank_stats(&format!("geo rank {}", env.rank), &env.runtime);
                }
                (samples, checksum)
            },
        );
    (summarize(&results[0].0), results[0].1)
}

fn main() {
    reject_unknown_args("HIPER_NODES_MAX, HIPER_GEO_N, HIPER_GEO_STEPS, HIPER_REPS");
    let _trace = trace_session();
    let _metrics = metrics_session();
    let nodes_max = env_param("HIPER_NODES_MAX", 8);
    let n = env_param("HIPER_GEO_N", 24);
    let steps = env_param("HIPER_GEO_STEPS", 8);
    let reps = env_param("HIPER_REPS", 3);
    let params = GeoParams {
        nx: n,
        ny: n,
        nz: n,
        steps,
    };
    println!("GEO weak scaling (paper Fig. 6)");
    println!(
        "slab {}x{}x{} per rank, {} steps, reps={}",
        n, n, n, steps, reps
    );

    let mut rows = Vec::new();
    let mut nodes = 1;
    while nodes <= nodes_max {
        let (reference, ck_ref) = run_geo(nodes, params, false, reps);
        let (hiper, ck_hiper) = run_geo(nodes, params, true, reps);
        assert!(
            (ck_ref - ck_hiper).abs() <= 1e-9 * ck_ref.abs().max(1e-30),
            "implementations disagree: {} vs {}",
            ck_ref,
            ck_hiper
        );
        rows.push((nodes, vec![reference, hiper]));
        nodes *= 2;
    }
    print_table(
        "GEO time per run (lower is better; both implementations verified equal)",
        "nodes",
        &["MPI+CUDA (blocking)", "HiPER (futures)"],
        &rows,
    );
    for (nodes, r) in &rows {
        let gain = 100.0 * (1.0 - r[1].mean / r[0].mean);
        println!("  {} nodes: HiPER {:+.1}% vs reference", nodes, gain);
    }
}
