//! Figure 5: ISx weak scaling — Flat OpenSHMEM vs OpenSHMEM+OpenMP vs HiPER.
//!
//! Weak scaling: the number of keys per *node* is fixed while nodes grow.
//! As in the paper, the flat configuration runs one single-threaded PE per
//! "core" (2 per node here), so it has twice the ranks of the hybrids — and
//! its O(P²) all-to-all is what degrades at scale (paper §III-B).
//!
//! ```text
//! cargo run --release -p hiper-bench --bin fig5_isx
//! env: HIPER_NODES_MAX (default 8), HIPER_KEYS_PER_NODE (default 65536),
//!      HIPER_REPS (default 3)
//! ```

use std::sync::Arc;

use hiper_bench::isx::{self, IsxParams};
use hiper_bench::util::{
    env_param, metrics_session, print_rank_stats, print_table, reject_unknown_args, stats_enabled,
    summarize, trace_session, Timing,
};
use hiper_forkjoin::Pool;
use hiper_netsim::{NetConfig, SpmdBuilder};
use hiper_runtime::SchedulerModule;
use hiper_shmem::{RawShmem, ShmemModule, ShmemWorld};

const CORES_PER_NODE: usize = 2;

fn time_on_rank0(samples: Vec<Vec<f64>>) -> Timing {
    summarize(&samples[0])
}

fn run_flat(nodes: usize, keys_per_node: usize, reps: usize) -> Timing {
    let ranks = nodes * CORES_PER_NODE;
    let params = IsxParams {
        keys_per_rank: keys_per_node / CORES_PER_NODE,
        ..Default::default()
    };
    let world = ShmemWorld::new(ranks, heap_bytes(params.keys_per_rank));
    let samples = SpmdBuilder::new(ranks)
        // Flat packs CORES_PER_NODE PEs onto each node: same-node PEs talk
        // through shared memory (intra-node latency), which is why flat is
        // competitive at small scale in the paper.
        .net(NetConfig {
            ranks_per_node: CORES_PER_NODE,
            ..NetConfig::default()
        })
        .workers_per_rank(1)
        .run(
            move |_r, t| (Vec::new(), RawShmem::new(world.clone(), t)),
            move |_env, raw| {
                let watermark = raw.alloc_watermark();
                let mut samples = Vec::new();
                for rep in 0..reps + 1 {
                    raw.barrier_all();
                    raw.reset_alloc(watermark);
                    raw.barrier_all();
                    let t0 = std::time::Instant::now();
                    let result = isx::run_flat(&raw, &params);
                    raw.barrier_all();
                    let dt = t0.elapsed().as_secs_f64();
                    assert!(isx::verify(&raw, &params, &result));
                    if rep > 0 {
                        samples.push(dt);
                    }
                }
                samples
            },
        );
    time_on_rank0(samples)
}

fn run_hybrid(nodes: usize, keys_per_node: usize, reps: usize) -> Timing {
    let params = IsxParams {
        keys_per_rank: keys_per_node,
        ..Default::default()
    };
    let world = ShmemWorld::new(nodes, heap_bytes(params.keys_per_rank));
    let samples = SpmdBuilder::new(nodes)
        .net(NetConfig::default())
        .workers_per_rank(1)
        .run(
            move |_r, t| {
                (
                    Vec::new(),
                    (RawShmem::new(world.clone(), t), Pool::new(CORES_PER_NODE)),
                )
            },
            move |_env, (raw, pool)| {
                let watermark = raw.alloc_watermark();
                let mut samples = Vec::new();
                for rep in 0..reps + 1 {
                    raw.barrier_all();
                    raw.reset_alloc(watermark);
                    raw.barrier_all();
                    let t0 = std::time::Instant::now();
                    let result = isx::run_hybrid_omp(&raw, &pool, &params);
                    raw.barrier_all();
                    let dt = t0.elapsed().as_secs_f64();
                    assert!(isx::verify(&raw, &params, &result));
                    if rep > 0 {
                        samples.push(dt);
                    }
                }
                pool.shutdown();
                samples
            },
        );
    time_on_rank0(samples)
}

fn run_hiper(nodes: usize, keys_per_node: usize, reps: usize) -> Timing {
    let params = IsxParams {
        keys_per_rank: keys_per_node,
        ..Default::default()
    };
    let world = ShmemWorld::new(nodes, heap_bytes(params.keys_per_rank));
    let samples = SpmdBuilder::new(nodes)
        .net(NetConfig::default())
        .workers_per_rank(CORES_PER_NODE)
        .run(
            move |_r, t| {
                let shmem = ShmemModule::new(world.clone(), t);
                (vec![Arc::clone(&shmem) as Arc<dyn SchedulerModule>], shmem)
            },
            move |env, shmem| {
                let raw = Arc::clone(shmem.raw());
                let watermark = raw.alloc_watermark();
                let mut samples = Vec::new();
                for rep in 0..reps + 1 {
                    shmem.barrier_all();
                    raw.reset_alloc(watermark);
                    shmem.barrier_all();
                    let t0 = std::time::Instant::now();
                    let result = isx::run_hiper(&shmem, &params);
                    shmem.barrier_all();
                    let dt = t0.elapsed().as_secs_f64();
                    assert!(isx::verify(&raw, &params, &result));
                    if rep > 0 {
                        samples.push(dt);
                    }
                }
                if stats_enabled() {
                    print_rank_stats(&format!("isx-hiper rank {}", env.rank), &env.runtime);
                }
                samples
            },
        );
    time_on_rank0(samples)
}

fn heap_bytes(keys_per_rank: usize) -> usize {
    // recv buffer (2x) + metadata, per rep (allocator is reset between
    // reps).
    (keys_per_rank * 2 * 8 + (1 << 16)).next_power_of_two()
}

fn main() {
    reject_unknown_args("HIPER_NODES_MAX, HIPER_KEYS_PER_NODE, HIPER_REPS");
    let _trace = trace_session();
    let _metrics = metrics_session();
    let nodes_max = env_param("HIPER_NODES_MAX", 8);
    let keys_per_node = env_param("HIPER_KEYS_PER_NODE", 1 << 16);
    let reps = env_param("HIPER_REPS", 3);

    println!("ISx weak scaling (paper Fig. 5)");
    println!(
        "keys/node = {}, cores/node = {}, reps = {}",
        keys_per_node, CORES_PER_NODE, reps
    );

    let mut rows = Vec::new();
    let mut nodes = 1;
    while nodes <= nodes_max {
        let flat = run_flat(nodes, keys_per_node, reps);
        let hybrid = run_hybrid(nodes, keys_per_node, reps);
        let hiper = run_hiper(nodes, keys_per_node, reps);
        rows.push((nodes, vec![flat, hybrid, hiper]));
        nodes *= 2;
    }
    print_table(
        "ISx total time (lower is better)",
        "nodes",
        &["Flat OpenSHMEM", "OpenSHMEM+OMP", "HiPER"],
        &rows,
    );

    // The paper's qualitative claims, asserted on our data:
    // flat wins at 1 node, degrades relative to the hybrids at the largest
    // scale (O(P^2) all-to-all with twice the ranks).
    if rows.len() >= 2 {
        let first = &rows[0].1;
        let last = &rows[rows.len() - 1].1;
        let flat_growth = last[0].mean / first[0].mean;
        let hiper_growth = last[2].mean / first[2].mean;
        println!(
            "\nscaling degradation  flat x{:.2}  hiper x{:.2}  (flat should degrade faster)",
            flat_growth, hiper_growth
        );
    }
}
