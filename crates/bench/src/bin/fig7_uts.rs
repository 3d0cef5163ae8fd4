//! Figure 7: UTS strong scaling — OpenSHMEM+OpenMP vs OpenSHMEM+OpenMP
//! Tasks vs AsyncSHMEM (HiPER).
//!
//! Strong scaling: one fixed unbalanced tree (a scaled-down stand-in for
//! T1XXL), counted by 1..N nodes. The three versions share one
//! load-balancing protocol (`uts.rs`); the HiPER version expands the tree
//! with runtime tasks that answer idle peers while they run and waits on
//! the task, not the core; the OpenMP-Tasks baseline must coarse-`taskwait`
//! before every load-balancing step (paper §III-C1). Reports the median and
//! quartiles over the repetitions.
//!
//! ```text
//! cargo run --release -p hiper-bench --bin fig7_uts
//! env: HIPER_NODES_MAX (default 8), HIPER_UTS_DEPTH (default 13),
//!      HIPER_UTS_B0_X100 (default 200), HIPER_REPS (default 100)
//! ```

use std::sync::Arc;

use hiper_bench::util::{
    env_param, metrics_session, print_rank_stats, print_table, reject_unknown_args, spread,
    stats_enabled, trace_session, Spread,
};
use hiper_bench::uts::{self, UtsParams};
use hiper_forkjoin::Pool;
use hiper_netsim::{NetConfig, SpmdBuilder};
use hiper_runtime::SchedulerModule;
use hiper_shmem::{RawShmem, ShmemModule, ShmemWorld};

const CORES_PER_NODE: usize = 2;

#[derive(Clone, Copy, PartialEq)]
enum Impl {
    Omp,
    OmpTasks,
    Hiper,
}

fn run_impl(which: Impl, nodes: usize, params: UtsParams, expected: u64, reps: usize) -> Spread {
    let world = ShmemWorld::new(nodes, 1 << 22);
    let samples = SpmdBuilder::new(nodes)
        .net(NetConfig::default())
        .workers_per_rank(CORES_PER_NODE)
        .run(
            move |_r, t| {
                let shmem = ShmemModule::new(world.clone(), t);
                (vec![Arc::clone(&shmem) as Arc<dyn SchedulerModule>], shmem)
            },
            move |env, shmem| {
                let raw: Arc<RawShmem> = Arc::clone(shmem.raw());
                let pool = if which == Impl::Hiper {
                    None
                } else {
                    Some(Pool::new(CORES_PER_NODE))
                };
                let watermark = raw.alloc_watermark();
                let mut samples = Vec::new();
                for rep in 0..reps + 1 {
                    shmem.barrier_all();
                    raw.reset_alloc(watermark);
                    shmem.barrier_all();
                    let t0 = std::time::Instant::now();
                    let result = match which {
                        Impl::Omp => uts::run_omp(&raw, pool.as_ref().unwrap(), &params),
                        Impl::OmpTasks => uts::run_omp_tasks(&raw, pool.as_ref().unwrap(), &params),
                        Impl::Hiper => uts::run_hiper(&shmem, &params),
                    };
                    shmem.barrier_all();
                    let dt = t0.elapsed().as_secs_f64();
                    assert_eq!(result.global_count, expected, "tree count mismatch");
                    if rep > 0 {
                        samples.push(dt);
                    }
                }
                if let Some(pool) = pool {
                    pool.shutdown();
                }
                if stats_enabled() {
                    print_rank_stats(&format!("uts rank {}", env.rank), &env.runtime);
                }
                samples
            },
        );
    spread(&samples[0])
}

fn main() {
    reject_unknown_args("HIPER_NODES_MAX, HIPER_UTS_DEPTH, HIPER_UTS_B0_X100, HIPER_REPS");
    let _trace = trace_session();
    let _metrics = metrics_session();
    let nodes_max = env_param("HIPER_NODES_MAX", 8);
    // Threads are not pinned here: the OS regroups them every second or so
    // and a ten-repetition median lands in one grouping or another, up to
    // 40% apart. A hundred repetitions span several.
    let reps = env_param("HIPER_REPS", 100);
    let params = UtsParams {
        seed: 19,
        b0: env_param("HIPER_UTS_B0_X100", 200) as f64 / 100.0,
        root_children: 4,
        max_depth: env_param("HIPER_UTS_DEPTH", 13) as u32,
    };
    let expected = uts::seq_count(&params);
    println!("UTS strong scaling (paper Fig. 7)");
    println!(
        "tree: b0={}, depth={}, nodes={}, reps={}",
        params.b0, params.max_depth, expected, reps
    );

    let mut rows = Vec::new();
    let mut nodes = 1;
    while nodes <= nodes_max {
        let omp = run_impl(Impl::Omp, nodes, params, expected, reps);
        let tasks = run_impl(Impl::OmpTasks, nodes, params, expected, reps);
        let hiper = run_impl(Impl::Hiper, nodes, params, expected, reps);
        rows.push((nodes, vec![omp, tasks, hiper]));
        nodes *= 2;
    }
    print_table(
        "UTS total time, median [quartiles] (lower is better)",
        "nodes",
        &["SHMEM+OMP", "SHMEM+OMP Tasks", "AsyncSHMEM (HiPER)"],
        &rows,
    );

    // Qualitative check from the paper: HiPER at the largest scale should
    // not be slower than the OMP-Tasks baseline (coarse synchronization).
    if let Some((n, last)) = rows.last() {
        println!(
            "\nat {} nodes: omp {:.1} ms, omp-tasks {:.1} ms, hiper {:.1} ms",
            n,
            last[0].median * 1e3,
            last[1].median * 1e3,
            last[2].median * 1e3
        );
    }
}
