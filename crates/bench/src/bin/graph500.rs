//! §III-C2: Graph500 — manual-polling reference vs HiPER with
//! `shmem_async_when`.
//!
//! The paper observes "little performance improvement to-date, [but] the
//! programmability benefits have been significant": the polling loop (and
//! its bookkeeping) disappears into a predicated task. This harness reports
//! both times (expect them close) and validates both BFS trees against a
//! serial oracle.
//!
//! ```text
//! cargo run --release -p hiper-bench --bin graph500
//! env: HIPER_NODES_MAX (default 8), HIPER_G500_SCALE (default 11),
//!      HIPER_G500_EF (default 16), HIPER_REPS (default 3)
//! ```

use std::sync::Arc;

use hiper_bench::graph500::{self, G500Params};
use hiper_bench::util::{
    env_param, metrics_session, print_rank_stats, print_table, reject_unknown_args, stats_enabled,
    summarize, trace_session, Timing,
};
use hiper_mpi::MpiModule;
use hiper_netsim::{NetConfig, SpmdBuilder};
use hiper_runtime::SchedulerModule;
use hiper_shmem::{ShmemModule, ShmemWorld};

fn run_g500(
    nodes: usize,
    params: G500Params,
    root: u64,
    oracle: Arc<Vec<u32>>,
    hiper: bool,
    reps: usize,
) -> (Timing, f64) {
    let world = ShmemWorld::new(nodes, 1 << 24);
    let results = SpmdBuilder::new(nodes)
        .net(NetConfig::default())
        .workers_per_rank(2)
        .run(
            move |_r, t| {
                let shmem = ShmemModule::new(world.clone(), t.clone());
                let mpi = MpiModule::new(t);
                (
                    vec![
                        Arc::clone(&shmem) as Arc<dyn SchedulerModule>,
                        Arc::clone(&mpi) as Arc<dyn SchedulerModule>,
                    ],
                    (shmem, mpi),
                )
            },
            move |env, (shmem, mpi)| {
                let graph = Arc::new(graph500::build_graph(mpi.raw(), &params));
                let cap = graph500::mailbox_capacity(shmem.raw(), &graph);
                let arena = Arc::new(graph500::MailArena::alloc(shmem.raw(), cap));
                let mut samples = Vec::new();
                let mut teps = 0.0f64;
                for rep in 0..reps + 1 {
                    shmem.barrier_all();
                    let t0 = std::time::Instant::now();
                    let result = if hiper {
                        graph500::run_hiper(&shmem, &graph, &arena, root)
                    } else {
                        graph500::run_reference_polling(shmem.raw(), &graph, &arena, root)
                    };
                    shmem.barrier_all();
                    let dt = t0.elapsed().as_secs_f64();
                    assert!(
                        graph500::validate(&graph, &result, &oracle, root),
                        "BFS validation failed"
                    );
                    let total_relaxed = shmem.sum_to_all_u64(vec![result.edges_relaxed])[0];
                    teps = total_relaxed as f64 / dt;
                    if rep > 0 {
                        samples.push(dt);
                    }
                }
                if stats_enabled() {
                    print_rank_stats(&format!("graph500 rank {}", env.rank), &env.runtime);
                }
                (samples, teps)
            },
        );
    (summarize(&results[0].0), results[0].1)
}

fn main() {
    reject_unknown_args("HIPER_NODES_MAX, HIPER_G500_SCALE, HIPER_G500_EF, HIPER_REPS");
    let _trace = trace_session();
    let _metrics = metrics_session();
    let nodes_max = env_param("HIPER_NODES_MAX", 8);
    let reps = env_param("HIPER_REPS", 3);
    let params = G500Params {
        scale: env_param("HIPER_G500_SCALE", 11) as u32,
        edge_factor: env_param("HIPER_G500_EF", 16),
        seed: 0x0601_7003,
    };
    println!("Graph500 BFS (paper §III-C2)");
    println!(
        "scale {} ({} vertices, {} edges), reps={}",
        params.scale,
        params.nvertices(),
        params.nedges(),
        reps
    );
    let root = graph500::pick_root(&params);
    let oracle = Arc::new(graph500::serial_levels(&params, root));

    let mut rows = Vec::new();
    let mut nodes = 1;
    while nodes <= nodes_max {
        let (reference, teps_ref) = run_g500(nodes, params, root, Arc::clone(&oracle), false, reps);
        let (hiper, teps_hiper) = run_g500(nodes, params, root, Arc::clone(&oracle), true, reps);
        println!(
            "  {} nodes: {:.2} MTEPS (polling) vs {:.2} MTEPS (async_when)",
            nodes,
            teps_ref / 1e6,
            teps_hiper / 1e6
        );
        rows.push((nodes, vec![reference, hiper]));
        nodes *= 2;
    }
    print_table(
        "Graph500 BFS time (lower is better; both trees validated)",
        "nodes",
        &["Reference (polling)", "HiPER (shmem_async_when)"],
        &rows,
    );
    println!(
        "\nProgrammability: the reference's per-level polling loop (flags, seen[],\n\
         remaining counter, spin) is replaced by one shmem_async_when registration\n\
         per source — the polling lives in the HiPER runtime."
    );
}
