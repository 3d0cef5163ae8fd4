//! Figure 4: HPGMG-FV weak scaling — reference hybrid (MPI+OpenMP) vs
//! HiPER (UPC++/MPI modules).
//!
//! Weak scaling: fixed fine-level slab per rank; the paper reports the two
//! implementations "comparable in performance". Both backends share one
//! numeric core, so the solutions are bit-identical (asserted each run).
//!
//! ```text
//! cargo run --release -p hiper-bench --bin fig4_hpgmg
//! env: HIPER_NODES_MAX (default 8), HIPER_MG_N (default 16),
//!      HIPER_MG_NZ (default 8), HIPER_MG_VCYCLES (default 4),
//!      HIPER_REPS (default 3)
//! ```

use std::sync::Arc;

use hiper_bench::hpgmg::{self, Dims, HiperBackend, MgParams, MpiOmpBackend};
use hiper_bench::util::{
    env_param, metrics_session, print_rank_stats, print_table, reject_unknown_args, stats_enabled,
    summarize, trace_session, Timing,
};
use hiper_forkjoin::Pool;
use hiper_mpi::MpiModule;
use hiper_netsim::{NetConfig, SpmdBuilder};
use hiper_runtime::SchedulerModule;
use hiper_upcxx::{UpcxxModule, UpcxxReduce, UpcxxWorld};

const CORES_PER_NODE: usize = 2;

fn run_ref(nodes: usize, params: MgParams, reps: usize) -> (Timing, Vec<f64>) {
    let results = SpmdBuilder::new(nodes)
        .net(NetConfig::default())
        .workers_per_rank(1)
        .run(
            |_r, t| {
                let mpi = MpiModule::new(t);
                (vec![Arc::clone(&mpi) as Arc<dyn SchedulerModule>], mpi)
            },
            move |env, mpi| {
                let backend = MpiOmpBackend {
                    raw: Arc::clone(mpi.raw()),
                    pool: Pool::new(CORES_PER_NODE),
                };
                let mut samples = Vec::new();
                let mut norms = Vec::new();
                for rep in 0..reps + 1 {
                    mpi.barrier();
                    let t0 = std::time::Instant::now();
                    let (_lv, n) = hpgmg::solve(&params, &backend, env.rank, env.nranks);
                    mpi.barrier();
                    if rep > 0 {
                        samples.push(t0.elapsed().as_secs_f64());
                    }
                    norms = n;
                }
                backend.pool.shutdown();
                (samples, norms)
            },
        );
    (summarize(&results[0].0), results[0].1.clone())
}

fn run_hiper(nodes: usize, params: MgParams, reps: usize) -> (Timing, Vec<f64>) {
    let uworld = UpcxxWorld::new(nodes, 1 << 16);
    let reduce = UpcxxReduce::new();
    let results = SpmdBuilder::new(nodes)
        .net(NetConfig::default())
        .workers_per_rank(CORES_PER_NODE)
        .run(
            move |_r, t| {
                let mpi = MpiModule::new(t.clone());
                let upcxx = UpcxxModule::new(uworld.clone(), t);
                (
                    vec![
                        Arc::clone(&mpi) as Arc<dyn SchedulerModule>,
                        Arc::clone(&upcxx) as Arc<dyn SchedulerModule>,
                    ],
                    (mpi, upcxx, reduce.clone()),
                )
            },
            move |env, (mpi, upcxx, reduce)| {
                let backend = HiperBackend {
                    rt: env.runtime.clone(),
                    mpi: Arc::clone(&mpi),
                    upcxx,
                    reduce,
                };
                let mut samples = Vec::new();
                let mut norms = Vec::new();
                for rep in 0..reps + 1 {
                    mpi.barrier();
                    let t0 = std::time::Instant::now();
                    let (_lv, n) = hpgmg::solve(&params, &backend, env.rank, env.nranks);
                    mpi.barrier();
                    if rep > 0 {
                        samples.push(t0.elapsed().as_secs_f64());
                    }
                    norms = n;
                }
                if stats_enabled() {
                    print_rank_stats(&format!("hpgmg-hiper rank {}", env.rank), &env.runtime);
                }
                (samples, norms)
            },
        );
    (summarize(&results[0].0), results[0].1.clone())
}

fn main() {
    reject_unknown_args("HIPER_NODES_MAX, HIPER_MG_N, HIPER_MG_NZ, HIPER_MG_VCYCLES, HIPER_REPS");
    let _trace = trace_session();
    let _metrics = metrics_session();
    let nodes_max = env_param("HIPER_NODES_MAX", 8);
    let n = env_param("HIPER_MG_N", 16);
    let nz = env_param("HIPER_MG_NZ", 8);
    let reps = env_param("HIPER_REPS", 3);
    let params = MgParams {
        fine: Dims { nx: n, ny: n, nz },
        vcycles: env_param("HIPER_MG_VCYCLES", 4),
        smooth_sweeps: 2,
        bottom_sweeps: 60,
    };
    println!("HPGMG-FV weak scaling (paper Fig. 4)");
    println!(
        "fine slab {}x{}x{} per rank, {} V-cycles, reps={}",
        n, nz, n, params.vcycles, reps
    );

    let mut rows = Vec::new();
    let mut nodes = 1;
    while nodes <= nodes_max {
        let (reference, norms_ref) = run_ref(nodes, params, reps);
        let (hiper, norms_hiper) = run_hiper(nodes, params, reps);
        // The solutions are bit-identical (asserted in the hpgmg tests);
        // the residual *norm* is a cross-rank sum whose combine order
        // differs between the MPI binomial reduction and the UPC++ rpc
        // arrival order, so compare norms to ULP-scale tolerance.
        for (a, b) in norms_ref.iter().zip(&norms_hiper) {
            assert!(
                (a - b).abs() <= 1e-12 * a.abs().max(1e-30),
                "backends diverged at {} nodes: {} vs {}",
                nodes,
                a,
                b
            );
        }
        let reduction = norms_ref.last().unwrap() / norms_ref[0];
        println!(
            "  {} nodes: residual reduced {:.1e} over {} V-cycles",
            nodes, reduction, params.vcycles
        );
        rows.push((nodes, vec![reference, hiper]));
        nodes *= 2;
    }
    print_table(
        "HPGMG-FV solve time (lower is better; solutions verified identical)",
        "nodes",
        &["Reference hybrid", "HiPER (UPC++/MPI)"],
        &rows,
    );
}
