//! `app_uts`: the paper's composed case (Fig. 7 shape: b0 2.0, 4 root
//! children, depth 13) at 2 ranks x 1 worker. One lap is `uts::run_hiper`
//! bracketed by `barrier_all`; it validates when the global node count
//! equals the sequential count.

use std::sync::Arc;
use std::time::Instant;

use hiper_bench::uts::{self, UtsParams};
use hiper_forkjoin::Pool;
use hiper_runtime::SchedulerModule;
use hiper_shmem::{ShmemModule, ShmemWorld};

use super::{
    drive, merge, rank_counters, run_spmd, Control, RunCfg, RunResult, Variant, RANKS,
    WORKERS_PER_RANK,
};
use crate::spans;

/// Size of the Fig. 7 tree (root seed 19).
pub const TARGET_NODES: u64 = 39_412;

/// Tree sizes at this shape range from 5 to 180 000 nodes over root seeds,
/// so `--seed` picks among root seeds found (by scanning 0..6000) to give
/// trees within 0.25% of the Fig. 7 size: every seed is a different tree,
/// and `lap_ms` still measures the same amount of work. `--seed 19` is the
/// Fig. 7 tree itself.
const ROOT_SEEDS: [u32; 16] = [
    350, 486, 707, 19, 739, 1130, 2133, 2628, 2637, 3084, 3140, 3177, 4219, 4281, 5349, 5708,
];

/// The tree for `seed` and its sequential node count.
pub fn tree_for(seed: u64) -> (UtsParams, u64) {
    let params = UtsParams {
        seed: ROOT_SEEDS[(seed % ROOT_SEEDS.len() as u64) as usize],
        b0: 2.0,
        root_children: 4,
        max_depth: 13,
    };
    let nodes = uts::seq_count(&params);
    assert!(
        (nodes as f64 / TARGET_NODES as f64 - 1.0).abs() <= 0.0025,
        "root seed {} now gives {nodes} nodes: tree generation changed, rescan ROOT_SEEDS",
        params.seed
    );
    (params, nodes)
}

pub fn run(cfg: &RunCfg) -> RunResult {
    let t0 = Instant::now();
    let cfg = *cfg;
    let (params, expected) = tree_for(cfg.seed);
    let ctl = Arc::new(Control::new(&cfg));
    let world = ShmemWorld::new(RANKS, 1 << 22);
    let ranks = run_spmd(
        None,
        move |_rank, t| {
            let shmem = ShmemModule::new(world.clone(), t);
            (vec![Arc::clone(&shmem) as Arc<dyn SchedulerModule>], shmem)
        },
        move |env, shmem| {
            let raw = Arc::clone(shmem.raw());
            let pool = (cfg.variant == Variant::Reference).then(|| Pool::new(WORKERS_PER_RANK));
            let watermark = raw.alloc_watermark();
            shmem.barrier_all();
            let laps = drive(
                &ctl,
                env.rank == 0,
                t0,
                &|| shmem.barrier_all(),
                &|| rank_counters(&env),
                &mut |lap| {
                    // Collective: both ranks are between the closing
                    // barrier of the last lap and the one below.
                    raw.reset_alloc(watermark);
                    shmem.barrier_all();
                    let result = {
                        let _s = spans::enter("bench.uts", lap);
                        match &pool {
                            Some(pool) => uts::run_omp(&raw, pool, &params),
                            None => uts::run_hiper(&shmem, &params),
                        }
                    };
                    if result.global_count == expected {
                        Ok(())
                    } else {
                        Err(format!(
                            "counted {} nodes, sequential count is {expected}",
                            result.global_count
                        ))
                    }
                },
            );
            if let Some(pool) = pool {
                pool.shutdown();
            }
            laps
        },
    );
    merge(ranks, cfg.warmup, expected as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_gives_a_tree_of_the_fig7_size() {
        assert_eq!(tree_for(19).1, TARGET_NODES);
        let mut roots = std::collections::BTreeSet::new();
        for seed in 0..ROOT_SEEDS.len() as u64 {
            let (params, nodes) = tree_for(seed);
            assert!(nodes.abs_diff(TARGET_NODES) * 400 <= TARGET_NODES);
            roots.insert(params.seed);
        }
        assert_eq!(roots.len(), ROOT_SEEDS.len());
    }
}
