//! UTS across ranks: the tree must not only be counted, it must be shared.
//!
//! `uts::run_hiper` on two ranks used to validate every lap while rank 1
//! counted no node at all: a correct count says nothing about distribution.

use std::sync::Arc;

use hiper::netsim::{NetConfig, SpmdBuilder};
use hiper::runtime::SchedulerModule;
use hiper::shmem::{ShmemModule, ShmemWorld};
use hiper_bench::uts::{self, UtsParams};

#[test]
fn two_ranks_share_the_fig7_tree() {
    const LAPS: usize = 10;
    // The Fig. 7 tree: b0 2.0, four root children, depth 13, root seed 19.
    let params = UtsParams::default();
    let nodes = uts::seq_count(&params);
    let world = ShmemWorld::new(2, 1 << 22);
    let results = SpmdBuilder::new(2)
        .net(NetConfig::default())
        .workers_per_rank(1)
        .run(
            move |_rank, t| {
                let shmem = ShmemModule::new(world.clone(), t);
                (vec![Arc::clone(&shmem) as Arc<dyn SchedulerModule>], shmem)
            },
            move |_env, shmem| {
                let watermark = shmem.raw().alloc_watermark();
                (0..LAPS)
                    .map(|_| {
                        shmem.barrier_all();
                        shmem.raw().reset_alloc(watermark);
                        shmem.barrier_all();
                        uts::run_hiper(&shmem, &params)
                    })
                    .collect::<Vec<_>>()
            },
        );
    for lap in 0..LAPS {
        for rank in &results {
            assert_eq!(rank[lap].global_count, nodes, "lap {lap}");
        }
        let shares: u64 = results.iter().map(|rank| rank[lap].local_count).sum();
        assert_eq!(shares, nodes, "lap {lap}: shares must partition the tree");
    }
    assert!(
        results[1].iter().any(|lap| lap.local_count > 0),
        "rank 1 never counted a node: the tree stayed on rank 0"
    );
}
