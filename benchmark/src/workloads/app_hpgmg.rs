//! `app_hpgmg`: HPGMG-FV (Fig. 4) at 2 ranks x 1 worker, 16x16x8 slab, 4
//! V-cycles. One lap is `hpgmg::solve` on the `HiperBackend`; it validates
//! when the residual trajectory equals, to 1e-12 relative, the one the
//! reference `MpiOmpBackend` produced during set-up. `solve` builds its own
//! right-hand side, so this workload's input does not depend on `--seed`.

use std::sync::Arc;
use std::time::Instant;

use hiper_bench::hpgmg::{self, Dims, HiperBackend, MgBackend, MgParams, MpiOmpBackend};
use hiper_forkjoin::Pool;
use hiper_mpi::MpiModule;
use hiper_runtime::SchedulerModule;
use hiper_upcxx::{UpcxxModule, UpcxxReduce, UpcxxWorld};

use super::{
    drive, merge, rank_counters, run_spmd, Control, RunCfg, RunResult, Variant, RANKS,
    WORKERS_PER_RANK,
};
use crate::spans;

pub const PARAMS: MgParams = MgParams {
    fine: Dims {
        nx: 16,
        ny: 16,
        nz: 8,
    },
    vcycles: 4,
    smooth_sweeps: 2,
    bottom_sweeps: 60,
};

fn same_trajectory(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| (a - b).abs() <= 1e-12 * b.abs().max(1e-30))
}

pub fn run(cfg: &RunCfg) -> RunResult {
    let t0 = Instant::now();
    let cfg = *cfg;
    let ctl = Arc::new(Control::new(&cfg));
    let uworld = UpcxxWorld::new(RANKS, 1 << 16);
    let reduce = UpcxxReduce::new();
    let ranks = run_spmd(
        None,
        move |_rank, t| {
            let mpi = MpiModule::new(t.clone());
            let upcxx = UpcxxModule::new(uworld.clone(), t);
            let modules: Vec<Arc<dyn SchedulerModule>> =
                vec![Arc::clone(&mpi) as _, Arc::clone(&upcxx) as _];
            (modules, (mpi, upcxx, reduce.clone()))
        },
        move |env, (mpi, upcxx, reduce)| {
            let reference = MpiOmpBackend {
                raw: Arc::clone(mpi.raw()),
                pool: Pool::new(WORKERS_PER_RANK),
            };
            let hiper = HiperBackend {
                rt: env.runtime.clone(),
                mpi: Arc::clone(&mpi),
                upcxx,
                reduce,
            };
            let (_, want) = hpgmg::solve(&PARAMS, &reference, env.rank, env.nranks);
            let backend: &dyn MgBackend = match cfg.variant {
                Variant::Reference => &reference,
                _ => &hiper,
            };
            mpi.barrier();
            let laps = drive(
                &ctl,
                env.rank == 0,
                t0,
                &|| mpi.barrier(),
                &|| rank_counters(&env),
                &mut |lap| {
                    let (_, got) = {
                        let _s = spans::enter("bench.hpgmg", lap);
                        hpgmg::solve(&PARAMS, backend, env.rank, env.nranks)
                    };
                    if same_trajectory(&got, &want) {
                        Ok(())
                    } else {
                        Err(format!("residuals {got:?}, reference {want:?}"))
                    }
                },
            );
            reference.pool.shutdown();
            laps
        },
    );
    merge(ranks, cfg.warmup, PARAMS.vcycles as f64)
}
