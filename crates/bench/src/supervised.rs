//! Supervised workload drivers: kill-mid-run recovery for ISx and UTS
//! (DESIGN.md §2.13).
//!
//! Each driver runs its workload as an iterative, barrier-delimited loop —
//! the cooperative crash-point discipline the supervise harness requires:
//!
//! ```text
//! per round: reset_alloc → workload round → barrier_all
//!            → checkpoint (raw state + digest + heap image) → crash_point
//! ```
//!
//! The checkpoint cut lands at a globally quiesced point (the barrier) and
//! the crash point immediately follows it, so the victim sends nothing
//! between cut and crash: replay re-executes the round from the restored
//! snapshot with zero pre-crash side effects on peers. Peer traffic
//! delivered after the cut is rolled back by the receive-watermark reset
//! and redelivered from the peers' retention logs, in per-link order.
//!
//! Digests are accumulated per round inside the checkpointed state, so a
//! killed-and-recovered run must reproduce the fault-free digest **bit for
//! bit** — that is the acceptance criterion `chaos_check --recovery`
//! enforces.
//!
//! Rank-count constraints: what a UTS rank hands over depends on which of
//! its peers' requests it sees first, that is, on the order they arrive in,
//! so its supervised runs use 2 ranks — a single link per direction makes
//! replay serial and deterministic. ISx's boundary ops
//! (put at absolute offsets, fetch-add reservations) commute, so 4 ranks
//! are safe.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hiper_checkpoint::CheckpointModule;
use hiper_netsim::{FaultPlan, KillSpec, NetConfig, SpmdBuilder, SupervisedCtx, SupervisorHarness};
use hiper_runtime::SchedulerModule;
use hiper_shmem::{ShmemModule, ShmemWorld};
use parking_lot::Mutex;

use crate::isx::{self, IsxParams};
use crate::uts::{self, UtsParams};

/// One supervised run's observables.
pub struct SupervisedOutcome {
    /// Per-rank digests, accumulated round by round inside the
    /// checkpointed state (so recovery replays reproduce them exactly).
    pub digest: Vec<Vec<u64>>,
    /// Recovery attempts driven for the victim rank (0 when no kill).
    pub recoveries: u32,
    /// `ranks_recovered` summed over every rank's scheduler stats.
    pub ranks_recovered: u64,
    /// Wall-clock for the cluster run.
    pub elapsed: Duration,
}

/// Workload plugged into [`run_supervised_rounds`]: one barrier-delimited
/// round producing that round's digest words.
type RoundFn = dyn Fn(&Arc<ShmemModule>, u64) -> Vec<u64> + Send + Sync;

/// The generic supervised loop shared by the ISx and UTS drivers.
fn run_supervised_rounds(
    name: &str,
    nranks: usize,
    heap_bytes: usize,
    rounds: u64,
    kill: Option<KillSpec>,
    round_fn: Arc<RoundFn>,
) -> SupervisedOutcome {
    let dir = std::env::temp_dir().join(format!("hiper_supervised_{}", name));
    let _ = std::fs::remove_dir_all(&dir);
    let world = ShmemWorld::new(nranks, heap_bytes);
    let victim = kill.as_ref().map(|k| k.rank);
    let harness = SupervisorHarness::new(nranks, kill, 4);
    let h_main = Arc::clone(&harness);
    let recovered = Arc::new(AtomicU64::new(0));
    let rec2 = Arc::clone(&recovered);
    let t0 = Instant::now();

    let digest = SpmdBuilder::new(nranks)
        .net(NetConfig::default())
        // Supervision arms the reliable layers (epochs, retention logs)
        // even though the plan itself injects nothing: the kill is driven
        // cooperatively by the seeded crash points.
        .faults(FaultPlan::seeded(0).arm())
        // figure2 has both the Interconnect place (SHMEM) and the
        // Nvm/LocalDisk places (checkpoints).
        .platform(|_| hiper_platform::autogen::figure2(1))
        .run(
            move |rank, transport| {
                let shmem = ShmemModule::new(world.clone(), transport);
                let ckpt = CheckpointModule::new(dir.join(format!("r{}", rank)));
                (
                    vec![
                        Arc::clone(&shmem) as Arc<dyn SchedulerModule>,
                        Arc::clone(&ckpt) as Arc<dyn SchedulerModule>,
                    ],
                    (shmem, ckpt),
                )
            },
            move |env, (shmem, ckpt)| {
                h_main.register(
                    env.rank,
                    env.runtime.clone(),
                    Arc::clone(shmem.raw().reliable()),
                    env.transport.engine(),
                );
                let ctx = SupervisedCtx::new(Arc::clone(&h_main), ckpt, env.rank);
                let raw = Arc::clone(shmem.raw());
                let heap = Arc::clone(shmem.heap());
                // Allocation watermark after module init: every round
                // resets to it, so replayed rounds allocate identical
                // addresses.
                let base_alloc = raw.alloc_watermark();
                // Checkpointed application state: (next round, digest).
                let state = Mutex::new((0u64, Vec::<u64>::new()));
                let round_fn = Arc::clone(&round_fn);
                let shmem2 = Arc::clone(&shmem);

                let digest = ctx
                    .run_supervised(
                        |bytes| {
                            // Layout: [raw_len u64][raw][next u64]
                            //         [dlen u64][digest..][heap..]
                            let rd = |off: usize| {
                                u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap())
                            };
                            let raw_len = rd(0) as usize;
                            raw.restore_state(&bytes[8..8 + raw_len]);
                            let mut off = 8 + raw_len;
                            let next = rd(off);
                            let dlen = rd(off + 8) as usize;
                            off += 16;
                            let digest: Vec<u64> = (0..dlen).map(|i| rd(off + i * 8)).collect();
                            off += dlen * 8;
                            heap.write_bytes(0, &bytes[off..]);
                            *state.lock() = (next, digest);
                        },
                        |_attempt| {
                            while state.lock().0 < rounds {
                                let round = state.lock().0;
                                raw.reset_alloc(base_alloc);
                                let d = round_fn(&shmem2, round);
                                shmem2.barrier_all();
                                {
                                    let mut st = state.lock();
                                    st.1.extend(d);
                                    st.0 += 1;
                                }
                                ctx.checkpoint(|| {
                                    let raw_img = raw.state_snapshot();
                                    let (next, ref digest) = *state.lock();
                                    let mut out = Vec::with_capacity(
                                        24 + raw_img.len() + digest.len() * 8 + heap.len(),
                                    );
                                    out.extend_from_slice(&(raw_img.len() as u64).to_le_bytes());
                                    out.extend_from_slice(&raw_img);
                                    out.extend_from_slice(&next.to_le_bytes());
                                    out.extend_from_slice(&(digest.len() as u64).to_le_bytes());
                                    for d in digest {
                                        out.extend_from_slice(&d.to_le_bytes());
                                    }
                                    let mut img = vec![0u8; heap.len()];
                                    heap.read_bytes(0, &mut img);
                                    out.extend_from_slice(&img);
                                    out
                                });
                                ctx.crash_point();
                            }
                            state.lock().1.clone()
                        },
                    )
                    .expect("supervised recovery must succeed");
                let snap = env.runtime.stats().snapshot();
                rec2.fetch_add(snap.ranks_recovered, Ordering::Relaxed);
                digest
            },
        );

    let elapsed = t0.elapsed();
    // Break the harness ↔ engine cycle so this run's reliable endpoints
    // (and their retry threads) die with it instead of piling up across
    // the grid.
    harness.shutdown();

    SupervisedOutcome {
        digest,
        recoveries: victim
            .map(|v| harness.supervisor().attempts(v as u32))
            .unwrap_or(0),
        ranks_recovered: recovered.load(Ordering::Relaxed),
        elapsed,
    }
}

/// ISx parameters for the recovery grid (small enough that a multi-round
/// supervised run stays fast; the digest is the full sorted key array).
pub fn isx_recovery_params() -> IsxParams {
    IsxParams {
        keys_per_rank: 2048,
        key_max: 1 << 16,
        ..Default::default()
    }
}

/// Supervised ISx: 4 ranks, `rounds` bucket sorts, a seeded kill-mid-run
/// schedule (or `None` for the fault-free baseline). The digest must be
/// bit-identical either way.
pub fn run_supervised_isx(kill: Option<KillSpec>, rounds: u64) -> SupervisedOutcome {
    let params = isx_recovery_params();
    run_supervised_rounds(
        "isx",
        4,
        1 << 19,
        rounds,
        kill,
        Arc::new(move |shmem: &Arc<ShmemModule>, _round: u64| {
            isx::run_hiper(shmem, &params).sorted
        }),
    )
}

/// UTS parameters for the recovery grid.
pub fn uts_recovery_params() -> UtsParams {
    UtsParams {
        max_depth: 9,
        ..Default::default()
    }
}

/// Supervised UTS: 2 ranks (single link per direction — hand-over replay
/// must be serial, see the module docs), `rounds` tree counts. The digest is
/// each round's global node count, which must match both the fault-free
/// baseline and the sequential oracle.
pub fn run_supervised_uts(kill: Option<KillSpec>, rounds: u64) -> SupervisedOutcome {
    let params = uts_recovery_params();
    run_supervised_rounds(
        "uts",
        2,
        1 << 22,
        rounds,
        kill,
        Arc::new(move |shmem: &Arc<ShmemModule>, _round: u64| {
            vec![uts::run_hiper(shmem, &params).global_count]
        }),
    )
}
