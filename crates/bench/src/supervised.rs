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
//! bit** — that is the acceptance criterion of [`run_recovery_grid`], which
//! `chaos_check --recovery` and the root `tests/recovery_grid.rs` run.
//!
//! Rank-count constraints: what a UTS rank hands over depends on which of
//! its peers' requests it sees first, that is, on the order they arrive in,
//! so its supervised runs use 2 ranks — a single link per direction makes
//! replay serial and deterministic. ISx's boundary ops
//! (put at absolute offsets, fetch-add reservations) commute, so 4 ranks
//! are safe.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hiper_checkpoint::CheckpointModule;
use hiper_netsim::{
    Channel, FaultPlan, KillSpec, NetConfig, RecoveryError, ReliableTransport, RetryConfig,
    SpmdBuilder, SupervisedCtx, SupervisorHarness,
};
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
    /// Recoveries of the victim rank that completed.
    pub completed: u32,
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

                ctx.run_supervised(
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
                .expect("supervised recovery must succeed")
            },
        );

    SupervisedOutcome {
        digest,
        recoveries: victim.map_or(0, |v| harness.attempts(v)),
        completed: victim.map_or(0, |v| harness.recoveries(v)),
        elapsed: t0.elapsed(),
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

/// One cell of the recovery grid: a workload killed mid-run under a seeded
/// schedule, compared with its fault-free supervised baseline.
pub struct RecoveryCell {
    /// Workload name (`isx`, `uts`).
    pub name: &'static str,
    /// The kill schedule the cell ran under.
    pub kill: KillSpec,
    /// The killed run's observables.
    pub killed: SupervisedOutcome,
    /// The killed run's digest equals the fault-free baseline's.
    pub identical: bool,
    /// A second killed run from the same seed reproduced the digest.
    pub deterministic: bool,
}

impl RecoveryCell {
    /// At least one recovery was started and completed.
    pub fn recovered(&self) -> bool {
        self.killed.recoveries >= 1 && self.killed.completed >= 1
    }

    /// Identical to the baseline, deterministic, and actually recovered.
    pub fn ok(&self) -> bool {
        self.identical && self.deterministic && self.recovered()
    }

    /// `OK`, or the first check that failed.
    pub fn verdict(&self) -> &'static str {
        if self.ok() {
            "OK"
        } else if !self.identical {
            "DIGEST MISMATCH"
        } else if !self.deterministic {
            "NON-DETERMINISTIC"
        } else {
            "NO RECOVERY DRIVEN"
        }
    }
}

/// The recovery grid: ISx and UTS each run fault-free, then twice with the
/// same seeded rank kill mid-run. The cells share fixed checkpoint
/// directories under the system temp dir, so two grids must not run at
/// once in one process.
pub fn run_recovery_grid(seed: u64) -> Vec<RecoveryCell> {
    type Runner = fn(Option<KillSpec>, u64) -> SupervisedOutcome;
    let rounds = 3u64;
    let grid: [(&'static str, usize, Runner); 2] = [
        ("isx", 4, run_supervised_isx),
        ("uts", 2, run_supervised_uts),
    ];
    grid.into_iter()
        .map(|(name, nranks, runner)| {
            let kill = KillSpec::seeded(seed ^ name.len() as u64, nranks, rounds);
            let baseline = runner(None, rounds);
            let killed = runner(Some(kill.clone()), rounds);
            let killed2 = runner(Some(kill.clone()), rounds);
            RecoveryCell {
                name,
                kill,
                identical: killed.digest == baseline.digest,
                deterministic: killed2.digest == killed.digest,
                killed,
            }
        })
        .collect()
}

/// Degradation scenario: kill a rank that never checkpointed. The recovery
/// must fail terminally (`NoCheckpoint`), the peer must see the typed
/// `Unreachable` error within its retry budget, and — when
/// `HIPER_WATCHDOG_FILE` is set — a flight record is dumped for
/// post-mortem. Returns true when the degradation is clean.
pub fn run_degradation() -> bool {
    let dir = std::env::temp_dir().join("hiper_chaos_degrade");
    let _ = std::fs::remove_dir_all(&dir);
    let h_main = SupervisorHarness::new(
        2,
        Some(KillSpec {
            rank: 0,
            at_points: vec![1],
        }),
        3,
    );
    let dead = Arc::new(AtomicBool::new(false));
    let outcomes = SpmdBuilder::new(2)
        .faults(FaultPlan::seeded(1).arm())
        .platform(|_| hiper_platform::autogen::figure2(1))
        .run(
            move |rank, transport| {
                let ckpt = CheckpointModule::new(dir.join(format!("r{}", rank)));
                let cfg = RetryConfig {
                    timeout: Duration::from_millis(1),
                    backoff: 2.0,
                    max_timeout: Duration::from_millis(4),
                    max_attempts: 4,
                };
                let ep = ReliableTransport::new(transport, "chaos", cfg);
                ep.register_handler(Channel::APP, Box::new(|_| {}));
                (
                    vec![Arc::clone(&ckpt) as Arc<dyn SchedulerModule>],
                    (ckpt, ep),
                )
            },
            move |env, (ckpt, ep)| {
                h_main.register(env.rank, Arc::clone(&ep), env.transport.engine());
                if env.rank == 1 {
                    while !dead.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    ep.send(0, Channel::APP, 1, bytes::Bytes::from_static(b"ping"));
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while Instant::now() < deadline && ep.health().is_ok() {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    return ep.health().is_err();
                }
                let ctx = SupervisedCtx::new(Arc::clone(&h_main), ckpt, env.rank);
                let out = ctx.run_supervised(|_| {}, |_| ctx.crash_point());
                dead.store(true, Ordering::Release);
                matches!(out, Err(RecoveryError::NoCheckpoint))
            },
        );
    outcomes.iter().all(|&ok| ok)
}
