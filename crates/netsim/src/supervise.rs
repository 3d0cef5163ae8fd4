//! Supervised execution: cooperative rank kills and checkpoint-replay
//! recovery for the simulated cluster (DESIGN.md §2.13).
//!
//! Ranks in the simulator are threads, so a "rank failure" cannot be a
//! process kill; instead supervised workloads are written as iterative,
//! barrier-delimited loops that call [`SupervisorHarness::crash_point`] at a
//! fixed point in each iteration — immediately *after* taking a checkpoint
//! and *before* doing any work or sending anything. A seeded [`KillSpec`]
//! decides which rank dies at which crash-point visit, so the kill schedule
//! is replayable from the seed exactly like the wire-level
//! [`FaultPlan`](crate::FaultPlan).
//!
//! When a crash point fires, the victim's stack unwinds (a panic payload the
//! harness recognises, skipping the panic hook) out of the workload body and
//! into [`SupervisedCtx::run_supervised`], which drives the recovery
//! sequence:
//!
//! 1. **Detect** — claim a recovery attempt (the per-rank circuit breaker
//!    refuses once `max_recoveries_per_rank` attempts are spent), sever the
//!    rank in the [`DeliveryEngine`] so in-flight traffic to/from it drains
//!    away.
//! 2. **Quiesce** — hold every peer's reliable endpoint toward the victim:
//!    no retransmits, no budget burn, sends queue.
//! 3. **Restore** — read the newest intact snapshot via
//!    `CheckpointModule::restore_latest` and hand the application bytes to
//!    the caller's restore hook (heap image, pending-recv state, …).
//! 4. **Replay** — revive the rank, bump the endpoint epoch
//!    ([`ReliableTransport::restart`]) so peers roll their cursors back to
//!    the snapshot's receive watermarks and retransmit from their retention
//!    logs, then release the quiesce holds.
//! 5. **Resume** — re-run the workload body from the restored state.
//!
//! The correctness argument for exactly-once replay: the victim sends
//! *nothing* between the checkpoint cut and the crash point, so the replay
//! window has zero pre-crash effects on peers; peer→victim frames delivered
//! after the cut are rolled back by the watermark reset and redelivered from
//! retention logs; stale pre-crash victim frames still floating in queues
//! carry the old epoch and are discarded on arrival.
//!
//! If no intact snapshot exists the recovery **degrades**: the rank stays
//! severed, peers' retry budgets exhaust into the module's typed
//! `Unreachable` error, a flight record is dumped for post-mortem, and
//! [`run_supervised`](SupervisedCtx::run_supervised) returns
//! [`RecoveryError::NoCheckpoint`]. The trace records every outage as a
//! `rank_down` / `rank_restored` pair emitted by the engine.

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hiper_checkpoint::CheckpointModule;
use hiper_runtime::watchdog;
use parking_lot::Mutex;

use crate::engine::DeliveryEngine;
use crate::message::Rank;
use crate::reliable::ReliableTransport;

/// Why a recovery attempt could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryError {
    /// No checkpoint snapshot exists for the rank (it died before its
    /// first checkpoint). The rank degrades to a terminal unreachable.
    NoCheckpoint,
    /// The rank's recovery budget is spent; the breaker converts further
    /// failures into the ordinary typed error path.
    CircuitOpen,
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::NoCheckpoint => write!(f, "no checkpoint available for rank"),
            RecoveryError::CircuitOpen => write!(f, "recovery circuit breaker open"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// splitmix64 finalizer (same mixer as [`FaultPlan`](crate::FaultPlan)).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The panic payload a [`crash_point`](SupervisorHarness::crash_point)
/// unwinds with. [`SupervisedCtx::run_supervised`] catches exactly this
/// type; any other panic propagates unchanged.
pub struct CrashToken;

/// A seeded, replayable kill schedule for supervised runs: `rank` dies on
/// its `at_points`-th visits to the crash point (1-based, counted across
/// replays — so `[3, 4]` kills the original run's third iteration and then
/// the *first* replayed iteration again, the double-kill case).
#[derive(Debug, Clone)]
pub struct KillSpec {
    /// The victim rank.
    pub rank: Rank,
    /// Crash-point visit counts (1-based) at which the victim dies.
    pub at_points: Vec<u64>,
}

impl KillSpec {
    /// Derives a single-kill schedule from a seed: the victim and the
    /// crash-point index (within `1..=max_point`) are pure functions of
    /// `(seed, nranks, max_point)`, so two runs with the same seed kill the
    /// same rank at the same place.
    pub fn seeded(seed: u64, nranks: usize, max_point: u64) -> KillSpec {
        debug_assert!(nranks > 0 && max_point > 0);
        KillSpec {
            rank: (mix(seed ^ 0xdead) % nranks as u64) as Rank,
            at_points: vec![mix(seed ^ 0x5e1f) % max_point + 1],
        }
    }
}

/// Shared state for one supervised run: every rank's reliable endpoint
/// (recovery must quiesce *peers'* endpoints, not just the victim's), the
/// kill schedule, and the per-rank recovery counts the circuit breaker
/// checks. Created by the driver before `SpmdBuilder::run` and cloned into
/// the per-rank closures.
pub struct SupervisorHarness {
    nranks: usize,
    kill: Option<KillSpec>,
    /// Recovery attempts allowed per rank before the breaker opens.
    max_recoveries_per_rank: u32,
    endpoints: Mutex<Vec<Option<Arc<ReliableTransport>>>>,
    engine: Mutex<Option<Arc<DeliveryEngine>>>,
    /// Per-rank crash-point visit counters (increment on every visit,
    /// including replayed iterations).
    crossings: Vec<AtomicU64>,
    /// Per-rank recovery attempts started (each one the breaker let pass).
    attempts: Vec<AtomicU32>,
    /// Per-rank recoveries that completed: the rank is live again.
    recoveries: Vec<AtomicU32>,
}

impl SupervisorHarness {
    /// A harness for `nranks` ranks with an optional kill schedule. Each
    /// rank's recovery circuit breaker opens after
    /// `max_recoveries_per_rank` attempts (0: every kill degrades).
    pub fn new(nranks: usize, kill: Option<KillSpec>, max_recoveries_per_rank: u32) -> Arc<Self> {
        Arc::new(SupervisorHarness {
            nranks,
            kill,
            max_recoveries_per_rank,
            endpoints: Mutex::new(vec![None; nranks]),
            engine: Mutex::new(None),
            crossings: (0..nranks).map(|_| AtomicU64::new(0)).collect(),
            attempts: (0..nranks).map(|_| AtomicU32::new(0)).collect(),
            recoveries: (0..nranks).map(|_| AtomicU32::new(0)).collect(),
        })
    }

    /// Recovery attempts started for `rank` so far.
    pub fn attempts(&self, rank: Rank) -> u32 {
        self.attempts[rank].load(Ordering::Relaxed)
    }

    /// Recoveries of `rank` that completed (the rank came back live).
    pub fn recoveries(&self, rank: Rank) -> u32 {
        self.recoveries[rank].load(Ordering::Relaxed)
    }

    /// Wires one rank into the harness: stores its reliable endpoint and
    /// (first call only) the engine every rank shares.
    pub fn register(
        &self,
        rank: Rank,
        endpoint: Arc<ReliableTransport>,
        engine: &Arc<DeliveryEngine>,
    ) {
        endpoint.enable_retention();
        self.endpoints.lock()[rank] = Some(endpoint);
        self.engine.lock().get_or_insert_with(|| engine.clone());
    }

    /// A cooperative crash point. Every rank calls this once per iteration
    /// (including replayed iterations); the scheduled victim unwinds with a
    /// [`CrashToken`] on its scheduled visits. Must be called *outside* any
    /// finish scope and *before* any post-checkpoint sends.
    pub fn crash_point(&self, rank: Rank) {
        let n = self.crossings[rank].fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(k) = &self.kill {
            if k.rank == rank && k.at_points.contains(&n) {
                // Drain the victim's send side before it dies: frames
                // sent before the checkpoint cut (barrier arrivals, late
                // round data) can still be unacked here, and the restart
                // voids the dead incarnation's sequence space — an
                // undelivered pre-cut frame would be lost forever, since
                // replay only regenerates sends *after* the cut. Waiting
                // for cumulative acks makes the crash lose nothing the
                // peers still need. (Post-cut handler sends delivered
                // meanwhile are rolled back at the peers by the watermark
                // reset and regenerated by replay.)
                if let Some(ep) = self.endpoints.lock()[rank].clone() {
                    ep.flush(Duration::from_secs(2));
                }
                // resume_unwind skips the panic hook: this is a simulated
                // failure, not a bug worth a backtrace.
                panic::resume_unwind(Box::new(CrashToken));
            }
        }
    }

    /// Crash-point visits so far for `rank` (test observability).
    pub fn crossings(&self, rank: Rank) -> u64 {
        self.crossings[rank].load(Ordering::Relaxed)
    }

    fn endpoint(&self, rank: Rank) -> Arc<ReliableTransport> {
        loop {
            if let Some(ep) = self.endpoints.lock()[rank].clone() {
                return ep;
            }
            // Registration races startup; recovery is rare enough to spin.
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    fn engine(&self) -> Arc<DeliveryEngine> {
        self.engine.lock().clone().expect("harness registered")
    }

    /// Holds (or releases) every *other* rank's endpoint toward `victim`.
    fn quiesce_peers(&self, victim: Rank, on: bool) {
        for r in 0..self.nranks {
            if r == victim {
                continue;
            }
            self.endpoint(r).quiesce_peer(victim, on);
        }
    }
}

/// Per-rank handle for a supervised workload: owns the checkpoint naming,
/// version counter, and the recovery driver.
pub struct SupervisedCtx {
    harness: Arc<SupervisorHarness>,
    ckpt: Arc<CheckpointModule>,
    rank: Rank,
    name: String,
    version: AtomicU64,
}

impl SupervisedCtx {
    /// A supervised context for `rank`, writing snapshots named
    /// `rank<rank>` through `ckpt`. The rank must already be
    /// [`register`](SupervisorHarness::register)ed.
    pub fn new(harness: Arc<SupervisorHarness>, ckpt: Arc<CheckpointModule>, rank: Rank) -> Self {
        SupervisedCtx {
            harness,
            ckpt,
            rank,
            name: format!("rank{}", rank),
            version: AtomicU64::new(0),
        }
    }

    /// See [`SupervisorHarness::crash_point`].
    pub fn crash_point(&self) {
        self.harness.crash_point(self.rank);
    }

    /// Takes a durable checkpoint of this rank: an atomic cut of the
    /// reliable-transport receive watermarks plus the application bytes
    /// produced by `app_state`. The engine pauses the rank's deliveries for
    /// the duration of the capture so the two halves form one consistent
    /// snapshot (a frame delivering *between* the captures would otherwise
    /// be lost or double-applied on replay); dropped frames are recovered
    /// by the armed reliable layer's retransmission.
    ///
    /// After the write is durable, peers are told the watermarks
    /// ([`ReliableTransport::checkpoint_mark`]) so their retention logs can
    /// shed frames the snapshot covers.
    pub fn checkpoint(&self, app_state: impl FnOnce() -> Vec<u8>) {
        let engine = self.harness.engine();
        let ep = self.harness.endpoint(self.rank);
        engine.pause_rank(self.rank);
        let wms = ep.recv_watermarks();
        let app = app_state();
        engine.unpause_rank(self.rank);

        let mut image = Vec::with_capacity(8 + wms.len() * 8 + app.len());
        image.extend_from_slice(&(wms.len() as u64).to_le_bytes());
        for w in &wms {
            image.extend_from_slice(&w.to_le_bytes());
        }
        image.extend_from_slice(&app);

        let version = self.version.fetch_add(1, Ordering::Relaxed) + 1;
        self.ckpt.checkpoint(&self.name, version, image).wait();
        // Only after the write is durable may peers GC their retention
        // logs: an earlier mark could shed frames the next restore needs.
        ep.checkpoint_mark(&wms);
    }

    /// Runs `body` under supervision: crashes scheduled by the harness's
    /// [`KillSpec`] are caught, the rank is recovered from its newest
    /// intact snapshot (application bytes handed to `restore`), and `body`
    /// re-runs. `body` receives the 1-based attempt number. Panics that are
    /// not crash tokens propagate unchanged.
    pub fn run_supervised<R>(
        &self,
        mut restore: impl FnMut(&[u8]),
        mut body: impl FnMut(u32) -> R,
    ) -> Result<R, RecoveryError> {
        let mut attempt = 1u32;
        loop {
            match panic::catch_unwind(AssertUnwindSafe(|| body(attempt))) {
                Ok(r) => return Ok(r),
                Err(payload) => {
                    if !payload.is::<CrashToken>() {
                        panic::resume_unwind(payload);
                    }
                    self.recover(&mut restore)?;
                    attempt += 1;
                }
            }
        }
    }

    /// The detect → quiesce → restore → replay → resume sequence. On a
    /// missing/corrupt snapshot or an open circuit breaker the rank is left
    /// severed (degradation: peers' budgets exhaust into `Unreachable`).
    fn recover(&self, restore: &mut dyn FnMut(&[u8])) -> Result<(), RecoveryError> {
        let rank = self.rank;
        let engine = self.harness.engine();

        // The circuit breaker: only this rank's own thread recovers it, so
        // the check and the bump cannot race.
        let attempts = &self.harness.attempts[rank];
        if attempts.load(Ordering::Relaxed) >= self.harness.max_recoveries_per_rank {
            self.dump_flight_record("recovery circuit breaker open");
            return Err(RecoveryError::CircuitOpen);
        }
        attempts.fetch_add(1, Ordering::Relaxed);

        // Sever the rank (emits the RankDown trace event) and hold every
        // peer's retransmits toward it.
        engine.set_rank_down(rank, true);
        self.harness.quiesce_peers(rank, true);

        let restored = self
            .ckpt
            .restore_latest(&self.name)
            .and_then(|fut| fut.get().ok());
        let (version, image) = match restored {
            Some(v) => v,
            None => {
                // Degrade: no intact snapshot. The rank stays severed;
                // releasing the peer holds lets their budgets exhaust into
                // the module's typed Unreachable error instead of hanging.
                self.dump_flight_record("rank recovery failed: no intact checkpoint");
                self.harness.quiesce_peers(rank, false);
                return Err(RecoveryError::NoCheckpoint);
            }
        };

        // Split the image back into watermarks + application bytes.
        let n = u64::from_le_bytes(image[..8].try_into().unwrap()) as usize;
        let mut wms = Vec::with_capacity(n);
        for i in 0..n {
            let off = 8 + i * 8;
            wms.push(u64::from_le_bytes(image[off..off + 8].try_into().unwrap()));
        }
        restore(&image[8 + n * 8..]);
        // Replay resumes version numbering from the restored snapshot.
        self.version.store(version, Ordering::Relaxed);

        // Revive the rank first so RESTART frames can flow, then bump the
        // epoch (rolls peers' cursors back to the snapshot watermarks and
        // triggers retention-log retransmits), then release the holds. The
        // unquiesce/RESTART order is safe either way: peers' numbering
        // toward the victim is continuous, so frames below the restored
        // watermark are acked-and-dropped as duplicates and frames at or
        // above it deliver in order.
        let ep = self.harness.endpoint(rank);
        // The revive event names the incarnation peers are about to meet;
        // restart() below bumps the epoch by exactly one.
        let new_epoch = ep.epoch() + 1;
        engine.set_rank_restored(rank, new_epoch);
        let epoch = ep.restart(&wms);
        debug_assert_eq!(epoch, new_epoch);
        self.harness.quiesce_peers(rank, false);
        self.harness.recoveries[rank].fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Dumps a watchdog flight record on the degradation path, but only
    /// when someone is watching (an explicit `HIPER_WATCHDOG_FILE` sink or
    /// an armed watchdog) — plain unit tests shouldn't litter the cwd.
    fn dump_flight_record(&self, reason: &str) {
        if watchdog::recording() {
            watchdog::dump_record(reason);
        }
    }
}
