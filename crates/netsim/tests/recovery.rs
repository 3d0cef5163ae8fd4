//! Recovery harness tests (DESIGN.md §2.13): quiesced endpoints hold
//! in-flight sends without burning retry budget, a double-kill of the same
//! rank (the second during replay) still converges, the per-rank circuit
//! breaker refuses recovery once its budget is spent, and killing a rank
//! that never checkpointed degrades to a terminal `Unreachable` instead of
//! hanging.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use hiper_netsim::{
    Channel, Cluster, FaultPlan, KillSpec, NetConfig, RecoveryError, ReliableTransport,
    RetryConfig, SpmdBuilder, SupervisedCtx, SupervisorHarness,
};
use hiper_runtime::SchedulerModule;
use parking_lot::Mutex;

/// A quiesced peer neither receives retransmits nor burns retry budget:
/// frames sent during the hold arrive intact after release, even though the
/// hold outlives what the retry budget would normally tolerate.
#[test]
fn quiesce_holds_in_flight_sends_without_burning_budget() {
    let plan = FaultPlan::seeded(11).arm();
    let cluster = Cluster::start_with_faults(2, NetConfig::instant(), Some(plan));
    // Tiny budget: 4 attempts x <=4ms. A 200ms hold would exhaust it many
    // times over if quiescing merely delayed retransmits.
    let cfg = RetryConfig {
        timeout: Duration::from_millis(1),
        backoff: 2.0,
        max_timeout: Duration::from_millis(4),
        max_attempts: 4,
    };
    let sender = ReliableTransport::new(cluster.transport(0), "test", cfg);
    let receiver = ReliableTransport::new(cluster.transport(1), "test", cfg);
    sender.register_handler(Channel::APP, Box::new(|_| {}));
    let seen = Arc::new(Mutex::new(Vec::new()));
    let seen2 = Arc::clone(&seen);
    receiver.register_handler(Channel::APP, Box::new(move |m| seen2.lock().push(m.tag)));

    sender.quiesce_peer(1, true);
    for tag in 0..20u64 {
        sender.send(
            1,
            Channel::APP,
            tag,
            Bytes::from(tag.to_le_bytes().to_vec()),
        );
    }
    std::thread::sleep(Duration::from_millis(200));
    assert!(
        seen.lock().is_empty(),
        "a quiesced endpoint must not touch the wire"
    );
    assert!(
        sender.health().is_ok(),
        "the hold must not burn the retry budget"
    );

    sender.quiesce_peer(1, false);
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline && seen.lock().len() < 20 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let got = seen.lock().clone();
    assert_eq!(
        got,
        (0..20).collect::<Vec<_>>(),
        "release delivers in order"
    );
    assert!(sender.health().is_ok());
    cluster.stop();
}

/// What rank 0 of [`supervised_sum_run`] saw.
struct SumRun {
    /// The checkpointed sum, or why recovery gave up.
    sum: Result<u64, RecoveryError>,
    /// Tags of the peer's stream rank 0 received (after a successful run).
    tags: Vec<u64>,
    /// Recovery attempts the harness started for rank 0.
    attempts: u32,
    /// Recoveries of rank 0 that completed.
    recoveries: u32,
}

/// Shared wiring for the supervised SPMD tests: rank 0 runs a checkpointed
/// iterative sum under a kill schedule, with a recovery budget of `budget`,
/// while rank 1 streams reliable tagged frames at it.
fn supervised_sum_run(
    dir: std::path::PathBuf,
    kill: Option<KillSpec>,
    budget: u32,
    n_msgs: u64,
) -> SumRun {
    let _ = std::fs::remove_dir_all(&dir);
    let harness = SupervisorHarness::new(2, kill, budget);
    let h_main = Arc::clone(&harness);
    let done = Arc::new(AtomicBool::new(false));

    let results = SpmdBuilder::new(2)
        .faults(FaultPlan::seeded(99).arm())
        .platform(|_| hiper_platform::autogen::figure2(2))
        .run(
            move |rank, transport| {
                let ckpt = hiper_checkpoint::CheckpointModule::new(dir.join(format!("r{}", rank)));
                let endpoint = ReliableTransport::new(transport, "test", RetryConfig::default());
                let received: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
                let sink = Arc::clone(&received);
                endpoint.register_handler(Channel::APP, Box::new(move |m| sink.lock().push(m.tag)));
                (
                    vec![Arc::clone(&ckpt) as Arc<dyn SchedulerModule>],
                    (ckpt, endpoint, received),
                )
            },
            move |env, (ckpt, endpoint, received)| {
                h_main.register(env.rank, Arc::clone(&endpoint), env.transport.engine());
                if env.rank == 1 {
                    // Peer: stream tagged frames at the victim throughout
                    // its (possibly replayed) run.
                    for tag in 0..n_msgs {
                        endpoint.send(0, Channel::APP, tag, Bytes::from(vec![0u8; 8]));
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    while !done.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    return None;
                }

                let ctx = SupervisedCtx::new(Arc::clone(&h_main), ckpt, env.rank);
                // Checkpointed state: (next iteration, running sum, tags
                // received so far). The handler feeds `received` from the
                // engine thread; the atomic checkpoint cut (pause + capture)
                // keeps it consistent with the transport watermarks.
                let state = Arc::new(Mutex::new((0u64, 0u64)));
                let st = Arc::clone(&state);
                let rx = Arc::clone(&received);
                let sum = ctx.run_supervised(
                    move |bytes| {
                        let next = u64::from_le_bytes(bytes[..8].try_into().unwrap());
                        let sum = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
                        *st.lock() = (next, sum);
                        let tags: Vec<u64> = bytes[16..]
                            .chunks_exact(8)
                            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                            .collect();
                        *rx.lock() = tags;
                    },
                    |_attempt| {
                        loop {
                            let (next, _) = *state.lock();
                            if next >= 5 {
                                break;
                            }
                            {
                                let mut s = state.lock();
                                s.1 += s.0;
                                s.0 += 1;
                            }
                            ctx.checkpoint(|| {
                                let (next, sum) = *state.lock();
                                let mut out = Vec::new();
                                out.extend_from_slice(&next.to_le_bytes());
                                out.extend_from_slice(&sum.to_le_bytes());
                                for t in received.lock().iter() {
                                    out.extend_from_slice(&t.to_le_bytes());
                                }
                                out
                            });
                            ctx.crash_point();
                        }
                        state.lock().1
                    },
                );
                // Wait for the peer's full stream (retransmits included).
                let deadline = Instant::now() + Duration::from_secs(30);
                while sum.is_ok()
                    && Instant::now() < deadline
                    && (received.lock().len() as u64) < n_msgs
                {
                    std::thread::sleep(Duration::from_millis(5));
                }
                done.store(true, Ordering::Release);
                Some(SumRun {
                    sum,
                    tags: received.lock().clone(),
                    attempts: h_main.attempts(0),
                    recoveries: h_main.recoveries(0),
                })
            },
        );
    results.into_iter().next().unwrap().unwrap()
}

/// Double-kill of the same rank: the first at crossing 3 and the second at
/// crossing 4 — the first crash point the *replayed* run reaches. Both
/// recoveries must succeed, the checkpointed sum must be bit-identical to a
/// fault-free run, and the peer's stream must still arrive exactly once in
/// order (epoch bumps discard pre-crash duplicates, retention logs replay
/// the rolled-back suffix).
#[test]
fn double_kill_during_replay_converges() {
    let n_msgs = 30u64;
    let kill = KillSpec {
        rank: 0,
        at_points: vec![3, 4],
    };
    let dir = std::env::temp_dir().join("hiper_recovery_double_kill");
    let run = supervised_sum_run(dir, Some(kill), 3, n_msgs);
    assert_eq!(run.sum, Ok(10), "sum 0..5 must match the fault-free value");
    assert_eq!(run.attempts, 2, "two kills => two recovery attempts");
    assert_eq!(run.recoveries, 2, "both recoveries complete");
    assert_eq!(
        run.tags,
        (0..n_msgs).collect::<Vec<_>>(),
        "peer stream must survive both recoveries exactly once, in order"
    );
}

/// Baseline sanity: the same supervised workload with no kill schedule
/// produces the same sum and stream with zero recoveries.
#[test]
fn supervised_run_without_faults_is_plain() {
    let n_msgs = 30u64;
    let dir = std::env::temp_dir().join("hiper_recovery_no_kill");
    let run = supervised_sum_run(dir, None, 3, n_msgs);
    assert_eq!(run.sum, Ok(10));
    assert_eq!(run.attempts, 0, "no kills => no recoveries");
    assert_eq!(run.recoveries, 0);
    assert_eq!(run.tags, (0..n_msgs).collect::<Vec<_>>());
}

/// The circuit breaker opens once a rank's budget is spent: with a budget
/// of 2 and kills at the first three crash points, the first two recover
/// and the third surfaces `CircuitOpen` instead of recovering again.
#[test]
fn circuit_breaker_opens_after_budget() {
    let kill = KillSpec {
        rank: 0,
        at_points: vec![1, 2, 3],
    };
    let dir = std::env::temp_dir().join("hiper_recovery_breaker");
    let run = supervised_sum_run(dir, Some(kill), 2, 10);
    assert_eq!(run.sum, Err(RecoveryError::CircuitOpen));
    assert_eq!(run.attempts, 2, "the refused kill starts no attempt");
    assert_eq!(run.recoveries, 2);
}

/// A zero budget never recovers: the first kill opens the breaker.
#[test]
fn zero_budget_always_degrades() {
    let kill = KillSpec {
        rank: 0,
        at_points: vec![1],
    };
    let dir = std::env::temp_dir().join("hiper_recovery_zero_budget");
    let run = supervised_sum_run(dir, Some(kill), 0, 10);
    assert_eq!(run.sum, Err(RecoveryError::CircuitOpen));
    assert_eq!(run.attempts, 0);
    assert_eq!(run.recoveries, 0);
}

/// Killing a rank that never checkpointed must degrade, not hang: the
/// recovery fails terminally (`NoCheckpoint`, no completed recovery), the
/// rank stays severed, and the peer's retry budget exhausts into the typed
/// `Unreachable` error.
#[test]
fn kill_of_never_checkpointed_rank_degrades_to_unreachable() {
    let dir = std::env::temp_dir().join("hiper_recovery_no_ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let kill = KillSpec {
        rank: 0,
        at_points: vec![1],
    };
    let harness = SupervisorHarness::new(2, Some(kill), 3);
    let h_main = Arc::clone(&harness);
    let dead = Arc::new(AtomicBool::new(false));

    let outcomes = SpmdBuilder::new(2)
        .faults(FaultPlan::seeded(5).arm())
        .platform(|_| hiper_platform::autogen::figure2(2))
        .run(
            move |rank, transport| {
                let ckpt = hiper_checkpoint::CheckpointModule::new(dir.join(format!("r{}", rank)));
                // Exhaust fast: the degradation path is the product here.
                let cfg = RetryConfig {
                    timeout: Duration::from_millis(1),
                    backoff: 2.0,
                    max_timeout: Duration::from_millis(4),
                    max_attempts: 4,
                };
                let endpoint = ReliableTransport::new(transport, "test", cfg);
                endpoint.register_handler(Channel::APP, Box::new(|_| {}));
                (
                    vec![Arc::clone(&ckpt) as Arc<dyn SchedulerModule>],
                    (ckpt, endpoint),
                )
            },
            move |env, (ckpt, endpoint)| {
                h_main.register(env.rank, Arc::clone(&endpoint), env.transport.engine());
                if env.rank == 1 {
                    // Wait out the victim's (failed) recovery, then poll
                    // health toward the corpse. No collectives: nothing
                    // here may block on rank 0.
                    while !dead.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    endpoint.send(0, Channel::APP, 7, Bytes::from_static(b"anyone home?"));
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while Instant::now() < deadline && endpoint.health().is_ok() {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    let err = endpoint.health().expect_err("budget must exhaust");
                    return format!("peer: {}", err);
                }
                // Victim: dies at its first crossing having never
                // checkpointed anything.
                let ctx = SupervisedCtx::new(Arc::clone(&h_main), ckpt, env.rank);
                let out = ctx.run_supervised(
                    |_| unreachable!("nothing to restore"),
                    |_attempt| {
                        ctx.crash_point();
                        42u64
                    },
                );
                let err = out.expect_err("no snapshot => recovery must fail");
                assert!(matches!(err, RecoveryError::NoCheckpoint), "got {:?}", err);
                dead.store(true, Ordering::Release);
                format!("victim: {}", err)
            },
        );
    assert!(outcomes[0].contains("no checkpoint"), "{}", outcomes[0]);
    assert_eq!(harness.attempts(0), 1, "the breaker let the attempt start");
    assert_eq!(harness.recoveries(0), 0);
    assert!(
        outcomes[1].contains("unreachable"),
        "peer must see the typed error, got: {}",
        outcomes[1]
    );
}

/// The seeded kill schedule is a pure function of the seed.
#[test]
fn kill_spec_is_deterministic_in_the_seed() {
    let a = KillSpec::seeded(0xBEEF, 4, 10);
    let b = KillSpec::seeded(0xBEEF, 4, 10);
    assert_eq!(a.rank, b.rank);
    assert_eq!(a.at_points, b.at_points);
    assert!((a.rank) < 4);
    assert!(a.at_points[0] >= 1 && a.at_points[0] <= 10);
    let c = KillSpec::seeded(0xBEE0, 4, 10);
    assert!(
        c.rank != a.rank || c.at_points != a.at_points,
        "different seeds should (here) give a different schedule"
    );
}
