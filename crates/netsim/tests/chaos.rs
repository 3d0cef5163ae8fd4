//! Chaos tests: the fault-injection plan must be replayable from its seed,
//! and the reliable transport must restore exactly-once in-order delivery
//! on top of it (DESIGN.md §2.9).

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use hiper_netsim::{
    Channel, Cluster, DeliveryEngine, FaultPlan, Message, NetConfig, ReliableTransport, RetryConfig,
};
use parking_lot::Mutex;
use proptest::prelude::*;

fn msg(src: usize, dst: usize, tag: u64, payload: &[u8]) -> Message {
    Message::new(src, dst, Channel::APP, tag, Bytes::copy_from_slice(payload))
}

/// Runs one fixed send schedule against an engine armed with `plan`;
/// returns the delivered tag sequence plus (dropped, duplicated) counters.
fn run_schedule(plan: FaultPlan) -> (Vec<u64>, u64, u64) {
    let engine = DeliveryEngine::start_with_faults(2, NetConfig::instant(), Some(plan));
    let seen = Arc::new(Mutex::new(Vec::new()));
    let seen2 = Arc::clone(&seen);
    engine.register_handler(1, Channel::APP, Box::new(move |m| seen2.lock().push(m.tag)));
    for tag in 0..400u64 {
        engine.send(msg(0, 1, tag, b"x"));
    }
    // Drain: instant network, so a short grace period suffices.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut last = usize::MAX;
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        let now = seen.lock().len();
        if now == last {
            break;
        }
        last = now;
    }
    let snap = engine.stats.snapshot();
    engine.stop();
    let tags = seen.lock().clone();
    (tags, snap.dropped, snap.duplicated)
}

#[test]
fn same_seed_gives_identical_fault_schedule() {
    let plan = || FaultPlan::seeded(0xFEED).drop_p(0.2).dup_p(0.1);
    let (tags_a, dropped_a, dup_a) = run_schedule(plan());
    let (tags_b, dropped_b, dup_b) = run_schedule(plan());
    assert!(dropped_a > 0, "20% of 400 sends must drop some");
    assert!(dup_a > 0, "10% of 400 sends must duplicate some");
    assert_eq!(tags_a, tags_b, "delivery schedule must be replayable");
    assert_eq!((dropped_a, dup_a), (dropped_b, dup_b));
}

#[test]
fn different_seeds_give_different_schedules() {
    let (tags_a, ..) = run_schedule(FaultPlan::seeded(1).drop_p(0.2));
    let (tags_b, ..) = run_schedule(FaultPlan::seeded(2).drop_p(0.2));
    assert_ne!(tags_a, tags_b, "400 sends at 20% drop: seeds must diverge");
}

#[test]
fn handler_panics_are_counted_and_surfaced() {
    let engine = DeliveryEngine::start(2, NetConfig::instant());
    engine.register_handler(
        1,
        Channel::APP,
        Box::new(|m| {
            if m.tag % 2 == 0 {
                panic!("handler fault injection");
            }
        }),
    );
    for tag in 0..10u64 {
        engine.send(msg(0, 1, tag, b"x"));
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline && engine.stats.snapshot().handler_panics < 5 {
        std::thread::sleep(Duration::from_millis(10));
    }
    let snap = engine.stats.snapshot();
    engine.stop();
    assert_eq!(snap.handler_panics, 5, "every even tag panics");
    assert_eq!(snap.dropped, 5, "a panicked delivery is a lost message");
}

/// Tagged payloads observed by a receiving handler, in delivery order.
type Observed = Vec<(u64, Vec<u8>)>;

/// Reliable pt2pt between two ranks under `plan`: sends `n` tagged payloads
/// and returns what rank 1's handler observed.
fn reliable_exchange(plan: FaultPlan, cfg: RetryConfig, n: u64) -> (Observed, u64) {
    let cluster = Cluster::start_with_faults(2, NetConfig::instant(), Some(plan));
    let sender = ReliableTransport::new(cluster.transport(0), "test", cfg);
    let receiver = ReliableTransport::new(cluster.transport(1), "test", cfg);
    // Both endpoints of a reliable channel must register (acks flow back to
    // the sender's handler) — exactly what the MPI/SHMEM modules do.
    sender.register_handler(Channel::APP, Box::new(|_| {}));
    let seen: Arc<Mutex<Observed>> = Arc::new(Mutex::new(Vec::new()));
    let seen2 = Arc::clone(&seen);
    receiver.register_handler(
        Channel::APP,
        Box::new(move |m| seen2.lock().push((m.tag, m.payload.to_vec()))),
    );
    for i in 0..n {
        sender.send(1, Channel::APP, i, Bytes::from(i.to_le_bytes().to_vec()));
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline && (seen.lock().len() as u64) < n {
        std::thread::sleep(Duration::from_millis(5));
    }
    let retries = sender.retry_count();
    cluster.stop();
    let got = seen.lock().clone();
    (got, retries)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case runs a full lossy exchange with retries
        .. ProptestConfig::default()
    })]

    /// Exactly-once, in-order delivery survives drop rates up to 30% (on
    /// data *and* ack frames alike).
    #[test]
    fn reliable_pt2pt_delivers_exactly_once(
        seed in any::<u64>(),
        drop_p in 0.0f64..0.30,
    ) {
        let n = 60u64;
        let (got, _retries) = reliable_exchange(
            FaultPlan::seeded(seed).drop_p(drop_p),
            RetryConfig::default(),
            n,
        );
        prop_assert_eq!(got.len() as u64, n, "every payload must arrive");
        for (i, (tag, payload)) in got.iter().enumerate() {
            prop_assert_eq!(*tag, i as u64, "order must be restored");
            prop_assert_eq!(payload.as_slice(), &(i as u64).to_le_bytes());
        }
    }

    /// Jumbo coalescing must preserve per-channel FIFO and exactly-once
    /// delivery under the full fault grid (drop + dup + reorder): staged
    /// frames ride shared carriers, carriers get dropped/duplicated/
    /// reordered whole, and the seq layer must undo all of it. The burst
    /// runs on the default thresholds: 80 back-to-back 8-byte frames fill
    /// 16-frame stages.
    #[test]
    fn coalesced_framing_survives_fault_grid(
        seed in any::<u64>(),
        drop_p in 0.0f64..0.25,
        dup_p in 0.0f64..0.25,
        reorder_p in 0.0f64..0.25,
    ) {
        let n = 80u64;
        let plan = FaultPlan::seeded(seed)
            .drop_p(drop_p)
            .dup_p(dup_p)
            .reorder_p(reorder_p);
        let cluster = Cluster::start_with_faults(2, NetConfig::instant(), Some(plan));
        let sender = ReliableTransport::new(cluster.transport(0), "test", RetryConfig::default());
        let receiver = ReliableTransport::new(cluster.transport(1), "test", RetryConfig::default());
        sender.register_handler(Channel::APP, Box::new(|_| {}));
        let seen: Arc<Mutex<Observed>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        receiver.register_handler(
            Channel::APP,
            Box::new(move |m| seen2.lock().push((m.tag, m.payload.to_vec()))),
        );
        for i in 0..n {
            sender.send(1, Channel::APP, i, Bytes::from(i.to_le_bytes().to_vec()));
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline && (seen.lock().len() as u64) < n {
            std::thread::sleep(Duration::from_millis(5));
        }
        let coalesced = sender.frames_coalesced.load(std::sync::atomic::Ordering::Relaxed);
        cluster.stop();
        let got = seen.lock().clone();
        prop_assert_eq!(got.len() as u64, n, "exactly-once: every payload, no extras");
        for (i, (tag, payload)) in got.iter().enumerate() {
            prop_assert_eq!(*tag, i as u64, "per-channel FIFO must survive repacking");
            prop_assert_eq!(payload.as_slice(), &(i as u64).to_le_bytes());
        }
        // The burst is back-to-back sends: staging must actually engage.
        prop_assert!(coalesced > 0, "no frames were coalesced — Nagle path inert");
    }
}

#[test]
fn transient_kill_is_ridden_out_by_retries() {
    // Rank 1 is down for its first 100ms; the default retry budget spans
    // the outage, so everything still arrives exactly once.
    let plan = FaultPlan::seeded(3).kill(1, Duration::ZERO, Some(Duration::from_millis(100)));
    let (got, retries) = reliable_exchange(plan, RetryConfig::default(), 20);
    assert_eq!(got.len(), 20);
    assert!(
        got.iter().enumerate().all(|(i, (tag, _))| *tag == i as u64),
        "order must be restored: {:?}",
        got.iter().map(|(t, _)| *t).collect::<Vec<_>>()
    );
    assert!(
        retries > 0,
        "an outage without retransmissions is a miracle"
    );
}

#[test]
fn permanently_killed_rank_becomes_unreachable() {
    let plan = FaultPlan::seeded(4).kill(1, Duration::ZERO, None);
    let cfg = RetryConfig {
        timeout: Duration::from_millis(1),
        backoff: 2.0,
        max_timeout: Duration::from_millis(4),
        max_attempts: 4,
    };
    let cluster = Cluster::start_with_faults(2, NetConfig::instant(), Some(plan));
    let sender = ReliableTransport::new(cluster.transport(0), "test", cfg);
    sender.register_handler(Channel::APP, Box::new(|_| {}));
    assert!(sender.health().is_ok());
    sender.send(1, Channel::APP, 0, Bytes::from_static(b"into the void"));
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline && sender.health().is_ok() {
        std::thread::sleep(Duration::from_millis(5));
    }
    let err = sender.health().expect_err("retry budget must exhaust");
    let shown = err.to_string();
    assert!(
        shown.contains("rank 1 unreachable after 4 attempts"),
        "unexpected error: {}",
        shown
    );
    // Sends to a dead peer are discarded, not retried forever.
    sender.send(1, Channel::APP, 1, Bytes::from_static(b"still dead"));
    cluster.stop();
}

#[test]
fn passthrough_when_no_faults_armed() {
    let cluster = Cluster::start_with_faults(2, NetConfig::instant(), None);
    let sender = ReliableTransport::new(cluster.transport(0), "test", RetryConfig::default());
    let receiver = ReliableTransport::new(cluster.transport(1), "test", RetryConfig::default());
    assert!(!sender.enabled(), "no plan => no framing");
    let seen = Arc::new(Mutex::new(Vec::new()));
    let seen2 = Arc::clone(&seen);
    receiver.register_handler(Channel::APP, Box::new(move |m| seen2.lock().push(m.tag)));
    for i in 0..50u64 {
        sender.send(1, Channel::APP, i, Bytes::new());
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline && seen.lock().len() < 50 {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(seen.lock().len(), 50);
    assert_eq!(sender.retry_count(), 0, "pass-through never retries");
    cluster.stop();
}
