//! A traced message exchange under injected drops and duplicates keeps every
//! trace invariant: two ranks trade messages over a seeded lossy, duplicating
//! network, and the exported trace, read back and checked, must show at
//! least one drop and one duplicate while every `msg_deliver` still matches
//! its `msg_send` no earlier than send + modeled delay.
//!
//! Its own test binary: the tracer is process-global.

use std::sync::Arc;

use hiper::mpi::MpiModule;
use hiper::netsim::{FaultPlan, NetConfig, SpmdBuilder};
use hiper::runtime::SchedulerModule;
use hiper::trace::chrome::{chrome_trace_json, parse_chrome_trace};
use hiper::trace::EventKind;

#[test]
fn traced_exchange_under_drops_and_dups_keeps_the_trace_valid() {
    let _ = hiper::trace::drain();
    hiper::trace::set_enabled(true);
    let sums = SpmdBuilder::new(2)
        .net(NetConfig::default())
        .workers_per_rank(2)
        .faults(FaultPlan::seeded(0x5eed).drop_p(0.2).dup_p(0.2).arm())
        .run(
            |_rank, t| {
                let mpi = MpiModule::new(t);
                (vec![Arc::clone(&mpi) as Arc<dyn SchedulerModule>], mpi)
            },
            |env, mpi| {
                let peer = 1 - env.rank;
                let mut sum = 0;
                for round in 0..40u64 {
                    mpi.send(peer, 1, &[round]);
                    sum += mpi.recv::<u64>(Some(peer), Some(1)).0[0];
                }
                mpi.barrier();
                sum
            },
        );
    hiper::trace::set_enabled(false);
    let live = hiper::trace::drain();
    assert_eq!(
        sums,
        vec![780, 780],
        "the exchange lost or doubled a message"
    );
    assert_eq!(live.dropped(), 0, "rings wrapped: the trace is partial");

    let data = parse_chrome_trace(&chrome_trace_json(&live)).expect("trace reads back");
    let report = hiper::trace::check(&data);
    assert!(
        report.ok(),
        "trace invariants broken:\n{}{:?}",
        report,
        report.errors
    );
    let count = |kind| {
        data.tracks
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| e.kind == kind)
            .count()
    };
    assert!(count(EventKind::NetDrop) >= 1, "no drop injected");
    assert!(count(EventKind::NetDup) >= 1, "no duplicate injected");
    assert!(
        report.msgs_delivered >= 80,
        "delivers: {}",
        report.msgs_delivered
    );
    assert_eq!(
        report.orphan_delivers, 0,
        "a deliver has no send:\n{}",
        report
    );
}
