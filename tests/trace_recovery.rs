//! A traced kill-and-replay run keeps every trace invariant: the supervised
//! UTS driver with one seeded rank kill (the run `supervised_debug uts
//! --kill --trace` records) is exported, read back, and checked, and it must
//! show at least one `rank_down` / `rank_restored` pair — an outage the
//! recovery rules actually saw.
//!
//! Its own test binary: the tracer is process-global.

use hiper::netsim::KillSpec;
use hiper::trace::chrome::{chrome_trace_json, parse_chrome_trace};
use hiper_bench::supervised::run_supervised_uts;

#[test]
fn traced_rank_kill_and_recovery_keep_the_trace_valid() {
    let _ = hiper::trace::drain();
    hiper::trace::set_enabled(true);
    let outcome = run_supervised_uts(Some(KillSpec::seeded(0xC0FFEE, 2, 3)), 3);
    hiper::trace::set_enabled(false);
    let live = hiper::trace::drain();
    assert!(outcome.recoveries > 0, "the seeded kill never fired");
    assert_eq!(live.dropped(), 0, "rings wrapped: the trace is partial");

    let data = parse_chrome_trace(&chrome_trace_json(&live)).expect("trace reads back");
    let report = hiper::trace::check(&data);
    assert!(
        report.ok(),
        "trace invariants broken:\n{}{:?}",
        report,
        report.errors
    );
    assert!(
        report.rank_downs >= 1 && report.rank_restores >= 1 && report.blackouts >= 1,
        "no outage in the trace:\n{}",
        report
    );
    assert!(report.msgs_delivered > 0, "no message traffic:\n{}", report);
}
