//! End-to-end check of the post-mortem profiler: trace a real workload with
//! a known longest spawn chain, analyze the live drain, then roundtrip the
//! trace through the Chrome JSON file format (the `profile` binary's input
//! path) and analyze again.
//!
//! The acceptance bar: the reported critical path must be at least the
//! longest chain's compute time, and its segments must sum to the path
//! total within 5% (they tile the interval, so they in fact sum exactly —
//! the 5% bound is the contract).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hiper_platform::autogen;
use hiper_runtime::{api, Runtime};
use hiper_trace::analysis::ProfileAnalysis;

const DEPTH: usize = 16;
const SPIN: Duration = Duration::from_micros(300);

fn busy_spin(d: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// A sequential spawn chain: each task computes for `SPIN` then spawns the
/// next. The chain IS the critical path — nothing can overlap it.
fn spawn_chain(depth: usize, done: Arc<AtomicU64>) {
    busy_spin(SPIN);
    done.fetch_add(1, Ordering::Relaxed);
    if depth > 1 {
        api::async_(move || spawn_chain(depth - 1, done));
    }
}

fn assert_path_invariants(analysis: &ProfileAnalysis, wall_ns: u64, label: &str) {
    let cp = analysis
        .critical_path
        .as_ref()
        .unwrap_or_else(|| panic!("{}: no critical path found", label));
    assert!(
        cp.chain.len() >= DEPTH,
        "{}: chain has {} tasks, expected the full {}-deep spawn chain",
        label,
        cp.chain.len(),
        DEPTH
    );
    // The chain's wall time must cover at least its serial compute.
    let chain_compute_ns = DEPTH as u64 * SPIN.as_nanos() as u64;
    assert!(
        cp.total_ns >= chain_compute_ns,
        "{}: critical path {} ns shorter than the chain's serial compute {} ns",
        label,
        cp.total_ns,
        chain_compute_ns
    );
    assert!(
        cp.total_ns <= wall_ns,
        "{}: critical path {} ns exceeds measured wall time {} ns",
        label,
        cp.total_ns,
        wall_ns
    );
    // Segments decompose the path: their durations sum to the total within
    // 5% (exactly, by construction).
    let seg_sum: u64 = cp.segments.iter().map(|s| s.dur_ns).sum();
    let diff = seg_sum.abs_diff(cp.total_ns) as f64;
    assert!(
        diff <= cp.total_ns as f64 * 0.05,
        "{}: segments sum to {} ns but the path is {} ns (>5% off)",
        label,
        seg_sum,
        cp.total_ns
    );
    // And so do the per-kind attributions.
    let kind_sum = cp.compute_ns + cp.module_ns + cp.pop_wait_ns + cp.steal_wait_ns;
    assert_eq!(
        kind_sum, seg_sum,
        "{}: per-kind totals disagree with the segment list",
        label
    );
    assert!(
        cp.compute_ns >= chain_compute_ns * 9 / 10,
        "{}: compute attribution {} ns misses the chain's {} ns of spinning",
        label,
        cp.compute_ns,
        chain_compute_ns
    );
}

#[test]
fn traced_chain_yields_consistent_critical_path_live_and_reloaded() {
    let done = Arc::new(AtomicU64::new(0));
    let d = Arc::clone(&done);

    hiper_trace::set_enabled(true);
    let rt = Runtime::new(autogen::smp(2));
    let t0 = Instant::now();
    rt.block_on(move || {
        api::finish(move || {
            api::async_(move || spawn_chain(DEPTH, d));
        })
        .expect("no task panicked");
    });
    let wall_ns = t0.elapsed().as_nanos() as u64;
    hiper_trace::set_enabled(false);
    let data = hiper_trace::drain();
    rt.shutdown();
    assert_eq!(done.load(Ordering::Relaxed), DEPTH as u64);
    assert_eq!(
        data.dropped(),
        0,
        "rings wrapped; raise buffer for the test"
    );

    let live = ProfileAnalysis::build(&data);
    assert_path_invariants(&live, wall_ns, "live drain");

    // Roundtrip through the on-disk Chrome trace — the profile binary's
    // actual input path — and verify the analysis survives re-parsing.
    let json = hiper_trace::chrome::chrome_trace_json(&data);
    let path = std::env::temp_dir().join(format!("hiper_profile_test_{}.json", std::process::id()));
    std::fs::write(&path, &json).expect("write temp trace");
    let reloaded = hiper_trace::chrome::load_chrome_trace(&path).expect("reload trace");
    std::fs::remove_file(&path).ok();

    let replayed = ProfileAnalysis::build(&reloaded);
    assert_path_invariants(&replayed, wall_ns, "chrome roundtrip");

    // The reloaded path must match the live one (timestamps survive the
    // µs-with-ns-fraction rendering to within rounding).
    let a = live.critical_path.as_ref().unwrap();
    let b = replayed.critical_path.as_ref().unwrap();
    assert_eq!(a.chain, b.chain, "chain differs after roundtrip");
    let drift = a.total_ns.abs_diff(b.total_ns) as f64;
    assert!(
        drift <= a.total_ns as f64 * 0.01,
        "roundtrip drifted the path total: {} vs {} ns",
        a.total_ns,
        b.total_ns
    );
}
