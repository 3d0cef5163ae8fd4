//! End-to-end check of the post-mortem profiler: trace a real workload with
//! a known longest spawn chain, analyze the live drain, then roundtrip the
//! trace through the Chrome JSON file format (the `profile` binary's input
//! path) and analyze again.
//!
//! The acceptance bar: the reported critical path must be at least the
//! longest chain's compute time, and its segments must sum to the path
//! total within 5% (they tile the interval, so they in fact sum exactly —
//! the 5% bound is the contract).
//!
//! A hand-built trace pins the totals every `TraceSession` prints at
//! finish: busy time, per-module calls and time, queue-latency quantiles,
//! park spans and event counts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hiper_platform::autogen;
use hiper_runtime::{api, Runtime};
use hiper_trace::analysis::{Latency, ProfileAnalysis};
use hiper_trace::{EventKind, TraceData, TraceEvent, TrackData};

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

fn track(label: &str, events: &[(u64, EventKind, u64, u64)]) -> TrackData {
    let event = |&(ts_ns, kind, a, b): &_| TraceEvent {
        ts_ns,
        kind,
        a,
        b,
        c: 0,
    };
    TrackData {
        label: label.into(),
        events: events.iter().map(event).collect(),
        dropped: 0,
        rank: None,
    }
}

#[test]
fn hand_built_trace_yields_exact_session_totals() {
    use EventKind::*;
    let (mpi, send) = (hiper_trace::intern("mpi"), hiper_trace::intern("send"));
    // Worker 0 runs task 1, which spawns tasks 2 and 3 and runs task 2
    // nested inside itself (help-first); worker 1 steals task 3.
    #[rustfmt::skip]
    let data = TraceData {
        tracks: vec![
            track("hiper-worker-0", &[
                (100, TaskSpawn, 1, 0), (150, TaskBegin, 1, 0),
                (200, TaskSpawn, 2, 1), (250, TaskSpawn, 3, 1),
                (300, TaskBegin, 2, 0), (500, TaskEnd, 2, 0),
                (600, ModuleEnter, mpi, send), (800, ModuleExit, mpi, send),
                (1_000, TaskEnd, 1, 0), (1_000, Park, 0, 0), (1_400, Unpark, 1, 0),
            ]),
            track("hiper-worker-1", &[
                (450, TaskBegin, 3, 0),
                (500, ModuleEnter, mpi, send), (600, ModuleExit, mpi, send),
                (700, ModuleEnter, mpi, 0), (750, ModuleExit, mpi, 0),
                (900, TaskEnd, 3, 0),
            ]),
        ],
    };
    let a = ProfileAnalysis::build(&data);

    let w0 = &a.workers[0];
    assert_eq!(
        (w0.tasks, w0.busy_ns, w0.parked_ns),
        (2, 850, 400),
        "nested task 2 counts once"
    );
    assert_eq!(a.workers[1].busy_ns, 450);
    let modules: Vec<_> = a
        .modules
        .iter()
        .map(|(k, m)| (k.as_str(), m.calls, m.total_ns))
        .collect();
    assert_eq!(modules, [("mpi", 1, 50), ("mpi:send", 2, 300)]);
    // Waits 50, 100 and 200 ns: nearest-rank p50 is the second, p99 the third.
    let latency = |l: Latency| (l.n, l.mean_ns, l.p50_ns, l.p99_ns);
    assert_eq!(latency(a.queue_latency), (3, 116, 100, 200));
    assert_eq!(latency(a.park_latency), (1, 400, 400, 400));
    let count = |k: EventKind| a.counts.get(k.name()).copied();
    assert_eq!(
        [count(TaskSpawn), count(TaskBegin), count(ModuleExit)],
        [Some(3); 3]
    );
    assert_eq!((count(Park), count(Steal)), (Some(1), None));
    assert_eq!((a.counts.values().sum::<u64>(), a.events), (17, 17));

    let shown = a.to_string();
    for line in [
        "per-module time",
        "mpi:send",
        "spawn->begin): n=3",
        "park spans: n=1",
    ] {
        assert!(shown.contains(line), "summary lacks {line:?}:\n{shown}");
    }
}
