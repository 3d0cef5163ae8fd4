//! A distributed trace survives the trip to disk and back: a 2-rank MPI
//! ping-pong traced losslessly, written as Chrome JSON and parsed again,
//! must pass `hiper::trace::check` on both sides and give the same
//! critical-path profile to the nanosecond — the timestamps, module spans,
//! spawn edges, message edges and rank pids (10 + r) that `profile` works
//! from all roundtrip exactly.
//!
//! Trace state is process-global, so this binary holds one test.

use std::sync::Arc;

use hiper::mpi::MpiModule;
use hiper::netsim::{NetConfig, SpmdBuilder};
use hiper::prelude::*;
use hiper::trace::analysis::ProfileAnalysis;
use hiper::trace::chrome::{chrome_trace_json, parse_chrome_trace};
use hiper::trace::{EventKind, TraceData};

const ROUNDS: usize = 100;

fn traced_pingpong() -> TraceData {
    hiper::trace::set_enabled(true);
    let done = SpmdBuilder::new(2)
        .net(NetConfig::default())
        .workers_per_rank(2)
        .run(
            |_rank, transport| {
                let mpi = MpiModule::new(transport);
                (vec![Arc::clone(&mpi) as Arc<dyn SchedulerModule>], mpi)
            },
            |env, mpi| {
                mpi.barrier();
                for _ in 0..ROUNDS {
                    if env.rank == 0 {
                        mpi.send::<u8>(1, 1, &[]);
                        let _ = mpi.recv::<u8>(Some(1), Some(2));
                    } else {
                        let _ = mpi.recv::<u8>(Some(0), Some(1));
                        mpi.send::<u8>(0, 2, &[]);
                    }
                }
                true
            },
        );
    hiper::trace::set_enabled(false);
    assert_eq!(done, vec![true, true]);
    hiper::trace::drain()
}

fn assert_valid(data: &TraceData, label: &str) {
    let report = hiper::trace::check(data);
    assert!(
        report.ok(),
        "{label}: trace invariants broken:\n{report}{:?}",
        report.errors
    );
}

#[test]
fn two_rank_trace_profiles_identically_after_the_chrome_roundtrip() {
    // Read once, at the first ring registration: it must be set before any
    // runtime starts in this process, or the rings wrap and the trace is
    // partial.
    std::env::set_var("HIPER_TRACE_BUF", "65536");

    let live = traced_pingpong();
    assert_eq!(live.dropped(), 0, "rings wrapped; raise HIPER_TRACE_BUF");
    let path = std::env::temp_dir().join(format!("hiper_profile_rt_{}.json", std::process::id()));
    std::fs::write(&path, chrome_trace_json(&live)).expect("write the trace");
    let text = std::fs::read_to_string(&path).expect("read the trace back");
    std::fs::remove_file(&path).ok();
    let reloaded = parse_chrome_trace(&text).expect("parse the trace");

    assert_valid(&live, "live");
    assert_valid(&reloaded, "reloaded");
    for rank in 0..2 {
        assert!(
            reloaded.tracks.iter().any(|t| t.rank == Some(rank)),
            "rank {rank} has no track"
        );
    }
    let mpi_spans = reloaded
        .tracks
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| e.kind == EventKind::ModuleExit && hiper::trace::resolve(e.a) == "mpi")
        .count();
    assert!(mpi_spans > 0, "no mpi module spans");

    let a = ProfileAnalysis::build(&live);
    let b = ProfileAnalysis::build(&reloaded);
    assert_eq!(a.wall_ns, b.wall_ns, "wall clock drifted");
    let pa = a.critical_path.as_ref().expect("live trace has a path");
    let pb = b.critical_path.as_ref().expect("reloaded trace has a path");
    // Chain, segment list, per-kind totals and per-rank path time.
    assert!(
        pa == pb,
        "critical path differs: {} vs {} tasks, {} vs {} ns",
        pa.chain.len(),
        pb.chain.len(),
        pa.total_ns,
        pb.total_ns
    );

    assert!(
        pa.wire_ns > 0,
        "the {}-task path crosses no message",
        pa.chain.len()
    );
    assert_eq!(
        pa.per_rank_ns.iter().map(|&(r, _)| r).collect::<Vec<_>>(),
        [0, 1],
        "path time is not split over both ranks"
    );
    assert_eq!(a.orphan_delivers, 0, "a deliver lost its send");
    assert_eq!(b.orphan_delivers, 0, "a deliver lost its send in the file");
}
