//! End-to-end tracing: run a forasync workload plus an MPI ping-pong under
//! an enabled trace session, write the Chrome trace-event JSON, read it
//! back with `hiper::trace::chrome`, and require `hiper::trace::check` to
//! find no violation (monotone time and balanced spans per track, task and
//! message correlation). The run must not be vacuous: task spans on
//! rankless worker tracks, MPI module spans on per-rank worker tracks, and
//! network traffic on one track per rank.

use std::collections::BTreeSet;
use std::sync::Arc;

use hiper::mpi::MpiModule;
use hiper::netsim::{NetConfig, SpmdBuilder};
use hiper::prelude::*;
use hiper::trace::chrome::load_chrome_trace;
use hiper::trace::EventKind;

#[test]
fn traced_run_produces_valid_chrome_json() {
    let path = std::env::temp_dir().join(format!("hiper_trace_it_{}.json", std::process::id()));
    let mut session = hiper::trace::TraceSession::start(&path);
    session.report = false;

    // Local task + forasync workload on a 2-worker runtime. The explicit
    // spawns pin the task-span count: forasync splits adaptively (it only
    // publishes tasks when a worker is idle), so its span count varies.
    let rt = Runtime::new(hiper::platform::autogen::smp(2));
    rt.block_on(|| {
        finish(|| {
            for _ in 0..64 {
                async_(|| {
                    std::hint::black_box(0);
                });
            }
            forasync_1d(10_000, 256, |i| {
                std::hint::black_box(i);
            });
        })
        .expect("no task panicked");
    });
    rt.shutdown();

    // MPI ping-pong across a 2-rank simulated cluster.
    SpmdBuilder::new(2)
        .net(NetConfig::default())
        .workers_per_rank(2)
        .run(
            |_rank, transport| {
                let mpi = MpiModule::new(transport);
                (vec![Arc::clone(&mpi) as Arc<dyn SchedulerModule>], mpi)
            },
            |env, mpi| {
                for round in 0..10u64 {
                    if env.rank == 0 {
                        mpi.send(1, 1, &[round]);
                        let _ = mpi.recv::<u64>(Some(1), Some(2));
                    } else {
                        let _ = mpi.recv::<u64>(Some(0), Some(1));
                        mpi.send(0, 2, &[round]);
                    }
                }
                mpi.barrier();
            },
        );

    let live = session.finish().expect("trace file written");
    assert!(!live.is_empty(), "traced run recorded no events");
    let data = load_chrome_trace(&path).expect("trace reads back");
    std::fs::remove_file(&path).ok();
    assert!(data.len() > 100, "suspiciously small trace");
    let report = hiper::trace::check(&data);
    assert!(
        report.ok(),
        "trace invariants broken:\n{}{:?}",
        report,
        report.errors
    );

    // Every traced layer shows up: per-worker task execution,
    // scheduler transitions, module spans, and per-rank network traffic.
    let count = |pick: &dyn Fn(&hiper::trace::TrackData, &hiper::trace::TraceEvent) -> bool| {
        data.tracks
            .iter()
            .flat_map(|t| t.events.iter().map(move |e| (t, e)))
            .filter(|(t, e)| pick(t, e))
            .count()
    };
    let runtime_task_spans = count(&|t, e| t.rank.is_none() && e.kind == EventKind::TaskEnd);
    let sched_instants = count(&|t, e| {
        t.rank.is_none()
            && matches!(
                e.kind,
                EventKind::Pop | EventKind::Steal | EventKind::InjectorDrain
            )
    });
    // Module spans run on rank worker threads, which export under per-rank
    // pids (10 + rank).
    let module_spans = count(&|t, e| {
        t.rank.is_some() && e.kind == EventKind::ModuleExit && hiper::trace::resolve(e.a) == "mpi"
    });
    let net_sends = count(&|_, e| e.kind == EventKind::NetSend);
    let net_delivers = count(&|_, e| e.kind == EventKind::NetDeliver);
    assert!(
        runtime_task_spans > 50,
        "task spans: {}",
        runtime_task_spans
    );
    assert!(sched_instants > 0, "no pop/steal/injector instants");
    assert!(module_spans > 0, "no mpi module spans");
    assert!(net_sends >= 20, "net sends: {}", net_sends);
    assert!(net_delivers >= 20, "net delivers: {}", net_delivers);

    // Network tracks hold network events only; everything else is a
    // runtime track.
    let is_net = |e: &hiper::trace::TraceEvent| {
        matches!(
            e.kind,
            EventKind::NetSend
                | EventKind::NetDeliver
                | EventKind::NetDrop
                | EventKind::NetDup
                | EventKind::RelRetry
                | EventKind::MsgSend
                | EventKind::MsgDeliver
                | EventKind::RankDown
                | EventKind::RankRestored
        )
    };
    let net_tracks = data
        .tracks
        .iter()
        .filter(|t| !t.events.is_empty() && t.events.iter().all(is_net))
        .count();
    let runtime_tracks = data
        .tracks
        .iter()
        .filter(|t| t.rank.is_none() && t.events.iter().any(|e| !is_net(e)))
        .count();
    let ranks: BTreeSet<usize> = data.tracks.iter().filter_map(|t| t.rank).collect();
    assert!(runtime_tracks >= 2, "worker tracks: {}", runtime_tracks);
    assert_eq!(net_tracks, 2, "one netsim track per rank");
    assert_eq!(ranks.len(), 2, "one runtime process per rank: {:?}", ranks);
}
