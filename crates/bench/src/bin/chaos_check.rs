//! Chaos harness: real workloads under a grid of fault plans.
//!
//! Runs ISx and UTS (plus an MPI collective storm and a crash/restart
//! checkpoint cycle) under deterministic fault injection — seeded random
//! drops, duplicates, reorders, latency jitter and a transient rank kill —
//! and asserts that every faulty run produces **bit-identical results** to
//! the fault-free baseline: reliable delivery must hide the chaos
//! completely. Timing is `hiperbench`'s business; the per-cell milliseconds
//! printed here are informational. `--write` records the run in
//! `BENCH_chaos.json`.
//!
//! ```text
//! cargo run --release -p hiper-bench --bin chaos_check [-- --seed N] [--write] [--stats] [--trace out.json]
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hiper_bench::isx::{self, IsxParams};
use hiper_bench::supervised;
use hiper_bench::util::{
    metrics_session, print_net_stats, print_rank_stats, print_reliable_stats, stats_enabled,
    trace_session,
};
use hiper_bench::uts::{self, UtsParams};
use hiper_checkpoint::CheckpointModule;
use hiper_mpi::{MpiModule, ReduceOp};
use hiper_netsim::{FaultPlan, NetConfig, NetStatsSnapshot, SpmdBuilder};
use hiper_runtime::{RuntimeBuilder, SchedulerModule};
use hiper_shmem::{ShmemModule, ShmemWorld};

/// One run's observables: per-rank payload digest + wire/retry counters.
struct RunOutcome {
    /// Scenario-specific result bytes, concatenated per rank in rank order.
    digest: Vec<Vec<u64>>,
    /// Wall-clock for the cluster run.
    elapsed: Duration,
    /// Reliable-layer retransmissions summed over ranks.
    retries: u64,
    /// Cluster-wide wire counters.
    net: NetStatsSnapshot,
}

fn arg_seed() -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xC0FFEE)
}

/// The fault-plan grid every workload runs under. `None` is the baseline;
/// each armed plan must reproduce its digests exactly.
fn plan_grid(seed: u64) -> Vec<(&'static str, Option<FaultPlan>)> {
    vec![
        ("fault-free", None),
        (
            "drop10+jitter",
            Some(
                FaultPlan::seeded(seed)
                    .drop_p(0.10)
                    .jitter(Duration::from_micros(200)),
            ),
        ),
        (
            "drop+dup+reorder+jitter",
            Some(
                FaultPlan::seeded(seed ^ 0x5eed)
                    .drop_p(0.10)
                    .dup_p(0.05)
                    .reorder_p(0.10)
                    .jitter(Duration::from_micros(300)),
            ),
        ),
        (
            "transient-rank-kill",
            Some(FaultPlan::seeded(seed ^ 0xdead).kill(
                1,
                Duration::from_millis(5),
                Some(Duration::from_millis(60)),
            )),
        ),
    ]
}

fn build(nranks: usize, plan: &Option<FaultPlan>) -> SpmdBuilder {
    let b = SpmdBuilder::new(nranks)
        .net(NetConfig::default())
        .workers_per_rank(2);
    match plan {
        Some(p) => b.faults(p.clone()),
        None => b,
    }
}

// ---------------------------------------------------------------------
// Scenario: ISx bucket sort (SHMEM)
// ---------------------------------------------------------------------

fn run_isx(label: &str, plan: &Option<FaultPlan>) -> RunOutcome {
    let nranks = 4;
    let params = IsxParams {
        keys_per_rank: 4096,
        key_max: 1 << 16,
        ..Default::default()
    };
    let world = ShmemWorld::new(nranks, 1 << 20);
    let retries = Arc::new(AtomicU64::new(0));
    let r2 = Arc::clone(&retries);
    let net: Arc<parking_lot::Mutex<Option<NetStatsSnapshot>>> =
        Arc::new(parking_lot::Mutex::new(None));
    let n2 = Arc::clone(&net);
    let show_stats = stats_enabled();
    let label = label.to_string();
    let t0 = Instant::now();
    let digest = build(nranks, plan).run(
        move |_r, t| {
            let shmem = ShmemModule::new(world.clone(), t);
            (vec![Arc::clone(&shmem) as Arc<dyn SchedulerModule>], shmem)
        },
        move |env, shmem| {
            let result = isx::run_hiper(&shmem, &params);
            shmem.barrier_all();
            r2.fetch_add(shmem.raw().retries(), Ordering::Relaxed);
            if env.rank == 0 {
                *n2.lock() = Some(env.transport.net_stats());
                if show_stats {
                    print_rank_stats(&format!("isx/{} rank 0", label), &env.runtime);
                    print_net_stats(&format!("isx/{}", label), &env.transport);
                    print_reliable_stats(&format!("isx/{} rank 0", label), shmem.raw().reliable());
                }
            }
            result.sorted
        },
    );
    let net = net.lock().take().expect("rank 0 always reports");
    RunOutcome {
        digest,
        elapsed: t0.elapsed(),
        retries: retries.load(Ordering::Relaxed),
        net,
    }
}

// ---------------------------------------------------------------------
// Scenario: UTS tree counting (SHMEM load balancing)
// ---------------------------------------------------------------------

fn run_uts(label: &str, plan: &Option<FaultPlan>) -> RunOutcome {
    let nranks = 2;
    let params = UtsParams {
        max_depth: 11,
        ..Default::default()
    };
    let world = ShmemWorld::new(nranks, 1 << 22);
    let expected = uts::seq_count(&params);
    let retries = Arc::new(AtomicU64::new(0));
    let r2 = Arc::clone(&retries);
    let net: Arc<parking_lot::Mutex<Option<NetStatsSnapshot>>> =
        Arc::new(parking_lot::Mutex::new(None));
    let n2 = Arc::clone(&net);
    let show_stats = stats_enabled();
    let label = label.to_string();
    let t0 = Instant::now();
    let results = build(nranks, plan).run(
        move |_r, t| {
            let shmem = ShmemModule::new(world.clone(), t);
            (vec![Arc::clone(&shmem) as Arc<dyn SchedulerModule>], shmem)
        },
        move |env, shmem| {
            let result = uts::run_hiper(&shmem, &params);
            shmem.barrier_all();
            assert_eq!(
                result.global_count, expected,
                "UTS count must match the sequential oracle"
            );
            r2.fetch_add(shmem.raw().retries(), Ordering::Relaxed);
            if env.rank == 0 {
                *n2.lock() = Some(env.transport.net_stats());
                if show_stats {
                    print_net_stats(&format!("uts/{}", label), &env.transport);
                    print_reliable_stats(&format!("uts/{} rank 0", label), shmem.raw().reliable());
                }
            }
            result
        },
    );
    // Which rank counts which node depends on who asks whom when, so only
    // the total is reproducible; the shares must still partition it.
    assert_eq!(
        results.iter().map(|r| r.local_count).sum::<u64>(),
        expected,
        "per-rank UTS counts must add up to the tree"
    );
    let net = net.lock().take().expect("rank 0 always reports");
    RunOutcome {
        digest: results.iter().map(|r| vec![r.global_count]).collect(),
        elapsed: t0.elapsed(),
        retries: retries.load(Ordering::Relaxed),
        net,
    }
}

// ---------------------------------------------------------------------
// Scenario: MPI collective storm
// ---------------------------------------------------------------------

fn run_mpi_storm(label: &str, plan: &Option<FaultPlan>) -> RunOutcome {
    let nranks = 4;
    let retries = Arc::new(AtomicU64::new(0));
    let r2 = Arc::clone(&retries);
    let net: Arc<parking_lot::Mutex<Option<NetStatsSnapshot>>> =
        Arc::new(parking_lot::Mutex::new(None));
    let n2 = Arc::clone(&net);
    let show_stats = stats_enabled();
    let label = label.to_string();
    let t0 = Instant::now();
    let digest = build(nranks, plan).run(
        move |_r, t| {
            let mpi = MpiModule::new(t);
            (vec![Arc::clone(&mpi) as Arc<dyn SchedulerModule>], mpi)
        },
        move |env, mpi| {
            let mut digest = Vec::new();
            for round in 0..10u64 {
                let sum = mpi.allreduce(&[env.rank as u64 + round], ReduceOp::Sum);
                digest.push(sum[0]);
                let parts: Vec<Vec<u64>> = (0..env.nranks)
                    .map(|d| vec![(env.rank * 100 + d) as u64 + round])
                    .collect();
                let got = mpi.alltoallv(parts);
                digest.extend(got.into_iter().flatten());
                mpi.barrier();
            }
            r2.fetch_add(mpi.raw().retries(), Ordering::Relaxed);
            if env.rank == 0 {
                *n2.lock() = Some(env.transport.net_stats());
                if show_stats {
                    print_net_stats(&format!("mpi/{}", label), &env.transport);
                    print_reliable_stats(&format!("mpi/{} rank 0", label), mpi.raw().reliable());
                }
            }
            digest
        },
    );
    let net = net.lock().take().expect("rank 0 always reports");
    RunOutcome {
        digest,
        elapsed: t0.elapsed(),
        retries: retries.load(Ordering::Relaxed),
        net,
    }
}

// ---------------------------------------------------------------------
// Scenario: crash + restart from the latest checkpoint
// ---------------------------------------------------------------------

fn run_checkpoint_restart() -> bool {
    let dir = std::env::temp_dir().join("hiper_chaos_ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let payload: Vec<u8> = (0u32..4096).flat_map(|i| i.to_le_bytes()).collect();
    {
        // First life: checkpoint three versions, then "crash".
        let ckpt = CheckpointModule::new(dir.clone());
        let rt = RuntimeBuilder::new(hiper_platform::autogen::figure2(2))
            .module(Arc::clone(&ckpt) as Arc<dyn SchedulerModule>)
            .build()
            .expect("checkpoint platform");
        let c = Arc::clone(&ckpt);
        let data = payload.clone();
        rt.block_on(move || {
            c.checkpoint("chaos", 1, vec![0xAA; 64]).wait();
            c.checkpoint("chaos", 2, vec![0xBB; 64]).wait();
            c.checkpoint("chaos", 9, data).wait();
        });
        rt.shutdown();
    }
    // Second life: restart from whatever survived.
    let ckpt = CheckpointModule::new(dir);
    let rt = RuntimeBuilder::new(hiper_platform::autogen::figure2(2))
        .module(Arc::clone(&ckpt) as Arc<dyn SchedulerModule>)
        .build()
        .expect("checkpoint platform");
    let c = Arc::clone(&ckpt);
    let ok = rt.block_on(move || {
        let fut = c.restore_latest("chaos").expect("snapshots survived");
        let (version, data) = fut.get().expect("snapshot intact");
        version == 9 && data == payload
    });
    rt.shutdown();
    ok
}

// ---------------------------------------------------------------------
// Recovery grid: kill-mid-run, restore from checkpoint, replay
// ---------------------------------------------------------------------

/// Runs the recovery grid ([`supervised::run_recovery_grid`]) and prints
/// one line per cell. Returns (pass, per-scenario JSON fragments).
fn print_recovery_grid(seed: u64) -> (bool, Vec<String>) {
    let mut pass = true;
    let mut json = Vec::new();
    for cell in supervised::run_recovery_grid(seed) {
        pass &= cell.ok();
        let ms = cell.killed.elapsed.as_secs_f64() * 1e3;
        println!(
            "  recovery/{:<6} kill rank {} at point {:?}: {:>7.1} ms  recoveries={} {}",
            cell.name,
            cell.kill.rank,
            cell.kill.at_points,
            ms,
            cell.killed.recoveries,
            cell.verdict()
        );
        json.push(format!(
            "        {{ \"scenario\": \"{}\", \"victim\": {}, \"kill_points\": {:?}, \"ms\": {:.2}, \"recoveries\": {}, \"identical_to_baseline\": {}, \"deterministic\": {} }}",
            cell.name,
            cell.kill.rank,
            cell.kill.at_points,
            ms,
            cell.killed.recoveries,
            cell.identical,
            cell.deterministic
        ));
    }
    (pass, json)
}

fn main() {
    let trace = trace_session();
    let _metrics = metrics_session();
    let seed = arg_seed();
    let recovery_only = std::env::args().any(|a| a == "--recovery");
    println!("chaos_check: seed {:#x}", seed);

    if recovery_only {
        // CI recovery job: just the kill-mid-run grid + the degradation
        // scenario (flight-record artifact via HIPER_WATCHDOG_FILE).
        let (grid_ok, _) = print_recovery_grid(seed);
        let degrade_ok = supervised::run_degradation();
        println!(
            "  degradation (kill with no checkpoint): {}",
            if degrade_ok { "OK" } else { "FAILED" }
        );
        let pass = grid_ok && degrade_ok;
        println!(
            "\nchaos_check --recovery: {}",
            if pass { "PASS" } else { "FAIL" }
        );
        if !pass {
            std::process::exit(1);
        }
        return;
    }

    let mut scenario_json = Vec::new();
    let mut all_pass = true;

    for (scenario, runner) in [
        ("isx", run_isx as fn(&str, &Option<FaultPlan>) -> RunOutcome),
        ("uts", run_uts as fn(&str, &Option<FaultPlan>) -> RunOutcome),
        (
            "mpi-collectives",
            run_mpi_storm as fn(&str, &Option<FaultPlan>) -> RunOutcome,
        ),
    ] {
        let mut baseline: Option<Vec<Vec<u64>>> = None;
        let mut plan_json = Vec::new();
        for (label, plan) in plan_grid(seed) {
            let out = runner(label, &plan);
            let identical = match &baseline {
                None => {
                    baseline = Some(out.digest.clone());
                    true
                }
                Some(base) => *base == out.digest,
            };
            all_pass &= identical;
            println!(
                "  {:<16} {:<24} {:>8.1} ms  retries={:<5} dropped={:<5} dup={:<4} {}",
                scenario,
                label,
                out.elapsed.as_secs_f64() * 1e3,
                out.retries,
                out.net.dropped,
                out.net.duplicated,
                if identical { "OK" } else { "MISMATCH" }
            );
            plan_json.push(format!(
                "        {{ \"plan\": \"{}\", \"ms\": {:.2}, \"retries\": {}, \"dropped\": {}, \"duplicated\": {}, \"identical_to_baseline\": {} }}",
                label,
                out.elapsed.as_secs_f64() * 1e3,
                out.retries,
                out.net.dropped,
                out.net.duplicated,
                identical
            ));
        }
        scenario_json.push(format!(
            "    \"{}\": [\n{}\n    ]",
            scenario,
            plan_json.join(",\n")
        ));
    }

    // UTS oracle: the fault-free digest must also match the sequential count.
    let oracle = uts::seq_count(&UtsParams {
        max_depth: 11,
        ..Default::default()
    });
    println!("  uts sequential oracle: {} nodes", oracle);

    let ckpt_ok = run_checkpoint_restart();
    all_pass &= ckpt_ok;
    println!(
        "  checkpoint crash/restart from latest snapshot: {}",
        if ckpt_ok { "OK" } else { "FAILED" }
    );

    let (recovery_ok, recovery_json) = print_recovery_grid(seed);
    all_pass &= recovery_ok;
    let degrade_ok = supervised::run_degradation();
    all_pass &= degrade_ok;
    println!(
        "  degradation (kill with no checkpoint): {}",
        if degrade_ok { "OK" } else { "FAILED" }
    );

    let write = std::env::args().any(|a| a == "--write");
    if write {
        let json = format!(
            "{{\n  \"benchmark\": \"crates/bench/src/bin/chaos_check.rs\",\n  \"seed\": {},\n  \"scenarios\": {{\n{}\n  }},\n  \"checkpoint_restart_ok\": {},\n  \"recovery\": {{\n    \"grid\": [\n{}\n    ],\n    \"degradation_ok\": {},\n    \"pass\": {}\n  }},\n  \"pass\": {}\n}}\n",
            seed,
            scenario_json.join(",\n"),
            ckpt_ok,
            recovery_json.join(",\n"),
            degrade_ok,
            recovery_ok && degrade_ok,
            all_pass
        );
        std::fs::write("BENCH_chaos.json", &json).expect("cannot write BENCH_chaos.json");
    }
    // Write the trace now: a failing run exits without running destructors.
    drop(trace);
    println!(
        "\nchaos_check: {}{}",
        if all_pass { "PASS" } else { "FAIL" },
        if write {
            " (BENCH_chaos.json written)"
        } else {
            ""
        }
    );
    if !all_pass {
        std::process::exit(1);
    }
}
