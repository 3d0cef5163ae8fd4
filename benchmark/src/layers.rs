//! Per-layer metrics (`<layer>.<metric>`): the layers are this repo's crates
//! plus `reliable` (`crates/netsim/src/reliable.rs`). Produced only by a
//! traced run, from three sources: *probes* (see `probes.rs`), *spans*
//! (durations of the benchmark's spans around calls into a layer, inside the
//! workload's laps) and *counters* (deltas of the crates' public snapshot
//! accessors across the traced window, per lap).
//!
//! A span or counter metric reads 0 on a workload that never enters that
//! layer; that zero is the "bypass" prediction made visible (for example
//! `netsim.msgs_per_lap` on `task_dag`).

use std::collections::BTreeMap;

use crate::probes::Probes;
use crate::spans::Agg;
use crate::stats::{median, percentile, sort, summarize_laps};
use crate::workloads::{msg_flood, task_dag, RunResult};

pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> LayerMetric {
    LayerMetric { name, unit, better }
}

/// Every per-layer metric, in BENCHMARK.json order. README.md says which
/// end-to-end metric each one should move, and on which workload.
pub const LAYER_METRICS: [LayerMetric; 71] = [
    m("deque.push_pop_ns", "ns", "lower"),
    m("deque.steal_ns", "ns", "lower"),
    m("deque.injector_ns", "ns", "lower"),
    m("runtime.spawn_ns", "ns", "lower"),
    m("runtime.future_rt_ns", "ns", "lower"),
    m("runtime.forasync_iter_ns", "ns", "lower"),
    m("runtime.stencil_task_ns", "ns", "lower"),
    m("runtime.metg50_us", "us", "lower"),
    m("runtime.promise_put_ns", "ns", "lower"),
    m("runtime.block_on_us", "us", "lower"),
    m("runtime.tasks_per_lap", "count", "lower"),
    m("runtime.steals_per_task", "ratio", "lower"),
    m("runtime.parks_per_lap", "count", "lower"),
    m("runtime.wakes_per_lap", "count", "lower"),
    m("runtime.slab_hit_ratio", "ratio", "higher"),
    m("runtime.inline_task_ratio", "ratio", "higher"),
    m("runtime.splits_elided_per_lap", "count", "higher"),
    m("netsim.send_call_ns", "ns", "lower"),
    m("netsim.oneway_us_p50", "us", "lower"),
    m("netsim.oneway_us_p99", "us", "lower"),
    m("netsim.floor_us", "us", "lower"),
    m("netsim.over_floor_us", "us", "lower"),
    m("netsim.flood_msgs_per_s", "1/s", "higher"),
    m("netsim.bulk_mb_per_s", "MB/s", "higher"),
    m("netsim.idle_cpu_pct", "%", "lower"),
    m("netsim.msgs_per_lap", "count", "lower"),
    m("netsim.bytes_per_lap", "bytes", "lower"),
    m("netsim.shard_contention_per_lap", "count", "lower"),
    m("reliable.pass_cost_ns", "ns", "lower"),
    m("reliable.armed_oneway_us_p50", "us", "lower"),
    m("reliable.armed_cost_us", "us", "lower"),
    m("reliable.wire_per_logical", "ratio", "lower"),
    m("reliable.coalesced_ratio", "ratio", "higher"),
    m("reliable.ack_piggyback_ratio", "ratio", "higher"),
    m("reliable.copies_avoided_ratio", "ratio", "higher"),
    m("reliable.retries_per_lap", "count", "lower"),
    m("mpi.pingpong_us_p50", "us", "lower"),
    m("mpi.pingpong_us_p99", "us", "lower"),
    m("mpi.future_rt_us_p50", "us", "lower"),
    m("mpi.small_msgs_per_s", "1/s", "higher"),
    m("mpi.barrier_us", "us", "lower"),
    m("mpi.allreduce_us", "us", "lower"),
    m("mpi.over_transport_us", "us", "lower"),
    m("mpi.calls_per_lap", "count", "lower"),
    m("mpi.busy_ms_per_lap", "ms", "lower"),
    m("shmem.fadd_us_p50", "us", "lower"),
    m("shmem.fadd_us_p99", "us", "lower"),
    m("shmem.put_mb_per_s", "MB/s", "higher"),
    m("shmem.get_us_p50", "us", "lower"),
    m("shmem.barrier_us", "us", "lower"),
    m("shmem.async_when_us", "us", "lower"),
    m("shmem.calls_per_lap", "count", "lower"),
    m("shmem.busy_ms_per_lap", "ms", "lower"),
    m("upcxx.rpc_us_p50", "us", "lower"),
    m("upcxx.rpc_us_p99", "us", "lower"),
    m("upcxx.rput_us_p50", "us", "lower"),
    m("upcxx.rget_us_p50", "us", "lower"),
    m("upcxx.calls_per_lap", "count", "lower"),
    m("upcxx.busy_ms_per_lap", "ms", "lower"),
    m("trace.events_per_lap", "count", "lower"),
    m("trace.drop_ratio", "ratio", "lower"),
    m("trace.drain_ms", "ms", "lower"),
    m("trace.overhead_pct", "%", "lower"),
    m("metrics.overhead_pct", "%", "lower"),
    m("forkjoin.parallel_for_iter_ns", "ns", "lower"),
    m("platform.runtime_build_ms", "ms", "lower"),
    m("bench.vs_ref", "ratio", "lower"),
    m("bench.ref_lap_ms_p50", "ms", "lower"),
    m("bench.lap_ms_p99", "ms", "lower"),
    m("bench.warmup_drift_pct", "%", "lower"),
    m("bench.span_overhead_pct", "%", "lower"),
];

/// Everything one traced run measured.
pub struct Traced<'a> {
    /// The workload with the span recorder off.
    pub plain: &'a RunResult,
    /// The same workload with the span recorder on.
    pub spanned: &'a RunResult,
    pub spans: &'a BTreeMap<&'static str, Agg>,
    /// `app_*`: the hand-composed hybrid on the same input.
    pub reference: Option<&'a RunResult>,
    /// `task_dag_traced`: `task_dag`, its twin without the sessions.
    pub twin: Option<&'a RunResult>,
    pub probes: &'a Probes,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn overhead_pct(with: f64, without: f64) -> f64 {
    if without > 0.0 {
        (with / without - 1.0) * 100.0
    } else {
        0.0
    }
}

pub fn derive(t: &Traced) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = t.probes.clone();
    let laps = t.spanned.timed_laps as f64;
    let c = |key: &str| t.spanned.counters.get(key).copied().unwrap_or(0.0);
    let per_lap = |key: &str| ratio(c(key), laps);
    // p-th percentile of a span's durations, in units of `scale` ns.
    let span_pct = |name: &str, p: f64, scale: f64| {
        t.spans
            .get(name)
            .map_or(0.0, |a| percentile(&a.durations_ns, p) / scale)
    };
    // Items moved per second of a span's total time.
    let span_rate = |name: &str, items_per_span: f64| {
        t.spans.get(name).map_or(0.0, |a| {
            ratio(items_per_span * a.count as f64, a.total_ns as f64 / 1e9)
        })
    };

    for (metric, span, tasks) in [
        ("runtime.spawn_ns", "runtime.spawn", task_dag::SPAWN_TASKS),
        (
            "runtime.future_rt_ns",
            "runtime.future",
            task_dag::future_tasks(),
        ),
        (
            "runtime.forasync_iter_ns",
            "runtime.forasync",
            task_dag::LOOP_ITERS,
        ),
        (
            "runtime.stencil_task_ns",
            "runtime.stencil",
            task_dag::STENCIL_TASKS,
        ),
    ] {
        out.insert(metric, span_pct(span, 0.5, tasks as f64));
    }
    let tasks = c("sched.tasks_executed");
    out.insert("runtime.tasks_per_lap", ratio(tasks, laps));
    out.insert("runtime.steals_per_task", ratio(c("sched.steals"), tasks));
    out.insert("runtime.parks_per_lap", per_lap("sched.parks"));
    out.insert("runtime.wakes_per_lap", per_lap("sched.wakes"));
    out.insert(
        "runtime.slab_hit_ratio",
        ratio(
            c("sched.slab_hits"),
            c("sched.slab_hits") + c("sched.slab_misses"),
        ),
    );
    out.insert(
        "runtime.inline_task_ratio",
        ratio(c("sched.tasks_inline"), tasks),
    );
    out.insert(
        "runtime.splits_elided_per_lap",
        per_lap("sched.splits_elided"),
    );

    out.insert("netsim.msgs_per_lap", per_lap("net.messages"));
    out.insert("netsim.bytes_per_lap", per_lap("net.bytes"));
    out.insert(
        "netsim.shard_contention_per_lap",
        per_lap("net.shard_contention"),
    );

    // Counters of the reliable layer exist where a workload armed it; its
    // unit is then the logical message.
    let logical = if t.spanned.counters.contains_key("rel.retries") {
        laps * t.spanned.units_per_lap
    } else {
        0.0
    };
    out.insert(
        "reliable.wire_per_logical",
        ratio(c("net.messages"), logical),
    );
    out.insert(
        "reliable.coalesced_ratio",
        ratio(c("rel.frames_coalesced"), logical),
    );
    out.insert(
        "reliable.ack_piggyback_ratio",
        ratio(
            c("rel.acks_piggybacked"),
            c("rel.acks_piggybacked") + c("rel.acks_flushed"),
        ),
    );
    out.insert(
        "reliable.copies_avoided_ratio",
        ratio(c("rel.copies_avoided"), logical),
    );
    out.insert("reliable.retries_per_lap", per_lap("rel.retries"));

    let pingpong = span_pct("mpi.pingpong", 0.5, 1e3);
    out.insert("mpi.pingpong_us_p50", pingpong);
    out.insert("mpi.pingpong_us_p99", span_pct("mpi.pingpong", 0.99, 1e3));
    out.insert("mpi.future_rt_us_p50", span_pct("mpi.future_rt", 0.5, 1e3));
    out.insert(
        "mpi.small_msgs_per_s",
        span_rate("mpi.flood", msg_flood::SMALL_MESSAGES_PER_LAP),
    );
    let oneway = t.probes.get("netsim.oneway_us_p50").copied().unwrap_or(0.0);
    out.insert(
        "mpi.over_transport_us",
        if pingpong > 0.0 {
            pingpong / 2.0 - oneway
        } else {
            0.0
        },
    );
    out.insert("shmem.fadd_us_p50", span_pct("shmem.fadd", 0.5, 1e3));
    out.insert("shmem.fadd_us_p99", span_pct("shmem.fadd", 0.99, 1e3));
    out.insert(
        "shmem.put_mb_per_s",
        span_rate("shmem.put_flood", msg_flood::PUT_MB_PER_LAP),
    );
    out.insert("upcxx.rpc_us_p50", span_pct("upcxx.rpc", 0.5, 1e3));
    out.insert("upcxx.rpc_us_p99", span_pct("upcxx.rpc", 0.99, 1e3));
    for (calls, busy, calls_key, busy_key) in [
        (
            "mpi.calls_per_lap",
            "mpi.busy_ms_per_lap",
            "mpi.calls",
            "mpi.busy_ms",
        ),
        (
            "shmem.calls_per_lap",
            "shmem.busy_ms_per_lap",
            "shmem.calls",
            "shmem.busy_ms",
        ),
        (
            "upcxx.calls_per_lap",
            "upcxx.busy_ms_per_lap",
            "upcxx.calls",
            "upcxx.busy_ms",
        ),
    ] {
        out.insert(calls, per_lap(calls_key));
        out.insert(busy, per_lap(busy_key));
    }

    let plain_p50 = median(&t.plain.laps_ms);
    let x = |key: &str| t.spanned.extra.get(key).copied().unwrap_or(0.0);
    let written = x("trace.drained") + x("trace.dropped");
    out.insert(
        "trace.events_per_lap",
        ratio(written, t.spanned.attempted as f64),
    );
    out.insert("trace.drop_ratio", ratio(x("trace.dropped"), written));
    out.insert("trace.drain_ms", x("trace.drain_ms"));
    out.insert(
        "trace.overhead_pct",
        t.twin
            .map_or(0.0, |twin| overhead_pct(plain_p50, median(&twin.laps_ms))),
    );

    let ref_p50 = t.reference.map_or(0.0, |r| median(&r.laps_ms));
    out.insert("bench.ref_lap_ms_p50", ref_p50);
    out.insert("bench.vs_ref", ratio(plain_p50, ref_p50));
    let mut spanned_laps = t.spanned.laps_ms.clone();
    sort(&mut spanned_laps);
    out.insert("bench.lap_ms_p99", percentile(&spanned_laps, 0.99));
    out.insert(
        "bench.warmup_drift_pct",
        summarize_laps(&t.plain.laps_ms).warmup_drift_pct,
    );
    out.insert(
        "bench.span_overhead_pct",
        overhead_pct(percentile(&spanned_laps, 0.5), plain_p50),
    );

    for metric in &LAYER_METRICS {
        let v = out.entry(metric.name).or_insert(0.0);
        if !v.is_finite() {
            *v = 0.0;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_layered() {
        let mut names: Vec<_> = LAYER_METRICS.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LAYER_METRICS.len());
        let layers = [
            "deque", "runtime", "netsim", "reliable", "mpi", "shmem", "upcxx", "trace", "metrics",
            "forkjoin", "platform", "bench",
        ];
        for m in &LAYER_METRICS {
            let layer = m.name.split('.').next().unwrap();
            assert!(layers.contains(&layer), "{}", m.name);
            assert!(m.better == "lower" || m.better == "higher");
        }
    }

    #[test]
    fn derive_fills_every_metric_and_zeroes_unused_layers() {
        let run = RunResult {
            laps_ms: vec![2.0, 2.0, 2.0],
            timed_laps: 3,
            attempted: 67,
            counters: BTreeMap::from([("sched.tasks_executed", 300.0), ("sched.steals", 30.0)]),
            ..RunResult::default()
        };
        let spanned = RunResult {
            laps_ms: vec![2.2, 2.2, 2.2],
            ..RunResult {
                counters: run.counters.clone(),
                timed_laps: 3,
                ..RunResult::default()
            }
        };
        let spans = BTreeMap::new();
        let probes = Probes::from([("netsim.oneway_us_p50", 45.0)]);
        let got = derive(&Traced {
            plain: &run,
            spanned: &spanned,
            spans: &spans,
            reference: None,
            twin: None,
            probes: &probes,
        });
        for m in &LAYER_METRICS {
            assert!(got.contains_key(m.name), "{} missing", m.name);
        }
        assert_eq!(got.len(), LAYER_METRICS.len());
        assert_eq!(got["runtime.tasks_per_lap"], 100.0);
        assert!((got["runtime.steals_per_task"] - 0.1).abs() < 1e-12);
        assert_eq!(got["netsim.msgs_per_lap"], 0.0);
        assert_eq!(got["mpi.over_transport_us"], 0.0);
        assert!((got["bench.span_overhead_pct"] - 10.0).abs() < 1e-9);
    }
}
