//! `hiperbench`: the repo benchmark (see README.md and ../BENCHMARK.json).
//!
//! ```text
//! hiperbench --workload W --seed N --seconds S --trace 0|1   one run, result on the last line
//! hiperbench all | traced | aa [--runs R] | check | manifest
//! ```
//!
//! One run is one process: the benchmark calls only public functions of the
//! crates, times them from outside and validates every lap. `--trace 0`
//! prints the end-to-end metrics; `--trace 1` reruns the workload with the
//! benchmark's span recorder on, runs the layer probes, and prints the
//! per-layer metrics. The other commands start one such process per
//! workload, so every number comes from a fresh process whichever way it is
//! asked for.

mod layers;
mod probes;
mod spans;
mod stats;
mod sysinfo;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use hiper_netsim::NetConfig;
use hiper_platform::json::Json;

use layers::LAYER_METRICS;
use workloads::{RunCfg, RunResult, Variant, WorkloadInfo, WORKLOADS};

const DEFAULT_SEED: u64 = 19;
/// `run_seconds` of BENCHMARK.json. The issue asked for 15 s windows; the
/// driver's total cap (136 runs and two builds in 3420 s) leaves room for 10.
const RUN_SECONDS: u64 = 10;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;

struct EndToEnd {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    bound: f64,
}

const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "lap_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "lap_ms_p90",
        unit: "ms",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "units_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.10,
    },
    EndToEnd {
        name: "cpu_ms_per_lap",
        unit: "ms",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
    },
];

/// Where every output file goes: `benchmark/out/`, next to the manifest.
pub fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

fn num(v: f64) -> Json {
    Json::Number(if v.is_finite() { v } else { 0.0 })
}

fn text(s: impl Into<String>) -> Json {
    Json::String(s.into())
}

fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn metric_values<'a>(
    values: impl IntoIterator<Item = (&'a str, &'a str, f64)>,
) -> BTreeMap<String, Json> {
    values
        .into_iter()
        .map(|(name, unit, v)| {
            (
                name.to_string(),
                obj([("value", num(v)), ("unit", text(unit))]),
            )
        })
        .collect()
}

/// The resolved configuration, embedded in every output file.
fn config(workload: &str, seed: u64, seconds: f64) -> Json {
    let net = NetConfig::default();
    obj([
        ("workload", text(workload)),
        (
            "workloads",
            Json::Array(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        obj([
                            ("name", text(w.name)),
                            ("sizing", text(w.sizing)),
                            ("unit", text(w.unit)),
                            ("why", text(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "net",
            obj([
                ("latency_us", num(net.latency.as_secs_f64() * 1e6)),
                ("bandwidth_bytes_per_s", num(net.bandwidth)),
                ("self_latency_us", num(net.self_latency.as_secs_f64() * 1e6)),
                ("ranks_per_node", num(net.ranks_per_node as f64)),
                (
                    "intra_latency_us",
                    num(net.intra_latency.as_secs_f64() * 1e6),
                ),
            ]),
        ),
        ("ranks", num(workloads::RANKS as f64)),
        ("workers_per_rank", num(workloads::WORKERS_PER_RANK as f64)),
        ("smp_workers", num(workloads::SMP_WORKERS as f64)),
        ("seed", num(seed as f64)),
        ("window_s", num(seconds)),
        ("warmup_laps", num(workloads::WARMUP_LAPS as f64)),
        ("setups_per_run", num(SETUPS as f64)),
        ("loop", text("closed, one client")),
        (
            "placement",
            text(
                "rank r's worker on the r-th allowed CPU, delivery engine beside the last \
                 rank, SMP workers unbound",
            ),
        ),
        ("nproc", num(sysinfo::nproc() as f64)),
        ("rustc", text(sysinfo::rustc_version())),
        ("git", text(sysinfo::git_sha())),
        (
            "netsim_features",
            text("slowmo, enabled by hiper-bench as in every existing harness"),
        ),
    ])
}

fn write_file(path: &Path, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// The line the driver reads.
fn result_line(ok: bool, attempted: u64, failed: u64, metrics: BTreeMap<String, Json>) -> Json {
    obj([
        ("correct", Json::Bool(ok)),
        ("attempted", num(attempted as f64)),
        ("failed", num(failed as f64)),
        ("metrics", Json::Object(metrics)),
    ])
}

/// `--trace 0`: SETUPS set-ups, one timed window, the end-to-end metrics.
fn end_to_end(w: &WorkloadInfo, seed: u64, seconds: f64) -> Json {
    let name = w.name;
    let setup_only = RunCfg {
        seed,
        warmup: workloads::WARMUP_LAPS,
        window: Duration::ZERO,
        variant: Variant::Main,
    };
    let mut runs: Vec<RunResult> = (1..SETUPS).map(|_| (w.run)(&setup_only)).collect();
    runs.push((w.run)(&RunCfg {
        window: Duration::from_secs_f64(seconds),
        ..setup_only
    }));
    let setups: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let failures: Vec<Json> = runs
        .iter()
        .flat_map(|r| r.failures.iter().map(text))
        .collect();
    let r = runs.last().expect("the timed run");
    let laps = stats::summarize_laps(&r.laps_ms);
    let ok = failed == 0 && laps.samples > 0;

    let values = [
        stats::median(&setups),
        laps.p50,
        laps.p90,
        r.units_per_lap * laps.samples as f64 / r.wall_s,
        r.cpu_s * 1e3 / r.timed_laps as f64,
        sysinfo::peak_rss_mb(),
    ];
    let metrics = metric_values(
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, m.unit, v)),
    );
    for (m, v) in END_TO_END.iter().zip(values) {
        println!("{name} {} = {v} {}", m.name, m.unit);
    }

    let record = obj([
        ("config", config(name, seed, seconds)),
        ("metrics", Json::Object(metrics.clone())),
        ("ops_attempted", num(attempted as f64)),
        ("ops_failed", num(failed as f64)),
        ("failures", Json::Array(failures)),
        ("samples", num(laps.samples as f64)),
        (
            "setup_samples_s",
            Json::Array(setups.iter().map(|&s| num(s)).collect()),
        ),
        ("warmup_drift_pct", num(laps.warmup_drift_pct)),
        // Null below 1000 laps: fewer than ten samples beyond the percentile.
        ("lap_ms_p99", laps.p99.map_or(Json::Null, num)),
    ]);
    write_file(&out_dir().join(format!("{name}.json")), &record.pretty());
    result_line(ok, attempted, failed, metrics)
}

/// `spans_<workload>.json`: every span of the traced window, as
/// `[name index, lap, id, parent, start_ns, end_ns]`.
fn write_spans(name: &str, cfg: &Json, got: &spans::Collected) {
    let mut names: Vec<&str> = got.spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let mut out = format!(
        "{{\"config\":{},\"dropped\":{},\"names\":{},\"spans\":[",
        cfg.compact(),
        got.dropped,
        Json::Array(names.iter().map(|n| text(*n)).collect()).compact()
    );
    for (i, s) in got.spans.iter().enumerate() {
        let idx = names.binary_search(&s.name).expect("name listed");
        let sep = if i == 0 { "" } else { "," };
        out.push_str(&format!(
            "{sep}\n[{idx},{},{},{},{},{}]",
            s.lap, s.id, s.parent, s.start_ns, s.end_ns
        ));
    }
    out.push_str("\n]}\n");
    write_file(&out_dir().join(format!("spans_{name}.json")), &out);
}

/// `--trace 1`: the workload with the span recorder off, then on, its
/// reference or twin where it has one, then the probes. End-to-end numbers
/// are never taken from this run.
fn traced(w: &WorkloadInfo, seed: u64, seconds: f64) -> Json {
    let name = w.name;
    let quarter = RunCfg {
        seed,
        warmup: workloads::WARMUP_LAPS,
        window: Duration::from_secs_f64(seconds / 4.0),
        variant: Variant::Main,
    };
    let plain = (w.run)(&quarter);
    spans::set_enabled(true);
    let spanned = (w.run)(&RunCfg {
        window: Duration::from_secs_f64(seconds / 2.0),
        ..quarter
    });
    spans::set_enabled(false);
    let collected = spans::collect();
    let by_name = spans::aggregate(&collected.spans);
    let reference = w.has_reference.then(|| {
        (w.run)(&RunCfg {
            variant: Variant::Reference,
            ..quarter
        })
    });
    let twin = w
        .twin
        .and_then(workloads::find)
        .map(|twin| (twin.run)(&quarter));
    let probes = probes::run_all(seconds, seed);
    let values = layers::derive(&layers::Traced {
        plain: &plain,
        spanned: &spanned,
        spans: &by_name,
        reference: reference.as_ref(),
        twin: twin.as_ref(),
        probes: &probes,
    });

    let runs = [
        Some(&plain),
        Some(&spanned),
        reference.as_ref(),
        twin.as_ref(),
    ];
    let attempted: u64 = runs.iter().flatten().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().flatten().map(|r| r.failed).sum();
    let ok = failed == 0 && !spanned.laps_ms.is_empty() && !plain.laps_ms.is_empty();

    let metrics = metric_values(
        LAYER_METRICS
            .iter()
            .map(|m| (m.name, m.unit, values[m.name])),
    );
    for m in &LAYER_METRICS {
        println!("{name} {} = {} {}", m.name, values[m.name], m.unit);
    }
    let cfg = config(name, seed, seconds);
    write_spans(name, &cfg, &collected);
    let span_table = by_name.iter().map(|(span, a)| {
        (
            *span,
            obj([
                ("count", num(a.count as f64)),
                ("total_ms", num(a.total_ns as f64 / 1e6)),
                ("self_ms", num(a.self_ns as f64 / 1e6)),
                ("p50_us", num(stats::percentile(&a.durations_ns, 0.5) / 1e3)),
                (
                    "p99_us",
                    num(stats::percentile(&a.durations_ns, 0.99) / 1e3),
                ),
            ]),
        )
    });
    let layers_file = obj([
        ("config", cfg),
        ("metrics", Json::Object(metrics.clone())),
        ("spans", obj(span_table)),
        ("spans_dropped", num(collected.dropped as f64)),
        (
            "counters_over_window",
            obj(spanned.counters.iter().map(|(k, v)| (*k, num(*v)))),
        ),
        ("traced_laps", num(spanned.timed_laps as f64)),
        ("ops_attempted", num(attempted as f64)),
        ("ops_failed", num(failed as f64)),
    ]);
    write_file(
        &out_dir().join(format!("layers_{name}.json")),
        &layers_file.pretty(),
    );
    result_line(ok, attempted, failed, metrics)
}

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        runs: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => {
                args.runs = value("a count")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "all" | "traced" | "aa" | "check" | "manifest" if args.command.is_none() => {
                args.command = Some(arg)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn is_correct(line: &Json) -> bool {
    line.get("correct").and_then(Json::as_bool) == Some(true)
}

/// One run in a child process; returns its result line.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let line = Json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    if !output.status.success() || !is_correct(&line) {
        return Err(format!("{workload}: run failed: {last}"));
    }
    Ok(line)
}

fn metric_of(line: &Json, name: &str) -> f64 {
    line.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// `all` and `traced`: every workload once, one table, one merged file.
fn every_workload(args: &Args, trace: bool) -> bool {
    let mut ok = true;
    let mut merged = BTreeMap::new();
    for w in &WORKLOADS {
        match child(w.name, args.seed, args.seconds, trace) {
            Ok(line) => {
                let metrics = line.get("metrics").and_then(Json::as_object);
                for (name, m) in metrics.into_iter().flatten() {
                    println!(
                        "{:<16} {:<32} {:>16.4} {}",
                        w.name,
                        name,
                        m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                        m.get("unit").and_then(Json::as_str).unwrap_or("")
                    );
                }
                merged.insert(w.name.to_string(), line);
            }
            Err(e) => {
                eprintln!("{e}");
                ok = false;
            }
        }
    }
    let file = if trace { "layers.json" } else { "results.json" };
    let doc = obj([
        ("config", config("all", args.seed, args.seconds)),
        ("workloads", Json::Object(merged)),
    ]);
    write_file(&out_dir().join(file), &doc.pretty());
    ok
}

/// `aa`: two sets of the same code, back to back. Per workload and
/// end-to-end metric: both medians, how much worse the second is, the
/// spread of each set (with at least four runs a set), and the bound.
/// Exits non-zero on a breach; this is the tool that decides demotions.
fn aa(args: &Args) -> bool {
    let mut sets: [BTreeMap<(usize, usize), Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
    for set in &mut sets {
        for (wi, w) in WORKLOADS.iter().enumerate() {
            for run in 0..args.runs {
                match child(w.name, args.seed + run as u64, args.seconds, false) {
                    Ok(line) => {
                        for (mi, m) in END_TO_END.iter().enumerate() {
                            set.entry((wi, mi))
                                .or_default()
                                .push(metric_of(&line, m.name));
                        }
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        return false;
                    }
                }
            }
        }
    }
    let mut ok = true;
    let mut rows = Vec::new();
    println!(
        "{:<16} {:<15} {:>12} {:>12} {:>8} {:>9} {:>9} {:>6}",
        "workload", "metric", "first", "second", "worse%", "spread1%", "spread2%", "bound%"
    );
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for (mi, m) in END_TO_END.iter().enumerate() {
            let (a, b) = (&sets[0][&(wi, mi)], &sets[1][&(wi, mi)]);
            let (ma, mb) = (stats::median(a), stats::median(b));
            let worse = if m.better == "lower" {
                mb / ma - 1.0
            } else {
                1.0 - mb / ma
            };
            let spreads = (args.runs >= 4).then(|| (stats::spread(a), stats::spread(b)));
            // The driver exempts the spread of `setup_s`, not its medians.
            let spread_breach =
                m.name != "setup_s" && spreads.is_some_and(|(sa, sb)| sa > m.bound || sb > m.bound);
            let breach = worse > m.bound || spread_breach;
            ok &= !breach;
            let pct = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{:.2}", v * 100.0));
            println!(
                "{:<16} {:<15} {:>12.4} {:>12.4} {:>8.2} {:>9} {:>9} {:>6.0}{}",
                w.name,
                m.name,
                ma,
                mb,
                worse * 100.0,
                pct(spreads.map(|s| s.0)),
                pct(spreads.map(|s| s.1)),
                m.bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
            rows.push(obj([
                ("workload", text(w.name)),
                ("metric", text(m.name)),
                ("first", num(ma)),
                ("second", num(mb)),
                ("worse", num(worse)),
                ("spread_first", num(spreads.map_or(0.0, |s| s.0))),
                ("spread_second", num(spreads.map_or(0.0, |s| s.1))),
                ("bound", num(m.bound)),
                ("breach", Json::Bool(breach)),
            ]));
        }
    }
    let doc = obj([
        ("config", config("all", args.seed, args.seconds)),
        ("runs_per_set", num(args.runs as f64)),
        ("rows", Json::Array(rows)),
    ]);
    write_file(&out_dir().join("aa.json"), &doc.pretty());
    ok
}

/// BENCHMARK.json as the tables in this program define it.
fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    obj([
        ("command", Json::Array(command.map(text).to_vec())),
        ("paths", Json::Array(vec![text("benchmark")])),
        ("run_seconds", num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Array(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better)),
                            ("bound", num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Array(
                LAYER_METRICS
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `check`: BENCHMARK.json says what this program does, and every workload
/// validates and emits exactly the declared metric names, in 1 s windows.
fn check(args: &Args) -> bool {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let declared = match std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|s| Json::parse(&s).map_err(|e| e.to_string()))
    {
        Ok(j) => j,
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            return false;
        }
    };
    let mut ok = true;
    if declared != manifest() {
        eprintln!(
            "BENCHMARK.json differs from `hiperbench manifest` (workloads, metric names, \
             units, bounds or command are out of sync)"
        );
        ok = false;
    }
    for w in &WORKLOADS {
        for (trace, want) in [
            (false, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()),
            (true, LAYER_METRICS.iter().map(|m| m.name).collect()),
        ] {
            match child(w.name, args.seed, 1.0, trace) {
                Ok(line) => {
                    let mut want = want;
                    want.sort_unstable();
                    let got: Vec<&str> = line
                        .get("metrics")
                        .and_then(Json::as_object)
                        .map(|m| m.keys().map(String::as_str).collect())
                        .unwrap_or_default();
                    if got != want {
                        eprintln!("{} --trace {}: metric names differ", w.name, trace as u8);
                        ok = false;
                    } else {
                        println!("{} --trace {}: ok", w.name, trace as u8);
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    // ~30 HIPER_* variables are read ad hoc across five crates and would
    // silently change the numbers.
    if let Some((var, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("HIPER_"))
    {
        eprintln!(
            "hiperbench: {} is set; unset every HIPER_* variable, the benchmark \
             configures the crates through their API only",
            var.to_string_lossy()
        );
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hiperbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match (args.command.as_deref(), &args.workload) {
        (Some("all"), _) => every_workload(&args, false),
        (Some("traced"), _) => every_workload(&args, true),
        (Some("aa"), _) => aa(&args),
        (Some("check"), _) => check(&args),
        (Some("manifest"), _) => {
            println!("{}", manifest().pretty());
            true
        }
        (_, Some(name)) => {
            let Some(w) = workloads::find(name) else {
                eprintln!("hiperbench: unknown workload {name}");
                return ExitCode::from(2);
            };
            let line = if args.trace {
                traced(w, args.seed, args.seconds)
            } else {
                end_to_end(w, args.seed, args.seconds)
            };
            println!("{}", line.compact());
            is_correct(&line)
        }
        _ => {
            eprintln!(
                "hiperbench: give --workload NAME or one of all, traced, aa, check, manifest"
            );
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
