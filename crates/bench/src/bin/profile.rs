//! Post-mortem profiler: replays a Chrome trace (written by any harness's
//! `--trace out.json`) into the task-DAG critical path, per-worker
//! utilization timelines, and load-imbalance / steal-locality summaries.
//!
//! ```text
//! cargo run --release -p hiper-bench --bin profile -- trace.json [--out summary.txt] [--strict]
//! ```
//!
//! The critical path is the longest spawn chain ending at the last task to
//! finish, decomposed into compute, module (communication), pop-wait and
//! steal-wait segments that tile its wall interval exactly — the number to
//! attack first when a run is slower than expected. To say why a change
//! moved a workload, profile a traced run from each tree and compare the
//! segment tables (DESIGN.md §2.14). The trace is read with
//! `hiper_trace::chrome` and validated with `hiper_trace::check`; broken
//! invariants are reported on stderr. Flags:
//!
//! * `--out FILE` — also write the report to FILE
//! * `--strict` — exit 3 when the trace is PARTIAL (dropped events or
//!   orphan message delivers make the critical path a lower bound) or
//!   breaks a trace invariant
//!
//! Exits 0 on success, 1 when the trace holds no complete task, 2 on
//! usage/IO errors (an unknown flag included), 3 on `--strict` failures.

use hiper_trace::analysis::ProfileAnalysis;
use hiper_trace::chrome::load_chrome_trace;
use hiper_trace::TraceData;

const USAGE: &str = "usage: profile <trace.json> [--out FILE] [--strict]";

struct Opts {
    path: String,
    out: Option<String>,
    strict: bool,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("profile: {}\n{}", msg, USAGE);
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let mut paths = Vec::new();
    let mut out = None;
    let mut strict = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            paths.push(arg);
            continue;
        }
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        match flag {
            "--strict" if inline.is_some() => usage_error("--strict takes no value"),
            "--strict" => strict = true,
            "--out" => {
                out = Some(
                    inline
                        .or_else(|| args.next())
                        .unwrap_or_else(|| usage_error("--out needs a value")),
                )
            }
            _ => usage_error(&format!("unknown flag {}", flag)),
        }
    }
    if paths.len() != 1 {
        usage_error(&format!("expected 1 trace file, got {}", paths.len()));
    }
    Opts {
        path: paths.remove(0),
        out,
        strict,
    }
}

/// Reads one trace and checks its invariants, reporting each broken one on
/// stderr. Returns the data and whether it passed.
fn load(path: &str) -> (TraceData, bool) {
    let data = load_chrome_trace(path).unwrap_or_else(|e| {
        eprintln!("profile: cannot load {}: {}", path, e);
        std::process::exit(2);
    });
    let report = hiper_trace::check(&data);
    for e in &report.errors {
        eprintln!("profile: {} breaks a trace invariant: {}", path, e);
    }
    (data, report.ok())
}

fn write_out(out: &Option<String>, rendered: &str) {
    if let Some(out) = out {
        if let Err(e) = std::fs::write(out, rendered) {
            eprintln!("profile: cannot write {}: {}", out, e);
            std::process::exit(2);
        }
        println!("wrote {}", out);
    }
}

fn main() {
    let opts = parse_args();
    let path = &opts.path;
    let (data, valid) = load(path);
    let analysis = ProfileAnalysis::build(&data);
    let rendered = analysis.to_string();
    print!("{}", rendered);
    write_out(&opts.out, &rendered);
    if analysis.critical_path.is_none() {
        eprintln!("profile: no complete task in {} — nothing to analyze", path);
        std::process::exit(1);
    }
    if opts.strict && (analysis.dropped > 0 || analysis.orphan_delivers > 0) {
        eprintln!(
            "profile: PARTIAL trace under --strict ({} dropped event(s), {} orphan \
             deliver(s)); the critical path is a lower bound — raise HIPER_TRACE_BUF",
            analysis.dropped, analysis.orphan_delivers
        );
        std::process::exit(3);
    }
    if opts.strict && !valid {
        eprintln!(
            "profile: {} breaks its invariants under --strict (see above)",
            path
        );
        std::process::exit(3);
    }
}
