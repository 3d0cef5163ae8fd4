//! Post-mortem profiler: replays a Chrome trace (written by any harness's
//! `--trace out.json`) into the task-DAG critical path, per-worker
//! utilization timelines, and load-imbalance / steal-locality summaries —
//! and, with `--diff`, aligns two same-workload runs and attributes the
//! wall-clock delta (DESIGN.md §2.14).
//!
//! ```text
//! cargo run --release -p hiper-bench --bin profile -- trace.json [--out summary.txt]
//! cargo run --release -p hiper-bench --bin profile -- --diff base.json cand.json
//! ```
//!
//! Single-trace mode analyzes one run; the critical path is the longest
//! spawn chain ending at the last task to finish, decomposed into compute,
//! module (communication), pop-wait and steal-wait segments that tile its
//! wall interval exactly — the number to attack first when a run is slower
//! than expected.
//!
//! Diff mode takes two Chrome traces. This is the attribution step after
//! `hiperbench` shows a workload got slower: trace the same run before and
//! after the change and diff the two. Every input is read with
//! `hiper_trace::chrome` and validated with `hiper_trace::check`; broken
//! invariants are reported on stderr. Flags:
//!
//! * `--out FILE` — also write the report to FILE
//! * `--top N` — ranked contributors to keep (default 10)
//! * `--strict` — exit 3 when any analyzed trace is PARTIAL (dropped
//!   events or orphan message delivers make the critical path a lower
//!   bound) or breaks a trace invariant; applies to both modes
//! * `--label-base S` / `--label-cand S` — report labels (default: file
//!   stems)
//!
//! Exits 0 on success, 1 when a trace holds no complete task, 2 on
//! usage/IO errors (an unknown flag or an unparsable value included), 3 on
//! `--strict` failures.

use hiper_trace::analysis::ProfileAnalysis;
use hiper_trace::chrome::load_chrome_trace;
use hiper_trace::diff::{DiffInput, DiffOptions, TraceDiff};
use hiper_trace::TraceData;

const USAGE: &str = "usage: profile <trace.json> [--out FILE] [--strict]\n\
     \x20      profile --diff <base.json> <cand.json> [--top N] [--strict] [--out FILE]\n\
     \x20                     [--label-base S] [--label-cand S]";

struct Opts {
    diff: bool,
    paths: Vec<String>,
    out: Option<String>,
    top: usize,
    strict: bool,
    label_base: Option<String>,
    label_cand: Option<String>,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("profile: {}\n{}", msg, USAGE);
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        diff: false,
        paths: Vec::new(),
        out: None,
        top: 10,
        strict: false,
        label_base: None,
        label_cand: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            opts.paths.push(arg);
            continue;
        }
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let switch = matches!(flag, "--diff" | "--strict");
        if switch && inline.is_some() {
            usage_error(&format!("{} takes no value", flag));
        }
        let mut value = || {
            inline
                .clone()
                .or_else(|| args.next())
                .unwrap_or_else(|| usage_error(&format!("{} needs a value", flag)))
        };
        match flag {
            "--diff" => opts.diff = true,
            "--strict" => opts.strict = true,
            "--out" => opts.out = Some(value()),
            "--label-base" => opts.label_base = Some(value()),
            "--label-cand" => opts.label_cand = Some(value()),
            "--top" => {
                let v = value();
                opts.top = v
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("--top {}: not a count", v)));
            }
            _ => usage_error(&format!("unknown flag {}", flag)),
        }
    }
    let want = if opts.diff { 2 } else { 1 };
    if opts.paths.len() != want {
        usage_error(&format!(
            "expected {} trace file(s), got {}",
            want,
            opts.paths.len()
        ));
    }
    opts
}

fn stem(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string())
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

fn strict_invalid() -> ! {
    eprintln!("profile: a trace breaks its invariants under --strict (see above)");
    std::process::exit(3);
}

fn main() {
    let opts = parse_args();

    if opts.diff {
        let (base_path, cand_path) = (&opts.paths[0], &opts.paths[1]);
        let (base_data, base_ok) = load(base_path);
        let (cand_data, cand_ok) = load(cand_path);
        let base_label = opts.label_base.clone().unwrap_or_else(|| stem(base_path));
        let cand_label = opts.label_cand.clone().unwrap_or_else(|| stem(cand_path));
        let base = DiffInput::from_trace(&base_label, &base_data);
        let cand = DiffInput::from_trace(&cand_label, &cand_data);
        let diff = TraceDiff::build(&base, &cand, DiffOptions { top: opts.top });
        let rendered = diff.to_markdown();
        print!("{}", rendered);
        write_out(&opts.out, &rendered);
        if opts.strict && diff.partial {
            eprintln!(
                "profile: PARTIAL diff under --strict (dropped events or orphan \
                 delivers on at least one side; raise HIPER_TRACE_BUF and re-record)"
            );
            std::process::exit(3);
        }
        if opts.strict && !(base_ok && cand_ok) {
            strict_invalid();
        }
        return;
    }

    let path = &opts.paths[0];
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
        strict_invalid();
    }
}
