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
//! Diff mode accepts either Chrome traces or compact `*.profile.json`
//! files (written by `--save-profile`); the two forms mix freely. This is
//! the attribution step after `hiperbench` shows a workload got slower:
//! trace the same run before and after the change and diff the two. Flags:
//!
//! * `--out FILE` — also write the report to FILE
//! * `--json` — emit the diff as JSON instead of markdown
//! * `--top N` — ranked contributors to keep (default 10)
//! * `--strict` — exit 3 when any analyzed trace is PARTIAL (dropped
//!   events or orphan message delivers make the critical path a lower
//!   bound); applies to both modes
//! * `--save-profile FILE` — single-trace mode: write the compact
//!   diffable profile of the trace
//! * `--metrics-base FILE` / `--metrics-cand FILE` — metrics snapshot
//!   JSONs (`hiper_metrics::snapshot_json`) refining the respective side
//! * `--label-base S` / `--label-cand S` — report labels (default: file
//!   stems)
//!
//! Exits 0 on success, 1 when a trace holds no complete task, 2 on
//! usage/IO errors, 3 on `--strict` PARTIAL.

use hiper_bench::traceload::load_chrome_trace;
use hiper_metrics::MetricsSnapshot;
use hiper_trace::analysis::ProfileAnalysis;
use hiper_trace::diff::{DiffInput, DiffOptions, TraceDiff};

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    let eq = format!("{}=", flag);
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| {
            args.iter()
                .find_map(|a| a.strip_prefix(&eq).map(str::to_string))
        })
}

fn stem(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string())
}

/// Loads one diff side: a compact profile (sniffed by its marker) or a
/// Chrome trace run through the analyzer.
fn load_input(path: &str, label: &str) -> Result<DiffInput, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {}", path, e))?;
    if text.contains("\"hiper_profile\"") {
        if let Ok(mut input) = DiffInput::parse_json(&text) {
            if input.label.is_empty() {
                input.label = label.to_string();
            }
            return Ok(input);
        }
    }
    let data = load_chrome_trace(path).map_err(|e| format!("cannot load {}: {}", path, e))?;
    Ok(DiffInput::from_trace(label, &data))
}

fn apply_metrics_file(input: &mut DiffInput, path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {}", path, e))?;
    let snap =
        MetricsSnapshot::parse_json(&text).map_err(|e| format!("bad snapshot {}: {}", path, e))?;
    input.apply_metrics(&snap);
    Ok(())
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
    let args: Vec<String> = std::env::args().collect();
    let out = flag_value(&args, "--out");
    let strict = args.iter().any(|a| a == "--strict");
    let as_json = args.iter().any(|a| a == "--json");
    let top = flag_value(&args, "--top")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);

    if let Some(i) = args.iter().position(|a| a == "--diff") {
        let (base_path, cand_path) = match (args.get(i + 1), args.get(i + 2)) {
            (Some(b), Some(c)) if !b.starts_with("--") && !c.starts_with("--") => {
                (b.clone(), c.clone())
            }
            _ => {
                eprintln!(
                    "usage: profile --diff <base.json> <cand.json> [--json] [--top N] [--strict]"
                );
                std::process::exit(2);
            }
        };
        let base_label = flag_value(&args, "--label-base").unwrap_or_else(|| stem(&base_path));
        let cand_label = flag_value(&args, "--label-cand").unwrap_or_else(|| stem(&cand_path));
        let mut base = match load_input(&base_path, &base_label) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("profile: {}", e);
                std::process::exit(2);
            }
        };
        let mut cand = match load_input(&cand_path, &cand_label) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("profile: {}", e);
                std::process::exit(2);
            }
        };
        for (side, flag) in [(&mut base, "--metrics-base"), (&mut cand, "--metrics-cand")] {
            if let Some(path) = flag_value(&args, flag) {
                if let Err(e) = apply_metrics_file(side, &path) {
                    eprintln!("profile: {}", e);
                    std::process::exit(2);
                }
            }
        }
        let diff = TraceDiff::build(&base, &cand, DiffOptions { top });
        let rendered = if as_json {
            diff.to_json()
        } else {
            diff.to_markdown()
        };
        print!("{}", rendered);
        write_out(&out, &rendered);
        if strict && diff.partial {
            eprintln!(
                "profile: PARTIAL diff under --strict (dropped events or orphan \
                 delivers on at least one side; raise HIPER_TRACE_BUF and re-record)"
            );
            std::process::exit(3);
        }
        return;
    }

    let path = match args.get(1).filter(|a| !a.starts_with("--")) {
        Some(p) => p.clone(),
        None => {
            eprintln!(
                "usage: profile <trace.json> [--out summary.txt] [--strict] [--save-profile f]\n\
                 \x20      profile --diff <base.json> <cand.json> [--json] [--top N] [--strict]"
            );
            std::process::exit(2);
        }
    };
    let data = match load_chrome_trace(&path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("profile: cannot load {}: {}", path, e);
            std::process::exit(2);
        }
    };
    let analysis = ProfileAnalysis::build(&data);
    let rendered = analysis.to_string();
    print!("{}", rendered);
    write_out(&out, &rendered);
    if let Some(save) = flag_value(&args, "--save-profile") {
        let input = DiffInput::from_trace(&stem(&path), &data);
        if let Err(e) = std::fs::write(&save, input.to_json()) {
            eprintln!("profile: cannot write {}: {}", save, e);
            std::process::exit(2);
        }
        println!("wrote {}", save);
    }
    if analysis.critical_path.is_none() {
        eprintln!("profile: no complete task in {} — nothing to analyze", path);
        std::process::exit(1);
    }
    if strict && (analysis.dropped > 0 || analysis.orphan_delivers > 0) {
        eprintln!(
            "profile: PARTIAL trace under --strict ({} dropped event(s), {} orphan \
             deliver(s)); the critical path is a lower bound — raise HIPER_TRACE_BUF",
            analysis.dropped, analysis.orphan_delivers
        );
        std::process::exit(3);
    }
}
