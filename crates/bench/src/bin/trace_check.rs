//! Validates a Chrome trace-event JSON file produced by `hiper-trace`.
//!
//! Reads the file with `hiper_trace::chrome::load_chrome_trace`, which
//! rejects anything the exporter would not write (a non-string `name`, a
//! `ph` that is not one known character, a non-numeric `pid`/`tid`, a
//! missing `ts`, an event lacking the args it carries), then runs
//! `hiper_trace::check`: monotone time per track, balanced task / park /
//! module spans, no orphan task begins, causal message edges (unique ids,
//! deliveries on their send's link no earlier than send + modeled delay),
//! and supervised recovery (alternating `rank_down`/`rank_restored`,
//! nondecreasing nonzero epochs, no delivery inside a blackout). The rules
//! are documented on `hiper_trace::check`.
//!
//! ```text
//! cargo run --release -p hiper-bench --bin trace_check -- out.json
//! ```
//!
//! Exits 0 on a valid trace, 1 on any violation, 2 on usage/IO errors.

use std::io::ErrorKind;

use hiper_trace::chrome::load_chrome_trace;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = match args.as_slice() {
        [p] if !p.starts_with('-') => p,
        _ => {
            eprintln!("usage: trace_check <trace.json>");
            std::process::exit(2);
        }
    };
    let data = match load_chrome_trace(path) {
        Ok(d) => d,
        Err(e) if e.kind() == ErrorKind::InvalidData => {
            eprintln!("ERROR: {} is not a valid trace: {}", path, e);
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("trace_check: cannot read {}: {}", path, e);
            std::process::exit(2);
        }
    };
    let report = hiper_trace::check(&data);
    print!("{}: {}", path, report);
    if report.ok() {
        println!("OK");
    } else {
        for e in &report.errors {
            eprintln!("ERROR: {}", e);
        }
        std::process::exit(1);
    }
}
