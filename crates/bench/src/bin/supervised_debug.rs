//! Minimal driver for the supervised workloads (debugging / CI spot runs).
//!
//! ```text
//! cargo run --release -p hiper-bench --bin supervised_debug \
//!     [-- isx|uts] [--kill] [--trace out.json]
//! ```
//!
//! With `--trace` (or `HIPER_TRACE`) the run is recorded as a Chrome trace;
//! a `--kill` run then carries `rank_down`/`rank_restored` events that
//! `trace_check` validates (pairing, epoch order, delivery blackout).

use hiper_bench::{supervised, util};
use hiper_netsim::KillSpec;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which = args.get(1).map(|s| s.as_str()).unwrap_or("isx");
    let kill = args.iter().any(|a| a == "--kill");
    let _trace = util::trace_session();
    let rounds = 3;
    let (nranks, name) = match which {
        "uts" => (2, "uts"),
        _ => (4, "isx"),
    };
    let spec = kill.then(|| KillSpec::seeded(0xC0FFEE, nranks, rounds));
    eprintln!("running supervised {} kill={:?}", name, spec);
    let out = match which {
        "uts" => supervised::run_supervised_uts(spec, rounds),
        _ => supervised::run_supervised_isx(spec, rounds),
    };
    eprintln!(
        "done in {:?}: recoveries={} digest[0][..4]={:?}",
        out.elapsed,
        out.recoveries,
        &out.digest[0][..out.digest[0].len().min(4)]
    );
}
