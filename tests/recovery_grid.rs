//! The recovery grid of `chaos_check --recovery`, pinned to one seed: ISx
//! and UTS each killed mid-run must replay to the fault-free digest, do so
//! again from the same seed, and actually drive a recovery; killing a rank
//! that never checkpointed must degrade cleanly.
//!
//! One test, not several: the cells share fixed checkpoint directories
//! under the system temp dir, so they must not run on parallel threads.

use hiper_bench::supervised::{run_degradation, run_recovery_grid};

#[test]
fn recovery_grid_replays_bit_identically_and_degradation_is_clean() {
    let cells = run_recovery_grid(3405691582);
    let names: Vec<_> = cells.iter().map(|c| c.name).collect();
    assert_eq!(names, ["isx", "uts"]);
    for cell in &cells {
        assert!(
            cell.identical,
            "{}: digest differs from the baseline",
            cell.name
        );
        assert!(cell.deterministic, "{}: two killed runs differ", cell.name);
        assert!(
            cell.recovered(),
            "{}: no recovery completed (attempts {}, completed {})",
            cell.name,
            cell.killed.recoveries,
            cell.killed.completed
        );
    }
    assert!(run_degradation(), "the degradation scenario failed");
}
