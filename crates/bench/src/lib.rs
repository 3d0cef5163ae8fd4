//! The HiPER benchmark suite (paper §III).
//!
//! One module per benchmark, each containing the workload, a sequential
//! oracle / validator, the baseline implementations the paper compares
//! against, and the HiPER implementation:
//!
//! | module | paper exp. | modules used | baselines |
//! |---|---|---|---|
//! | [`isx`] | Fig 5, ISx weak scaling | OpenSHMEM | flat SHMEM, SHMEM+OMP |
//! | [`uts`] | Fig 7, UTS strong scaling | OpenSHMEM | SHMEM+OMP, SHMEM+OMP-Tasks |
//! | [`geo`] | Fig 6, GEO weak scaling | CUDA + MPI | blocking MPI+CUDA, MPI+OMP+CUDA |
//! | [`hpgmg`] | Fig 4, HPGMG-FV weak scaling | UPC++ + MPI | reference hybrid |
//! | [`graph500`] | §III-C2 | OpenSHMEM + MPI | manual-polling reference |
//!
//! Support modules: [`supervised`] (kill-and-replay recovery drivers for
//! `chaos_check`), [`sha1`] (the UTS node hash) and [`util`] (timing,
//! `HIPER_*` parameters, `--trace` / `--metrics` / `--stats` sessions).
//! Traces are read back and validated by `hiper_trace` itself
//! (`hiper_trace::chrome`, `hiper_trace::check`), which the `profile` and
//! `trace_check` binaries call.
//!
//! The figure harnesses live in `src/bin/` (one binary per paper figure) and
//! print the same series the paper plots; `benches/` holds Criterion
//! micro-benchmarks backing the headline numbers (task overheads,
//! communication primitives, and two design ablations). Whether a change
//! made anything slower is answered by the repo benchmark, `hiperbench`
//! (`BENCHMARK.json`), run beside its parent commit.

pub mod geo;
pub mod graph500;
pub mod hpgmg;
pub mod isx;
pub mod sha1;
pub mod supervised;
pub mod util;
pub mod uts;
