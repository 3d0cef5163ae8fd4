//! The HiPER generalized work-stealing runtime (paper §II-B).
//!
//! HiPER unifies the representation of computation, communication and other
//! work as *tasks* in a task-parallel runtime. This crate is the runtime
//! core: a persistent pool of worker threads, per-place task deques, per-
//! worker pop and steal paths over the platform model, promises/futures for
//! point-to-point synchronization, `finish` scopes for bulk synchronization,
//! `forasync` parallel loops, `async_copy` with pluggable copy handlers, and
//! the module registry that third-party libraries (MPI, OpenSHMEM, UPC++,
//! CUDA, …) plug into.
//!
//! Rank-failure recovery is not part of the core: the simulated cluster's
//! supervision harness (`hiper_netsim::supervise`) drives it from outside,
//! through the modules' reliable endpoints and checkpoints.
//!
//! # Quick start
//!
//! ```
//! use hiper_runtime::Runtime;
//!
//! let rt = Runtime::new(hiper_platform::autogen::smp(2));
//! let total = rt.block_on(|| {
//!     let fut = hiper_runtime::api::async_future(|| 21);
//!     hiper_runtime::api::finish(|| {
//!         hiper_runtime::api::async_(|| { /* side work */ });
//!     })
//!     .expect("no task panicked");
//!     fut.get() * 2
//! });
//! assert_eq!(total, 42);
//! rt.shutdown();
//! ```

pub mod api;
pub mod copy;
mod event;
pub mod module;
mod promise;
mod runtime;
mod scheduler;
mod smallfn;
pub mod stats;
mod task;
pub mod watchdog;

mod forasync;

pub use copy::{CopyHandler, CopyRegistry, CopyRequest, HostBuffer, MemLoc};
pub use event::{Wake, WakeHub};
pub use module::{Binding, ModuleCtx, ModuleError, PollFn, Poller, SchedulerModule};
pub use promise::{when_all, Future, Promise, TaskError};
pub use runtime::{Runtime, RuntimeBuilder};
pub use stats::{ModuleStats, SchedStats, SchedStatsSnapshot};
pub use task::FinishScope;
