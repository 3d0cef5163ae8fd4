//! In-process simulated cluster for HiPER (DESIGN.md §2.2).
//!
//! The paper evaluates HiPER on the Edison and Titan supercomputers; this
//! crate substitutes an in-process cluster: `N` ranks, each hosting its own
//! HiPER runtime, connected by an interconnect whose **latency and bandwidth
//! are enforced in wall-clock time** by a delivery-engine thread. A blocking
//! receive therefore really idles its caller for `latency + bytes/bandwidth`
//! while an asynchronous, future-based receive lets the runtime execute other
//! tasks — which is precisely the overlap effect the paper measures.
//!
//! The communication modules (`hiper-mpi`, `hiper-shmem`, `hiper-upcxx`) are
//! built on the [`Transport`] handle: tagged, channel-demultiplexed active
//! messages delivered **in order per (source, destination) pair**. Delivery
//! handlers run on the engine thread and must be cheap (a memcpy, a promise
//! satisfaction, an injector push); anything heavier must be spawned onto the
//! destination rank's runtime.

mod cluster;
mod engine;
mod fault;
mod message;
pub mod pod;
mod reliable;
pub mod supervise;

pub use cluster::{Cluster, RankEnv, SpmdBuilder};
pub use engine::{NetConfig, NetStats, NetStatsSnapshot};
pub use fault::{FaultDecision, FaultPlan, Partition, RankKill};
pub use message::{Channel, Message, Rank};
pub use reliable::{CoalesceConfig, ReliableStatsSnapshot, ReliableTransport, RetryConfig};
pub use supervise::{CrashToken, KillSpec, RecoveryError, SupervisedCtx, SupervisorHarness};

pub use cluster::Transport;
pub use engine::DeliveryEngine;
