//! Work-stealing deque and injector queue used by the HiPER runtime.
//!
//! The HiPER generalized work-stealing runtime (paper §II-B) places `N`
//! deques at every place in the platform model, where `N` is the number of
//! persistent worker threads. Deque `i` at a place holds eligible tasks
//! spawned by worker `i`; the owning worker pushes and pops at one end
//! (LIFO, for locality), and every other worker steals from the opposite end
//! (FIFO, for load balance).
//!
//! This crate provides the two queue flavors that layout needs:
//!
//! * [`deque`] — a from-scratch Chase–Lev dynamic circular work-stealing
//!   deque with the owner/thief handle split ([`deque::Worker`] /
//!   [`deque::Stealer`]).
//! * [`Injector`] — a multi-producer queue for task submissions that
//!   originate *off* the worker pool (e.g. the network delivery engine
//!   satisfying a promise, or an application thread calling `async_at`
//!   before entering the runtime).

pub mod deque;
mod injector;

pub use deque::{new as new_deque, Stealer, Worker, MAX_BATCH};
pub use injector::Injector;

/// Outcome of a steal attempt on a [`Stealer`] or [`Injector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal<T> {
    /// A task was successfully stolen.
    Success(T),
    /// The queue was observed empty.
    Empty,
    /// The steal lost a race with the owner or another thief; retrying may
    /// succeed.
    Retry,
}

impl<T> Steal<T> {
    /// Returns the stolen value, if any.
    pub fn success(self) -> Option<T> {
        match self {
            Steal::Success(v) => Some(v),
            _ => None,
        }
    }

    /// True if the queue was observed empty.
    pub fn is_empty(&self) -> bool {
        matches!(self, Steal::Empty)
    }
}
