//! Paper-style free-function API.
//!
//! Inside a task (or on a worker thread) the owning runtime is implicit;
//! these functions mirror the C++ HiPER surface from §II-B4 so that example
//! code reads like the paper:
//!
//! ```ignore
//! hiper::finish(|| {
//!     hiper::async_(|| { /* body */ });
//!     let fut = hiper::async_future(|| 42);
//!     hiper::async_await(&fut, || { /* runs after fut */ });
//! });
//! ```
//!
//! Every function panics if called from a thread with no current runtime;
//! use the methods on [`Runtime`] explicitly in that situation.

use hiper_platform::PlaceId;

use crate::promise::{Future, TaskError};
use crate::runtime::Runtime;

/// Runs `f` on the calling thread's runtime, borrowed from its
/// thread-local frame rather than cloned: a spawn through this module moves
/// no reference count of the runtime handle.
fn with_rt<R>(f: impl FnOnce(&Runtime) -> R) -> R {
    Runtime::with_current(f).expect("no current HiPER runtime on this thread")
}

/// `async`: create a task at the place closest to the current thread.
pub fn async_(f: impl FnOnce() + Send + 'static) {
    with_rt(|rt| rt.spawn(f));
}

/// `async_at`: create a task at a specific place.
pub fn async_at(place: PlaceId, f: impl FnOnce() + Send + 'static) {
    with_rt(|rt| rt.spawn_at(place, f));
}

/// `async_future`: create a task returning a future on its result.
pub fn async_future<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Future<T> {
    with_rt(|rt| rt.spawn_future(f))
}

/// `async_await`: create a task predicated on `dep`.
pub fn async_await<D: Send + 'static>(dep: &Future<D>, f: impl FnOnce() + Send + 'static) {
    with_rt(|rt| rt.spawn_await(dep, f));
}

/// `async_future_await`: predicated on `dep`, returns a completion future.
pub fn async_future_await<D: Send + 'static, T: Send + 'static>(
    dep: &Future<D>,
    f: impl FnOnce() -> T + Send + 'static,
) -> Future<T> {
    with_rt(|rt| rt.spawn_future_await(dep, f))
}

/// `finish`: run `f` and wait for every task transitively created inside it.
///
/// Returns `Err` with the first recorded failure if any task in the scope
/// panicked; the scope still drains fully before the error surfaces.
pub fn finish<R>(f: impl FnOnce() -> R) -> Result<R, TaskError> {
    with_rt(|rt| rt.finish(f))
}

/// Blocking `forasync` over `0..n`.
pub fn forasync_1d(n: usize, grain: usize, f: impl Fn(usize) + Send + Sync + 'static) {
    with_rt(|rt| rt.forasync_1d(n, grain, f))
}

/// `forasync_future` over `0..n`.
pub fn forasync_future_1d(
    n: usize,
    grain: usize,
    f: impl Fn(usize) + Send + Sync + 'static,
) -> Future<()> {
    with_rt(|rt| rt.forasync_future_1d(rt.here(), n, grain, f))
}
