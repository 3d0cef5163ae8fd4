//! The shared monotonic trace clock.
//!
//! Every event in a trace — worker events, module spans, simulated-network
//! sends and deliveries — is timestamped from *one* epoch so tracks from
//! different threads (and the netsim delivery engine) interleave correctly
//! on the exported timeline. The epoch is the first call to [`now_ns`]
//! anywhere in the process; timestamps are nanoseconds since then.
//!
//! The netsim delivery engine routes its due-time arithmetic through this
//! clock too (rather than calling `Instant::now()` independently at the
//! schedule and delivery sites), which is what makes a `NetDeliver` event
//! land at exactly `NetSend + modeled delay` on the exported timeline.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The process-wide trace epoch. First caller pins it.
pub fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch. Monotone and shared by every emitter.
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Converts a trace timestamp back to an [`Instant`] (for condvar deadlines
/// in components that schedule against the trace clock, e.g. the netsim
/// delivery engine).
pub fn instant_at(ts_ns: u64) -> Instant {
    epoch() + Duration::from_nanos(ts_ns)
}

#[cfg(target_os = "linux")]
extern "C" {
    /// `prctl(2)`.
    fn prctl(option: i32, ...) -> i32;
}

#[cfg(target_os = "linux")]
const PR_SET_TIMERSLACK: i32 = 29;

/// Makes the calling thread's timed sleeps and condvar waits wake close to
/// their deadline: on Linux it sets the thread's timer slack to 1 ns
/// (`PR_SET_TIMERSLACK`). The default slack is 50 µs, so a 40 µs timed
/// wait otherwise overshoots by about 57 µs at the median; with 1 ns slack
/// the overshoot is 6–7 µs (what remains is wake-up latency). Threads that
/// model hardware timing (the netsim delivery engine, the reliable
/// flushers, the GPU engines) call this once at start. A no-op elsewhere.
pub fn precise_timers() {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long by value and
        // touches no memory of the caller. A failure only leaves the
        // default slack in place, so the result is not checked.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_and_shared() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
        let handles: Vec<_> = (0..4).map(|_| std::thread::spawn(now_ns)).collect();
        let floor = a;
        for h in handles {
            assert!(h.join().unwrap() >= floor);
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn precise_timers_sets_this_threads_slack() {
        const PR_GET_TIMERSLACK: i32 = 30;
        // SAFETY: PR_GET_TIMERSLACK takes no argument, touches no caller
        // memory and returns the calling thread's slack.
        let slack_ns = || unsafe { prctl(PR_GET_TIMERSLACK) };
        std::thread::spawn(move || {
            // SAFETY: as in `precise_timers`.
            unsafe { prctl(PR_SET_TIMERSLACK, 50_000 as std::ffi::c_ulong) };
            assert_eq!(slack_ns(), 50_000);
            precise_timers();
            assert_eq!(slack_ns(), 1);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn instant_roundtrip() {
        let t = now_ns();
        let back = instant_at(t);
        // `back` is in the past (or now); converting forward again must not
        // move it before `t`.
        assert!(back <= Instant::now());
        assert!(instant_at(t + 1_000_000) > back);
    }
}
