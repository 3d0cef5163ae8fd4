//! Structured runtime tracing for HiPER (paper §V).
//!
//! "Like any unified scheduler, the HiPER runtime is aware of all of the
//! work executing on a system." This crate turns that awareness into data:
//! timestamped structured events — task lifecycle, scheduler transitions,
//! module entry/exit, simulated-network sends and deliveries — recorded
//! into per-thread lock-free ring buffers and exported as Chrome
//! trace-event JSON (loadable in Perfetto / `chrome://tracing`) plus a
//! compact aggregated report. The same crate reads those files back
//! ([`chrome::load_chrome_trace`]) and validates them ([`check`]).
//!
//! # Cost model
//!
//! Tracing is disabled by default. Every emit site checks one global
//! `AtomicBool` with a relaxed load and does nothing else when disabled, so
//! instrumented hot paths stay hot. When enabled, an emit is one clock read
//! plus five relaxed stores into the calling thread's own ring — no locks,
//! no allocation, no cross-thread cache traffic. `hiperbench` measures both
//! sides: `task_dag` runs with tracing compiled in and switched off, and
//! `trace.overhead_pct` / `trace.drop_ratio` on `task_dag_traced` price
//! switching it on.
//!
//! # Usage
//!
//! ```
//! // In a binary: honor --trace <out.json> / HIPER_TRACE=out.json.
//! let session = hiper_trace::session_from_env_args();
//! // ... run traced work ...
//! drop(session); // drains all rings, writes the JSON, prints the report path
//! ```
//!
//! Rings are *drop-oldest*: a thread that outruns its ring overwrites its
//! own oldest events and the loss is surfaced as a dropped-events counter,
//! never as a stall of the traced program.

pub mod analysis;
mod check;
pub mod chrome;
pub mod clock;
pub mod report;
mod ring;

pub use check::{check, CheckReport, TrackSummary};
pub use ring::{EventKind, EventRing, TraceEvent};

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};

/// Global on/off switch. Relaxed loads on the emit path: flipping the flag
/// is a SeqCst store, and emitters observe it "soon" — exact cutover
/// ordering against in-flight events is not needed (events carry their own
/// timestamps).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Task-id allocator. Id 0 is reserved for "untraced".
static NEXT_TASK_ID: AtomicU64 = AtomicU64::new(1);

/// Default per-thread ring capacity (events). Overridable with
/// `HIPER_TRACE_BUF` (parsed once, at first ring registration).
const DEFAULT_RING_CAPACITY: usize = 1 << 16;

thread_local! {
    /// This thread's ring, created and registered on first emit.
    static THREAD_RING: RefCell<Option<Arc<EventRing>>> = const { RefCell::new(None) };
    /// Trace id of the task currently executing on this thread (0 = none).
    static CURRENT_TASK: Cell<u64> = const { Cell::new(0) };
    /// Simulated rank this thread belongs to (`None` outside SPMD runs).
    /// Captured into the ring's registration so per-rank tracks can be
    /// separated in the exported trace.
    static AMBIENT_RANK: Cell<Option<usize>> = const { Cell::new(None) };
}

struct Registered {
    ring: Arc<EventRing>,
    /// Collector cursor into `ring`; guarded by the registry lock.
    read_pos: u64,
    /// Ambient rank of the owning thread at registration time.
    rank: Option<usize>,
}

struct Registry {
    rings: Mutex<Vec<Registered>>,
    /// Interned strings for module/op names; id = index + 1, 0 = none.
    strings: RwLock<Vec<&'static str>>,
    ring_capacity: usize,
    thread_seq: AtomicU64,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        rings: Mutex::new(Vec::new()),
        strings: RwLock::new(Vec::new()),
        ring_capacity: std::env::var("HIPER_TRACE_BUF")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_RING_CAPACITY),
        thread_seq: AtomicU64::new(0),
    })
}

/// True when tracing is on. One relaxed load; inline this check before
/// computing event payloads on hot paths.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns tracing on or off. Safe to flip at any time from any thread;
/// events already in rings are kept.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
    if on {
        // Pin the epoch now so the first events don't race epoch init.
        let _ = clock::epoch();
    }
}

/// Allocates a fresh task id for spawn-site attribution, or 0 when tracing
/// is disabled (0 marks the task untraced for its whole lifetime).
#[inline]
pub fn fresh_task_id() -> u64 {
    if enabled() {
        NEXT_TASK_ID.fetch_add(1, Ordering::Relaxed)
    } else {
        0
    }
}

/// The trace id of the task currently executing on this thread (0 = none).
/// Used as the parent id at spawn sites.
#[inline]
pub fn current_task() -> u64 {
    CURRENT_TASK.with(|c| c.get())
}

/// Installs `id` as the current task, returning the previous value (restore
/// it when the task finishes — tasks nest under help-first blocking).
#[inline]
pub fn set_current_task(id: u64) -> u64 {
    CURRENT_TASK.with(|c| c.replace(id))
}

/// Tags the calling thread as belonging to simulated rank `rank`. Set on
/// SPMD rank-main threads before the per-rank runtime spawns its workers;
/// workers inherit it at spawn so every ring registered afterwards carries
/// the rank. Must be called before this thread's first emit to take effect
/// for the ring label.
pub fn set_ambient_rank(rank: usize) {
    AMBIENT_RANK.with(|c| c.set(Some(rank)));
}

/// The simulated rank the calling thread was tagged with, if any.
pub fn ambient_rank() -> Option<usize> {
    AMBIENT_RANK.with(|c| c.get())
}

/// Interns a static string (module or op name), returning a stable nonzero
/// id events can carry. Idempotent; cheap read-mostly lookup.
pub fn intern(s: &'static str) -> u64 {
    let reg = registry();
    {
        let strings = reg.strings.read();
        if let Some(i) = strings.iter().position(|&x| std::ptr::eq(x, s) || x == s) {
            return (i + 1) as u64;
        }
    }
    let mut strings = reg.strings.write();
    if let Some(i) = strings.iter().position(|&x| x == s) {
        return (i + 1) as u64;
    }
    strings.push(s);
    strings.len() as u64
}

/// Resolves an interned id back to its string ("" for 0 or unknown ids).
pub fn resolve(id: u64) -> &'static str {
    if id == 0 {
        return "";
    }
    registry()
        .strings
        .read()
        .get((id - 1) as usize)
        .copied()
        .unwrap_or("")
}

/// Records one event on the calling thread's ring (registering the ring on
/// first use). No-op when tracing is disabled.
#[inline]
pub fn emit(kind: EventKind, a: u64, b: u64, c: u64) {
    if !enabled() {
        return;
    }
    emit_always(kind, a, b, c);
}

/// Records one event regardless of the enable flag (callers that already
/// checked [`enabled`] and must keep begin/end spans balanced).
pub fn emit_always(kind: EventKind, a: u64, b: u64, c: u64) {
    emit_event(TraceEvent {
        ts_ns: clock::now_ns(),
        kind,
        a,
        b,
        c,
    });
}

/// Records one event with an explicit timestamp instead of the current
/// clock. No-op when tracing is disabled. Used by netsim to stamp
/// `MsgDeliver` at the modeled due time (so the exported timeline satisfies
/// deliver = send + modeled delay exactly) and to give `MsgSend`/`NetSend`
/// pairs one shared timestamp.
#[inline]
pub fn emit_at(ts_ns: u64, kind: EventKind, a: u64, b: u64, c: u64) {
    if !enabled() {
        return;
    }
    emit_event(TraceEvent {
        ts_ns,
        kind,
        a,
        b,
        c,
    });
}

fn emit_event(e: TraceEvent) {
    THREAD_RING.with(|slot| {
        let mut slot = slot.borrow_mut();
        let ring = slot.get_or_insert_with(register_thread_ring);
        ring.emit(e);
    });
}

fn register_thread_ring() -> Arc<EventRing> {
    let reg = registry();
    let seq = reg.thread_seq.fetch_add(1, Ordering::Relaxed);
    let label = std::thread::current()
        .name()
        .map(str::to_string)
        .unwrap_or_else(|| format!("thread-{}", seq));
    let ring = Arc::new(EventRing::with_capacity(label, reg.ring_capacity));
    reg.rings.lock().push(Registered {
        ring: Arc::clone(&ring),
        read_pos: 0,
        rank: ambient_rank(),
    });
    ring
}

/// One ring's worth of drained events.
#[derive(Debug)]
pub struct TrackData {
    /// Ring label (owning thread's name).
    pub label: String,
    /// Events in emit order (timestamps are monotone within a track).
    pub events: Vec<TraceEvent>,
    /// Events lost to ring wraparound since the previous drain.
    pub dropped: u64,
    /// Simulated rank the owning thread belonged to (`None` for
    /// single-runtime / non-SPMD threads).
    pub rank: Option<usize>,
}

/// Everything drained from every ring.
#[derive(Debug, Default)]
pub struct TraceData {
    /// One entry per registered ring (including rings of exited threads).
    pub tracks: Vec<TrackData>,
}

impl TraceData {
    /// Total events across tracks.
    pub fn len(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }

    /// True when no track holds any event.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total dropped events across tracks.
    pub fn dropped(&self) -> u64 {
        self.tracks.iter().map(|t| t.dropped).sum()
    }
}

/// Events lost to ring wraparound so far, across all rings, *without*
/// draining (the collector cursors are left untouched, so a later
/// [`drain`] still returns everything still reachable). Harness `--stats`
/// reports poll this to warn that a trace is incomplete.
pub fn rings_dropped() -> u64 {
    let reg = registry();
    let rings = reg.rings.lock();
    rings
        .iter()
        .map(|entry| {
            let written = entry.ring.written();
            let reachable = entry.ring.capacity() as u64;
            written
                .saturating_sub(reachable)
                .saturating_sub(entry.read_pos)
        })
        .sum()
}

/// Drains every registered ring (incremental: a second drain returns only
/// events emitted since the first). Call after the traced workload has
/// quiesced — at shutdown or between phases — so writers aren't racing the
/// collector.
pub fn drain() -> TraceData {
    let reg = registry();
    let mut rings = reg.rings.lock();
    let mut tracks = Vec::with_capacity(rings.len());
    for entry in rings.iter_mut() {
        let (events, pos, dropped) = entry.ring.drain_from(entry.read_pos);
        entry.read_pos = pos;
        tracks.push(TrackData {
            label: entry.ring.label().to_string(),
            events,
            dropped,
            rank: entry.rank,
        });
    }
    TraceData { tracks }
}

/// Copies every registered ring's reachable events *without* advancing the
/// collector cursors: a later [`drain`] still returns everything. Used by
/// the stall watchdog to embed the trace tail in a flight record without
/// stealing events from the eventual end-of-run export. Writers may still
/// be appending concurrently; the snapshot is a best-effort view, exactly
/// like any drain taken before quiescence.
pub fn snapshot() -> TraceData {
    let reg = registry();
    let rings = reg.rings.lock();
    let mut tracks = Vec::with_capacity(rings.len());
    for entry in rings.iter() {
        let (events, _pos, dropped) = entry.ring.drain_from(entry.read_pos);
        tracks.push(TrackData {
            label: entry.ring.label().to_string(),
            events,
            dropped,
            rank: entry.rank,
        });
    }
    TraceData { tracks }
}

/// An enabled tracing session that, on [`finish`](TraceSession::finish) (or
/// drop), disables tracing, drains every ring, and writes Chrome-trace JSON
/// to its output path.
pub struct TraceSession {
    path: std::path::PathBuf,
    /// Also print the aggregated report to stderr at finish.
    pub report: bool,
    finished: bool,
}

impl TraceSession {
    /// Enables tracing; the trace is written to `path` when the session
    /// ends.
    pub fn start(path: impl Into<std::path::PathBuf>) -> TraceSession {
        set_enabled(true);
        TraceSession {
            path: path.into(),
            report: true,
            finished: false,
        }
    }

    /// The output path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Disables tracing, drains, writes the trace file, and returns the
    /// drained data (for callers that also want the aggregate).
    pub fn finish(mut self) -> std::io::Result<TraceData> {
        self.finished = true;
        self.finish_inner()
    }

    fn finish_inner(&mut self) -> std::io::Result<TraceData> {
        set_enabled(false);
        let data = drain();
        let json = chrome::chrome_trace_json(&data);
        std::fs::write(&self.path, json)?;
        if data.dropped() > 0 {
            // Loud by design: a wrapped ring means the timeline has holes
            // and every downstream analysis (trace_check pairing, critical
            // path, queue latencies) is undercounting.
            eprintln!(
                "[hiper-trace] WARNING: {} event(s) lost to ring wraparound — \
                 the trace is INCOMPLETE; raise HIPER_TRACE_BUF (current \
                 default {} events/thread) or trace a shorter window",
                data.dropped(),
                registry().ring_capacity
            );
        }
        if self.report {
            let rpt = report::TraceReport::build(&data);
            eprintln!(
                "[hiper-trace] wrote {} ({} events, {} dropped)",
                self.path.display(),
                data.len(),
                data.dropped()
            );
            eprintln!("{}", rpt);
        }
        Ok(data)
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        if !self.finished {
            if let Err(e) = self.finish_inner() {
                eprintln!(
                    "[hiper-trace] failed to write {}: {}",
                    self.path.display(),
                    e
                );
            }
        }
    }
}

/// Builds a session from the conventional CLI surface: `--trace <out.json>`
/// (or `--trace=<out.json>`) in `std::env::args`, falling back to the
/// `HIPER_TRACE` environment variable. Returns `None` when neither is set.
pub fn session_from_env_args() -> Option<TraceSession> {
    let mut args = std::env::args();
    let mut path: Option<String> = None;
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            path = args.next();
            break;
        }
        if let Some(rest) = arg.strip_prefix("--trace=") {
            path = Some(rest.to_string());
            break;
        }
    }
    let path = path.or_else(|| std::env::var("HIPER_TRACE").ok())?;
    if path.is_empty() {
        return None;
    }
    Some(TraceSession::start(path))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_resolvable() {
        let a = intern("test-module-x");
        let b = intern("test-module-x");
        assert_eq!(a, b);
        assert_ne!(a, 0);
        assert_eq!(resolve(a), "test-module-x");
        assert_eq!(resolve(0), "");
    }

    #[test]
    fn fresh_ids_zero_when_disabled() {
        // Tests in this binary share the global flag; hold no assumptions
        // about other tests' state beyond toggling it ourselves.
        set_enabled(false);
        assert_eq!(fresh_task_id(), 0);
        set_enabled(true);
        let a = fresh_task_id();
        let b = fresh_task_id();
        assert!(a != 0 && b != 0 && a != b);
        set_enabled(false);
    }

    #[test]
    fn current_task_nests() {
        assert_eq!(current_task(), 0);
        let prev = set_current_task(7);
        assert_eq!(prev, 0);
        assert_eq!(current_task(), 7);
        let prev2 = set_current_task(9);
        assert_eq!(prev2, 7);
        set_current_task(prev2);
        set_current_task(prev);
        assert_eq!(current_task(), 0);
    }
}
