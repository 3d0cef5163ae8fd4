//! Stall watchdog: detects no-global-progress windows and dumps a flight
//! record before warning or aborting (DESIGN.md §2.12).
//!
//! A distributed deadlock in HiPER looks like silence: every worker parked,
//! a promise that never resolves, a reliable-transport peer retransmitting
//! into a dead rank. The watchdog turns that silence into evidence. It
//! keeps one process-global *progress counter* (bumped on every task
//! execution and promise completion), a registry of unresolved promises
//! tagged with their owning trace span and simulated rank, and a set of
//! pluggable *probes* (e.g. the reliable transport reports head-of-line
//! retransmit stalls). A monitor thread wakes a few times per threshold
//! window; when the counter has been frozen past the threshold AND at
//! least one suspicion exists (an unresolved promise older than the
//! threshold, or a firing probe), it writes a flight record — unresolved
//! promises with owning spans, probe reports, per-runtime scheduler state,
//! a metrics dump, and the tail of every trace ring — to a timestamped
//! JSON file, then warns or aborts per configuration.
//!
//! # Cost model
//!
//! Disarmed (the default), every hook is one relaxed load. Armed, the
//! per-task cost is one relaxed `fetch_add`; the per-promise cost is one
//! mutex-guarded map insert/remove — promises are allocation-rate objects,
//! not per-instruction objects, so this stays invisible next to the
//! allocation they already do. The monitor thread sleeps between polls and
//! takes no locks shared with hot paths except those registries.
//!
//! # Configuration
//!
//! `HIPER_WATCHDOG=MODE[:THRESHOLD]` where `MODE` is `warn` or `abort` and
//! `THRESHOLD` is a duration (`500ms`, `2s`, `250000us`; bare numbers are
//! milliseconds; default 1s). `off`/`0`/empty disarms. The flight record
//! goes to `hiper-flightrec-<unix_ms>.json` in the working directory
//! unless `HIPER_WATCHDOG_FILE` pins a path.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant, SystemTime};

use hiper_platform::json::Json;
use parking_lot::Mutex;

/// What to do once a stall is confirmed and the flight record is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Log the stall loudly and keep running (the record may repeat if the
    /// stall clears and recurs; one record per frozen-counter episode).
    Warn,
    /// Log, then `std::process::exit(86)` — for CI jobs that would
    /// otherwise hang until the job timeout with no diagnostics.
    Abort,
}

/// Parsed watchdog configuration.
#[derive(Debug, Clone)]
pub(crate) struct Config {
    pub mode: Mode,
    /// How long the progress counter must stay frozen (with a live
    /// suspicion) before the stall is declared.
    pub threshold: Duration,
    /// Flight-record path override (`HIPER_WATCHDOG_FILE`); `None` writes
    /// `hiper-flightrec-<unix_ms>.json` in the working directory.
    pub record_path: Option<PathBuf>,
}

/// One unresolved promise in the registry.
#[derive(Debug, Clone)]
struct PromiseInfo {
    /// Trace span (task id) that created the promise; 0 = untraced.
    span: u64,
    /// Simulated rank of the creating thread, if inside an SPMD run.
    rank: Option<usize>,
    created: Instant,
}

/// A stall probe: returns `Some(report)` when its subsystem believes
/// forward progress is wedged (e.g. head-of-line retransmit exhaustion).
type ProbeFn = Box<dyn Fn() -> Option<String> + Send + Sync>;

/// An informational section contributor: always included in the flight
/// record (e.g. a runtime's scheduler-state snapshot).
type InfoFn = Box<dyn Fn() -> String + Send + Sync>;

struct Inner {
    config: Option<Config>,
    monitor_running: bool,
    promises: BTreeMap<u64, PromiseInfo>,
    probes: Vec<(u64, String, ProbeFn)>,
    infos: Vec<(u64, String, InfoFn)>,
}

struct State {
    inner: Mutex<Inner>,
}

/// Relaxed-load gate checked by every hook; set only while a config is
/// installed.
static ARMED: AtomicBool = AtomicBool::new(false);
/// Global progress counter: task executions + promise completions.
static PROGRESS: AtomicU64 = AtomicU64::new(0);
/// Id allocator shared by promises, probes, and info sections.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn state() -> &'static State {
    static STATE: OnceLock<State> = OnceLock::new();
    STATE.get_or_init(|| State {
        inner: Mutex::new(Inner {
            config: None,
            monitor_running: false,
            promises: BTreeMap::new(),
            probes: Vec::new(),
            infos: Vec::new(),
        }),
    })
}

/// True when the watchdog is armed. One relaxed load — the gate every
/// hook checks first.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// True when a flight record could be consumed: the watchdog is armed
/// (stall monitoring) or `HIPER_WATCHDOG_FILE` pins an on-demand sink.
/// State contributors (probes, info sections) register under this gate so
/// an on-demand dump — recovery degradation, for example — captures them
/// even when no stall monitor is running.
pub fn recording() -> bool {
    static FILE_SET: OnceLock<bool> = OnceLock::new();
    armed() || *FILE_SET.get_or_init(|| std::env::var_os("HIPER_WATCHDOG_FILE").is_some())
}

/// Records one unit of global progress (a task executed, a promise
/// completed). No-op unless armed.
#[inline]
pub fn note_progress() {
    if armed() {
        PROGRESS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Parses `HIPER_WATCHDOG` and arms the watchdog if it names a mode. Safe
/// to call many times (e.g. once per runtime build); the environment is
/// read once.
pub fn init_from_env() {
    static INIT: OnceLock<()> = OnceLock::new();
    INIT.get_or_init(|| {
        if let Some(config) = config_from_env() {
            arm(config);
        }
    });
}

fn config_from_env() -> Option<Config> {
    let raw = std::env::var("HIPER_WATCHDOG").ok()?;
    let raw = raw.trim();
    if raw.is_empty() || raw == "0" || raw.eq_ignore_ascii_case("off") {
        return None;
    }
    let (mode_s, dur_s) = match raw.split_once(':') {
        Some((m, d)) => (m, Some(d)),
        None => (raw, None),
    };
    let mode = match mode_s.to_ascii_lowercase().as_str() {
        "warn" => Mode::Warn,
        "abort" => Mode::Abort,
        other => {
            eprintln!(
                "[hiper-watchdog] ignoring HIPER_WATCHDOG: unknown mode {:?} \
                 (expected warn[:DUR] or abort[:DUR])",
                other
            );
            return None;
        }
    };
    let threshold = match dur_s {
        None => Duration::from_secs(1),
        Some(d) => match parse_duration(d) {
            Some(t) if !t.is_zero() => t,
            _ => {
                eprintln!(
                    "[hiper-watchdog] ignoring HIPER_WATCHDOG: bad threshold {:?}",
                    d
                );
                return None;
            }
        },
    };
    let record_path = std::env::var("HIPER_WATCHDOG_FILE")
        .ok()
        .filter(|p| !p.is_empty())
        .map(PathBuf::from);
    Some(Config {
        mode,
        threshold,
        record_path,
    })
}

/// Parses `500ms` / `2s` / `250us` / `3m`; a bare number is milliseconds.
fn parse_duration(s: &str) -> Option<Duration> {
    let s = s.trim();
    let split = s
        .find(|c: char| !c.is_ascii_digit() && c != '.')
        .unwrap_or(s.len());
    let (num, unit) = s.split_at(split);
    if num.is_empty() {
        return None;
    }
    let v: f64 = num.parse().ok()?;
    let nanos = match unit {
        "ns" => v,
        "us" | "µs" => v * 1e3,
        "" | "ms" => v * 1e6,
        "s" => v * 1e9,
        "m" => v * 60.0 * 1e9,
        _ => return None,
    };
    Some(Duration::from_nanos(nanos as u64))
}

/// Arms the watchdog with `config`, spawning the monitor thread on first
/// arm. Re-arming replaces the configuration in place.
pub(crate) fn arm(config: Config) {
    let mut inner = state().inner.lock();
    inner.config = Some(config);
    ARMED.store(true, Ordering::SeqCst);
    if !inner.monitor_running {
        inner.monitor_running = true;
        std::thread::Builder::new()
            .name("hiper-watchdog".into())
            .spawn(monitor_loop)
            .expect("spawn watchdog monitor");
    }
}

/// Disarms the watchdog. The monitor thread keeps sleeping (it is a
/// daemon) but detects nothing, and the per-hook cost drops back to one
/// relaxed load. Registered promises/probes stay registered.
#[cfg(test)]
pub(crate) fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
    state().inner.lock().config = None;
}

// ---------------------------------------------------------------------
// Promise registry
// ---------------------------------------------------------------------

/// Registers an unresolved promise owned by trace span `span` (0 =
/// untraced); the creating thread's ambient rank is captured. Returns a
/// nonzero registry id to pass to [`resolve_promise`], or 0 when the
/// watchdog is disarmed (callers skip the resolve call for id 0).
#[inline]
pub fn register_promise(span: u64) -> u64 {
    if !armed() {
        return 0;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let info = PromiseInfo {
        span,
        rank: hiper_trace::ambient_rank(),
        created: Instant::now(),
    };
    state().inner.lock().promises.insert(id, info);
    id
}

/// Marks promise `id` resolved (fulfilled, poisoned, or dropped) and
/// counts it as progress. No-op for id 0.
#[inline]
pub fn resolve_promise(id: u64) {
    if id == 0 {
        return;
    }
    state().inner.lock().promises.remove(&id);
    PROGRESS.fetch_add(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Probes and info sections
// ---------------------------------------------------------------------

/// Deregisters its probe when dropped.
pub struct ProbeHandle {
    id: u64,
}

impl Drop for ProbeHandle {
    fn drop(&mut self) {
        state()
            .inner
            .lock()
            .probes
            .retain(|(id, ..)| *id != self.id);
    }
}

/// Registers a stall probe. The watchdog calls `f` on every suspicion
/// check; `Some(report)` votes that the system is wedged and the report is
/// embedded in the flight record.
pub fn register_probe(
    name: impl Into<String>,
    f: impl Fn() -> Option<String> + Send + Sync + 'static,
) -> ProbeHandle {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    state()
        .inner
        .lock()
        .probes
        .push((id, name.into(), Box::new(f)));
    ProbeHandle { id }
}

/// Deregisters its info section when dropped.
pub struct InfoHandle {
    id: u64,
}

impl Drop for InfoHandle {
    fn drop(&mut self) {
        state().inner.lock().infos.retain(|(id, ..)| *id != self.id);
    }
}

/// Registers an informational section (always included in flight records):
/// `f` renders current state, e.g. a runtime's scheduler counters.
pub fn register_info(
    name: impl Into<String>,
    f: impl Fn() -> String + Send + Sync + 'static,
) -> InfoHandle {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    state()
        .inner
        .lock()
        .infos
        .push((id, name.into(), Box::new(f)));
    InfoHandle { id }
}

// ---------------------------------------------------------------------
// Monitor
// ---------------------------------------------------------------------

/// One confirmed suspicion set, gathered under the registry lock.
struct Suspicion {
    /// (registry id, info) for unresolved promises older than the
    /// threshold, oldest first.
    stale_promises: Vec<(u64, PromiseInfo)>,
    /// (probe name, report) for every probe that fired.
    probe_reports: Vec<(String, String)>,
}

impl Suspicion {
    /// The promise to blame: the oldest stale promise that carries a trace
    /// span, falling back to the oldest overall. Untraced infrastructure
    /// promises (e.g. `block_on`'s completion future, span 0) must not mask
    /// a traced user promise created later.
    fn stuck_promise(&self) -> Option<&(u64, PromiseInfo)> {
        self.stale_promises
            .iter()
            .find(|(_, p)| p.span != 0)
            .or_else(|| self.stale_promises.first())
    }
}

fn monitor_loop() {
    let mut last_progress = PROGRESS.load(Ordering::Relaxed);
    let mut last_change = Instant::now();
    // One flight record per frozen-counter episode: remember the counter
    // value we dumped at and stay quiet until it moves again.
    let mut dumped_at: Option<u64> = None;
    loop {
        let config = match state().inner.lock().config.clone() {
            Some(c) => c,
            None => {
                std::thread::sleep(Duration::from_millis(200));
                continue;
            }
        };
        let poll = (config.threshold / 4).clamp(Duration::from_millis(5), Duration::from_secs(1));
        std::thread::sleep(poll);
        let now = PROGRESS.load(Ordering::Relaxed);
        if now != last_progress {
            last_progress = now;
            last_change = Instant::now();
            dumped_at = None;
            continue;
        }
        let frozen_for = last_change.elapsed();
        if frozen_for < config.threshold || dumped_at == Some(now) {
            continue;
        }
        let suspicion = gather_suspicion(config.threshold);
        if suspicion.stale_promises.is_empty() && suspicion.probe_reports.is_empty() {
            // Quiet but innocent: an idle runtime with nothing pending is
            // not a stall.
            continue;
        }
        dumped_at = Some(now);
        hiper_metrics::gauge("hiper_watchdog_stalls_detected").add(1);
        handle_stall(&config, frozen_for, now, suspicion);
    }
}

/// Writes a flight record *on demand* — no stall required and no arming
/// required — and returns its path. Recovery drivers call this when a rank
/// degrades to a terminal failure so the evidence (probe reports, reliable-
/// transport peer state, trace tails) is captured at the moment of
/// degradation rather than lost when the process exits cleanly.
///
/// The record lands at `HIPER_WATCHDOG_FILE` if set, else
/// `hiper-flightrec-<unix_ms>.json` in the working directory.
pub fn dump_record(reason: &str) -> Option<PathBuf> {
    // Honor `HIPER_WATCHDOG_FILE` even when the watchdog was never armed —
    // recovery drivers dump on demand without arming, and CI pins the
    // artifact path through the environment.
    let config = state()
        .inner
        .lock()
        .config
        .clone()
        .unwrap_or_else(|| Config {
            mode: Mode::Warn,
            threshold: Duration::ZERO,
            record_path: std::env::var("HIPER_WATCHDOG_FILE").ok().map(PathBuf::from),
        });
    // Zero threshold: include every unresolved promise, not just stale ones.
    let suspicion = gather_suspicion(Duration::ZERO);
    let progress = PROGRESS.load(Ordering::Relaxed);
    let record = render_flight_record(&config, reason, Duration::ZERO, progress, &suspicion);
    write_record(&config, reason, &record)
}

/// Writes `record` to the configured path, else to
/// `hiper-flightrec-<unix_ms>.json`, and says where on stderr.
fn write_record(config: &Config, reason: &str, record: &str) -> Option<PathBuf> {
    let path = config.record_path.clone().unwrap_or_else(|| {
        let unix_ms = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        PathBuf::from(format!("hiper-flightrec-{}.json", unix_ms))
    });
    match std::fs::write(&path, record) {
        Ok(()) => {
            eprintln!(
                "[hiper-watchdog] flight record ({}): {}",
                reason,
                path.display()
            );
            Some(path)
        }
        Err(e) => {
            eprintln!(
                "[hiper-watchdog] failed to write flight record {}: {}",
                path.display(),
                e
            );
            None
        }
    }
}

fn gather_suspicion(threshold: Duration) -> Suspicion {
    let inner = state().inner.lock();
    let mut stale: Vec<(u64, PromiseInfo)> = inner
        .promises
        .iter()
        .filter(|(_, p)| p.created.elapsed() >= threshold)
        .map(|(id, p)| (*id, p.clone()))
        .collect();
    stale.sort_by_key(|(_, p)| std::cmp::Reverse(p.created.elapsed()));
    let probe_reports = inner
        .probes
        .iter()
        .filter_map(|(_, name, f)| f().map(|r| (name.clone(), r)))
        .collect();
    Suspicion {
        stale_promises: stale,
        probe_reports,
    }
}

fn handle_stall(config: &Config, frozen_for: Duration, progress: u64, suspicion: Suspicion) {
    let stuck = suspicion.stuck_promise();
    let stuck_span = stuck.map(|(_, p)| p.span).unwrap_or(0);
    let stuck_rank = stuck.and_then(|(_, p)| p.rank);
    let record = render_flight_record(config, "stall", frozen_for, progress, &suspicion);
    eprintln!(
        "[hiper-watchdog] STALL: no global progress for {:.1}s \
         ({} unresolved promise(s), {} probe report(s)); stuck span {}{}",
        frozen_for.as_secs_f64(),
        suspicion.stale_promises.len(),
        suspicion.probe_reports.len(),
        stuck_span,
        match stuck_rank {
            Some(r) => format!(" on rank {}", r),
            None => String::new(),
        }
    );
    for (name, report) in &suspicion.probe_reports {
        eprintln!("[hiper-watchdog]   probe {}: {}", name, report);
    }
    write_record(config, "stall", &record);
    if config.mode == Mode::Abort {
        eprintln!("[hiper-watchdog] aborting (HIPER_WATCHDOG=abort)");
        std::process::exit(86);
    }
}

// ---------------------------------------------------------------------
// Flight record rendering
// ---------------------------------------------------------------------

/// Most recent events embedded per trace track; full rings would dwarf the
/// rest of the record.
const TRACE_TAIL: usize = 256;

fn object<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn number(v: impl Into<u128>) -> Json {
    Json::Number(v.into() as f64)
}

fn rank(r: Option<usize>) -> Json {
    r.map_or(Json::Null, |r| number(r as u64))
}

fn render_flight_record(
    config: &Config,
    reason: &str,
    frozen_for: Duration,
    progress: u64,
    suspicion: &Suspicion,
) -> String {
    let unix_ms = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    let stuck = suspicion.stuck_promise();
    // Unresolved promises, oldest first.
    let promises = suspicion
        .stale_promises
        .iter()
        .map(|(id, p)| {
            object([
                ("id", number(*id)),
                ("span", number(p.span)),
                ("rank", rank(p.rank)),
                ("age_ms", number(p.created.elapsed().as_millis())),
            ])
        })
        .collect();
    let probes = suspicion
        .probe_reports
        .iter()
        .map(|(name, report)| {
            object([
                ("name", Json::from(name.as_str())),
                ("report", Json::from(report.as_str())),
            ])
        })
        .collect();
    // Per-runtime state sections (scheduler counters, worker states).
    let runtimes = state()
        .inner
        .lock()
        .infos
        .iter()
        .map(|(_, name, f)| {
            object([
                ("name", Json::from(name.as_str())),
                ("state", Json::from(f())),
            ])
        })
        .collect();
    // Trace-ring tails: non-destructive snapshot so the end-of-run export
    // still sees everything.
    let tracks = hiper_trace::snapshot()
        .tracks
        .iter()
        .map(|track| {
            let tail_from = track.events.len().saturating_sub(TRACE_TAIL);
            let tail = track.events[tail_from..]
                .iter()
                .map(|e| {
                    object([
                        ("ts_ns", number(e.ts_ns)),
                        ("kind", Json::from(e.kind.name())),
                        ("a", number(e.a)),
                        ("b", number(e.b)),
                        ("c", number(e.c)),
                    ])
                })
                .collect();
            object([
                ("label", Json::from(track.label.as_str())),
                ("rank", rank(track.rank)),
                ("events", number(track.events.len() as u64)),
                ("dropped", number(track.dropped)),
                ("tail", Json::Array(tail)),
            ])
        })
        .collect();
    let record = object([
        ("detected_unix_ms", number(unix_ms)),
        ("reason", Json::from(reason)),
        (
            "mode",
            Json::from(match config.mode {
                Mode::Warn => "warn",
                Mode::Abort => "abort",
            }),
        ),
        ("stall_ms", number(frozen_for.as_millis())),
        ("progress_count", number(progress)),
        ("stuck_span", number(stuck.map_or(0, |(_, p)| p.span))),
        ("stuck_rank", rank(stuck.and_then(|(_, p)| p.rank))),
        ("unresolved_promises", Json::Array(promises)),
        ("probes", Json::Array(probes)),
        ("runtimes", Json::Array(runtimes)),
        // OpenMetrics text, embedded verbatim.
        ("metrics", Json::from(hiper_metrics::dump_openmetrics())),
        ("trace", object([("tracks", Json::Array(tracks))])),
    ]);
    let mut out = record.pretty();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_duration_units() {
        assert_eq!(parse_duration("500ms"), Some(Duration::from_millis(500)));
        assert_eq!(parse_duration("2s"), Some(Duration::from_secs(2)));
        assert_eq!(parse_duration("250us"), Some(Duration::from_micros(250)));
        assert_eq!(parse_duration("3m"), Some(Duration::from_secs(180)));
        assert_eq!(parse_duration("junk"), None);
        assert_eq!(
            parse_duration("10"),
            Some(Duration::from_millis(10)),
            "bare numbers are milliseconds"
        );
    }

    #[test]
    fn promise_registry_disarmed_is_free() {
        // Disarmed: registration returns the 0 sentinel and records nothing.
        disarm();
        assert_eq!(register_promise(42), 0);
        resolve_promise(0); // must be a no-op
    }

    #[test]
    fn flight_record_is_valid_shape() {
        let config = Config {
            mode: Mode::Warn,
            threshold: Duration::from_millis(100),
            record_path: None,
        };
        let suspicion = Suspicion {
            stale_promises: vec![(
                7,
                PromiseInfo {
                    span: 42,
                    rank: Some(1),
                    created: Instant::now(),
                },
            )],
            probe_reports: vec![("reliable".into(), "peer 1 stuck \"hol\"".into())],
        };
        let record = render_flight_record(&config, "stall", Duration::from_secs(2), 99, &suspicion);
        // The lines CI greps for.
        assert!(record.contains("\"stuck_span\": 42"));
        assert!(record.contains("\"unresolved_promises\""));
        let doc = Json::parse(&record).expect("flight record is valid JSON");
        let field = |k: &str| doc.get(k).and_then(Json::as_f64);
        assert_eq!(doc.get("reason").and_then(Json::as_str), Some("stall"));
        assert_eq!(field("stuck_rank"), Some(1.0));
        assert_eq!(field("progress_count"), Some(99.0));
        assert_eq!(field("stall_ms"), Some(2000.0));
        let promise = &doc
            .get("unresolved_promises")
            .and_then(Json::as_array)
            .unwrap()[0];
        assert_eq!(promise.get("span").and_then(Json::as_f64), Some(42.0));
        let probe = &doc.get("probes").and_then(Json::as_array).unwrap()[0];
        assert_eq!(
            probe.get("report").and_then(Json::as_str),
            Some("peer 1 stuck \"hol\""),
            "special characters survive escaping"
        );
        assert!(doc.get("metrics").and_then(Json::as_str).is_some());
        assert!(doc
            .get("trace")
            .and_then(|t| t.get("tracks"))
            .and_then(Json::as_array)
            .is_some());
    }

    #[test]
    fn untraced_promise_does_not_mask_traced_one() {
        // An older span-0 infrastructure promise (block_on's completion
        // future) must not win the blame over a traced user promise.
        let suspicion = Suspicion {
            stale_promises: vec![
                (
                    1,
                    PromiseInfo {
                        span: 0,
                        rank: None,
                        created: Instant::now(),
                    },
                ),
                (
                    2,
                    PromiseInfo {
                        span: 9001,
                        rank: Some(0),
                        created: Instant::now(),
                    },
                ),
            ],
            probe_reports: Vec::new(),
        };
        assert_eq!(suspicion.stuck_promise().map(|(id, _)| *id), Some(2));
        let config = Config {
            mode: Mode::Abort,
            threshold: Duration::from_millis(100),
            record_path: None,
        };
        let record = render_flight_record(&config, "stall", Duration::from_secs(1), 5, &suspicion);
        assert!(record.contains("\"stuck_span\": 9001"));
        // Both promises still appear in the full dump.
        assert!(record.contains("\"span\": 0"));
    }
}
