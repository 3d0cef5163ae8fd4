//! Always-on metrics for HiPER (paper §V).
//!
//! Where `hiper-trace` records *events* for post-mortem timelines, this
//! crate maintains *aggregates* that are cheap enough to leave compiled into
//! every hot path and query at any time: monotonic counters, gauges, and
//! log₂-bucketed latency histograms (p50/p90/p99/max), exposed as
//! Prometheus/OpenMetrics text via [`dump_openmetrics`].
//!
//! # Cost model
//!
//! Collection is disabled by default. Every instrumentation site checks one
//! global `AtomicBool` with a relaxed load — the same discipline as the
//! trace rings — so disabled collection costs nothing measurable:
//! `hiperbench`'s `task_dag` runs with it compiled in and switched off, and
//! `metrics.overhead_pct` prices switching it on. When enabled,
//! a counter bump is one relaxed `fetch_add` on a cache-line-padded
//! per-thread shard; a histogram record is three relaxed RMWs plus one
//! relaxed `fetch_max` on the calling thread's shard. No locks, no
//! allocation, no cross-thread cache traffic on any record path.
//!
//! # Usage
//!
//! ```
//! // In a binary: honor --metrics[=FILE] / HIPER_METRICS.
//! let session = hiper_metrics::session_from_env_args();
//! // ... run instrumented work ...
//! drop(session); // dumps the OpenMetrics text to the file (or stderr)
//! ```
//!
//! Metric handles are interned once and live for the process lifetime;
//! hot sites cache the `&'static` handle in a `OnceLock` so steady-state
//! recording never touches the registry lock.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use parking_lot::RwLock;

/// Number of per-metric shards. Threads are assigned shards round-robin;
/// more shards than concurrent writers just wastes cache lines.
const NSHARDS: usize = 16;

/// Histogram bucket count: bucket `i` holds values in `[2^i, 2^(i+1))`
/// (bucket 0 also holds zero), so bucket 63 holds everything from `2^63`
/// up to and including `u64::MAX`.
pub const HIST_BUCKETS: usize = 64;

/// Global on/off switch, mirrored from the trace-ring discipline: relaxed
/// loads on every record path, SeqCst store on flips.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// True when metric collection is on. One relaxed load; check this before
/// computing values (clock reads) on hot paths.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns collection on or off. Aggregates already recorded are kept.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Pads (and aligns) a value to 128 bytes so adjacent shards never share a
/// cache line (covers the x86 spatial-prefetcher pair and 128-byte arm64
/// lines).
#[derive(Debug, Default)]
#[repr(align(128))]
struct CachePadded<T>(T);

static SHARD_SEQ: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard index, assigned round-robin on first use.
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn shard_index() -> usize {
    MY_SHARD.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            return v;
        }
        let v = SHARD_SEQ.fetch_add(1, Ordering::Relaxed) % NSHARDS;
        s.set(v);
        v
    })
}

// ---------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------

/// A monotonic counter, sharded so concurrent writers never bounce a line.
#[derive(Debug)]
pub struct Counter {
    shards: Box<[CachePadded<AtomicU64>]>,
}

impl Default for Counter {
    fn default() -> Counter {
        Counter {
            shards: (0..NSHARDS).map(|_| CachePadded::default()).collect(),
        }
    }
}

impl Counter {
    /// Adds `n` on the calling thread's shard (one relaxed fetch_add).
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total across shards.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

// ---------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------

/// A point-in-time signed value (queue depths, in-flight counts). Unsharded:
/// gauges are set/adjusted at event rates far below counter rates, and a
/// sharded gauge cannot support `set`.
#[derive(Debug, Default)]
pub struct Gauge {
    /// i64 stored in two's complement.
    value: AtomicU64,
    /// High-water mark of `value` (i64 bits), for peak-depth reporting.
    peak: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v as u64, Ordering::Relaxed);
        self.bump_peak(v);
    }

    /// Adjusts the gauge by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        let prev = self.value.fetch_add(delta as u64, Ordering::Relaxed) as i64;
        self.bump_peak(prev.wrapping_add(delta));
    }

    #[inline]
    fn bump_peak(&self, v: i64) {
        let mut cur = self.peak.load(Ordering::Relaxed) as i64;
        while v > cur {
            match self.peak.compare_exchange_weak(
                cur as u64,
                v as u64,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen as i64,
            }
        }
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed) as i64
    }

    /// Highest value ever set/reached.
    pub fn peak(&self) -> i64 {
        self.peak.load(Ordering::Relaxed) as i64
    }
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

/// The log₂ bucket a value falls into: `floor(log2(v))`, with 0 mapping to
/// bucket 0. Covers the full `u64` range (`u64::MAX` lands in bucket 63).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        63 - v.leading_zeros() as usize
    }
}

/// The exclusive upper bound of bucket `i` (`2^(i+1)`), saturating at
/// `u64::MAX` for the last bucket.
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i + 1 >= 64 {
        u64::MAX
    } else {
        1u64 << (i + 1)
    }
}

#[derive(Debug)]
struct HistShard {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistShard {
    fn default() -> HistShard {
        HistShard {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A lock-free log₂-bucketed histogram of `u64` samples (latencies in ns,
/// sizes in bytes). Sharded per thread; shards are merged only on snapshot.
#[derive(Debug)]
pub struct Histogram {
    shards: Box<[CachePadded<HistShard>]>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            shards: (0..NSHARDS).map(|_| CachePadded::default()).collect(),
        }
    }
}

impl Histogram {
    /// Records one sample on the calling thread's shard.
    #[inline]
    pub fn record(&self, v: u64) {
        let shard = &self.shards[shard_index()].0;
        shard.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        shard.count.fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(v, Ordering::Relaxed);
        shard.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Merges every shard into a plain-data snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::default();
        for shard in self.shards.iter() {
            let s = &shard.0;
            for (i, b) in s.buckets.iter().enumerate() {
                snap.buckets[i] += b.load(Ordering::Relaxed);
            }
            snap.count += s.count.load(Ordering::Relaxed);
            snap.sum += s.sum.load(Ordering::Relaxed);
            snap.max = snap.max.max(s.max.load(Ordering::Relaxed));
        }
        snap
    }
}

/// Plain-data merge of a [`Histogram`]'s shards.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts; bucket `i` holds `[2^i, 2^(i+1))`.
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample observed.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Approximate quantile: the upper bound of the bucket holding the
    /// q-th sample, clamped to the observed max (so `quantile(1.0)` never
    /// exceeds `max`). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

enum MetricKind {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

struct Entry {
    /// Base metric name (OpenMetrics conventions: counters end in
    /// `_total`, durations carry their unit, e.g. `_ns`).
    name: &'static str,
    /// Rendered label pairs without braces (`module="mpi",op="send"`), or
    /// empty for an unlabeled metric.
    labels: String,
    metric: MetricKind,
}

struct Registry {
    entries: RwLock<Vec<Entry>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        entries: RwLock::new(Vec::new()),
    })
}

fn lookup_or_insert(
    name: &'static str,
    labels: String,
    make: impl FnOnce() -> MetricKind,
) -> usize {
    let reg = registry();
    {
        let entries = reg.entries.read();
        if let Some(i) = entries
            .iter()
            .position(|e| e.name == name && e.labels == labels)
        {
            return i;
        }
    }
    let mut entries = reg.entries.write();
    if let Some(i) = entries
        .iter()
        .position(|e| e.name == name && e.labels == labels)
    {
        return i;
    }
    entries.push(Entry {
        name,
        labels,
        metric: make(),
    });
    entries.len() - 1
}

/// Interns (or retrieves) the counter `name`. The handle is `'static`; hot
/// sites should cache it in a `OnceLock` rather than re-resolving.
pub fn counter(name: &'static str) -> &'static Counter {
    counter_labeled(name, String::new())
}

/// Interns a counter with pre-rendered label pairs (no braces).
pub fn counter_labeled(name: &'static str, labels: String) -> &'static Counter {
    let i = lookup_or_insert(name, labels, || {
        MetricKind::Counter(Box::leak(Box::default()))
    });
    match registry().entries.read()[i].metric {
        MetricKind::Counter(c) => c,
        _ => panic!("metric {} registered with a different type", name),
    }
}

/// Interns (or retrieves) the gauge `name`.
pub fn gauge(name: &'static str) -> &'static Gauge {
    let i = lookup_or_insert(name, String::new(), || {
        MetricKind::Gauge(Box::leak(Box::default()))
    });
    match registry().entries.read()[i].metric {
        MetricKind::Gauge(g) => g,
        _ => panic!("metric {} registered with a different type", name),
    }
}

/// Interns (or retrieves) the histogram `name`.
pub fn histogram(name: &'static str) -> &'static Histogram {
    histogram_labeled(name, String::new())
}

/// Interns a histogram with pre-rendered label pairs (no braces).
pub fn histogram_labeled(name: &'static str, labels: String) -> &'static Histogram {
    let i = lookup_or_insert(name, labels, || {
        MetricKind::Histogram(Box::leak(Box::default()))
    });
    match registry().entries.read()[i].metric {
        MetricKind::Histogram(h) => h,
        _ => panic!("metric {} registered with a different type", name),
    }
}

// ---------------------------------------------------------------------
// Per-module op metrics
// ---------------------------------------------------------------------

/// Aggregates for one pluggable-module operation: call latency and payload
/// bytes moved. Returned by [`module_op`]; module shims record into it on
/// every timed API call when metrics are enabled.
pub struct OpMetrics {
    /// Latency distribution of this op, ns.
    pub latency_ns: &'static Histogram,
    /// Total payload bytes this op has moved.
    pub bytes: &'static Counter,
}

/// Interns (or retrieves) the metrics handle for (`module`, `op`). The
/// lookup is a read-mostly map keyed on the static name pair; callers on
/// genuinely hot paths should cache the returned reference.
pub fn module_op(module: &'static str, op: &'static str) -> &'static OpMetrics {
    type OpTable = Vec<((&'static str, &'static str), &'static OpMetrics)>;
    static OPS: OnceLock<RwLock<OpTable>> = OnceLock::new();
    let ops = OPS.get_or_init(|| RwLock::new(Vec::new()));
    {
        let map = ops.read();
        if let Some((_, m)) = map.iter().find(|(k, _)| *k == (module, op)) {
            return m;
        }
    }
    let mut map = ops.write();
    if let Some((_, m)) = map.iter().find(|(k, _)| *k == (module, op)) {
        return m;
    }
    let labels = if op.is_empty() {
        label_pair("module", module)
    } else {
        format!("{},{}", label_pair("module", module), label_pair("op", op))
    };
    let m: &'static OpMetrics = Box::leak(Box::new(OpMetrics {
        latency_ns: histogram_labeled("hiper_module_op_latency_ns", labels.clone()),
        bytes: counter_labeled("hiper_module_op_bytes_total", labels),
    }));
    map.push(((module, op), m));
    m
}

// ---------------------------------------------------------------------
// OpenMetrics exposition
// ---------------------------------------------------------------------

/// Escapes a label value per the Prometheus/OpenMetrics text format:
/// backslash, double quote, and newline must be backslash-escaped.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

/// Renders one `key="value"` label pair with the value escaped. Callers
/// building pre-rendered label strings for [`counter_labeled`] /
/// [`histogram_labeled`] should compose them from this (joined with `,`)
/// so the exposition stays parseable whatever the values contain.
pub fn label_pair(key: &str, value: &str) -> String {
    format!("{}=\"{}\"", key, escape_label_value(value))
}

/// Escapes `# HELP` text: only backslash and newline are special there.
fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

/// Help text for the metrics hiper itself registers. Names outside the
/// table get a generic line so every family still carries `# HELP`.
fn help_for(name: &str) -> &'static str {
    match name {
        "hiper_module_op_latency_ns" => "Latency of pluggable-module operations, in nanoseconds.",
        "hiper_module_op_bytes_total" => "Payload bytes moved by pluggable-module operations.",
        "hiper_reliable_retransmits_total" => {
            "Frames retransmitted by the reliable transport after ack timeout."
        }
        "hiper_netsim_in_flight" => "Messages currently in flight on the simulated interconnect.",
        "hiper_spans_active" => "Traced task spans currently executing across all runtimes.",
        "hiper_watchdog_stalls_detected" => "No-global-progress stalls the watchdog has detected.",
        "hiper_bench_record_cost_ns" => "Cost of one histogram record call, in nanoseconds.",
        _ => "No description registered.",
    }
}

fn labelled(name: &str, labels: &str, extra: &str) -> String {
    match (labels.is_empty(), extra.is_empty()) {
        (true, true) => name.to_string(),
        (true, false) => format!("{}{{{}}}", name, extra),
        (false, true) => format!("{}{{{}}}", name, labels),
        (false, false) => format!("{}{{{},{}}}", name, labels, extra),
    }
}

/// Renders every registered metric in the Prometheus/OpenMetrics text
/// format: a `# HELP`/`# TYPE` header per family, counters and gauges as
/// single samples, histograms as cumulative `_bucket{le=...}` series
/// (powers of two, up to the highest non-empty bucket) plus `_sum` and
/// `_count`.
pub fn dump_openmetrics() -> String {
    let entries = registry().entries.read();
    // Stable output: sort by (name, labels) without disturbing the registry.
    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.sort_by(|&a, &b| {
        (entries[a].name, &entries[a].labels).cmp(&(entries[b].name, &entries[b].labels))
    });
    let mut out = String::new();
    let mut last_name = "";
    for &i in &order {
        let e = &entries[i];
        if e.name != last_name {
            let kind = match e.metric {
                MetricKind::Counter(_) => "counter",
                MetricKind::Gauge(_) => "gauge",
                MetricKind::Histogram(_) => "histogram",
            };
            out.push_str(&format!(
                "# HELP {} {}\n",
                e.name,
                escape_help(help_for(e.name))
            ));
            out.push_str(&format!("# TYPE {} {}\n", e.name, kind));
            last_name = e.name;
        }
        match e.metric {
            MetricKind::Counter(c) => {
                out.push_str(&format!(
                    "{} {}\n",
                    labelled(e.name, &e.labels, ""),
                    c.value()
                ));
            }
            MetricKind::Gauge(g) => {
                out.push_str(&format!(
                    "{} {}\n",
                    labelled(e.name, &e.labels, ""),
                    g.value()
                ));
            }
            MetricKind::Histogram(h) => {
                let snap = h.snapshot();
                let highest = snap
                    .buckets
                    .iter()
                    .rposition(|&n| n > 0)
                    .map(|i| i + 1)
                    .unwrap_or(0);
                let mut cumulative = 0;
                for (b, &n) in snap.buckets.iter().enumerate().take(highest) {
                    cumulative += n;
                    let le = format!("le=\"{}\"", bucket_upper_bound(b));
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        e.name,
                        format_args!(
                            "{{{}}}",
                            if e.labels.is_empty() {
                                le.clone()
                            } else {
                                format!("{},{}", e.labels, le)
                            }
                        ),
                        cumulative
                    ));
                }
                let inf = if e.labels.is_empty() {
                    "le=\"+Inf\"".to_string()
                } else {
                    format!("{},le=\"+Inf\"", e.labels)
                };
                out.push_str(&format!("{}_bucket{{{}}} {}\n", e.name, inf, snap.count));
                out.push_str(&format!(
                    "{} {}\n",
                    labelled(&format!("{}_sum", e.name), &e.labels, ""),
                    snap.sum
                ));
                out.push_str(&format!(
                    "{} {}\n",
                    labelled(&format!("{}_count", e.name), &e.labels, ""),
                    snap.count
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Session (CLI surface)
// ---------------------------------------------------------------------

/// An enabled metrics session. On drop, collection is disabled and the
/// OpenMetrics dump is written to the configured file (or stderr).
pub struct MetricsSession {
    /// `None` = dump to stderr.
    path: Option<std::path::PathBuf>,
}

impl MetricsSession {
    /// Enables collection; the dump goes to `path` (or stderr for `None`)
    /// when the session drops.
    pub fn start(path: Option<std::path::PathBuf>) -> MetricsSession {
        set_enabled(true);
        MetricsSession { path }
    }

    /// The output path, if dumping to a file.
    pub fn path(&self) -> Option<&std::path::Path> {
        self.path.as_deref()
    }
}

impl Drop for MetricsSession {
    fn drop(&mut self) {
        set_enabled(false);
        let text = dump_openmetrics();
        match &self.path {
            Some(path) => match std::fs::write(path, &text) {
                Ok(()) => eprintln!(
                    "[hiper-metrics] wrote {} ({} lines)",
                    path.display(),
                    text.lines().count()
                ),
                Err(e) => eprintln!("[hiper-metrics] failed to write {}: {}", path.display(), e),
            },
            None => {
                eprintln!("[hiper-metrics] OpenMetrics dump:");
                eprint!("{}", text);
            }
        }
    }
}

/// Builds a session from the conventional CLI surface: `--metrics` (dump to
/// stderr) or `--metrics=FILE` in `std::env::args`, falling back to the
/// `HIPER_METRICS` environment variable (`1`/empty = stderr, anything else
/// = output file). Returns `None` when neither is set.
pub fn session_from_env_args() -> Option<MetricsSession> {
    for arg in std::env::args() {
        if arg == "--metrics" {
            return Some(MetricsSession::start(None));
        }
        if let Some(rest) = arg.strip_prefix("--metrics=") {
            let path = if rest.is_empty() {
                None
            } else {
                Some(rest.into())
            };
            return Some(MetricsSession::start(path));
        }
    }
    match std::env::var("HIPER_METRICS") {
        Ok(v) if v == "0" => None,
        Ok(v) if v.is_empty() || v == "1" => Some(MetricsSession::start(None)),
        Ok(v) => Some(MetricsSession::start(Some(v.into()))),
        Err(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_across_threads() {
        let c = counter("test_counter_total");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.value() >= 4000, "interned handle is shared");
    }

    #[test]
    fn gauge_set_add_peak() {
        let g = Gauge::default();
        g.set(5);
        g.add(3);
        assert_eq!(g.value(), 8);
        g.add(-10);
        assert_eq!(g.value(), -2);
        assert_eq!(g.peak(), 8);
    }

    #[test]
    fn bucket_index_covers_u64_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_upper_bound(63), u64::MAX);
        assert_eq!(bucket_upper_bound(0), 2);
    }

    #[test]
    fn histogram_snapshot_quantiles() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.record(1_000); // bucket 9
        }
        for _ in 0..10 {
            h.record(1 << 20); // bucket 20
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.max, 1 << 20);
        assert!(snap.quantile(0.5) <= 2048);
        assert_eq!(snap.quantile(0.99), 1 << 20, "clamped to observed max");
        assert!((snap.mean() - (90.0 * 1000.0 + 10.0 * (1 << 20) as f64) / 100.0).abs() < 1.0);
    }

    #[test]
    fn registry_is_idempotent() {
        let a = counter("test_idem_total") as *const Counter;
        let b = counter("test_idem_total") as *const Counter;
        assert_eq!(a, b);
        let h1 = histogram("test_idem_hist_ns") as *const Histogram;
        let h2 = histogram("test_idem_hist_ns") as *const Histogram;
        assert_eq!(h1, h2);
    }

    #[test]
    fn module_op_handles_are_labeled_and_stable() {
        let m1 = module_op("testmod", "put") as *const OpMetrics;
        let m2 = module_op("testmod", "put") as *const OpMetrics;
        assert_eq!(m1, m2);
        let m3 = module_op("testmod", "get") as *const OpMetrics;
        assert_ne!(m1, m3);
        module_op("testmod", "put").latency_ns.record(512);
        module_op("testmod", "put").bytes.add(64);
        let dump = dump_openmetrics();
        assert!(dump.contains(
            "hiper_module_op_latency_ns_bucket{module=\"testmod\",op=\"put\",le=\"1024\"}"
        ));
        assert!(dump.contains("hiper_module_op_bytes_total{module=\"testmod\",op=\"put\"}"));
    }

    #[test]
    fn openmetrics_shape() {
        counter("test_dump_total").add(3);
        gauge("test_dump_depth").set(7);
        histogram("test_dump_ns").record(100);
        let dump = dump_openmetrics();
        assert!(dump.contains("# HELP test_dump_total "));
        assert!(dump.contains("# TYPE test_dump_total counter"));
        assert!(dump.contains("test_dump_total "));
        assert!(dump.contains("# TYPE test_dump_depth gauge"));
        assert!(dump.contains("test_dump_depth 7"));
        assert!(dump.contains("# TYPE test_dump_ns histogram"));
        assert!(dump.contains("test_dump_ns_bucket{le=\"128\"} 1"));
        assert!(dump.contains("test_dump_ns_bucket{le=\"+Inf\"} 1"));
        assert!(dump.contains("test_dump_ns_sum 100"));
        assert!(dump.contains("test_dump_ns_count 1"));
        // Every # TYPE line is preceded by a # HELP line for its family.
        let lines: Vec<&str> = dump.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let family = rest.split(' ').next().unwrap();
                assert!(
                    i > 0 && lines[i - 1].starts_with(&format!("# HELP {} ", family)),
                    "no HELP before {:?}",
                    line
                );
            }
        }
    }

    #[test]
    fn label_values_are_escaped() {
        let c = counter_labeled("test_escape_total", label_pair("path", "a\\b\"c\nd"));
        c.add(1);
        let dump = dump_openmetrics();
        assert!(
            dump.contains("test_escape_total{path=\"a\\\\b\\\"c\\nd\"} "),
            "escaped label missing in: {}",
            dump
        );
    }

    #[test]
    fn enabled_flag_flips() {
        // Tests share the global; restore the disabled default.
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
