//! The benchmark's own span recorder. Spans are opened in the benchmark's
//! files around each call into a layer (spans inside the crates are a later
//! issue). Each thread appends to its own preallocated buffer; buffers are
//! collected once the traced window has ended. With the recorder off (every
//! end-to-end run) a span costs one relaxed load.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Spans kept per thread; later ones are counted in [`Collected::dropped`].
const PER_THREAD_CAPACITY: usize = 1 << 18;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The lap this span belongs to: spans of one lap share it.
    pub lap: u64,
    pub id: u64,
    /// Id of the span that was open on the starting thread; 0 for a root.
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

// Relaxed: the flag publishes no data. It is flipped only while no lap is
// running, and buffers are read after the recording threads were joined.
static ENABLED: AtomicBool = AtomicBool::new(false);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static BUFFERS: Mutex<Vec<Arc<Mutex<Vec<Span>>>>> = Mutex::new(Vec::new());

struct Local {
    /// High half of every id this thread hands out.
    slot: u64,
    seq: u64,
    current: u64,
    buf: Arc<Mutex<Vec<Span>>>,
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Nanoseconds since the first call in this process; the one clock spans and
/// probe timestamps share.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn with_local<R>(f: impl FnOnce(&mut Local) -> R) -> R {
    LOCAL.with(|cell| {
        let mut cell = cell.borrow_mut();
        let local = cell.get_or_insert_with(|| {
            let buf = Arc::new(Mutex::new(Vec::with_capacity(PER_THREAD_CAPACITY)));
            let mut all = BUFFERS.lock().expect("span registry poisoned");
            all.push(Arc::clone(&buf));
            Local {
                slot: (all.len() as u64) << 32,
                seq: 0,
                current: 0,
                buf,
            }
        });
        f(local)
    })
}

/// A started span that may be ended on another thread (a continuation).
pub struct Open {
    name: &'static str,
    lap: u64,
    id: u64,
    parent: u64,
    start_ns: u64,
}

/// Starts a span without making it the thread's current one.
pub fn begin(name: &'static str, lap: u64) -> Option<Open> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    Some(with_local(|l| {
        l.seq += 1;
        Open {
            name,
            lap,
            id: l.slot | l.seq,
            parent: l.current,
            start_ns: now_ns(),
        }
    }))
}

/// Ends a span from [`begin`] on whichever thread finishes the work.
pub fn end(open: Option<Open>) {
    let Some(o) = open else { return };
    let end_ns = now_ns();
    with_local(|l| {
        let mut buf = l.buf.lock().expect("span buffer poisoned");
        if buf.len() < PER_THREAD_CAPACITY {
            buf.push(Span {
                name: o.name,
                lap: o.lap,
                id: o.id,
                parent: o.parent,
                start_ns: o.start_ns,
                end_ns,
            });
        } else {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// A span covering a lexical scope; spans entered inside it on the same
/// thread become its children.
pub struct Scope {
    open: Option<Open>,
    outer: u64,
}

pub fn enter(name: &'static str, lap: u64) -> Scope {
    let open = begin(name, lap);
    let outer = match &open {
        Some(o) => with_local(|l| std::mem::replace(&mut l.current, o.id)),
        None => 0,
    };
    Scope { open, outer }
}

impl Drop for Scope {
    fn drop(&mut self) {
        if self.open.is_some() {
            with_local(|l| l.current = self.outer);
            end(self.open.take());
        }
    }
}

/// Id of the span open on this thread (0 when none or the recorder is off).
pub fn current() -> u64 {
    if !ENABLED.load(Ordering::Relaxed) {
        return 0;
    }
    with_local(|l| l.current)
}

/// Makes `parent` the current span of this thread until the guard drops, so
/// work handed to another thread (a `block_on` body) nests under its caller.
pub fn adopt(parent: u64) -> Adopted {
    let outer = (parent != 0).then(|| with_local(|l| std::mem::replace(&mut l.current, parent)));
    Adopted { outer }
}

pub struct Adopted {
    outer: Option<u64>,
}

impl Drop for Adopted {
    fn drop(&mut self) {
        if let Some(outer) = self.outer {
            with_local(|l| l.current = outer);
        }
    }
}

pub struct Collected {
    pub spans: Vec<Span>,
    pub dropped: u64,
}

/// Takes every recorded span. Call with the recorder off and the recording
/// threads joined.
pub fn collect() -> Collected {
    let mut spans = Vec::new();
    for buf in BUFFERS.lock().expect("span registry poisoned").iter() {
        spans.append(&mut buf.lock().expect("span buffer poisoned"));
    }
    spans.sort_by_key(|s| (s.start_ns, s.id));
    Collected {
        spans,
        dropped: DROPPED.swap(0, Ordering::Relaxed),
    }
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of the interval child spans cover.
    pub self_ns: u64,
    /// Every duration, ascending, for percentiles.
    pub durations_ns: Vec<f64>,
}

/// Per-name totals. A span's self time is its duration minus the union of
/// its children's intervals clipped to it, so overlapping children (two
/// messages in flight at once) are not subtracted twice.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        let agg = out.entry(s.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur - covered;
        agg.durations_ns.push(dur as f64);
    }
    for agg in out.values_mut() {
        crate::stats::sort(&mut agg.durations_ns);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            lap: 0,
            id,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let spans = [
            span("lap", 1, 0, 0, 100),
            span("a", 2, 1, 10, 30),
            span("b", 3, 1, 50, 70),
        ];
        let agg = aggregate(&spans);
        assert_eq!(agg["lap"].total_ns, 100);
        assert_eq!(agg["lap"].self_ns, 60);
        assert_eq!(agg["a"].self_ns, 20);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        let spans = [
            span("lap", 1, 0, 0, 100),
            span("a", 2, 1, 10, 60),
            span("a", 3, 1, 40, 80),
            // A continuation that outlives its parent covers only up to the
            // parent's end.
            span("a", 4, 1, 90, 150),
        ];
        let agg = aggregate(&spans);
        assert_eq!(agg["lap"].self_ns, 100 - 70 - 10);
        assert_eq!(agg["a"].count, 3);
        assert_eq!(agg["a"].durations_ns, vec![40.0, 50.0, 60.0]);
    }

    #[test]
    fn grandchildren_reduce_only_their_parent() {
        let spans = [
            span("lap", 1, 0, 0, 100),
            span("phase", 2, 1, 0, 80),
            span("call", 3, 2, 20, 50),
        ];
        let agg = aggregate(&spans);
        assert_eq!(agg["lap"].self_ns, 20);
        assert_eq!(agg["phase"].self_ns, 50);
        assert_eq!(agg["call"].self_ns, 30);
    }

    #[test]
    fn recorder_nests_scopes_and_is_silent_when_off() {
        // The only test that touches the global recorder.
        drop(enter("off", 0));
        set_enabled(true);
        {
            let _lap = enter("lap", 7);
            let _call = enter("call", 7);
            end(begin("detached", 7));
        }
        set_enabled(false);
        let got = collect();
        assert_eq!(got.dropped, 0);
        let by_name: HashMap<_, _> = got.spans.iter().map(|s| (s.name, *s)).collect();
        assert_eq!(by_name.len(), 3);
        assert_eq!(by_name["lap"].parent, 0);
        assert_eq!(by_name["call"].parent, by_name["lap"].id);
        assert_eq!(by_name["detached"].parent, by_name["call"].id);
        assert!(got
            .spans
            .iter()
            .all(|s| s.lap == 7 && s.end_ns >= s.start_ns));
    }
}
