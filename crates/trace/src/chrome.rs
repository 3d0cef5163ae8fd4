//! Chrome trace-event JSON: the writer and the one reader.
//!
//! [`chrome_trace_json`] produces the `{"traceEvents": [...]}` object form
//! of the [Trace Event Format], loadable in Perfetto (`ui.perfetto.dev`)
//! and `chrome://tracing`. Layout:
//!
//! * **pid 1 — "hiper runtime"**: one thread track per event ring (i.e. per
//!   worker thread, rank main thread, or other emitter). Task execution,
//!   park spans, and module spans are `B`/`E` duration events; pops,
//!   steals, spawns and injector drains are thread-scoped instants.
//! * **pid 2 — "netsim"**: one track per simulated rank. A message send is
//!   a complete (`X`) event on the *source* rank's track whose duration is
//!   the modeled in-flight delay; delivery is an instant on the
//!   *destination* rank's track. Causal `MsgSend`/`MsgDeliver` edges ride
//!   the same tracks as instants carrying the parent span and message id.
//!   Because the delivery engine shares the tracer's clock
//!   ([`crate::clock`]), these interleave exactly with the worker tracks.
//! * **pid 10+N — "rank N runtime"**: in SPMD (cluster-simulator) runs,
//!   rings whose owning thread was tagged with a simulated rank move to a
//!   per-rank process so each rank's workers group together; rankless
//!   rings stay under pid 1.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! Events are stably sorted by timestamp before writing; within one ring
//! timestamps are already monotone, so `B`/`E` nesting (which is per-track,
//! and every duration track is fed by exactly one ring) is preserved.
//!
//! [`parse_chrome_trace`] / [`load_chrome_trace`] read such a file back
//! into [`TraceData`] — the input of `profile`, `trace_check` and
//! [`crate::check`]. One reader track per exported `(pid, tid)`: runtime
//! tracks keep their thread label and recover their rank as `pid - 10`;
//! network events land on per-rank tracks labelled `rank N`. Timestamps
//! come back as exact nanoseconds. The reader is strict: it accepts the
//! exporter's vocabulary and nothing else, and names the first event it
//! cannot read.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use hiper_platform::json::Json;

use crate::ring::{EventKind, TraceEvent};
use crate::{resolve, TraceData, TrackData};

/// Process id for rankless runtime tracks.
pub const RUNTIME_PID: u64 = 1;
/// Process id for the simulated-network tracks.
pub const NETSIM_PID: u64 = 2;
/// Ranked runtime tracks live at `RANK_PID_BASE + rank` ("rank N runtime").
pub const RANK_PID_BASE: u64 = 10;

fn esc(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// µs with ns precision, as Chrome's `ts`/`dur` fields expect.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

struct EventJson<'a> {
    name: &'a str,
    ph: char,
    ts_ns: u64,
    pid: u64,
    tid: u64,
    dur_ns: Option<u64>,
    /// (key, value) pairs; values are raw JSON fragments.
    args: Vec<(&'static str, String)>,
    thread_scoped_instant: bool,
}

fn push_event(out: &mut String, e: &EventJson) {
    out.push_str("  {\"name\":\"");
    esc(e.name, out);
    let _ = write!(
        out,
        "\",\"ph\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":{}",
        e.ph,
        us(e.ts_ns),
        e.pid,
        e.tid
    );
    if let Some(dur) = e.dur_ns {
        let _ = write!(out, ",\"dur\":{}", us(dur));
    }
    if e.thread_scoped_instant {
        out.push_str(",\"s\":\"t\"");
    }
    if !e.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in e.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", k, v);
        }
        out.push('}');
    }
    out.push_str("},\n");
}

fn meta(out: &mut String, name: &str, pid: u64, tid: Option<u64>, value: &str) {
    let _ = write!(
        out,
        "  {{\"name\":\"{}\",\"ph\":\"M\",\"pid\":{}",
        name, pid
    );
    if let Some(tid) = tid {
        let _ = write!(out, ",\"tid\":{}", tid);
    }
    out.push_str(",\"args\":{\"name\":\"");
    esc(value, out);
    out.push_str("\"}},\n");
}

fn module_span_name(e: &TraceEvent) -> String {
    let module = resolve(e.a);
    let op = resolve(e.b);
    if op.is_empty() {
        module.to_string()
    } else {
        format!("{}:{}", module, op)
    }
}

/// Renders drained trace data as a Chrome trace-event JSON document.
pub fn chrome_trace_json(data: &TraceData) -> String {
    // (track index, event) pairs, stably sorted by timestamp.
    let mut all: Vec<(usize, &TraceEvent)> = Vec::with_capacity(data.len());
    for (ti, track) in data.tracks.iter().enumerate() {
        for e in &track.events {
            all.push((ti, e));
        }
    }
    all.sort_by_key(|(_, e)| e.ts_ns);

    let mut out = String::with_capacity(128 + all.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    meta(&mut out, "process_name", RUNTIME_PID, None, "hiper runtime");
    meta(&mut out, "process_name", NETSIM_PID, None, "netsim");
    // Runtime tracks tagged with a simulated rank group under a per-rank
    // process; everything else stays under pid 1.
    let track_pid: Vec<u64> = data
        .tracks
        .iter()
        .map(|t| match t.rank {
            Some(r) => RANK_PID_BASE + r as u64,
            None => RUNTIME_PID,
        })
        .collect();
    for rank in data
        .tracks
        .iter()
        .filter_map(|t| t.rank)
        .collect::<std::collections::BTreeSet<_>>()
    {
        meta(
            &mut out,
            "process_name",
            RANK_PID_BASE + rank as u64,
            None,
            &format!("rank {} runtime", rank),
        );
    }
    let mut ranks_seen = std::collections::BTreeSet::new();
    for (ti, track) in data.tracks.iter().enumerate() {
        meta(
            &mut out,
            "thread_name",
            track_pid[ti],
            Some(ti as u64),
            &track.label,
        );
        for e in &track.events {
            match e.kind {
                EventKind::NetSend
                | EventKind::NetDeliver
                | EventKind::NetDrop
                | EventKind::NetDup => {
                    ranks_seen.insert(e.a >> 32);
                    ranks_seen.insert(e.a & 0xffff_ffff);
                }
                EventKind::MsgSend | EventKind::MsgDeliver => {
                    ranks_seen.insert(e.b >> 32);
                    ranks_seen.insert(e.b & 0xffff_ffff);
                }
                EventKind::RankDown | EventKind::RankRestored => {
                    ranks_seen.insert(e.a);
                }
                _ => {}
            }
        }
    }
    for rank in &ranks_seen {
        meta(
            &mut out,
            "thread_name",
            NETSIM_PID,
            Some(*rank),
            &format!("rank {}", rank),
        );
    }
    // Surface ring wraparound where it happened: a track that lost events
    // may legitimately have unbalanced B/E pairs (validators can relax).
    for (ti, track) in data.tracks.iter().enumerate() {
        if track.dropped > 0 {
            push_event(
                &mut out,
                &EventJson {
                    name: "dropped events",
                    ph: 'i',
                    ts_ns: track.events.first().map_or(0, |e| e.ts_ns),
                    pid: track_pid[ti],
                    tid: ti as u64,
                    dur_ns: None,
                    args: vec![("count", track.dropped.to_string())],
                    thread_scoped_instant: true,
                },
            );
        }
    }

    for (ti, e) in all {
        let tid = ti as u64;
        let rpid = track_pid[ti];
        let json = match e.kind {
            EventKind::TaskSpawn => EventJson {
                name: "spawn",
                ph: 'i',
                ts_ns: e.ts_ns,
                pid: rpid,
                tid,
                dur_ns: None,
                args: vec![
                    ("task", e.a.to_string()),
                    ("parent", e.b.to_string()),
                    ("place", e.c.to_string()),
                ],
                thread_scoped_instant: true,
            },
            EventKind::TaskBegin => EventJson {
                name: "task",
                ph: 'B',
                ts_ns: e.ts_ns,
                pid: rpid,
                tid,
                dur_ns: None,
                args: vec![("task", e.a.to_string()), ("place", e.c.to_string())],
                thread_scoped_instant: false,
            },
            EventKind::TaskEnd => EventJson {
                name: "task",
                ph: 'E',
                ts_ns: e.ts_ns,
                pid: rpid,
                tid,
                dur_ns: None,
                args: vec![("task", e.a.to_string())],
                thread_scoped_instant: false,
            },
            EventKind::Pop => EventJson {
                name: "pop",
                ph: 'i',
                ts_ns: e.ts_ns,
                pid: rpid,
                tid,
                dur_ns: None,
                args: vec![("task", e.a.to_string()), ("place", e.b.to_string())],
                thread_scoped_instant: true,
            },
            EventKind::Steal => EventJson {
                name: "steal",
                ph: 'i',
                ts_ns: e.ts_ns,
                pid: rpid,
                tid,
                dur_ns: None,
                args: vec![
                    ("task", e.a.to_string()),
                    ("victim", e.b.to_string()),
                    ("place", e.c.to_string()),
                ],
                thread_scoped_instant: true,
            },
            EventKind::BatchSteal => EventJson {
                name: "steal.batch",
                ph: 'i',
                ts_ns: e.ts_ns,
                pid: rpid,
                tid,
                dur_ns: None,
                args: vec![("banked", e.a.to_string())],
                thread_scoped_instant: true,
            },
            EventKind::InjectorDrain => EventJson {
                name: "injector",
                ph: 'i',
                ts_ns: e.ts_ns,
                pid: rpid,
                tid,
                dur_ns: None,
                args: vec![("task", e.a.to_string()), ("place", e.b.to_string())],
                thread_scoped_instant: true,
            },
            EventKind::Park => EventJson {
                name: "park",
                ph: 'B',
                ts_ns: e.ts_ns,
                pid: rpid,
                tid,
                dur_ns: None,
                args: Vec::new(),
                thread_scoped_instant: false,
            },
            EventKind::Unpark => EventJson {
                name: "park",
                ph: 'E',
                ts_ns: e.ts_ns,
                pid: rpid,
                tid,
                dur_ns: None,
                args: vec![("woken", e.a.to_string())],
                thread_scoped_instant: false,
            },
            EventKind::ModuleEnter | EventKind::ModuleExit => {
                let name = module_span_name(e);
                let mut args = Vec::new();
                if e.kind == EventKind::ModuleEnter && e.c > 0 {
                    args.push(("bytes", e.c.to_string()));
                }
                push_event(
                    &mut out,
                    &EventJson {
                        name: &name,
                        ph: if e.kind == EventKind::ModuleEnter {
                            'B'
                        } else {
                            'E'
                        },
                        ts_ns: e.ts_ns,
                        pid: rpid,
                        tid,
                        dur_ns: None,
                        args,
                        thread_scoped_instant: false,
                    },
                );
                continue;
            }
            EventKind::NetSend => {
                let (src, dst) = (e.a >> 32, e.a & 0xffff_ffff);
                let name = format!("msg to {}", dst);
                push_event(
                    &mut out,
                    &EventJson {
                        name: &name,
                        ph: 'X',
                        ts_ns: e.ts_ns,
                        pid: NETSIM_PID,
                        tid: src,
                        dur_ns: Some(e.c.max(1)),
                        args: vec![
                            ("src", src.to_string()),
                            ("dst", dst.to_string()),
                            ("bytes", e.b.to_string()),
                            ("delay_ns", e.c.to_string()),
                        ],
                        thread_scoped_instant: false,
                    },
                );
                continue;
            }
            EventKind::NetDeliver => {
                let (src, dst) = (e.a >> 32, e.a & 0xffff_ffff);
                push_event(
                    &mut out,
                    &EventJson {
                        name: "deliver",
                        ph: 'i',
                        ts_ns: e.ts_ns,
                        pid: NETSIM_PID,
                        tid: dst,
                        dur_ns: None,
                        args: vec![("src", src.to_string()), ("bytes", e.b.to_string())],
                        thread_scoped_instant: true,
                    },
                );
                continue;
            }
            EventKind::NetDrop | EventKind::NetDup => {
                let (src, dst) = (e.a >> 32, e.a & 0xffff_ffff);
                let mut args = vec![
                    ("src", src.to_string()),
                    ("dst", dst.to_string()),
                    ("bytes", e.b.to_string()),
                ];
                if e.kind == EventKind::NetDrop {
                    args.push(("cause", e.c.to_string()));
                }
                push_event(
                    &mut out,
                    &EventJson {
                        name: if e.kind == EventKind::NetDrop {
                            "drop"
                        } else {
                            "dup"
                        },
                        ph: 'i',
                        ts_ns: e.ts_ns,
                        pid: NETSIM_PID,
                        tid: src,
                        dur_ns: None,
                        args,
                        thread_scoped_instant: true,
                    },
                );
                continue;
            }
            EventKind::RelRetry => {
                let (src, dst) = (e.a >> 32, e.a & 0xffff_ffff);
                push_event(
                    &mut out,
                    &EventJson {
                        name: "retry",
                        ph: 'i',
                        ts_ns: e.ts_ns,
                        pid: NETSIM_PID,
                        tid: src,
                        dur_ns: None,
                        args: vec![
                            ("dst", dst.to_string()),
                            ("seq", e.b.to_string()),
                            ("attempt", e.c.to_string()),
                        ],
                        thread_scoped_instant: true,
                    },
                );
                continue;
            }
            EventKind::MsgSend | EventKind::MsgDeliver => {
                // Causal edge endpoints: a = parent span, b = src<<32|dst,
                // c = message id. Sends sit on the source rank's netsim
                // track, delivers (stamped at the modeled due time) on the
                // destination's, so the edge is visible as a pair of
                // instants bracketing the modeled wire time.
                let (src, dst) = (e.b >> 32, e.b & 0xffff_ffff);
                let send = e.kind == EventKind::MsgSend;
                push_event(
                    &mut out,
                    &EventJson {
                        name: if send { "msg_send" } else { "msg_deliver" },
                        ph: 'i',
                        ts_ns: e.ts_ns,
                        pid: NETSIM_PID,
                        tid: if send { src } else { dst },
                        dur_ns: None,
                        args: vec![
                            ("span", e.a.to_string()),
                            ("src", src.to_string()),
                            ("dst", dst.to_string()),
                            ("msg", e.c.to_string()),
                        ],
                        thread_scoped_instant: true,
                    },
                );
                continue;
            }
            EventKind::RankDown | EventKind::RankRestored => {
                // Supervision lifecycle markers on the rank's netsim track:
                // a = rank, b = new transport epoch (RankRestored only).
                let restored = e.kind == EventKind::RankRestored;
                let mut args = vec![("rank", e.a.to_string())];
                if restored {
                    args.push(("epoch", e.b.to_string()));
                }
                push_event(
                    &mut out,
                    &EventJson {
                        name: if restored {
                            "rank_restored"
                        } else {
                            "rank_down"
                        },
                        ph: 'i',
                        ts_ns: e.ts_ns,
                        pid: NETSIM_PID,
                        tid: e.a,
                        dur_ns: None,
                        args,
                        thread_scoped_instant: true,
                    },
                );
                continue;
            }
            EventKind::TaskPanic => EventJson {
                name: "task panic",
                ph: 'i',
                ts_ns: e.ts_ns,
                pid: rpid,
                tid,
                dur_ns: None,
                args: vec![("task", e.a.to_string()), ("place", e.b.to_string())],
                thread_scoped_instant: true,
            },
        };
        push_event(&mut out, &json);
    }
    // Strip the trailing ",\n" and close.
    if out.ends_with(",\n") {
        out.truncate(out.len() - 2);
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Loads and parses a Chrome trace file. A file that is not a trace this
/// crate wrote is an [`std::io::ErrorKind::InvalidData`] error.
pub fn load_chrome_trace(path: impl AsRef<Path>) -> std::io::Result<TraceData> {
    let text = std::fs::read_to_string(path)?;
    parse_chrome_trace(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Parses Chrome trace-event JSON written by [`chrome_trace_json`] back
/// into [`TraceData`], one track per `(pid, tid)` in that order.
pub fn parse_chrome_trace(text: &str) -> Result<TraceData, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("missing traceEvents array")?;
    let mut reader = Reader::default();
    for (i, ev) in events.iter().enumerate() {
        reader
            .event(ev)
            .map_err(|e| format!("event {}: {}", i, e))?;
    }
    Ok(TraceData {
        tracks: reader.tracks.into_values().collect(),
    })
}

fn link(src: u64, dst: u64) -> u64 {
    (src << 32) | dst
}

#[derive(Default)]
struct Reader {
    tracks: BTreeMap<(u64, u64), TrackData>,
    /// Module span names already interned, by name.
    spans: BTreeMap<String, (u64, u64)>,
}

impl Reader {
    fn track(&mut self, pid: u64, tid: u64) -> &mut TrackData {
        self.tracks.entry((pid, tid)).or_insert_with(|| TrackData {
            label: if pid == NETSIM_PID {
                format!("rank {}", tid)
            } else {
                format!("track-{}", tid)
            },
            events: Vec::new(),
            dropped: 0,
            rank: pid.checked_sub(RANK_PID_BASE).map(|r| r as usize),
        })
    }

    /// Interns a module span name (`module` or `module:op`) back into the
    /// trace string table as `(module_id, op_id)`. Ids must resolve for
    /// the program's lifetime, like live ones, so each distinct name is
    /// leaked once.
    fn span_ids(&mut self, name: &str) -> (u64, u64) {
        if let Some(&ids) = self.spans.get(name) {
            return ids;
        }
        let intern = |s: &str| crate::intern(Box::leak(s.to_string().into_boxed_str()));
        let ids = match name.split_once(':') {
            Some((module, op)) => (intern(module), intern(op)),
            None => (intern(name), 0),
        };
        self.spans.insert(name.to_string(), ids);
        ids
    }

    fn event(&mut self, ev: &Json) -> Result<(), String> {
        use EventKind::*;
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or("has no string name")?;
        let ph = match ev.get("ph").and_then(Json::as_str) {
            Some("I") => "i",
            Some(p @ ("B" | "E" | "X" | "i" | "M")) => p,
            _ => return Err(format!("({}) has bad ph", name)),
        };
        let number = |v: Option<&Json>, what: &str| {
            v.and_then(Json::as_f64)
                .map(|v| v as u64)
                .ok_or_else(|| format!("({}) has no numeric {}", name, what))
        };
        let pid = number(ev.get("pid"), "pid")?;
        let args = ev.get("args");
        if ph == "M" {
            // Metadata carries no timestamp; only runtime thread names
            // matter (netsim tracks are named after their rank).
            if name == "thread_name" && pid != NETSIM_PID {
                let tid = number(ev.get("tid"), "tid")?;
                let label = args
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .ok_or("(thread_name) lacks name arg")?;
                self.track(pid, tid).label = label.to_string();
            }
            return Ok(());
        }
        let tid = number(ev.get("tid"), "tid")?;
        let ts_ns = ev
            .get("ts")
            .and_then(Json::as_f64)
            .map(|us| (us * 1_000.0).round() as u64)
            .ok_or_else(|| format!("({}) has no ts", name))?;
        let arg = |key: &str| number(args.and_then(|a| a.get(key)), &format!("{} arg", key));
        let unknown = || Err(format!("unknown event \"{}\" with ph {}", name, ph));
        let (kind, a, b, c) = if pid == NETSIM_PID {
            match (name, ph) {
                (n, "X") if n.starts_with("msg to ") => (
                    NetSend,
                    link(arg("src")?, arg("dst")?),
                    arg("bytes")?,
                    arg("delay_ns")?,
                ),
                ("deliver", "i") => (NetDeliver, link(arg("src")?, tid), arg("bytes")?, 0),
                ("drop", "i") => (
                    NetDrop,
                    link(arg("src")?, arg("dst")?),
                    arg("bytes")?,
                    arg("cause")?,
                ),
                ("dup", "i") => (NetDup, link(arg("src")?, arg("dst")?), arg("bytes")?, 0),
                ("retry", "i") => (
                    RelRetry,
                    link(tid, arg("dst")?),
                    arg("seq")?,
                    arg("attempt")?,
                ),
                ("msg_send", "i") => (
                    MsgSend,
                    arg("span")?,
                    link(arg("src")?, arg("dst")?),
                    arg("msg")?,
                ),
                ("msg_deliver", "i") => (
                    MsgDeliver,
                    arg("span")?,
                    link(arg("src")?, arg("dst")?),
                    arg("msg")?,
                ),
                ("rank_down", "i") => (RankDown, arg("rank")?, 0, 0),
                ("rank_restored", "i") => (RankRestored, arg("rank")?, arg("epoch")?, 0),
                _ => return unknown(),
            }
        } else {
            match (name, ph) {
                ("dropped events", "i") => {
                    let count = arg("count")?;
                    self.track(pid, tid).dropped += count;
                    return Ok(());
                }
                ("spawn", "i") => (TaskSpawn, arg("task")?, arg("parent")?, arg("place")?),
                ("task", "B") => (TaskBegin, arg("task")?, 0, arg("place")?),
                ("task", "E") => (TaskEnd, arg("task")?, 0, 0),
                ("pop", "i") => (Pop, arg("task")?, arg("place")?, 0),
                ("steal", "i") => (Steal, arg("task")?, arg("victim")?, arg("place")?),
                ("steal.batch", "i") => (BatchSteal, arg("banked")?, 0, 0),
                ("injector", "i") => (InjectorDrain, arg("task")?, arg("place")?, 0),
                ("park", "B") => (Park, 0, 0, 0),
                ("park", "E") => (Unpark, arg("woken")?, 0, 0),
                ("task panic", "i") => (TaskPanic, arg("task")?, arg("place")?, 0),
                // Every other duration span is a module span.
                (span, "B") => {
                    let bytes = match args.and_then(|a| a.get("bytes")) {
                        Some(_) => arg("bytes")?,
                        None => 0,
                    };
                    let (m, o) = self.span_ids(span);
                    (ModuleEnter, m, o, bytes)
                }
                (span, "E") => {
                    let (m, o) = self.span_ids(span);
                    (ModuleExit, m, o, 0)
                }
                _ => return unknown(),
            }
        };
        self.track(pid, tid).events.push(TraceEvent {
            ts_ns,
            kind,
            a,
            b,
            c,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(events: Vec<TraceEvent>) -> TraceData {
        TraceData {
            tracks: vec![TrackData {
                label: "worker-0".into(),
                events,
                dropped: 0,
                rank: None,
            }],
        }
    }

    #[test]
    fn emits_valid_shape_and_pairs() {
        let d = data(vec![
            TraceEvent {
                ts_ns: 1000,
                kind: EventKind::TaskBegin,
                a: 1,
                b: 0,
                c: 0,
            },
            TraceEvent {
                ts_ns: 1500,
                kind: EventKind::Pop,
                a: 2,
                b: 0,
                c: 0,
            },
            TraceEvent {
                ts_ns: 2000,
                kind: EventKind::TaskEnd,
                a: 1,
                b: 0,
                c: 0,
            },
            TraceEvent {
                ts_ns: 2500,
                kind: EventKind::NetSend,
                a: 1u64 << 32, // src 1, dst 0
                b: 64,
                c: 40_000,
            },
        ]);
        let json = chrome_trace_json(&d);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"pid\":2"));
        assert!(json.contains("hiper runtime"));
        assert!(json.trim_end().ends_with("]}"));
        // ts rendering: 1000 ns = 1.000 us.
        assert!(json.contains("\"ts\":1.000"));
    }

    #[test]
    fn escapes_labels() {
        let d = TraceData {
            tracks: vec![TrackData {
                label: "we\"ird\\name".into(),
                events: vec![],
                dropped: 0,
                rank: None,
            }],
        };
        let json = chrome_trace_json(&d);
        assert!(json.contains("we\\\"ird\\\\name"));
    }

    fn ev(ts_ns: u64, kind: EventKind, a: u64, b: u64, c: u64) -> TraceEvent {
        TraceEvent {
            ts_ns,
            kind,
            a,
            b,
            c,
        }
    }

    #[test]
    fn reader_returns_every_field_the_exporter_writes() {
        use EventKind::*;
        let (mpi, send, barrier) = (
            crate::intern("mpi"),
            crate::intern("send"),
            crate::intern("barrier"),
        );
        // Fields the exporter does not write are zero here.
        let worker = vec![
            ev(1_000, TaskSpawn, 7, 3, 2),
            ev(1_100, Pop, 7, 2, 0),
            ev(1_200, Steal, 7, 1, 2),
            ev(1_300, BatchSteal, 4, 0, 0),
            ev(1_400, InjectorDrain, 7, 2, 0),
            ev(1_500, TaskBegin, 7, 0, 2),
            ev(1_600, ModuleEnter, mpi, send, 64),
            ev(1_700, ModuleEnter, barrier, 0, 0),
            ev(1_800, ModuleExit, barrier, 0, 0),
            ev(1_900, ModuleExit, mpi, send, 0),
            ev(2_000, TaskPanic, 7, 2, 0),
            ev(2_200, TaskEnd, 7, 0, 0),
            ev(2_300, Park, 0, 0, 0),
            ev(2_400, Unpark, 1, 0, 0),
        ];
        let link = 1 << 32; // rank 1 -> rank 0
        let net = vec![
            ev(3_001, NetSend, link, 128, 40_000),
            ev(3_001, MsgSend, 7, link, 99),
            ev(3_100, NetDrop, link, 16, 2),
            ev(3_200, NetDup, link, 16, 0),
            ev(3_300, RelRetry, link, 5, 2),
            ev(43_001, NetDeliver, link, 128, 0),
            ev(43_001, MsgDeliver, 7, link, 99),
            ev(50_000, RankDown, 1, 0, 0),
            ev(60_000, RankRestored, 1, 2, 0),
        ];
        let track = |label: &str, events: &[TraceEvent], dropped, rank| TrackData {
            label: label.into(),
            events: events.to_vec(),
            dropped,
            rank,
        };
        let original = TraceData {
            tracks: vec![
                track("hiper-worker-0", &worker, 0, None),
                track("hiper-worker-1", &worker, 5, Some(1)),
                track("netsim-engine", &net, 0, None),
            ],
        };
        let read = parse_chrome_trace(&chrome_trace_json(&original)).expect("reads back");

        // Runtime tracks come back whole: label, rank, dropped count, and
        // every event with its exact nanosecond stamp.
        for t in &original.tracks[..2] {
            let back = read.tracks.iter().find(|r| r.label == t.label).unwrap();
            assert_eq!((back.rank, back.dropped), (t.rank, t.dropped));
            assert_eq!(back.events, t.events, "{}", t.label);
        }
        // Network events move to per-rank tracks: sends, drops, dups and
        // retries on the source's, deliveries on the destination's, and
        // lifecycle events on the rank's own.
        let rank_track = |r: u64| {
            let label = format!("rank {}", r);
            &read
                .tracks
                .iter()
                .find(|t| t.label == label)
                .unwrap()
                .events
        };
        let kinds = |events: &[TraceEvent]| events.iter().map(|e| e.kind).collect::<Vec<_>>();
        assert_eq!(kinds(rank_track(0)), vec![NetDeliver, MsgDeliver]);
        assert_eq!(
            kinds(rank_track(1)),
            vec![
                NetSend,
                MsgSend,
                NetDrop,
                NetDup,
                RelRetry,
                RankDown,
                RankRestored
            ]
        );
        let mut back: Vec<TraceEvent> =
            rank_track(0).iter().chain(rank_track(1)).copied().collect();
        let mut want = net;
        back.sort_by_key(|e| (e.ts_ns, e.kind as u8));
        want.sort_by_key(|e| (e.ts_ns, e.kind as u8));
        assert_eq!(back, want);
    }

    #[test]
    fn reader_rejects_what_the_exporter_never_writes() {
        let wrap = |event: &str| format!("{{\"traceEvents\":[{}]}}", event);
        let ok = r#"{"name":"rank_down","ph":"i","ts":1.000,"pid":2,"tid":1,"args":{"rank":1}}"#;
        assert!(parse_chrome_trace(&wrap(ok)).is_ok());
        for (bad, why) in [
            (
                r#"{"name":7,"ph":"i","ts":1,"pid":1,"tid":0}"#,
                "string name",
            ),
            (
                r#"{"name":"pop","ph":"ii","ts":1,"pid":1,"tid":0}"#,
                "bad ph",
            ),
            (
                r#"{"name":"pop","ph":"Q","ts":1,"pid":1,"tid":0}"#,
                "bad ph",
            ),
            (
                r#"{"name":"pop","ph":"i","ts":1,"pid":"1","tid":0}"#,
                "numeric pid",
            ),
            (r#"{"name":"pop","ph":"i","ts":1,"pid":1}"#, "numeric tid"),
            (r#"{"name":"pop","ph":"i","pid":1,"tid":0}"#, "no ts"),
            (
                r#"{"name":"msg_send","ph":"i","ts":1,"pid":2,"tid":0,"args":{"span":1,"src":0,"dst":1}}"#,
                "msg arg",
            ),
            (
                r#"{"name":"rank_restored","ph":"i","ts":1,"pid":2,"tid":1,"args":{"rank":1}}"#,
                "epoch arg",
            ),
            (
                r#"{"name":"blink","ph":"i","ts":1,"pid":1,"tid":0}"#,
                "unknown event",
            ),
        ] {
            let err = parse_chrome_trace(&wrap(bad)).expect_err(bad);
            assert!(err.contains(why), "{}: {}", bad, err);
        }
        assert!(parse_chrome_trace("not json").is_err());
        assert!(parse_chrome_trace("{\"other\": 1}").is_err());
    }
}
