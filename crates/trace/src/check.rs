//! Trace invariants: the rules `trace_check` enforces, as a library.
//!
//! [`check`] validates a trace as read back by
//! [`crate::chrome::parse_chrome_trace`] — one track per exported
//! `(pid, tid)`, network events on per-rank tracks in time order. (A live
//! [`crate::drain`] keeps network events on the emitting thread's track in
//! emit order, where deliveries stamped at their modeled due time are not
//! monotone; export and read it back first.) The rules:
//!
//! * per track, timestamps never decrease;
//! * per track, task, park and module spans pair up (an end closes the
//!   innermost open span of the same kind and name) and none is left open
//!   — unless the track lost events to ring wraparound (`dropped > 0`), in
//!   which case unbalanced spans are tolerated;
//! * task lifecycle: every task that began was announced by a spawn. An
//!   orphan begin means spawn events were lost (or attribution broke); it
//!   is an error on a lossless trace and a count on a lossy one;
//! * causal message edges: no message id is sent twice; every deliver
//!   names a sent message (orphans are an error on a lossless trace), on
//!   the link it was sent on, no earlier than the send plus the modeled
//!   delay its paired `NetSend` (same link, same timestamp) advertised —
//!   jitter and FIFO clamping may only postpone a delivery;
//! * supervised recovery: per rank, `rank_down` / `rank_restored`
//!   alternate starting with a down (a trailing down is fine: the trace may
//!   end mid-outage), restored epochs are nonzero and never go backward
//!   (equal epochs are allowed: one process may run several clusters, each
//!   restarting its own epoch sequence), and nothing is delivered to a rank
//!   strictly inside one of its (down, restored) blackouts — the engine
//!   severs traffic to a down rank.
//!
//! Pairing holes in the recovery and message rules are tolerated on a lossy
//! trace; the delay, link, epoch and blackout rules never are.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::ring::EventKind;
use crate::{resolve, TraceData};

/// At most this many errors are kept; a broken trace repeats itself.
const MAX_ERRORS: usize = 20;

/// One track's line in the report.
#[derive(Debug, Clone)]
pub struct TrackSummary {
    /// Track label (thread name, or `rank N` for a network track).
    pub label: String,
    /// Simulated rank of a ranked runtime track.
    pub rank: Option<usize>,
    /// Events on the track.
    pub events: usize,
    /// Spans closed on the track.
    pub spans: u64,
    /// The track lost events to ring wraparound.
    pub lossy: bool,
}

/// What [`check`] found: per-track summaries, the task-DAG, message-edge
/// and recovery tallies, and every violated rule (capped at 20).
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Tracks holding at least one event or a dropped-events count.
    pub tracks: Vec<TrackSummary>,
    /// Distinct task ids announced by a spawn.
    pub spawned: usize,
    /// Distinct task ids that began a task span.
    pub began: usize,
    /// Began task ids that were never spawned.
    pub orphan_begins: usize,
    /// Spawned task ids that never began.
    pub unbegun_spawns: usize,
    /// Distinct message ids sent.
    pub msgs_sent: usize,
    /// Message delivers.
    pub msgs_delivered: usize,
    /// Delivers whose send is missing.
    pub orphan_delivers: usize,
    /// `rank_down` events.
    pub rank_downs: usize,
    /// `rank_restored` events.
    pub rank_restores: usize,
    /// Completed (down, restored) blackout intervals.
    pub blackouts: usize,
    /// Violated rules, in discovery order.
    pub errors: Vec<String>,
}

impl CheckReport {
    /// True when no rule was violated.
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }

    fn fail(&mut self, msg: String) {
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(msg);
        }
    }
}

/// A duration span, for pairing begins with ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Span {
    Task,
    Park,
    Module(u64, u64),
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Span::Task => f.write_str("task"),
            Span::Park => f.write_str("park"),
            Span::Module(m, 0) => f.write_str(resolve(m)),
            Span::Module(m, o) => write!(f, "{}:{}", resolve(m), resolve(o)),
        }
    }
}

fn endpoints(link: u64) -> (u64, u64) {
    (link >> 32, link & 0xffff_ffff)
}

/// Validates `data` against the trace invariants (see the module docs).
pub fn check(data: &TraceData) -> CheckReport {
    let mut report = CheckReport::default();
    let lossy = data.dropped() > 0;
    let mut spawned = BTreeSet::new();
    let mut begun = BTreeSet::new();
    // Message id -> (send ts, link).
    let mut sends: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    // (message id, deliver ts, link).
    let mut delivers: Vec<(u64, u64, u64)> = Vec::new();
    // (link, send ts) -> modeled delay of the NetSend behind a MsgSend.
    let mut delays: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    // Rank -> (ts, restored, epoch) lifecycle events.
    let mut lifecycle: BTreeMap<u64, Vec<(u64, bool, u64)>> = BTreeMap::new();

    for track in &data.tracks {
        if track.events.is_empty() && track.dropped == 0 {
            continue;
        }
        let name = match track.rank {
            Some(r) => format!("{} (rank {})", track.label, r),
            None => track.label.clone(),
        };
        let mut last_ts = 0;
        let mut open: Vec<Span> = Vec::new();
        let mut spans = 0;
        for (i, e) in track.events.iter().enumerate() {
            if e.ts_ns < last_ts {
                report.fail(format!(
                    "{}: event {} ({}) goes back in time: {} < {} ns",
                    name,
                    i,
                    e.kind.name(),
                    e.ts_ns,
                    last_ts
                ));
            }
            last_ts = e.ts_ns;
            let closes = match e.kind {
                EventKind::TaskBegin => {
                    begun.insert(e.a);
                    open.push(Span::Task);
                    None
                }
                EventKind::Park => {
                    open.push(Span::Park);
                    None
                }
                EventKind::ModuleEnter => {
                    open.push(Span::Module(e.a, e.b));
                    None
                }
                EventKind::TaskEnd => Some(Span::Task),
                EventKind::Unpark => Some(Span::Park),
                EventKind::ModuleExit => Some(Span::Module(e.a, e.b)),
                EventKind::TaskSpawn => {
                    spawned.insert(e.a);
                    None
                }
                EventKind::MsgSend => {
                    if sends.insert(e.c, (e.ts_ns, e.b)).is_some() {
                        report.fail(format!("msg id {} sent twice", e.c));
                    }
                    None
                }
                EventKind::MsgDeliver => {
                    delivers.push((e.c, e.ts_ns, e.b));
                    None
                }
                EventKind::NetSend => {
                    delays.insert((e.a, e.ts_ns), e.c);
                    None
                }
                EventKind::RankDown | EventKind::RankRestored => {
                    let restored = e.kind == EventKind::RankRestored;
                    lifecycle
                        .entry(e.a)
                        .or_default()
                        .push((e.ts_ns, restored, e.b));
                    None
                }
                _ => None,
            };
            let Some(end) = closes else { continue };
            match open.pop() {
                Some(begin) => {
                    spans += 1;
                    if begin != end {
                        report.fail(format!(
                            "{}: event {}: end of \"{}\" closes \"{}\"",
                            name, i, end, begin
                        ));
                    }
                }
                None if track.dropped > 0 => {}
                None => report.fail(format!(
                    "{}: event {}: end of \"{}\" with no open span",
                    name, i, end
                )),
            }
        }
        if let Some(innermost) = open.last() {
            if track.dropped == 0 {
                report.fail(format!(
                    "{}: {} unclosed span(s), innermost \"{}\"",
                    name,
                    open.len(),
                    innermost
                ));
            }
        }
        report.tracks.push(TrackSummary {
            label: track.label.clone(),
            rank: track.rank,
            events: track.events.len(),
            spans,
            lossy: track.dropped > 0,
        });
    }

    check_messages(&mut report, &sends, &delivers, &delays, lossy);
    check_recovery(&mut report, &mut lifecycle, &delivers, lossy);

    let orphans: Vec<u64> = begun.difference(&spawned).copied().collect();
    if !orphans.is_empty() && !lossy {
        let sample: Vec<String> = orphans.iter().take(5).map(u64::to_string).collect();
        report.fail(format!(
            "{} task begin(s) with no matching spawn on a lossless trace (e.g. task {})",
            orphans.len(),
            sample.join(", task ")
        ));
    }
    report.spawned = spawned.len();
    report.began = begun.len();
    report.orphan_begins = orphans.len();
    report.unbegun_spawns = spawned.difference(&begun).count();
    report.msgs_sent = sends.len();
    report.msgs_delivered = delivers.len();
    report
}

fn check_messages(
    report: &mut CheckReport,
    sends: &BTreeMap<u64, (u64, u64)>,
    delivers: &[(u64, u64, u64)],
    delays: &BTreeMap<(u64, u64), u64>,
    lossy: bool,
) {
    for &(id, ts, link) in delivers {
        let (src, dst) = endpoints(link);
        let Some(&(send_ts, send_link)) = sends.get(&id) else {
            report.orphan_delivers += 1;
            if !lossy {
                report.fail(format!(
                    "msg_deliver {} ({}->{}) has no matching msg_send on a lossless trace",
                    id, src, dst
                ));
            }
            continue;
        };
        if send_link != link {
            let (ssrc, sdst) = endpoints(send_link);
            report.fail(format!(
                "msg {} delivered on link {}->{} but sent on {}->{}",
                id, src, dst, ssrc, sdst
            ));
        }
        if ts < send_ts {
            report.fail(format!(
                "msg {} delivered at {} ns before its send at {} ns",
                id, ts, send_ts
            ));
        } else if let Some(&delay) = delays.get(&(send_link, send_ts)) {
            if ts < send_ts.saturating_add(delay) {
                report.fail(format!(
                    "msg {} delivered at {} ns, earlier than send {} ns + modeled delay {} ns",
                    id, ts, send_ts, delay
                ));
            }
        }
    }
}

fn check_recovery(
    report: &mut CheckReport,
    lifecycle: &mut BTreeMap<u64, Vec<(u64, bool, u64)>>,
    delivers: &[(u64, u64, u64)],
    lossy: bool,
) {
    let mut blackouts: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for (&rank, events) in lifecycle.iter_mut() {
        // Stable: equal stamps keep their recorded order.
        events.sort_by_key(|&(ts, _, _)| ts);
        let mut down_since: Option<u64> = None;
        let mut last_epoch: Option<u64> = None;
        for &(ts, restored, epoch) in events.iter() {
            if restored {
                report.rank_restores += 1;
                match down_since.take() {
                    Some(down) => blackouts.entry(rank).or_default().push((down, ts)),
                    None if lossy => {}
                    None => report.fail(format!(
                        "rank {}: rank_restored at {} ns with no prior rank_down",
                        rank, ts
                    )),
                }
                if epoch == 0 {
                    report.fail(format!(
                        "rank {}: restored at {} ns with epoch 0 (no renegotiation)",
                        rank, ts
                    ));
                }
                if let Some(prev) = last_epoch.filter(|&prev| epoch < prev) {
                    report.fail(format!(
                        "rank {}: restored epoch {} below previous epoch {}",
                        rank, epoch, prev
                    ));
                }
                last_epoch = Some(epoch);
            } else {
                report.rank_downs += 1;
                if down_since.is_some() && !lossy {
                    report.fail(format!(
                        "rank {}: rank_down at {} ns while already down",
                        rank, ts
                    ));
                }
                down_since = Some(ts);
            }
        }
    }
    report.blackouts = blackouts.values().map(Vec::len).sum();
    for &(id, ts, link) in delivers {
        let dst = endpoints(link).1;
        for &(down, up) in blackouts.get(&dst).into_iter().flatten() {
            if down < ts && ts < up {
                report.fail(format!(
                    "msg {} delivered to rank {} at {} ns inside its blackout [{} ns, {} ns]",
                    id, dst, ts, down, up
                ));
            }
        }
    }
}

impl fmt::Display for CheckReport {
    /// The `trace_check` summary: totals, the task-DAG, message-edge and
    /// (when present) recovery lines, then one line per track.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} events, {} closed spans, {} tracks",
            self.tracks.iter().map(|t| t.events).sum::<usize>(),
            self.tracks.iter().map(|t| t.spans).sum::<u64>(),
            self.tracks.len()
        )?;
        writeln!(
            f,
            "  task DAG: {} spawned, {} began, {} orphan begin(s), {} spawn(s) never began",
            self.spawned, self.began, self.orphan_begins, self.unbegun_spawns
        )?;
        writeln!(
            f,
            "  msg edges: {} sent, {} delivered, {} orphan deliver(s)",
            self.msgs_sent, self.msgs_delivered, self.orphan_delivers
        )?;
        if self.rank_downs + self.rank_restores > 0 {
            writeln!(
                f,
                "  recovery: {} rank_down, {} rank_restored, {} blackout interval(s)",
                self.rank_downs, self.rank_restores, self.blackouts
            )?;
        }
        for t in &self.tracks {
            let rank = t.rank.map_or(String::new(), |r| format!(" (rank {})", r));
            writeln!(
                f,
                "  {}{}: {} events, {} spans{}",
                t.label,
                rank,
                t.events,
                t.spans,
                if t.lossy { " (lossy)" } else { "" }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::TraceEvent;
    use crate::TrackData;
    use EventKind::*;

    fn ev(ts_ns: u64, kind: EventKind, a: u64, b: u64, c: u64) -> TraceEvent {
        TraceEvent {
            ts_ns,
            kind,
            a,
            b,
            c,
        }
    }

    fn track(label: &str, events: Vec<TraceEvent>) -> TrackData {
        TrackData {
            label: label.into(),
            events,
            dropped: 0,
            rank: None,
        }
    }

    const LINK: u64 = 1 << 32; // rank 1 -> rank 0

    /// Two tasks, one message with a 5 us modeled delay, and two outages
    /// of rank 1 — laid out as the reader returns them.
    fn valid() -> TraceData {
        TraceData {
            tracks: vec![
                track(
                    "hiper-worker-0",
                    vec![
                        ev(100, TaskSpawn, 1, 0, 0),
                        ev(200, TaskBegin, 1, 0, 0),
                        ev(300, TaskSpawn, 2, 1, 0),
                        ev(400, TaskEnd, 1, 0, 0),
                        ev(500, TaskBegin, 2, 0, 0),
                        ev(600, TaskEnd, 2, 0, 0),
                    ],
                ),
                track("rank 0", vec![ev(6_000, MsgDeliver, 2, LINK, 9)]),
                track(
                    "rank 1",
                    vec![
                        ev(1_000, NetSend, LINK, 8, 5_000),
                        ev(1_000, MsgSend, 2, LINK, 9),
                        ev(20_000, RankDown, 1, 0, 0),
                        ev(30_000, RankRestored, 1, 2, 0),
                        ev(40_000, RankDown, 1, 0, 0),
                        ev(50_000, RankRestored, 1, 3, 0),
                    ],
                ),
            ],
        }
    }

    fn doctored(doctor: impl FnOnce(&mut TraceData)) -> CheckReport {
        let mut data = valid();
        doctor(&mut data);
        check(&data)
    }

    #[test]
    fn a_valid_trace_passes_and_is_summarized() {
        let report = check(&valid());
        assert!(report.ok(), "{:?}", report.errors);
        assert_eq!(
            (report.spawned, report.began, report.orphan_begins),
            (2, 2, 0)
        );
        assert_eq!((report.msgs_sent, report.msgs_delivered), (1, 1));
        assert_eq!(
            (report.rank_downs, report.rank_restores, report.blackouts),
            (2, 2, 2)
        );
        assert_eq!(report.tracks.iter().map(|t| t.spans).sum::<u64>(), 2);
    }

    /// Doctors the valid trace once and requires exactly one error, for
    /// `rule`.
    fn assert_flags(rule: &str, doctor: impl FnOnce(&mut TraceData)) {
        let report = doctored(doctor);
        assert_eq!(report.errors.len(), 1, "{}: {:?}", rule, report.errors);
        assert!(
            report.errors[0].contains(rule),
            "{}: {:?}",
            rule,
            report.errors
        );
    }

    #[test]
    fn check_flags_each_doctored_rule() {
        // Delivered 1 us before send + modeled delay.
        assert_flags("modeled delay", |d| d.tracks[1].events[0].ts_ns = 5_000);
        // Task 2's spawn is gone, and nothing was dropped.
        assert_flags("no matching spawn", |d| {
            d.tracks[0].events.remove(2);
        });
        assert_flags("below previous epoch", |d| d.tracks[2].events[5].b = 1);
        assert_flags("with no open span", |d| {
            d.tracks[0].events.push(ev(700, TaskEnd, 2, 0, 0))
        });
    }

    #[test]
    fn losses_relax_pairing_but_not_timing() {
        let report = doctored(|d| {
            d.tracks[0].dropped = 3;
            d.tracks[0].events.remove(2); // orphan begin
            d.tracks[0].events.push(ev(700, TaskEnd, 2, 0, 0)); // unmatched end
            d.tracks[1].events[0].ts_ns = 5_999; // early delivery
        });
        assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
        assert!(report.errors[0].contains("modeled delay"));
        assert!(report.tracks[0].lossy);
    }
}
