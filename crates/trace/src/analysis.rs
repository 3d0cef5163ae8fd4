//! Post-mortem trace analysis: task-DAG critical path, per-worker
//! utilization timelines, and load-imbalance / steal-locality summaries.
//!
//! Works over drained [`TraceData`] — either a live drain at the end of a
//! run or a Chrome trace re-parsed back into events (`hiper-bench` ships
//! the loader). The critical path is the longest spawn/join chain in the
//! task DAG: starting from the task that *finished last*, walk parent
//! spawn links back to a root, then partition the wall interval of that
//! chain into contiguous segments — parent compute, module (communication)
//! time inside it, and each child's spawn→begin queue wait, classified by
//! how the executing worker acquired the task (own pop vs steal/injector).
//! The segments are boundaries of one interval, so they sum to the chain's
//! wall time *exactly*; any scheduling improvement must shrink one of them.

use std::collections::BTreeMap;
use std::fmt;

use crate::ring::EventKind;
use crate::TraceData;

/// How the executing worker obtained a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Acquisition {
    /// Popped from the worker's own deque.
    Pop,
    /// Stolen from another worker's deque; payload is the victim worker.
    Steal(u64),
    /// Drained from a place injector (external / cross-place submission).
    Injector,
    /// No acquisition event seen (e.g. ran inline or events dropped).
    #[default]
    Unknown,
}

/// One task's lifecycle, joined across tracks.
#[derive(Debug, Clone, Copy, Default)]
pub struct TaskRecord {
    /// Parent task id (0 = spawned from outside any traced task).
    pub parent: u64,
    /// Spawn timestamp (0 = spawn not seen).
    pub spawn_ts: u64,
    /// Begin timestamp (0 = begin not seen).
    pub begin_ts: u64,
    /// End timestamp (0 = end not seen).
    pub end_ts: u64,
    /// Track index the task executed on.
    pub track: usize,
    /// How the executing worker got it.
    pub acquired: Acquisition,
}

/// What a critical-path segment's time was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// The chain task was executing user code.
    Compute,
    /// The chain task was inside a module call (communication or other
    /// pluggable-library time).
    Module,
    /// The next chain task sat in a deque until its home worker popped it.
    PopWait,
    /// The next chain task sat queued until a thief stole it (or drained it
    /// from an injector) — scheduling latency, the work-stealing tax.
    StealWait,
    /// A message the chain depends on was in flight on the simulated
    /// interconnect (send → modeled delivery).
    Wire,
    /// The chain task resumed on a remote message whose send the trace
    /// does not hold (ring wraparound / untraced sender): the time is
    /// known to be remote-bound but cannot be attributed further.
    BlockedOnRemote,
}

impl SegmentKind {
    /// Stable lowercase label.
    pub fn name(self) -> &'static str {
        match self {
            SegmentKind::Compute => "compute",
            SegmentKind::Module => "module",
            SegmentKind::PopWait => "pop-wait",
            SegmentKind::StealWait => "steal-wait",
            SegmentKind::Wire => "wire",
            SegmentKind::BlockedOnRemote => "blocked-on-remote",
        }
    }
}

/// One contiguous slice of the critical path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Task the slice is attributed to.
    pub task: u64,
    /// What the time went to.
    pub kind: SegmentKind,
    /// Slice start (trace-clock ns).
    pub start_ns: u64,
    /// Slice length (ns).
    pub dur_ns: u64,
    /// Simulated rank the slice ran on (`None` for rankless tracks and
    /// wire time, which belongs to no rank).
    pub rank: Option<usize>,
}

/// The longest spawn chain and its exact time decomposition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CriticalPath {
    /// Task ids root-first.
    pub chain: Vec<u64>,
    /// Wall time from the root's begin to the leaf's end.
    pub total_ns: u64,
    /// Contiguous decomposition of `total_ns`; durations sum to it exactly.
    pub segments: Vec<Segment>,
    /// Time the chain spent computing.
    pub compute_ns: u64,
    /// Time the chain spent inside module calls.
    pub module_ns: u64,
    /// Queue waits resolved by the spawning worker's own pop.
    pub pop_wait_ns: u64,
    /// Queue waits resolved by a steal or injector drain.
    pub steal_wait_ns: u64,
    /// Time messages the chain depends on spent on the simulated wire.
    pub wire_ns: u64,
    /// Time the chain was provably waiting on a remote rank whose send
    /// the trace does not hold (lossy / truncated traces).
    pub blocked_remote_ns: u64,
    /// Path time (compute + module) attributed to each simulated rank,
    /// sorted by rank. Empty for rankless (single-process) traces.
    pub per_rank_ns: Vec<(usize, u64)>,
    /// Rank holding the most path time — the straggler the distributed
    /// critical path runs through. `None` for rankless traces.
    pub straggler_rank: Option<usize>,
}

/// One worker's (track's) activity summary plus a coarse utilization
/// timeline: `bins[i]` is the busy fraction of the i-th slice of the run.
#[derive(Debug, Clone)]
pub struct WorkerTimeline {
    /// Track label (thread name).
    pub label: String,
    /// Tasks that began here.
    pub tasks: u64,
    /// Time inside top-level task spans.
    pub busy_ns: u64,
    /// Time inside park spans.
    pub parked_ns: u64,
    /// Busy fraction per time slice, over the whole-trace wall interval.
    pub bins: Vec<f64>,
}

/// Load-imbalance and steal-locality aggregates.
#[derive(Debug, Clone, Default)]
pub struct LoadSummary {
    /// Tasks begun on the busiest track.
    pub max_tasks: u64,
    /// Tasks begun on the least-busy worker track.
    pub min_tasks: u64,
    /// Mean tasks per worker track.
    pub mean_tasks: f64,
    /// `max_tasks / mean_tasks`; 1.0 = perfectly balanced.
    pub imbalance: f64,
    /// Own-deque pops.
    pub pops: u64,
    /// Cross-worker steals.
    pub steals: u64,
    /// Injector drains.
    pub injector_hits: u64,
    /// Steals whose victim was the thief's first probe (`me + 1`): high
    /// means the rotation finds work immediately — good steal locality.
    pub first_probe_steals: u64,
    /// Mean probe depth over steals with a known thief worker index.
    pub mean_probe_depth: f64,
}

/// Full post-mortem analysis of one drained trace.
#[derive(Debug, Clone, Default)]
pub struct ProfileAnalysis {
    /// First event timestamp (ns, trace clock).
    pub start_ns: u64,
    /// Last-minus-first event timestamp.
    pub wall_ns: u64,
    /// Total events analyzed.
    pub events: u64,
    /// Events lost to ring wraparound (analysis may be partial).
    pub dropped: u64,
    /// `MsgDeliver` events with no matching `MsgSend` in the trace —
    /// nonzero means the causal DAG is partial (wraparound ate the sends).
    pub orphan_delivers: u64,
    /// The longest spawn chain, when the trace holds any complete task.
    pub critical_path: Option<CriticalPath>,
    /// Per-track activity (tracks with at least one event).
    pub workers: Vec<WorkerTimeline>,
    /// Imbalance and locality aggregates.
    pub load: LoadSummary,
}

/// One endpoint of a causal message edge (`MsgSend` / `MsgDeliver`
/// payload: `a` = sending span, `b` = src<<32|dst, `c` = message id).
#[derive(Debug, Clone, Copy)]
struct MsgEv {
    ts: u64,
    span: u64,
    src: usize,
    dst: usize,
    id: u64,
}

impl MsgEv {
    fn from_event(e: &crate::ring::TraceEvent) -> MsgEv {
        MsgEv {
            ts: e.ts_ns,
            span: e.a,
            src: (e.b >> 32) as usize,
            dst: (e.b & 0xffff_ffff) as usize,
            id: e.c,
        }
    }
}

/// Utilization timeline resolution.
const BINS: usize = 40;

/// Parses a worker index out of a `hiper-worker-N` thread label.
fn worker_index(label: &str) -> Option<u64> {
    label.strip_prefix("hiper-worker-")?.parse().ok()
}

/// Adds `[s, e)`'s overlap with each bin of `[t0, t0 + wall)` to `bins`.
fn bin_interval(bins: &mut [f64], t0: u64, wall: u64, s: u64, e: u64) {
    if wall == 0 || e <= s {
        return;
    }
    let width = (wall as f64 / bins.len() as f64).max(1.0);
    for (i, bin) in bins.iter_mut().enumerate() {
        let bs = t0 as f64 + i as f64 * width;
        let be = bs + width;
        let lo = (s as f64).max(bs);
        let hi = (e as f64).min(be);
        if hi > lo {
            *bin += (hi - lo) / width;
        }
    }
}

impl ProfileAnalysis {
    /// Analyzes drained trace data.
    pub fn build(data: &TraceData) -> ProfileAnalysis {
        let mut out = ProfileAnalysis::default();
        let mut tasks: BTreeMap<u64, TaskRecord> = BTreeMap::new();
        let mut min_ts = u64::MAX;
        let mut max_ts = 0u64;

        // Pass 1: join task lifecycles across tracks and collect acquisition
        // + steal-locality counters, plus causal message edges for the
        // distributed critical path.
        let mut probe_depths: Vec<u64> = Vec::new();
        let mut sends: BTreeMap<u64, MsgEv> = BTreeMap::new();
        let mut delivers: Vec<MsgEv> = Vec::new();
        for (ti, track) in data.tracks.iter().enumerate() {
            out.dropped += track.dropped;
            let thief = worker_index(&track.label);
            let workers_hint = data
                .tracks
                .iter()
                .filter_map(|t| worker_index(&t.label))
                .max()
                .map(|m| m + 1);
            for e in &track.events {
                out.events += 1;
                min_ts = min_ts.min(e.ts_ns);
                max_ts = max_ts.max(e.ts_ns);
                match e.kind {
                    EventKind::TaskSpawn => {
                        let rec = tasks.entry(e.a).or_default();
                        rec.parent = e.b;
                        rec.spawn_ts = e.ts_ns;
                    }
                    EventKind::TaskBegin => {
                        let rec = tasks.entry(e.a).or_default();
                        rec.begin_ts = e.ts_ns;
                        rec.track = ti;
                    }
                    EventKind::TaskEnd => {
                        tasks.entry(e.a).or_default().end_ts = e.ts_ns;
                    }
                    EventKind::Pop => {
                        out.load.pops += 1;
                        if e.a != 0 {
                            tasks.entry(e.a).or_default().acquired = Acquisition::Pop;
                        }
                    }
                    EventKind::Steal => {
                        out.load.steals += 1;
                        if e.a != 0 {
                            tasks.entry(e.a).or_default().acquired = Acquisition::Steal(e.b);
                        }
                        if let (Some(me), Some(workers)) = (thief, workers_hint) {
                            let depth = (e.b + workers - me) % workers;
                            probe_depths.push(depth.max(1));
                            if depth == 1 {
                                out.load.first_probe_steals += 1;
                            }
                        }
                    }
                    EventKind::InjectorDrain => {
                        out.load.injector_hits += 1;
                        if e.a != 0 {
                            tasks.entry(e.a).or_default().acquired = Acquisition::Injector;
                        }
                    }
                    EventKind::MsgSend => {
                        sends.entry(e.c).or_insert_with(|| MsgEv::from_event(e));
                    }
                    EventKind::MsgDeliver => {
                        delivers.push(MsgEv::from_event(e));
                    }
                    _ => {}
                }
            }
        }
        if min_ts == u64::MAX {
            return out;
        }
        out.start_ns = min_ts;
        out.wall_ns = max_ts - min_ts;
        if !probe_depths.is_empty() {
            out.load.mean_probe_depth =
                probe_depths.iter().sum::<u64>() as f64 / probe_depths.len() as f64;
        }

        // Pass 2: per-track spans — top-level task busy intervals feed the
        // utilization bins, module intervals feed critical-path attribution.
        let mut module_intervals: Vec<Vec<(u64, u64)>> = vec![Vec::new(); data.tracks.len()];
        for (ti, track) in data.tracks.iter().enumerate() {
            if track.events.is_empty() {
                continue;
            }
            let mut tl = WorkerTimeline {
                label: track.label.clone(),
                tasks: 0,
                busy_ns: 0,
                parked_ns: 0,
                bins: vec![0.0; BINS],
            };
            let mut task_stack: Vec<u64> = Vec::new();
            let mut module_stack: Vec<u64> = Vec::new();
            let mut park_start: Option<u64> = None;
            for e in &track.events {
                match e.kind {
                    EventKind::TaskBegin => {
                        tl.tasks += 1;
                        task_stack.push(e.ts_ns);
                    }
                    EventKind::TaskEnd => {
                        if let Some(begin) = task_stack.pop() {
                            if task_stack.is_empty() {
                                tl.busy_ns += e.ts_ns.saturating_sub(begin);
                                bin_interval(&mut tl.bins, min_ts, out.wall_ns, begin, e.ts_ns);
                            }
                        }
                    }
                    EventKind::Park => park_start = Some(e.ts_ns),
                    EventKind::Unpark => {
                        if let Some(begin) = park_start.take() {
                            tl.parked_ns += e.ts_ns.saturating_sub(begin);
                        }
                    }
                    EventKind::ModuleEnter => module_stack.push(e.ts_ns),
                    EventKind::ModuleExit => {
                        if let Some(begin) = module_stack.pop() {
                            // Top-level module spans only: nested calls are
                            // already covered by the outer interval.
                            if module_stack.is_empty() {
                                module_intervals[ti].push((begin, e.ts_ns));
                            }
                        }
                    }
                    _ => {}
                }
            }
            out.workers.push(tl);
        }

        // Load imbalance over *worker* tracks (external threads excluded —
        // their "tasks" are finish-scope bodies, not stealable work).
        let worker_tasks: Vec<u64> = out
            .workers
            .iter()
            .filter(|w| worker_index(&w.label).is_some())
            .map(|w| w.tasks)
            .collect();
        if !worker_tasks.is_empty() {
            out.load.max_tasks = worker_tasks.iter().copied().max().unwrap_or(0);
            out.load.min_tasks = worker_tasks.iter().copied().min().unwrap_or(0);
            out.load.mean_tasks =
                worker_tasks.iter().sum::<u64>() as f64 / worker_tasks.len() as f64;
            if out.load.mean_tasks > 0.0 {
                out.load.imbalance = out.load.max_tasks as f64 / out.load.mean_tasks;
            }
        }

        // Distributed critical path: when the trace carries ranked tracks
        // and causal message edges, stitch the per-rank DAGs through the
        // send→deliver edges. Falls back to the local spawn-chain walk for
        // rankless traces (and when the stitch finds no complete task).
        out.orphan_delivers = delivers
            .iter()
            .filter(|d| !sends.contains_key(&d.id))
            .count() as u64;
        let track_ranks: Vec<Option<usize>> = data.tracks.iter().map(|t| t.rank).collect();
        let ranked = track_ranks.iter().any(|r| r.is_some());
        out.critical_path = if ranked && !delivers.is_empty() {
            let mut by_rank: BTreeMap<usize, Vec<MsgEv>> = BTreeMap::new();
            for d in &delivers {
                by_rank.entry(d.dst).or_default().push(*d);
            }
            for list in by_rank.values_mut() {
                list.sort_by_key(|d| d.ts);
            }
            distributed_critical_path(&tasks, &module_intervals, &track_ranks, &sends, &by_rank)
                .or_else(|| critical_path(&tasks, &module_intervals))
        } else {
            critical_path(&tasks, &module_intervals)
        };
        out
    }
}

/// Total overlap between `[s, e)` and the (unsorted, top-level, pairwise
/// disjoint) intervals recorded for one track.
fn overlap_ns(intervals: &[(u64, u64)], s: u64, e: u64) -> u64 {
    intervals
        .iter()
        .map(|&(is, ie)| ie.min(e).saturating_sub(is.max(s)))
        .sum()
}

fn critical_path(
    tasks: &BTreeMap<u64, TaskRecord>,
    module_intervals: &[Vec<(u64, u64)>],
) -> Option<CriticalPath> {
    // Leaf: the last-finishing complete task that spawned nothing. Finish
    // scopes make ancestors end *after* all their descendants (the join),
    // so the raw last-to-finish task is usually the root and its "chain"
    // would be one task long; the last true leaf's chain is the actual
    // longest spawn chain bounding the makespan from below. Fall back to
    // any complete task when every complete task has children (truncated
    // traces).
    let parents: std::collections::BTreeSet<u64> = tasks
        .values()
        .map(|r| r.parent)
        .filter(|&p| p != 0)
        .collect();
    let complete = |r: &&TaskRecord| r.begin_ts != 0 && r.end_ts != 0;
    let (&leaf_id, _) = tasks
        .iter()
        .filter(|(id, r)| complete(r) && !parents.contains(id))
        .max_by_key(|(_, r)| r.end_ts)
        .or_else(|| {
            tasks
                .iter()
                .filter(|(_, r)| complete(r))
                .max_by_key(|(_, r)| r.end_ts)
        })?;

    // Walk spawn links back to a root (a task whose parent was untraced or
    // never began). Guard against cycles from garbled events.
    let mut chain = vec![leaf_id];
    let mut cur = leaf_id;
    while chain.len() <= tasks.len() {
        let parent = tasks[&cur].parent;
        match tasks.get(&parent) {
            Some(p) if parent != 0 && p.begin_ts != 0 && !chain.contains(&parent) => {
                chain.push(parent);
                cur = parent;
            }
            _ => break,
        }
    }
    chain.reverse();

    let mut cp = CriticalPath {
        chain: chain.clone(),
        ..CriticalPath::default()
    };
    let root = &tasks[&chain[0]];
    let leaf = &tasks[&chain[chain.len() - 1]];
    let start = root.begin_ts;
    cp.total_ns = leaf.end_ts.saturating_sub(start);

    // Partition [root.begin, leaf.end] at every child's spawn and begin.
    // Timestamps are clamped monotone so the slices tile the interval
    // exactly even if cross-thread clock reads jitter by a few ns.
    let mut push = |cp: &mut CriticalPath, task: u64, kind: SegmentKind, s: u64, e: u64| {
        let dur = e.saturating_sub(s);
        if dur == 0 {
            return;
        }
        match kind {
            SegmentKind::Compute => cp.compute_ns += dur,
            SegmentKind::Module => cp.module_ns += dur,
            SegmentKind::PopWait => cp.pop_wait_ns += dur,
            SegmentKind::StealWait => cp.steal_wait_ns += dur,
            SegmentKind::Wire => cp.wire_ns += dur,
            SegmentKind::BlockedOnRemote => cp.blocked_remote_ns += dur,
        }
        cp.segments.push(Segment {
            task,
            kind,
            start_ns: s,
            dur_ns: dur,
            rank: None,
        });
    };
    // Splits one execution slice of `owner` into compute + module time
    // using the owner track's module intervals. The module total within
    // the slice is emitted as a single segment (attribution, not layout).
    let compute_slice = |cp: &mut CriticalPath,
                         push: &mut dyn FnMut(&mut CriticalPath, u64, SegmentKind, u64, u64),
                         owner: u64,
                         rec: &TaskRecord,
                         s: u64,
                         e: u64| {
        let m = module_intervals
            .get(rec.track)
            .map_or(0, |iv| overlap_ns(iv, s, e))
            .min(e.saturating_sub(s));
        push(cp, owner, SegmentKind::Compute, s, e.saturating_sub(m));
        push(cp, owner, SegmentKind::Module, e.saturating_sub(m), e);
    };

    let mut mark = start;
    for win in chain.windows(2) {
        let (parent_id, child_id) = (win[0], win[1]);
        let parent = &tasks[&parent_id];
        let child = &tasks[&child_id];
        let spawn = child.spawn_ts.clamp(mark, u64::MAX);
        let begin = child.begin_ts.clamp(spawn, u64::MAX);
        compute_slice(&mut cp, &mut push, parent_id, parent, mark, spawn);
        let wait_kind = match child.acquired {
            Acquisition::Pop | Acquisition::Unknown => SegmentKind::PopWait,
            Acquisition::Steal(_) | Acquisition::Injector => SegmentKind::StealWait,
        };
        push(&mut cp, child_id, wait_kind, spawn, begin);
        mark = begin;
    }
    let end = leaf.end_ts.clamp(mark, u64::MAX);
    compute_slice(&mut cp, &mut push, chain[chain.len() - 1], leaf, mark, end);
    Some(cp)
}

/// Stitches per-rank task DAGs into one distributed critical path by
/// walking causal edges *backward* from the globally last-finishing
/// complete task. At each step the walk sits on a rank at a cut time and
/// asks what the chain was last waiting on before the cut:
///
/// 1. **A delivered message.** The latest `MsgDeliver` into the rank
///    within the current task's lifetime yields a compute slice
///    `[deliver, cut]` (module-split), a [`SegmentKind::Wire`] slice
///    `[send, deliver]`, and a hop to the *sending* rank at the send
///    timestamp — continuing on the sending span's task when that task
///    lives on the sending rank (handler-side sends carry the inherited
///    remote span, so the span's task may live elsewhere).
/// 2. **An orphan delivery** (send lost to ring wraparound): the slice
///    back to the task's begin is [`SegmentKind::BlockedOnRemote`] —
///    provably remote-bound, not attributable further.
/// 3. **No delivery:** the task computed from its begin; the walk crosses
///    its spawn edge exactly like the local algorithm.
///
/// Segments are emitted back-to-back, so they tile the path interval
/// exactly. Per-rank deliver cursors only move backward, so every message
/// hop consumes an event and the walk terminates even on zero-delay
/// (instant) networks where send and deliver share one timestamp.
fn distributed_critical_path(
    tasks: &BTreeMap<u64, TaskRecord>,
    module_intervals: &[Vec<(u64, u64)>],
    track_ranks: &[Option<usize>],
    sends: &BTreeMap<u64, MsgEv>,
    delivers_by_rank: &BTreeMap<usize, Vec<MsgEv>>,
) -> Option<CriticalPath> {
    let complete = |r: &TaskRecord| r.begin_ts != 0 && r.end_ts != 0;
    // Leaf: the globally last-finishing complete task. Unlike the local
    // walk this is usually a rank body (the straggler's): message hops
    // let the walk cover the whole run interval from there.
    let (&leaf_id, leaf) = tasks
        .iter()
        .filter(|(_, r)| complete(r))
        .max_by_key(|(_, r)| r.end_ts)?;
    let rank_of = |rec: &TaskRecord| track_ranks.get(rec.track).copied().flatten();

    // Built newest-first, reversed at the end.
    let mut segs: Vec<Segment> = Vec::new();
    let mut chain_rev: Vec<u64> = vec![leaf_id];
    let push = |segs: &mut Vec<Segment>,
                task: u64,
                kind: SegmentKind,
                rank: Option<usize>,
                s: u64,
                e: u64| {
        if e > s {
            segs.push(Segment {
                task,
                kind,
                start_ns: s,
                dur_ns: e - s,
                rank,
            });
        }
    };
    // Module-split slice, emitted newest-first (module tail, then compute).
    let compute_slice = |segs: &mut Vec<Segment>,
                         owner: u64,
                         rec: Option<&TaskRecord>,
                         rank: Option<usize>,
                         s: u64,
                         e: u64| {
        let m = rec
            .and_then(|r| module_intervals.get(r.track))
            .map_or(0, |iv| overlap_ns(iv, s, e))
            .min(e.saturating_sub(s));
        push(
            segs,
            owner,
            SegmentKind::Module,
            rank,
            e.saturating_sub(m),
            e,
        );
        push(
            segs,
            owner,
            SegmentKind::Compute,
            rank,
            s,
            e.saturating_sub(m),
        );
    };

    let mut cursors: BTreeMap<usize, usize> = delivers_by_rank
        .iter()
        .map(|(r, v)| (*r, v.len()))
        .collect();
    let total_delivers: usize = delivers_by_rank.values().map(|v| v.len()).sum();

    // Walk state: the task the chain is inside (when attributable), the
    // rank it sits on, and the cut time after which everything is already
    // explained. `cut` is non-increasing; each iteration either consumes
    // a deliver event or crosses a spawn edge, so the loop bound is slack.
    let mut cur_task: Option<u64> = Some(leaf_id);
    let mut cur_rank = rank_of(leaf);
    let mut cut = leaf.end_ts;

    // Bound: each iteration consumes a deliver event or crosses spawn
    // edges toward a root; a deliver hop can re-enter an already-walked
    // task (blocking bodies resume once per message), so spawn crossings
    // are bounded per deliver, not globally. The cap is termination
    // insurance against garbled parent cycles, sized not to truncate
    // legitimate walks.
    for _ in 0..(tasks.len() + 4 * total_delivers + 64) {
        let rec = cur_task.and_then(|id| tasks.get(&id));
        let owner = cur_task.unwrap_or(0);
        let lo = rec.map_or(0, |r| r.begin_ts).min(cut);

        // 1. Latest unconsumed delivery into this rank within (lo, cut].
        let mut resumed: Option<MsgEv> = None;
        if let Some(r) = cur_rank {
            if let (Some(list), Some(cur)) = (delivers_by_rank.get(&r), cursors.get_mut(&r)) {
                while *cur > 0 && list[*cur - 1].ts > cut {
                    *cur -= 1;
                }
                if *cur > 0 && list[*cur - 1].ts > lo {
                    *cur -= 1;
                    resumed = Some(list[*cur]);
                }
            }
        }

        if let Some(d) = resumed {
            if let Some(s) = sends.get(&d.id) {
                let d_ts = d.ts.min(cut).max(s.ts.min(cut));
                compute_slice(&mut segs, owner, rec, cur_rank, d_ts, cut);
                push(
                    &mut segs,
                    s.span,
                    SegmentKind::Wire,
                    None,
                    s.ts.min(cut),
                    d_ts,
                );
                cut = s.ts.min(cut);
                cur_rank = Some(s.src);
                cur_task = match tasks.get(&s.span) {
                    Some(sr) if sr.begin_ts != 0 && rank_of(sr) == Some(s.src) => {
                        chain_rev.push(s.span);
                        Some(s.span)
                    }
                    _ => None,
                };
                continue;
            }
            // Orphan delivery: remote-bound back to the task's begin.
            let d_ts = d.ts.min(cut);
            compute_slice(&mut segs, owner, rec, cur_rank, d_ts, cut);
            push(
                &mut segs,
                owner,
                SegmentKind::BlockedOnRemote,
                cur_rank,
                lo,
                d_ts,
            );
            cut = lo;
        } else {
            compute_slice(&mut segs, owner, rec, cur_rank, lo, cut);
            cut = lo;
        }

        // 2. Spawn edge: cross to the parent task like the local walk.
        let Some(r) = rec else { break };
        let parent = r.parent;
        let wait_kind = match r.acquired {
            Acquisition::Pop | Acquisition::Unknown => SegmentKind::PopWait,
            Acquisition::Steal(_) | Acquisition::Injector => SegmentKind::StealWait,
        };
        match tasks.get(&parent) {
            Some(p) if parent != 0 && p.begin_ts != 0 => {
                let spawn = r.spawn_ts.min(cut);
                push(&mut segs, owner, wait_kind, cur_rank, spawn, cut);
                cut = spawn;
                cur_rank = rank_of(p);
                cur_task = Some(parent);
                chain_rev.push(parent);
            }
            _ => {
                // Root of the walk (parent untraced): still charge its
                // queue wait so the path reaches back to the spawn that
                // created the chain's origin — for rank bodies that is
                // the injector wait between cluster submit and pickup.
                if r.spawn_ts != 0 {
                    let spawn = r.spawn_ts.min(cut);
                    push(&mut segs, owner, wait_kind, cur_rank, spawn, cut);
                    cut = spawn;
                }
                break;
            }
        }
    }

    segs.reverse();
    chain_rev.reverse();
    let mut cp = CriticalPath {
        chain: chain_rev,
        total_ns: leaf.end_ts.saturating_sub(cut),
        ..CriticalPath::default()
    };
    let mut per_rank: BTreeMap<usize, u64> = BTreeMap::new();
    for s in &segs {
        match s.kind {
            SegmentKind::Compute => cp.compute_ns += s.dur_ns,
            SegmentKind::Module => cp.module_ns += s.dur_ns,
            SegmentKind::PopWait => cp.pop_wait_ns += s.dur_ns,
            SegmentKind::StealWait => cp.steal_wait_ns += s.dur_ns,
            SegmentKind::Wire => cp.wire_ns += s.dur_ns,
            SegmentKind::BlockedOnRemote => cp.blocked_remote_ns += s.dur_ns,
        }
        if matches!(s.kind, SegmentKind::Compute | SegmentKind::Module) {
            if let Some(rk) = s.rank {
                *per_rank.entry(rk).or_default() += s.dur_ns;
            }
        }
    }
    cp.straggler_rank = per_rank.iter().max_by_key(|&(_, ns)| *ns).map(|(&r, _)| r);
    cp.per_rank_ns = per_rank.into_iter().collect();
    cp.segments = segs;
    Some(cp)
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else {
        format!("{} ns", ns)
    }
}

fn bar(frac: f64) -> char {
    const RAMP: [char; 9] = [' ', '.', ':', '-', '=', '+', '*', '#', '@'];
    let i = (frac.clamp(0.0, 1.0) * (RAMP.len() - 1) as f64).round() as usize;
    RAMP[i]
}

impl fmt::Display for CriticalPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "critical path: {} tasks, {} wall",
            self.chain.len(),
            fmt_ns(self.total_ns)
        )?;
        let pct = |ns: u64| {
            if self.total_ns == 0 {
                0.0
            } else {
                100.0 * ns as f64 / self.total_ns as f64
            }
        };
        writeln!(
            f,
            "  compute    {:>12} ({:5.1}%)",
            fmt_ns(self.compute_ns),
            pct(self.compute_ns)
        )?;
        writeln!(
            f,
            "  module     {:>12} ({:5.1}%)",
            fmt_ns(self.module_ns),
            pct(self.module_ns)
        )?;
        writeln!(
            f,
            "  pop-wait   {:>12} ({:5.1}%)",
            fmt_ns(self.pop_wait_ns),
            pct(self.pop_wait_ns)
        )?;
        writeln!(
            f,
            "  steal-wait {:>12} ({:5.1}%)",
            fmt_ns(self.steal_wait_ns),
            pct(self.steal_wait_ns)
        )?;
        if self.wire_ns > 0 || self.blocked_remote_ns > 0 || !self.per_rank_ns.is_empty() {
            writeln!(
                f,
                "  wire       {:>12} ({:5.1}%)",
                fmt_ns(self.wire_ns),
                pct(self.wire_ns)
            )?;
            writeln!(
                f,
                "  blocked-on-remote {:>5} ({:5.1}%)",
                fmt_ns(self.blocked_remote_ns),
                pct(self.blocked_remote_ns)
            )?;
        }
        if !self.per_rank_ns.is_empty() {
            writeln!(f, "  per-rank path time:")?;
            for (r, ns) in &self.per_rank_ns {
                let tag = if Some(*r) == self.straggler_rank {
                    "  <- straggler"
                } else {
                    ""
                };
                writeln!(
                    f,
                    "    rank {:<4} {:>12} ({:5.1}%){}",
                    r,
                    fmt_ns(*ns),
                    pct(*ns),
                    tag
                )?;
            }
        }
        let mut worst: Vec<&Segment> = self.segments.iter().collect();
        worst.sort_by_key(|s| std::cmp::Reverse(s.dur_ns));
        writeln!(f, "  longest segments:")?;
        for s in worst.iter().take(8) {
            let rank = s.rank.map(|r| format!("  rank {}", r)).unwrap_or_default();
            writeln!(
                f,
                "    task {:>6}  {:<17} {:>12}{}",
                s.task,
                s.kind.name(),
                fmt_ns(s.dur_ns),
                rank
            )?;
        }
        Ok(())
    }
}

impl fmt::Display for ProfileAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "profile: {} events ({} dropped), wall {}",
            self.events,
            self.dropped,
            fmt_ns(self.wall_ns)
        )?;
        if self.dropped > 0 || self.orphan_delivers > 0 {
            writeln!(
                f,
                "  WARNING: trace is incomplete ({} events lost to ring wraparound, {} message \
                 delivers without a matching send) — the task DAG and critical path below are \
                 PARTIAL; raise HIPER_TRACE_BUF to capture the full run",
                self.dropped, self.orphan_delivers
            )?;
        }
        if let Some(cp) = &self.critical_path {
            write!(f, "{}", cp)?;
        }
        if !self.workers.is_empty() {
            writeln!(
                f,
                "  per-worker utilization (busy over run, {} bins):",
                BINS
            )?;
            for w in &self.workers {
                let util = if self.wall_ns > 0 {
                    100.0 * w.busy_ns as f64 / self.wall_ns as f64
                } else {
                    0.0
                };
                let line: String = w.bins.iter().map(|&b| bar(b)).collect();
                writeln!(
                    f,
                    "    {:<24} [{}] busy {:>10} ({:5.1}%)  parked {:>10}  tasks {}",
                    w.label,
                    line,
                    fmt_ns(w.busy_ns),
                    util,
                    fmt_ns(w.parked_ns),
                    w.tasks
                )?;
            }
        }
        let l = &self.load;
        writeln!(
            f,
            "  load: tasks/worker mean {:.1} min {} max {} (imbalance {:.2}x)",
            l.mean_tasks, l.min_tasks, l.max_tasks, l.imbalance
        )?;
        writeln!(
            f,
            "  acquisition: pops {} steals {} injector {}",
            l.pops, l.steals, l.injector_hits
        )?;
        if l.steals > 0 {
            writeln!(
                f,
                "  steal locality: first-probe {}/{} ({:.1}%), mean probe depth {:.2}",
                l.first_probe_steals,
                l.steals,
                100.0 * l.first_probe_steals as f64 / l.steals.max(1) as f64,
                l.mean_probe_depth
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

    fn e(ts: u64, kind: EventKind, a: u64, b: u64, c: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: ts,
            kind,
            a,
            b,
            c,
        }
    }

    /// root(1) runs on worker-0, spawns child(2) at t=200 which is stolen
    /// by worker-1, begins at t=500, ends at t=900.
    fn two_task_chain() -> TraceData {
        TraceData {
            tracks: vec![
                TrackData {
                    label: "hiper-worker-0".into(),
                    events: vec![
                        e(100, EventKind::TaskBegin, 1, 0, 0),
                        e(200, EventKind::TaskSpawn, 2, 1, 0),
                        e(400, EventKind::TaskEnd, 1, 0, 0),
                    ],
                    dropped: 0,
                    rank: None,
                },
                TrackData {
                    label: "hiper-worker-1".into(),
                    events: vec![
                        e(480, EventKind::Steal, 2, 0, 0),
                        e(500, EventKind::TaskBegin, 2, 0, 0),
                        e(900, EventKind::TaskEnd, 2, 0, 0),
                    ],
                    dropped: 0,
                    rank: None,
                },
            ],
        }
    }

    #[test]
    fn critical_path_segments_tile_the_interval() {
        let analysis = ProfileAnalysis::build(&two_task_chain());
        let cp = analysis.critical_path.as_ref().expect("chain present");
        assert_eq!(cp.chain, vec![1, 2]);
        assert_eq!(cp.total_ns, 800, "root begin 100 -> leaf end 900");
        let sum: u64 = cp.segments.iter().map(|s| s.dur_ns).sum();
        assert_eq!(sum, cp.total_ns, "segments partition the interval");
        assert_eq!(cp.compute_ns, 500, "100..200 on root + 500..900 on leaf");
        assert_eq!(cp.steal_wait_ns, 300, "spawn 200 -> begin 500, stolen");
        assert_eq!(cp.pop_wait_ns, 0);
    }

    #[test]
    fn module_time_is_attributed_inside_compute() {
        let mut data = two_task_chain();
        // Leaf spends 300..? no — worker-1 runs a module span inside task 2.
        data.tracks[1].events = vec![
            e(480, EventKind::Steal, 2, 0, 0),
            e(500, EventKind::TaskBegin, 2, 0, 0),
            e(600, EventKind::ModuleEnter, 1, 0, 0),
            e(850, EventKind::ModuleExit, 1, 0, 0),
            e(900, EventKind::TaskEnd, 2, 0, 0),
        ];
        let cp = ProfileAnalysis::build(&data)
            .critical_path
            .expect("chain present");
        assert_eq!(cp.module_ns, 250);
        assert_eq!(cp.compute_ns, 250, "100..200 + (400 - 250) on leaf");
        let sum: u64 = cp.segments.iter().map(|s| s.dur_ns).sum();
        assert_eq!(sum, cp.total_ns);
    }

    #[test]
    fn load_summary_counts_acquisitions() {
        let analysis = ProfileAnalysis::build(&two_task_chain());
        assert_eq!(analysis.load.steals, 1);
        assert_eq!(analysis.load.pops, 0);
        assert_eq!(analysis.load.first_probe_steals, 1, "worker-1 stole from 0");
        assert_eq!(analysis.workers.len(), 2);
        assert!((analysis.load.imbalance - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_yields_no_path() {
        let analysis = ProfileAnalysis::build(&TraceData::default());
        assert!(analysis.critical_path.is_none());
        assert_eq!(analysis.events, 0);
        // Display must not panic on the empty analysis.
        let _ = analysis.to_string();
    }

    #[test]
    fn display_mentions_all_sections() {
        let shown = ProfileAnalysis::build(&two_task_chain()).to_string();
        assert!(shown.contains("critical path"));
        assert!(shown.contains("per-worker utilization"));
        assert!(shown.contains("steal locality"));
    }

    /// Two ranks ping-ponging: rank 0's body task 1 sends msg 10 at 300
    /// (delivered 400), rank 1's body task 2 replies with msg 11 at 600
    /// (delivered 700), rank 0 finishes at 1000.
    fn two_rank_pingpong() -> TraceData {
        TraceData {
            tracks: vec![
                TrackData {
                    label: "hiper-worker-0".into(),
                    events: vec![
                        e(100, EventKind::TaskBegin, 1, 0, 0),
                        e(1000, EventKind::TaskEnd, 1, 0, 0),
                    ],
                    dropped: 0,
                    rank: Some(0),
                },
                TrackData {
                    label: "hiper-worker-0".into(),
                    events: vec![
                        e(150, EventKind::TaskBegin, 2, 0, 0),
                        e(820, EventKind::TaskEnd, 2, 0, 0),
                    ],
                    dropped: 0,
                    rank: Some(1),
                },
                TrackData {
                    label: "netsim-engine".into(),
                    events: vec![
                        e(300, EventKind::MsgSend, 1, 1, 10),
                        e(400, EventKind::MsgDeliver, 1, 1, 10),
                        e(600, EventKind::MsgSend, 2, 1 << 32, 11),
                        e(700, EventKind::MsgDeliver, 2, 1 << 32, 11),
                    ],
                    dropped: 0,
                    rank: None,
                },
            ],
        }
    }

    #[test]
    fn distributed_path_crosses_ranks_and_tiles_exactly() {
        let analysis = ProfileAnalysis::build(&two_rank_pingpong());
        let cp = analysis.critical_path.as_ref().expect("path present");
        // Walk: rank 0 compute [700,1000] <- wire [600,700] <- rank 1
        // compute [400,600] <- wire [300,400] <- rank 0 compute [100,300].
        assert_eq!(cp.chain, vec![1, 2, 1], "hops rank0 -> rank1 -> rank0");
        assert_eq!(cp.total_ns, 900, "leaf end 1000 - path start 100");
        let sum: u64 = cp.segments.iter().map(|s| s.dur_ns).sum();
        assert_eq!(sum, cp.total_ns, "segments tile the interval exactly");
        assert_eq!(cp.wire_ns, 200, "two 100ns flights");
        assert_eq!(cp.compute_ns, 700);
        assert_eq!(cp.blocked_remote_ns, 0);
        assert_eq!(cp.per_rank_ns, vec![(0, 500), (1, 200)]);
        assert_eq!(cp.straggler_rank, Some(0));
        assert_eq!(analysis.orphan_delivers, 0);
        let shown = analysis.to_string();
        assert!(shown.contains("wire"));
        assert!(shown.contains("straggler"));
    }

    #[test]
    fn orphan_deliver_degrades_to_blocked_on_remote() {
        let mut data = two_rank_pingpong();
        // Drop the send of msg 11: rank 0's resume is now an orphan edge.
        data.tracks[2].events.remove(2);
        data.tracks[2].dropped = 1;
        let analysis = ProfileAnalysis::build(&data);
        assert_eq!(analysis.orphan_delivers, 1);
        let cp = analysis
            .critical_path
            .as_ref()
            .expect("partial path still built");
        let sum: u64 = cp.segments.iter().map(|s| s.dur_ns).sum();
        assert_eq!(sum, cp.total_ns);
        assert_eq!(cp.blocked_remote_ns, 600, "task begin 100 -> deliver 700");
        assert!(analysis.to_string().contains("WARNING"));
    }

    #[test]
    fn lossy_wrapped_trace_degrades_gracefully() {
        // Ring wraparound ate the run prefix: an orphan begin with no end,
        // plus a complete task whose spawn/parent events are gone. The
        // profiler must still build a partial DAG and warn loudly.
        let data = TraceData {
            tracks: vec![TrackData {
                label: "hiper-worker-0".into(),
                events: vec![
                    e(100, EventKind::TaskBegin, 3, 0, 0),
                    e(200, EventKind::TaskBegin, 4, 0, 0),
                    e(300, EventKind::TaskEnd, 4, 0, 0),
                ],
                dropped: 57,
                rank: None,
            }],
        };
        let analysis = ProfileAnalysis::build(&data);
        assert_eq!(analysis.dropped, 57);
        let cp = analysis
            .critical_path
            .as_ref()
            .expect("partial path from task 4");
        assert_eq!(cp.chain, vec![4]);
        let shown = analysis.to_string();
        assert!(shown.contains("WARNING"), "lossy trace must warn: {shown}");
        assert!(shown.contains("PARTIAL"));
    }
}
