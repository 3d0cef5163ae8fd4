//! Differential profiling: aligns two same-workload traces (baseline vs
//! candidate) and attributes the wall-clock delta to concrete causes —
//! per-segment shifts on the critical path (compute / module / pop-wait /
//! steal-wait / wire / blocked-on-remote), per-module:op time-share moves,
//! per-worker utilization deltas, and spawn→begin queue-latency
//! distribution shifts (DESIGN.md §2.14).
//!
//! The unit of comparison is a [`DiffInput`]: a compact per-run profile
//! extracted from drained [`TraceData`] (or a Chrome trace read back with
//! [`crate::chrome::load_chrome_trace`]) by [`DiffInput::from_trace`].
//!
//! Alignment is structural, not positional: task ids differ across runs,
//! so tasks are matched by a signature hashed from their spawn-tree path
//! (root ordinal, then each child's spawn ordinal under its parent) and
//! modules by their interned `module:op` labels. A diff of a trace against
//! itself is exactly zero everywhere — the self-test the roundtrip suite
//! pins.

use std::collections::BTreeMap;
use std::fmt;

use hiper_metrics::{bucket_index, HistogramSnapshot};

use crate::analysis::{ProfileAnalysis, SegmentKind};
use crate::ring::EventKind;
use crate::{resolve, TraceData};

/// Critical-path segment kinds in report order.
pub const PATH_KINDS: [SegmentKind; 6] = [
    SegmentKind::Compute,
    SegmentKind::Module,
    SegmentKind::PopWait,
    SegmentKind::StealWait,
    SegmentKind::Wire,
    SegmentKind::BlockedOnRemote,
];

fn kind_index(kind: SegmentKind) -> usize {
    PATH_KINDS.iter().position(|&k| k == kind).unwrap_or(0)
}

/// Per-`module:op` aggregates for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModuleStat {
    /// Completed spans (every nesting level, like the trace report).
    pub calls: u64,
    /// Total span time across all tracks (concurrent spans sum).
    pub total_ns: u64,
    /// Overlap of this module's spans with the critical path.
    pub path_ns: u64,
    /// Task owning the largest on-path slice (0 = none).
    pub path_task: u64,
    /// Rank of that slice (`None` for rankless traces).
    pub path_rank: Option<usize>,
}

/// One worker's busy aggregate, keyed by `(rank, label)` so the same
/// worker matches across runs and trace reloads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerStat {
    /// Simulated rank (`None` for rankless tracks).
    pub rank: Option<usize>,
    /// Thread label.
    pub label: String,
    /// Tasks that began here.
    pub tasks: u64,
    /// Time inside top-level task spans.
    pub busy_ns: u64,
}

/// Structural signature of a run's task DAG. Each task hashes its
/// spawn-tree path (parent signature + its spawn ordinal among siblings),
/// so two runs of the same workload produce the same signature multiset
/// even though raw task ids differ.
#[derive(Debug, Clone, Default)]
pub struct DagSignature {
    /// Tasks in the DAG.
    pub tasks: u64,
    /// Order-independent fold (xor) of all task signatures.
    pub digest: u64,
    /// Sorted per-task signatures.
    pub sigs: Vec<u64>,
}

/// A compact, diffable profile of one run.
#[derive(Debug, Clone, Default)]
pub struct DiffInput {
    /// Run label (bench name or trace file stem).
    pub label: String,
    /// First-to-last event timestamp.
    pub wall_ns: u64,
    /// Events analyzed.
    pub events: u64,
    /// Events lost to ring wraparound.
    pub dropped: u64,
    /// Message delivers with no matching send.
    pub orphan_delivers: u64,
    /// Critical-path wall time (0 when no complete task).
    pub path_total_ns: u64,
    /// Path time per segment kind, indexed like [`PATH_KINDS`].
    pub path_kind_ns: [u64; 6],
    /// Path time per rank (distributed traces).
    pub per_rank_path_ns: Vec<(usize, u64)>,
    /// Rank holding the most path time.
    pub straggler_rank: Option<usize>,
    /// Per-`module:op` aggregates.
    pub modules: BTreeMap<String, ModuleStat>,
    /// Per-worker busy aggregates, sorted by `(rank, label)`.
    pub workers: Vec<WorkerStat>,
    /// Spawn→begin queue latency distribution.
    pub queue: HistogramSnapshot,
    /// Task-DAG structural signature.
    pub dag: DagSignature,
}

/// True when this profile came from a lossy trace: the critical path and
/// DAG alignment below it are PARTIAL.
impl DiffInput {
    /// Whether the underlying trace was lossy.
    pub fn partial(&self) -> bool {
        self.dropped > 0 || self.orphan_delivers > 0
    }
}

struct TaskRec {
    parent: u64,
    spawn_ts: u64,
    begin_ts: u64,
    track: usize,
}

/// FNV-1a fold step, the signature hash.
fn fnv(h: u64, v: u64) -> u64 {
    let mut h = h;
    for i in 0..8 {
        h ^= (v >> (i * 8)) & 0xff;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn dag_signatures(tasks: &BTreeMap<u64, TaskRec>) -> Vec<u64> {
    // Children sorted by spawn time: the ordinal is the structural
    // position, stable across runs of a deterministic workload.
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let mut roots: Vec<(u64, u64)> = Vec::new();
    for (&id, rec) in tasks {
        let key = rec.spawn_ts.max(rec.begin_ts);
        if rec.parent != 0 && tasks.contains_key(&rec.parent) {
            children.entry(rec.parent).or_default().push((key, id));
        } else {
            roots.push((key, id));
        }
    }
    roots.sort_unstable();
    for list in children.values_mut() {
        list.sort_unstable();
    }
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    let mut sigs: BTreeMap<u64, u64> = BTreeMap::new();
    // Worklist from the roots down; parent signatures are always resolved
    // before children because the spawn tree is acyclic (cycle-garbled
    // tasks simply never get a signature and fall out of the multiset).
    let mut work: Vec<u64> = Vec::with_capacity(tasks.len());
    for (ordinal, &(_, id)) in roots.iter().enumerate() {
        sigs.insert(id, fnv(SEED, ordinal as u64));
        work.push(id);
    }
    while let Some(id) = work.pop() {
        let parent_sig = sigs[&id];
        if let Some(kids) = children.get(&id) {
            for (ordinal, &(_, kid)) in kids.iter().enumerate() {
                if let std::collections::btree_map::Entry::Vacant(slot) = sigs.entry(kid) {
                    slot.insert(fnv(parent_sig, ordinal as u64));
                    work.push(kid);
                }
            }
        }
    }
    let mut out: Vec<u64> = sigs.into_values().collect();
    out.sort_unstable();
    out
}

fn hist_record(h: &mut HistogramSnapshot, v: u64) {
    h.buckets[bucket_index(v)] += 1;
    h.count += 1;
    h.sum += v;
    h.max = h.max.max(v);
}

impl DiffInput {
    /// Extracts a diffable profile from drained trace data.
    pub fn from_trace(label: &str, data: &TraceData) -> DiffInput {
        let analysis = ProfileAnalysis::build(data);
        let mut out = DiffInput {
            label: label.to_string(),
            wall_ns: analysis.wall_ns,
            events: analysis.events,
            dropped: analysis.dropped,
            orphan_delivers: analysis.orphan_delivers,
            ..DiffInput::default()
        };

        // Pass 1: task lifecycles (for signatures + queue latency) and
        // per-track *labeled* top-level module intervals (the analysis
        // keeps them unlabeled; attribution needs the names).
        let mut tasks: BTreeMap<u64, TaskRec> = BTreeMap::new();
        let mut labeled: Vec<Vec<(u64, u64, String)>> = vec![Vec::new(); data.tracks.len()];
        let mut track_rank: Vec<Option<usize>> = Vec::with_capacity(data.tracks.len());
        for (ti, track) in data.tracks.iter().enumerate() {
            track_rank.push(track.rank);
            let mut module_stack: Vec<(String, u64)> = Vec::new();
            for e in &track.events {
                match e.kind {
                    EventKind::TaskSpawn => {
                        let rec = tasks.entry(e.a).or_insert(TaskRec {
                            parent: 0,
                            spawn_ts: 0,
                            begin_ts: 0,
                            track: usize::MAX,
                        });
                        rec.parent = e.b;
                        rec.spawn_ts = e.ts_ns;
                    }
                    EventKind::TaskBegin => {
                        let rec = tasks.entry(e.a).or_insert(TaskRec {
                            parent: 0,
                            spawn_ts: 0,
                            begin_ts: 0,
                            track: usize::MAX,
                        });
                        rec.begin_ts = e.ts_ns;
                        rec.track = ti;
                        if rec.spawn_ts != 0 {
                            hist_record(&mut out.queue, e.ts_ns.saturating_sub(rec.spawn_ts));
                        }
                    }
                    EventKind::ModuleEnter => {
                        let module = resolve(e.a);
                        let op = resolve(e.b);
                        let key = if op.is_empty() {
                            module.to_string()
                        } else {
                            format!("{}:{}", module, op)
                        };
                        module_stack.push((key, e.ts_ns));
                    }
                    EventKind::ModuleExit => {
                        if let Some((key, begin)) = module_stack.pop() {
                            let dur = e.ts_ns.saturating_sub(begin);
                            let stat = out.modules.entry(key.clone()).or_default();
                            stat.calls += 1;
                            stat.total_ns += dur;
                            if module_stack.is_empty() {
                                labeled[ti].push((begin, e.ts_ns, key));
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        // Workers: top-level busy spans per track, keyed (rank, label).
        let mut workers: BTreeMap<(i64, String), WorkerStat> = BTreeMap::new();
        for (ti, track) in data.tracks.iter().enumerate() {
            let mut task_stack: Vec<u64> = Vec::new();
            let mut busy = 0u64;
            let mut begun = 0u64;
            for e in &track.events {
                match e.kind {
                    EventKind::TaskBegin => {
                        begun += 1;
                        task_stack.push(e.ts_ns);
                    }
                    EventKind::TaskEnd => {
                        if let Some(begin) = task_stack.pop() {
                            if task_stack.is_empty() {
                                busy += e.ts_ns.saturating_sub(begin);
                            }
                        }
                    }
                    _ => {}
                }
            }
            if begun == 0 && busy == 0 {
                continue;
            }
            let rank_key = track.rank.map_or(-1, |r| r as i64);
            let w = workers
                .entry((rank_key, track.label.clone()))
                .or_insert_with(|| WorkerStat {
                    rank: track_rank[ti],
                    label: track.label.clone(),
                    tasks: 0,
                    busy_ns: 0,
                });
            w.tasks += begun;
            w.busy_ns += busy;
        }
        out.workers = workers.into_values().collect();

        // Critical path: kind totals plus labeled on-path module overlap.
        // Module-split slices tile the path (analysis invariant), so
        // overlapping *every* compute/module path slice against the owner
        // track's labeled top-level intervals recovers exactly the path's
        // module time, now with names attached.
        if let Some(cp) = &analysis.critical_path {
            out.path_total_ns = cp.total_ns;
            out.per_rank_path_ns = cp.per_rank_ns.clone();
            out.straggler_rank = cp.straggler_rank;
            for seg in &cp.segments {
                out.path_kind_ns[kind_index(seg.kind)] += seg.dur_ns;
                if !matches!(seg.kind, SegmentKind::Compute | SegmentKind::Module) {
                    continue;
                }
                let Some(rec) = tasks.get(&seg.task) else {
                    continue;
                };
                let Some(intervals) = labeled.get(rec.track) else {
                    continue;
                };
                let (s, e) = (seg.start_ns, seg.start_ns + seg.dur_ns);
                for (is, ie, key) in intervals {
                    let ov = (*ie).min(e).saturating_sub((*is).max(s));
                    if ov == 0 {
                        continue;
                    }
                    let stat = out.modules.entry(key.clone()).or_default();
                    stat.path_ns += ov;
                    if seg.task != 0 && stat.path_task == 0 {
                        stat.path_task = seg.task;
                        stat.path_rank = seg.rank;
                    }
                }
            }
        }

        // DAG signature.
        let sigs = dag_signatures(&tasks);
        out.dag = DagSignature {
            tasks: sigs.len() as u64,
            digest: sigs.iter().fold(0u64, |acc, &s| acc ^ s),
            sigs,
        };
        out
    }
}

// ---------------------------------------------------------------------
// The diff
// ---------------------------------------------------------------------

/// How well the two task DAGs align.
#[derive(Debug, Clone, Default)]
pub struct Alignment {
    /// Tasks in the baseline DAG.
    pub base_tasks: u64,
    /// Tasks in the candidate DAG.
    pub cand_tasks: u64,
    /// Structural signatures present in both multisets.
    pub matched: u64,
    /// Matched fraction of the larger DAG (1.0 when both are empty).
    pub fraction: f64,
    /// Digests (and task counts) are identical.
    pub exact: bool,
}

fn align(base: &DagSignature, cand: &DagSignature) -> Alignment {
    // Both sorted: multiset intersection in one pass.
    let (mut i, mut j, mut matched) = (0usize, 0usize, 0u64);
    while i < base.sigs.len() && j < cand.sigs.len() {
        match base.sigs[i].cmp(&cand.sigs[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                matched += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let denom = base.tasks.max(cand.tasks);
    Alignment {
        base_tasks: base.tasks,
        cand_tasks: cand.tasks,
        matched,
        fraction: if denom == 0 {
            1.0
        } else {
            matched as f64 / denom as f64
        },
        exact: base.digest == cand.digest && base.tasks == cand.tasks,
    }
}

/// One segment kind's before/after on the critical path.
#[derive(Debug, Clone)]
pub struct KindDelta {
    /// Segment kind label.
    pub name: &'static str,
    /// Baseline path ns.
    pub base_ns: u64,
    /// Candidate path ns.
    pub cand_ns: u64,
    /// Candidate minus baseline; positive = slower.
    pub delta_ns: i64,
}

/// One module's before/after.
#[derive(Debug, Clone)]
pub struct ModuleShift {
    /// `module` or `module:op`.
    pub name: String,
    /// Baseline aggregates (default when the module is new).
    pub base: ModuleStat,
    /// Candidate aggregates (default when the module vanished).
    pub cand: ModuleStat,
    /// Whole-trace span-time delta (candidate minus baseline).
    pub delta_total_ns: i64,
    /// On-critical-path overlap delta.
    pub delta_path_ns: i64,
    /// Share of baseline wall time.
    pub base_share: f64,
    /// Share of candidate wall time.
    pub cand_share: f64,
}

/// One worker's utilization before/after.
#[derive(Debug, Clone)]
pub struct WorkerShift {
    /// Simulated rank.
    pub rank: Option<usize>,
    /// Thread label.
    pub label: String,
    /// Baseline busy ns.
    pub base_busy_ns: u64,
    /// Candidate busy ns.
    pub cand_busy_ns: u64,
    /// Busy delta (candidate minus baseline).
    pub delta_ns: i64,
    /// Baseline busy / baseline wall.
    pub base_util: f64,
    /// Candidate busy / candidate wall.
    pub cand_util: f64,
}

/// Spawn→begin latency distribution shift.
#[derive(Debug, Clone, Default)]
pub struct QueueShift {
    /// Baseline distribution.
    pub base: HistogramSnapshot,
    /// Candidate distribution.
    pub cand: HistogramSnapshot,
    /// p50 shift in ns (candidate minus baseline).
    pub d_p50: i64,
    /// p90 shift in ns.
    pub d_p90: i64,
    /// p99 shift in ns.
    pub d_p99: i64,
    /// Mean shift in ns.
    pub d_mean: f64,
}

/// One ranked contributor to the wall-clock delta.
#[derive(Debug, Clone)]
pub struct Contributor {
    /// `critical-path`, `module`, or `queue`.
    pub category: &'static str,
    /// What moved (segment kind, `module:op`, or quantile).
    pub name: String,
    /// Baseline ns.
    pub base_ns: u64,
    /// Candidate ns.
    pub cand_ns: u64,
    /// Candidate minus baseline; positive = the candidate is slower here.
    pub delta_ns: i64,
    /// |delta| over |the run-level delta being attributed|.
    pub share: f64,
    /// Where on the timeline the shift sits.
    pub location: String,
}

/// Knobs for [`TraceDiff::build`].
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// Ranked contributors to keep.
    pub top: usize,
}

impl Default for DiffOptions {
    fn default() -> DiffOptions {
        DiffOptions { top: 10 }
    }
}

/// The full differential profile of candidate vs baseline.
#[derive(Debug, Clone, Default)]
pub struct TraceDiff {
    /// Baseline run label.
    pub base_label: String,
    /// Candidate run label.
    pub cand_label: String,
    /// Wall-clock delta (candidate minus baseline).
    pub wall_delta_ns: i64,
    /// Critical-path total delta.
    pub path_delta_ns: i64,
    /// Either side's trace was lossy — treat the attribution as PARTIAL.
    pub partial: bool,
    /// Task-DAG alignment quality.
    pub alignment: Alignment,
    /// Per-kind critical-path deltas, in [`PATH_KINDS`] order.
    pub path_kinds: Vec<KindDelta>,
    /// Per-module shifts, sorted by |total delta| descending.
    pub modules: Vec<ModuleShift>,
    /// Per-worker utilization shifts, sorted by |busy delta| descending.
    pub workers: Vec<WorkerShift>,
    /// Queue-latency distribution shift.
    pub queue: QueueShift,
    /// Straggler rank before/after.
    pub straggler: (Option<usize>, Option<usize>),
    /// Top contributors to the wall-clock delta, |delta| descending.
    pub ranked: Vec<Contributor>,
}

fn d(cand: u64, base: u64) -> i64 {
    cand as i64 - base as i64
}

impl TraceDiff {
    /// Diffs two profiles of the same workload.
    pub fn build(base: &DiffInput, cand: &DiffInput, opts: DiffOptions) -> TraceDiff {
        let mut out = TraceDiff {
            base_label: base.label.clone(),
            cand_label: cand.label.clone(),
            wall_delta_ns: d(cand.wall_ns, base.wall_ns),
            path_delta_ns: d(cand.path_total_ns, base.path_total_ns),
            partial: base.partial() || cand.partial(),
            alignment: align(&base.dag, &cand.dag),
            straggler: (base.straggler_rank, cand.straggler_rank),
            ..TraceDiff::default()
        };

        for (i, &k) in PATH_KINDS.iter().enumerate() {
            out.path_kinds.push(KindDelta {
                name: k.name(),
                base_ns: base.path_kind_ns[i],
                cand_ns: cand.path_kind_ns[i],
                delta_ns: d(cand.path_kind_ns[i], base.path_kind_ns[i]),
            });
        }

        let share_of = |ns: u64, wall: u64| {
            if wall == 0 {
                0.0
            } else {
                ns as f64 / wall as f64
            }
        };
        let names: std::collections::BTreeSet<&String> =
            base.modules.keys().chain(cand.modules.keys()).collect();
        for name in names {
            let b = base.modules.get(name).cloned().unwrap_or_default();
            let c = cand.modules.get(name).cloned().unwrap_or_default();
            out.modules.push(ModuleShift {
                name: name.clone(),
                delta_total_ns: d(c.total_ns, b.total_ns),
                delta_path_ns: d(c.path_ns, b.path_ns),
                base_share: share_of(b.total_ns, base.wall_ns),
                cand_share: share_of(c.total_ns, cand.wall_ns),
                base: b,
                cand: c,
            });
        }
        out.modules
            .sort_by_key(|m| std::cmp::Reverse(m.delta_total_ns.unsigned_abs()));

        let mut worker_keys: std::collections::BTreeSet<(i64, &String)> =
            std::collections::BTreeSet::new();
        for w in base.workers.iter().chain(cand.workers.iter()) {
            worker_keys.insert((w.rank.map_or(-1, |r| r as i64), &w.label));
        }
        let find = |list: &[WorkerStat], rank: i64, label: &str| {
            list.iter()
                .find(|w| w.rank.map_or(-1, |r| r as i64) == rank && w.label == label)
                .cloned()
                .unwrap_or_default()
        };
        for (rank_key, label) in worker_keys {
            let b = find(&base.workers, rank_key, label);
            let c = find(&cand.workers, rank_key, label);
            out.workers.push(WorkerShift {
                rank: if rank_key < 0 {
                    None
                } else {
                    Some(rank_key as usize)
                },
                label: label.clone(),
                base_busy_ns: b.busy_ns,
                cand_busy_ns: c.busy_ns,
                delta_ns: d(c.busy_ns, b.busy_ns),
                base_util: share_of(b.busy_ns, base.wall_ns),
                cand_util: share_of(c.busy_ns, cand.wall_ns),
            });
        }
        out.workers
            .sort_by_key(|w| std::cmp::Reverse(w.delta_ns.unsigned_abs()));

        out.queue = QueueShift {
            d_p50: d(cand.queue.quantile(0.50), base.queue.quantile(0.50)),
            d_p90: d(cand.queue.quantile(0.90), base.queue.quantile(0.90)),
            d_p99: d(cand.queue.quantile(0.99), base.queue.quantile(0.99)),
            d_mean: cand.queue.mean() - base.queue.mean(),
            base: base.queue.clone(),
            cand: cand.queue.clone(),
        };

        // Ranked attribution. The denominator is the critical-path delta
        // when both runs have one (that is the number a regression moves),
        // else the raw wall delta. Module entries use whole-trace span
        // time — a slowed op shows up there even when the path walk
        // charges the stall to wire/blocked segments — and carry their
        // path location. The aggregate `module` path kind is left out of
        // the ranking (per-module entries subsume it); worker busy deltas
        // stay in their own table since they sum concurrent work and
        // would double-count against path segments.
        let denom = if base.path_total_ns > 0 && cand.path_total_ns > 0 {
            out.path_delta_ns.unsigned_abs()
        } else {
            out.wall_delta_ns.unsigned_abs()
        };
        let share = |delta: i64| {
            if denom == 0 {
                0.0
            } else {
                delta.unsigned_abs() as f64 / denom as f64
            }
        };
        let mut ranked: Vec<Contributor> = Vec::new();
        for kd in &out.path_kinds {
            if kd.delta_ns == 0 || kd.name == SegmentKind::Module.name() {
                continue;
            }
            ranked.push(Contributor {
                category: "critical-path",
                name: kd.name.to_string(),
                base_ns: kd.base_ns,
                cand_ns: kd.cand_ns,
                delta_ns: kd.delta_ns,
                share: share(kd.delta_ns),
                location: "critical path".to_string(),
            });
        }
        for m in &out.modules {
            if m.delta_total_ns == 0 {
                continue;
            }
            let location = if m.base.path_ns > 0 || m.cand.path_ns > 0 {
                let stat = if m.cand.path_ns > 0 { &m.cand } else { &m.base };
                match stat.path_rank {
                    Some(r) => format!("critical path (task {}, rank {})", stat.path_task, r),
                    None => format!("critical path (task {})", stat.path_task),
                }
            } else {
                "off-path".to_string()
            };
            ranked.push(Contributor {
                category: "module",
                name: m.name.clone(),
                base_ns: m.base.total_ns,
                cand_ns: m.cand.total_ns,
                delta_ns: m.delta_total_ns,
                share: share(m.delta_total_ns),
                location,
            });
        }
        if out.queue.base.count > 0 && out.queue.cand.count > 0 && out.queue.d_p90 != 0 {
            ranked.push(Contributor {
                category: "queue",
                name: "spawn->begin p90".to_string(),
                base_ns: out.queue.base.quantile(0.90),
                cand_ns: out.queue.cand.quantile(0.90),
                delta_ns: out.queue.d_p90,
                share: share(out.queue.d_p90),
                location: "scheduler queues".to_string(),
            });
        }
        ranked.sort_by(|a, b| {
            b.delta_ns
                .unsigned_abs()
                .cmp(&a.delta_ns.unsigned_abs())
                .then_with(|| a.name.cmp(&b.name))
        });
        ranked.truncate(opts.top);
        out.ranked = ranked;
        out
    }

    /// Renders the attribution report as markdown (`profile --diff`).
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let pm = fmt_delta;
        s.push_str(&format!(
            "# Differential profile: `{}` -> `{}`\n\n",
            self.base_label, self.cand_label
        ));
        if self.partial {
            s.push_str(
                "> **PARTIAL**: at least one trace lost events (ring wraparound or \
                 orphan message delivers); attributions below are a lower bound.\n\n",
            );
        }
        s.push_str(&format!(
            "- wall-clock delta: {} | critical-path delta: {}\n",
            pm(self.wall_delta_ns),
            pm(self.path_delta_ns)
        ));
        s.push_str(&format!(
            "- DAG alignment: {}/{} vs {} tasks matched ({:.1}%{})\n",
            self.alignment.matched,
            self.alignment.base_tasks,
            self.alignment.cand_tasks,
            100.0 * self.alignment.fraction,
            if self.alignment.exact { ", exact" } else { "" }
        ));
        if self.straggler.0 != self.straggler.1 {
            s.push_str(&format!(
                "- straggler rank moved: {:?} -> {:?}\n",
                self.straggler.0, self.straggler.1
            ));
        }
        s.push('\n');

        s.push_str("## Top contributors\n\n");
        if self.ranked.is_empty() {
            s.push_str("No nonzero contributors — the runs are identical at this resolution.\n\n");
        } else {
            s.push_str(
                "| # | category | what | baseline | candidate | delta | share | location |\n",
            );
            s.push_str(
                "|---|----------|------|----------|-----------|-------|-------|----------|\n",
            );
            for (i, c) in self.ranked.iter().enumerate() {
                s.push_str(&format!(
                    "| {} | {} | `{}` | {} | {} | {} | {:.1}% | {} |\n",
                    i + 1,
                    c.category,
                    c.name,
                    fmt_ns(c.base_ns),
                    fmt_ns(c.cand_ns),
                    pm(c.delta_ns),
                    100.0 * c.share,
                    c.location
                ));
            }
            s.push('\n');
        }

        s.push_str("## Critical-path segments\n\n");
        s.push_str(
            "| kind | baseline | candidate | delta |\n|------|----------|-----------|-------|\n",
        );
        for k in &self.path_kinds {
            s.push_str(&format!(
                "| {} | {} | {} | {} |\n",
                k.name,
                fmt_ns(k.base_ns),
                fmt_ns(k.cand_ns),
                pm(k.delta_ns)
            ));
        }
        s.push('\n');

        if !self.modules.is_empty() {
            s.push_str("## Module attribution (whole-trace span time, ranked)\n\n");
            s.push_str(
                "| module:op | calls | baseline | candidate | delta | on-path delta | share of wall |\n\
                 |-----------|-------|----------|-----------|-------|---------------|---------------|\n",
            );
            for m in &self.modules {
                s.push_str(&format!(
                    "| `{}` | {} -> {} | {} | {} | {} | {} | {:.1}% -> {:.1}% |\n",
                    m.name,
                    m.base.calls,
                    m.cand.calls,
                    fmt_ns(m.base.total_ns),
                    fmt_ns(m.cand.total_ns),
                    pm(m.delta_total_ns),
                    pm(m.delta_path_ns),
                    100.0 * m.base_share,
                    100.0 * m.cand_share
                ));
            }
            s.push('\n');
        }

        if !self.workers.is_empty() {
            s.push_str("## Worker utilization\n\n");
            s.push_str(
                "| rank | worker | baseline busy | candidate busy | delta | util |\n\
                 |------|--------|---------------|----------------|-------|------|\n",
            );
            for w in &self.workers {
                s.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {:.1}% -> {:.1}% |\n",
                    w.rank.map_or("-".to_string(), |r| r.to_string()),
                    w.label,
                    fmt_ns(w.base_busy_ns),
                    fmt_ns(w.cand_busy_ns),
                    pm(w.delta_ns),
                    100.0 * w.base_util,
                    100.0 * w.cand_util
                ));
            }
            s.push('\n');
        }

        if self.queue.base.count > 0 || self.queue.cand.count > 0 {
            s.push_str("## Queue latency (spawn->begin)\n\n");
            s.push_str(
                "| | baseline | candidate | delta |\n|---|----------|-----------|-------|\n",
            );
            s.push_str(&format!(
                "| samples | {} | {} | {} |\n",
                self.queue.base.count,
                self.queue.cand.count,
                pm(d(self.queue.cand.count, self.queue.base.count))
            ));
            s.push_str(&format!(
                "| mean | {} | {} | {} |\n",
                fmt_ns(self.queue.base.mean() as u64),
                fmt_ns(self.queue.cand.mean() as u64),
                fmt_delta(self.queue.d_mean as i64)
            ));
            for (q, dq) in [
                (0.50, self.queue.d_p50),
                (0.90, self.queue.d_p90),
                (0.99, self.queue.d_p99),
            ] {
                s.push_str(&format!(
                    "| p{:.0} | {} | {} | {} |\n",
                    q * 100.0,
                    fmt_ns(self.queue.base.quantile(q)),
                    fmt_ns(self.queue.cand.quantile(q)),
                    pm(dq)
                ));
            }
            s.push('\n');
        }
        s
    }
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

fn fmt_delta(ns: i64) -> String {
    if ns < 0 {
        format!("-{}", fmt_ns(ns.unsigned_abs()))
    } else {
        format!("+{}", fmt_ns(ns.unsigned_abs()))
    }
}

impl fmt::Display for TraceDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_markdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::TraceEvent;
    use crate::{TraceData, TrackData};

    fn e(ts: u64, kind: EventKind, a: u64, b: u64, c: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: ts,
            kind,
            a,
            b,
            c,
        }
    }

    /// Two ranks ping-ponging with labeled module spans: rank 0's body
    /// task 1 spends [250, 950] in `mpi:recv`; rank 1's task 2 spends
    /// [420, 580] in `mpi:send`. Msg 10 flies 300->400, msg 11 600->700.
    /// `scale` stretches every module span's tail by that factor (the
    /// synthetic stand-in for a slowed module op).
    fn pingpong(scale: u64) -> TraceData {
        let m = crate::intern("mpi");
        let recv = crate::intern("recv");
        let send = crate::intern("send");
        let stretch = |base: u64, start: u64| start + (base - start) * scale;
        TraceData {
            tracks: vec![
                TrackData {
                    label: "hiper-worker-0".into(),
                    events: vec![
                        e(50, EventKind::TaskSpawn, 1, 0, 0),
                        e(100, EventKind::TaskBegin, 1, 0, 0),
                        e(250, EventKind::ModuleEnter, m, recv, 0),
                        e(stretch(950, 250), EventKind::ModuleExit, m, recv, 0),
                        e(stretch(1000, 250), EventKind::TaskEnd, 1, 0, 0),
                    ],
                    dropped: 0,
                    rank: Some(0),
                },
                TrackData {
                    label: "hiper-worker-0".into(),
                    events: vec![
                        e(120, EventKind::TaskSpawn, 2, 0, 0),
                        e(150, EventKind::TaskBegin, 2, 0, 0),
                        e(420, EventKind::ModuleEnter, m, send, 0),
                        e(580, EventKind::ModuleExit, m, send, 0),
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
                        e(stretch(700, 600), EventKind::MsgDeliver, 2, 1 << 32, 11),
                    ],
                    dropped: 0,
                    rank: None,
                },
            ],
        }
    }

    #[test]
    fn self_diff_is_exactly_zero() {
        let input = DiffInput::from_trace("run", &pingpong(1));
        let diff = TraceDiff::build(&input, &input, DiffOptions::default());
        assert_eq!(diff.wall_delta_ns, 0);
        assert_eq!(diff.path_delta_ns, 0);
        assert!(
            diff.ranked.is_empty(),
            "no nonzero contributor: {:?}",
            diff.ranked
        );
        assert!(diff.path_kinds.iter().all(|k| k.delta_ns == 0));
        assert!(diff.modules.iter().all(|m| m.delta_total_ns == 0));
        assert!(diff.workers.iter().all(|w| w.delta_ns == 0));
        assert!(diff.alignment.exact);
        assert!((diff.alignment.fraction - 1.0).abs() < 1e-12);
        assert!(!diff.partial);
    }

    #[test]
    fn module_slowdown_is_attributed_to_the_module() {
        let base = DiffInput::from_trace("base", &pingpong(1));
        let cand = DiffInput::from_trace("cand", &pingpong(2));
        let diff = TraceDiff::build(&base, &cand, DiffOptions::default());
        assert!(diff.wall_delta_ns > 0, "stretched run is slower");
        let top_module = diff
            .ranked
            .iter()
            .find(|c| c.category == "module")
            .expect("module contributor present");
        assert_eq!(top_module.name, "mpi:recv", "ranked: {:?}", diff.ranked);
        assert!(top_module.delta_ns > 0);
        assert_eq!(diff.modules[0].name, "mpi:recv");
        assert!(
            top_module.location.contains("critical path"),
            "slowed module sits on the path: {}",
            top_module.location
        );
        // Alignment still matches: the DAG shape did not change.
        assert!(diff.alignment.exact);
    }

    #[test]
    fn on_path_module_time_matches_path_module_total() {
        let input = DiffInput::from_trace("run", &pingpong(1));
        let per_label: u64 = input.modules.values().map(|m| m.path_ns).sum();
        let kind_total = input.path_kind_ns[kind_index(SegmentKind::Module)];
        assert_eq!(
            per_label, kind_total,
            "labeled on-path module time tiles the path's module segments"
        );
        assert!(kind_total > 0, "the recv span sits on the path");
    }

    #[test]
    fn dag_signatures_ignore_task_ids() {
        // Same shape, shifted ids and timestamps: signatures must match.
        let shape = |id0: u64, t0: u64| {
            let mut tasks = BTreeMap::new();
            tasks.insert(
                id0,
                TaskRec {
                    parent: 0,
                    spawn_ts: t0,
                    begin_ts: t0 + 1,
                    track: 0,
                },
            );
            for k in 0..3u64 {
                tasks.insert(
                    id0 + 1 + k,
                    TaskRec {
                        parent: id0,
                        spawn_ts: t0 + 10 + k,
                        begin_ts: t0 + 20 + k,
                        track: 0,
                    },
                );
            }
            dag_signatures(&tasks)
        };
        assert_eq!(shape(1, 100), shape(501, 9_000));
        // A different shape (one child moved under another) diverges.
        let mut tasks = BTreeMap::new();
        tasks.insert(
            1,
            TaskRec {
                parent: 0,
                spawn_ts: 100,
                begin_ts: 101,
                track: 0,
            },
        );
        tasks.insert(
            2,
            TaskRec {
                parent: 1,
                spawn_ts: 110,
                begin_ts: 120,
                track: 0,
            },
        );
        tasks.insert(
            3,
            TaskRec {
                parent: 2,
                spawn_ts: 111,
                begin_ts: 121,
                track: 0,
            },
        );
        tasks.insert(
            4,
            TaskRec {
                parent: 1,
                spawn_ts: 112,
                begin_ts: 122,
                track: 0,
            },
        );
        assert_ne!(shape(1, 100), dag_signatures(&tasks));
    }

    #[test]
    fn partial_traces_are_flagged() {
        let mut data = pingpong(1);
        data.tracks[2].events.remove(2); // lose the send of msg 11
        data.tracks[2].dropped = 1;
        let base = DiffInput::from_trace("base", &pingpong(1));
        let cand = DiffInput::from_trace("cand", &data);
        assert!(cand.partial());
        let diff = TraceDiff::build(&base, &cand, DiffOptions::default());
        assert!(diff.partial);
        assert!(diff.to_markdown().contains("PARTIAL"));
    }

    #[test]
    fn markdown_renders() {
        let base = DiffInput::from_trace("base", &pingpong(1));
        let cand = DiffInput::from_trace("cand", &pingpong(3));
        let diff = TraceDiff::build(&base, &cand, DiffOptions { top: 5 });
        let md = diff.to_markdown();
        assert!(md.contains("Top contributors"));
        assert!(md.contains("mpi:recv"));
        assert!(md.contains("Critical-path segments"));
        assert!(!diff.ranked.is_empty() && diff.ranked.len() <= 5);
    }
}
